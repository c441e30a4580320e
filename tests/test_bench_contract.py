"""The benchmark's tracer (bench/tracer.py) wraps library functions by
module and name.  A rename inside the library breaks it only in a traced
run, which the benchmark's smoke mode never makes, so this test installs
the tracer and checks that every traced name resolves, that every binding
of a traced function is wrapped, and that uninstalling puts the originals
back."""

import importlib
import importlib.util
import sys
from pathlib import Path

import graphuniform
import graphuniform.cli  # noqa: F401  loads every module the benchmark imports

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(name):
    return importlib.import_module(f"graphuniform.{name}")


def test_tracer_hooks_resolve_and_uninstall_restores_them():
    tracer = _tracer_module()
    solver = _module("solver")
    hooks = [(solver, name) for name in tracer.KERNEL]
    hooks += [(_module(mod), fname) for mod, fname, _ in tracer.FUNCTIONS]
    originals = {(owner, name): getattr(owner, name) for owner, name in hooks}
    methods = {(cls, meth): vars(cls)[meth] for cls, meth in
               ((getattr(_module(mod), cls_name), meth) for mod, cls_name, meth, _ in tracer.METHODS)}
    package = [m for key, m in sys.modules.items() if key == "graphuniform" or key.startswith("graphuniform.")]
    assert graphuniform in package

    t = tracer.Tracer()
    t.install()
    try:
        for (owner, name), orig in originals.items():
            assert getattr(owner, name).__wrapped__ is orig, f"{owner.__name__}.{name}"
        for (cls, meth), orig in methods.items():
            assert vars(cls)[meth].__wrapped__ is orig, f"{cls.__name__}.{meth}"
        # every module binding of a traced function is wrapped, re-exports too
        traced = {id(orig) for (owner, _), orig in originals.items() if owner is not solver}
        for module in package:
            for attr, value in vars(module).items():
                assert id(value) not in traced, f"{module.__name__}.{attr} is not wrapped"
    finally:
        t.uninstall()

    for (owner, name), orig in originals.items():
        assert getattr(owner, name) is orig, f"{owner.__name__}.{name}"
    for (cls, meth), orig in methods.items():
        assert vars(cls)[meth] is orig, f"{cls.__name__}.{meth}"
