"""Every exported name, and every function, class and method the library
defines, has a caller in the library or the benchmark.

A name counts as used when some `ast.Name` or `ast.Attribute` in
`src/graphuniform/*.py` (other than `__init__.py`, and outside the name's own
`def` or `class`) or in `bench/*.py` refers to it.  Docstrings and comments
do not count, and there is no allowlist: API that only the tests call
belongs in the tests.  Dunder methods are called by Python itself and are
left out.
"""

import ast
from collections import Counter
from pathlib import Path

import graphuniform

ROOT = Path(__file__).resolve().parent.parent


def _references(tree: ast.AST) -> Counter:
    """How often each name or attribute name is referred to in tree."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
    return found


LIBRARY = [ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "graphuniform").glob("*.py"))
           if p.name != "__init__.py"]
LIBRARY_REFERENCES = sum(map(_references, LIBRARY), Counter())
BENCH_REFERENCES = sum((_references(ast.parse(p.read_text())) for p in sorted((ROOT / "bench").glob("*.py"))),
                       Counter())
DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
DEFINED = [node for tree in LIBRARY for node in ast.walk(tree) if isinstance(node, DEFINITION)]


def _uncalled(name: str, body: ast.AST | None) -> bool:
    """No reference to name in the benchmark, and none in the library
    outside body (its def or class, if any)."""
    return not BENCH_REFERENCES[name] and LIBRARY_REFERENCES[name] <= (_references(body)[name] if body else 0)


def test_every_exported_name_has_a_caller_in_the_library_or_the_benchmark():
    own = {node.name: node for tree in LIBRARY for node in tree.body if isinstance(node, DEFINITION)}
    unused = [name for name in graphuniform.__all__ if _uncalled(name, own.get(name))]
    assert not unused, f"exported but called only from the tests: {unused}"


def test_every_function_class_and_method_has_a_caller_in_the_library_or_the_benchmark():
    unused = sorted({node.name for node in DEFINED
                     if not (node.name.startswith("__") and node.name.endswith("__")) and _uncalled(node.name, node)})
    assert not unused, f"defined in src/ but called only from the tests: {unused}"
