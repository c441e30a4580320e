"""Per-layer tracing of graphuniform, done from outside the package.

`Tracer.install()` replaces public functions of the program's modules with
wrappers that record a span (name, start, end, parent) per call, plus
counters measured where the work happens.  The hyperboloid kernel and
`SurfaceModel.word_matrix` run tens of thousands of times per solve, so
their calls are only counted and timed, never kept as spans; they always
run inside a kept span, so no self time is lost.  `uninstall()` puts the
original functions back.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

# Wrapped in graphuniform.solver only: the kernel as the solver calls it.
KERNEL = ("exp_arr", "log_arr", "dist_arr")

# (module, function, span name); every module binding of the function is wrapped.
FUNCTIONS = (
    ("solver", "solve", "solver.solve"),
    ("solver", "uniqueness_probe", "solver.uniqueness_probe"),
    ("solver", "gauge_fix", "solver.gauge_fix"),
    ("solver", "hessian_fd", "solver.hessian_fd"),
    ("maps", "energy", "maps.energy"),
    ("maps", "balanced_residual", "maps.balanced_residual"),
    ("variations", "hessian_consistency", "variations.hessian_consistency"),
    ("serialize", "read_json", "serialize.read"),
    ("serialize", "write_artifact", "serialize.write"),
    ("cli", "main", "cli.main"),
)

# (module, class, method, span name)
METHODS = (
    ("maps", "MarkedMap", "__post_init__", "maps.MarkedMap"),
    ("surfaces", "MetricFamily", "build", "surfaces.family_build"),
    ("surfaces", "SurfaceModel", "word_matrix", "surfaces.word_matrix"),
    ("families", "EnergyEvaluator", "energy", "families.eval"),
)

HOT = {"surfaces.word_matrix"} | {f"hyperboloid.{name}" for name in KERNEL}
SPANS = [f"hyperboloid.{name}" for name in KERNEL] + [f[2] for f in FUNCTIONS] + [m[3] for m in METHODS]
COUNTS = ["solver.iterations", "solver.line_search_trials", "families.inner_iterations",
          "serialize.write.bytes"] + [f"hyperboloid.{name}.rows" for name in KERNEL]


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[tuple[str, int]] = []  # (name, span index) of open spans
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, fn, name: str, after=None):
        tracer = self
        if name in HOT:
            # every exp_arr call the solve loop makes is one line-search trial
            trial = name == "hyperboloid.exp_arr"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if trial and tracer._open and tracer._open[-1][0] == "solver.solve":
                    tracer.counts["solver.line_search_trials"] += 1
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                tracer.seconds[name] += time.perf_counter() - start
                tracer.calls[name] += 1
                if after is not None:
                    after(args, result)
                return result

            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            parent = tracer._open[-1][1] if tracer._open else None
            index = len(tracer.spans)
            tracer.spans.append((name, 0.0, 0.0, parent))
            tracer._open.append((name, index))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._open.pop()
                tracer.calls[name] += 1
                tracer.seconds[name] += end - start
                tracer.spans[index] = (name, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return spanned

    def _after_solve(self, _args, trace):
        self.counts["solver.iterations"] += trace.iterations

    def _after_eval(self, args, _value):
        self.counts["families.inner_iterations"] += args[0].last_trace.iterations

    def _after_write(self, args, _result):
        self.counts["serialize.write.bytes"] += os.path.getsize(args[0])

    def _after_kernel(self, name):
        def count_rows(args, _result):
            self.counts[f"hyperboloid.{name}.rows"] += len(args[0]) if args[0].ndim > 1 else 1
        return count_rows

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the layer functions in every loaded graphuniform module."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "graphuniform" or key.startswith("graphuniform.")]
        solver = sys.modules["graphuniform.solver"]
        for fname in KERNEL:
            orig = getattr(solver, fname)
            self._set(solver, fname, self._wrap(orig, f"hyperboloid.{fname}", self._after_kernel(fname)))
        after = {"solver.solve": self._after_solve, "serialize.write": self._after_write}
        for mod, fname, name in FUNCTIONS:
            orig = getattr(sys.modules[f"graphuniform.{mod}"], fname)
            wrapped = self._wrap(orig, name, after.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        self._set(module, attr, wrapped)
        for mod, cls_name, method, name in METHODS:
            cls = getattr(sys.modules[f"graphuniform.{mod}"], cls_name)
            orig = cls.__dict__[method]
            self._set(cls, method, self._wrap(orig, name, self._after_eval if name == "families.eval" else None))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- reporting ------------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Additive per-layer figures accumulated so far."""
        out = {key: self.counts[key] for key in COUNTS}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.seconds[name]
        child: dict[int, float] = defaultdict(float)
        for _name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out["cli.self_s"] = sum(end - start - child[i] for i, (name, start, end, _parent)
                                in enumerate(self.spans) if name == "cli.main")
        return out


# Reported per-layer metrics that read an additive figure of another name.
RENAMED = {"maps.MarkedMap.constructs": "maps.MarkedMap.calls", "families.evaluations": "families.eval.calls"}
REPORTED = (
    [f"hyperboloid.{name}.{part}" for name in KERNEL for part in ("calls", "s", "rows")]
    + ["solver.solve.calls", "solver.solve.s", "solver.iterations", "solver.line_search_trials",
       "solver.uniqueness_probe.s", "solver.gauge_fix.calls", "solver.gauge_fix.s", "solver.hessian_fd.s",
       "maps.MarkedMap.constructs", "maps.MarkedMap.s", "maps.energy.calls", "maps.energy.s",
       "maps.balanced_residual.calls", "maps.balanced_residual.s",
       "surfaces.family_build.calls", "surfaces.family_build.s",
       "surfaces.word_matrix.calls", "surfaces.word_matrix.s",
       "families.evaluations", "families.inner_iterations", "families.eval.s",
       "variations.hessian_consistency.s", "serialize.read.calls", "serialize.read.s",
       "serialize.write.calls", "serialize.write.s", "serialize.write.bytes", "cli.self_s"]
)


def _unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    return "bytes" if name.endswith(".bytes") else "count"


def per_layer(setup: dict[str, float], total: dict[str, float], rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics for one set-up plus one traced round (their mean).

    `setup` holds the totals after the traced set-up, `total` after the last
    traced round.
    """
    v = {key: setup[key] + (total[key] - setup[key]) / rounds for key in total}
    out = {name: (v[RENAMED.get(name, name)], _unit(name)) for name in REPORTED}
    iters = v["solver.iterations"]
    out["solver.us_per_iter"] = (1e6 * v["solver.solve.s"] / iters if iters else 0.0, "us")
    out["solver.backtracks"] = (v["solver.line_search_trials"] - iters, "count")
    return out
