"""Oracle-checked benchmark of graphuniform, in one single-threaded process.

Run from the repository root:

    python3 bench/run.py --workload solve-ladder --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Workloads (see bench/README.md): solve-ladder, optimize-family, probe-verify.
A run sets up once per set-up repetition, then repeats whole rounds of the
workload's operations until --seconds have passed, checks every output
against bench/oracle.py, and prints one JSON object as its last line:
correct, attempted, failed and the metrics (end-to-end with --trace 0,
per-layer with --trace 1).
"""

import time

_START = time.perf_counter()

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GU_THREADS", None)

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = ROOT / "src" / "graphuniform"
if not (PROGRAM / "__init__.py").is_file():
    sys.exit(f"error: no program source at {PROGRAM}")
sys.path.insert(0, str(PROGRAM.parent))

import numpy as np

import graphuniform as gu
from graphuniform import cli

import inputs
import oracle
from tracer import Tracer, per_layer

if Path(gu.__file__).resolve().parent != PROGRAM:
    sys.exit(f"error: imported graphuniform from {gu.__file__}, not from {PROGRAM}")
_IMPORT_S = time.perf_counter() - _START

SEAM = math.log(2.0 + math.sqrt(3.0))  # equal-weight minimiser; the ladder's fixed seam
# k = 32 fails every time: SolverConfig defaults stop at max_iters, residual ~9e-7
LADDER = (1, 2, 4, 8, 16, 32)
PERTURBATION = 0.05
# Seed of every solve start.  The line search stalls on a few per cent of
# seeded starts once k >= 2 (CHANGES.md, FOUND), so starts drawn from --seed
# would fail on some seeds and not on others.
START_SEED = 0
RATIOS = (0.25, 0.5, 1.0, 2.0, 4.0)
PROBE_SEAMS = (1.0, SEAM, 2.0)
PROBE_FOLDS = (1, 2, 4)
PROBE_STARTS = 4
HESSIAN_FOLD = 2
HESSIAN_SAMPLES = 4
HESSIAN_STEP = 1e-3  # at the default 1e-4 the FD Hessian is dominated by rounding
SETUP_REPEATS = 5
CALIBRATION_LOOPS = 2000
CALIBRATION_REF_S = 0.015  # calibrate() takes 14-26 ms (5th-95th percentile) on the reference machine

TOL = 1e-9  # graphuniform solve default
# The program evaluates the residual in float64, which differs from the
# long-double recomputation by up to 5e-13 on the ladder maps (k = 16 stops at
# 9.9989e-10 by its own count, 1.00009e-9 recomputed), so the gate is 1% above TOL.
RESIDUAL_SLACK = 1e-11
ENERGY_RTOL = 1e-9
THETA_TOL = 1e-6
GAUGE_TOL = 1e-7
HESSIAN_TOL = 1e-4


@dataclass
class Op:
    name: str
    seconds: float  # wall time as measured
    scaled: float  # wall time at the reference host speed (Clock)
    failed: bool
    errors: list[str] = field(default_factory=list)
    info: str = ""

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(f"{self.name}: {what}")


def _rel(value: float, exact: float) -> float:
    return abs(value - exact) / abs(exact)


_CAL_POINTS = np.linspace(-1.0, 1.0, 600).reshape(200, 3)


def calibrate() -> float:
    """Wall time of a fixed loop of small-array numpy calls, the kind of work
    the solver does; it reads how fast the host runs right now."""
    start = time.perf_counter()
    for _ in range(CALIBRATION_LOOPS):
        y = np.einsum("ij,ij->i", _CAL_POINTS, _CAL_POINTS)
        float(np.sum(np.sqrt(y)))
    return time.perf_counter() - start


class Clock:
    """Times operations and scales each to the reference host speed.

    The host is a shared 2-core machine whose speed swings by up to 1.6x for
    seconds at a time (the same code, CPU time equal to wall time).  Each
    operation is bracketed by calibrate() runs, and its wall time is scaled
    by CALIBRATION_REF_S over the mean of the two.
    """

    def __init__(self):
        calibrate()  # the first call pays one-off costs
        self._last = calibrate()

    def run(self, name: str, fn, failed) -> tuple[object, Op]:
        before = self._last
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        self._last = calibrate()
        scale = CALIBRATION_REF_S / (0.5 * (before + self._last))
        return result, Op(name, seconds, seconds * scale, failed(result))


def _quiet_cli(argv: list[str]) -> int:
    """Exit code of one in-process graphuniform command, its output dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _family_map(s: float):
    """(surface, map document) of the harmonic genus-2 map at seam s."""
    surface, graph, ref = gu.family("hexagon-genus2").build(s)
    doc = {
        "surface": {"genus": surface.genus,
                    "generators": [g.matrix.tolist() for g in surface.generators]},
        "graph": {"vertices": graph.vertex_count,
                  "edges": [{"from": u, "to": v, "weight": w, "class": c}
                            for (_e, u, v, w, c) in graph.unoriented_edges()]},
        "vertex_lifts": [p.coords.tolist() for p in ref.vertex_lifts],
        "edge_decks": [list(ref.deck_words[e]) for (e, *_rest) in graph.unoriented_edges()],
    }
    return surface, doc


def _graph_of(doc: dict):
    return gu.WeightedGraph.from_edges(
        doc["graph"]["vertices"],
        [(e["from"], e["to"], e["weight"], e["class"]) for e in doc["graph"]["edges"]])


# --------------------------------------------------------------------------
# solve-ladder


def setup_ladder(seed: int, out: Path, smoke: bool) -> list[tuple[int, dict, Path, Path]]:
    _surface, base = _family_map(SEAM)
    rungs = []
    for k in LADDER[:1] if smoke else LADDER:
        doc = inputs.perturb(inputs.subdivide(base, k), PERTURBATION, np.random.default_rng(START_SEED))
        path = out / f"ladder-k{k}.json"
        inputs.write_map(str(path), doc)
        rungs.append((k, doc, path, out / f"ladder-k{k}.solved.json"))
    return rungs


def round_ladder(rungs, clock: Clock) -> list[Op]:
    ops = []
    exact = oracle.hexagon_energy(SEAM, 1.0, 1.0)
    for k, doc, path, art_path in rungs:
        argv = ["solve", "--map", str(path), "--out", str(art_path)]
        code, op = clock.run(f"solve k={k}", lambda: _quiet_cli(argv), lambda code: code != 0)
        ops.append(op)
        op.check(code in (0, 3), f"exit code {code}")
        if code not in (0, 3):
            continue
        art = json.loads(art_path.read_text(encoding="utf-8"))
        solved = art["map"]
        energy, residual = oracle.recompute(solved)
        op.info = (f"V={solved['graph']['vertices']} iterations={art['iterations']} "
                   f"residual={residual:.3e} energy error={_rel(energy, exact):.1e}")
        if op.failed:
            continue
        op.check(art["converged"], "artifact says not converged")
        op.check(_rel(art["energy"], exact) <= ENERGY_RTOL, f"reported energy {art['energy']!r} vs {exact!r}")
        op.check(_rel(energy, exact) <= ENERGY_RTOL, f"recomputed energy {energy!r} vs {exact!r}")
        op.check(residual <= TOL + RESIDUAL_SLACK, f"recomputed residual {residual:.3e}")
        op.check(solved["edge_decks"] == doc["edge_decks"] and solved["graph"] == doc["graph"]
                 and solved["surface"]["generators"] == doc["surface"]["generators"],
                 "graph, deck words or generators changed")
        trace_lines = Path(f"{art_path}.trace.jsonl").read_text(encoding="utf-8").splitlines()
        op.check(len(trace_lines) == art["iterations"] + 1, "trace length differs from iterations + 1")
    return ops


# --------------------------------------------------------------------------
# optimize-family


def setup_optimize(seed: int, out: Path, smoke: bool) -> list[tuple[float, list[str], Path]]:
    runs = []
    for i, ratio in enumerate((1.0,) if smoke else RATIOS):
        art = out / f"optimize-{i}.json"
        argv = ["optimize", "--family", "hexagon-genus2", "--mc", repr(ratio), "--md", "1",
                "--tol", "1e-8", "--seed", str(seed), "--out", str(art)]
        runs.append((ratio, argv, art))
    return runs


def round_optimize(runs, clock: Clock) -> list[Op]:
    ops = []
    for ratio, argv, art_path in runs:
        code, op = clock.run(f"optimize m_c/m_d={ratio:g}", lambda: _quiet_cli(argv), lambda code: code != 0)
        ops.append(op)
        if op.failed:
            continue
        art = json.loads(art_path.read_text(encoding="utf-8"))
        s_star = oracle.minimiser(ratio)
        theta, value = art["theta_star"], art["energy_star"]
        op.info = f"theta error={abs(theta - s_star):.1e}"
        op.check(abs(theta - s_star) <= THETA_TOL, f"theta {theta!r} vs {s_star!r}")
        op.check(_rel(value, oracle.hexagon_energy(s_star, ratio, 1.0)) <= ENERGY_RTOL,
                 f"energy {value!r} vs closed form at s*")
        if ratio == 1.0:
            op.check(abs(theta - SEAM) <= THETA_TOL, f"theta {theta!r} vs log(2+sqrt 3)")
    return ops


# --------------------------------------------------------------------------
# probe-verify


@dataclass
class ProbeState:
    probes: list  # (seam, k, surface, graph, deck words)
    hessian: list  # (seam, start map)
    control: tuple  # (surface, graph, deck words)
    seed: int


def setup_probe(seed: int, out: Path, smoke: bool) -> ProbeState:
    probes, hessian = [], []
    for s in (SEAM,) if smoke else PROBE_SEAMS:
        surface, base = _family_map(s)
        for k in (1,) if smoke else PROBE_FOLDS:
            doc = inputs.subdivide(base, k)
            probes.append((s, k, surface, _graph_of(doc), tuple(tuple(w) for w in doc["edge_decks"])))
        doc = inputs.subdivide(base, 1 if smoke else HESSIAN_FOLD)
        start = inputs.perturb(doc, PERTURBATION, np.random.default_rng(START_SEED))
        lifts = tuple(gu.HPoint(np.array(p)) for p in start["vertex_lifts"])
        hessian.append((s, gu.MarkedMap.from_unoriented_words(
            surface, _graph_of(doc), lifts, tuple(tuple(w) for w in doc["edge_decks"]))))
    control = (gu.build_regular_4g_surface(2), gu.bouquet(1), ((1,),))
    return ProbeState(probes, hessian, control, seed)


def round_probe(state: ProbeState, clock: Clock) -> list[Op]:
    ops = []
    not_converged = lambda rep: not all(rep.converged)
    for s, k, surface, graph, words in state.probes:
        rep, op = clock.run(
            f"probe s={s:.4f} k={k}",
            lambda: gu.uniqueness_probe(surface, graph, words, PROBE_STARTS, gu.SolverConfig(seed=START_SEED)),
            not_converged)
        ops.append(op)
        if op.failed:
            continue
        exact = oracle.hexagon_energy(s, 1.0, 1.0)
        op.info = (f"gauge deviation={rep.max_gauge_deviation:.1e} "
                   f"energy error={max(_rel(e, exact) for e in rep.energies):.1e}")
        op.check(rep.max_gauge_deviation <= GAUGE_TOL, f"gauge deviation {rep.max_gauge_deviation:.3e}")
        op.check(not rep.degenerate, "flagged degenerate")
        op.check(all(_rel(e, exact) <= ENERGY_RTOL for e in rep.energies), f"energies {rep.energies!r} vs {exact!r}")
    for s, start_map in state.hessian:
        def solve_and_check():
            trace = gu.solve(start_map)
            return trace, gu.hessian_consistency(trace.final_map, HESSIAN_SAMPLES, seed=state.seed, h=HESSIAN_STEP)

        (trace, report), op = clock.run(f"hessian s={s:.4f}", solve_and_check, lambda r: not r[0].converged)
        ops.append(op)
        op.info = f"deviation={report.max_relative_deviation:.1e}"
        if not op.failed:
            op.check(report.max_relative_deviation < HESSIAN_TOL,
                     f"Hessian deviation {report.max_relative_deviation:.3e}")
    surface, graph, words = state.control
    rep, op = clock.run(
        "control bouquet(1) on the octagon",
        lambda: gu.uniqueness_probe(surface, graph, words, PROBE_STARTS, gu.SolverConfig(seed=state.seed)),
        not_converged)
    ops.append(op)
    op.check(rep.degenerate and not rep.ok, "degenerate control not flagged")
    return ops


WORKLOADS = {
    "solve-ladder": (setup_ladder, round_ladder),
    "optimize-family": (setup_optimize, round_optimize),
    "probe-verify": (setup_probe, round_probe),
}


# --------------------------------------------------------------------------
# running a workload


def _rounds(run_round, state, seconds: float, clock: Clock, tracer: Tracer | None):
    """Whole rounds until `seconds` pass.  With a tracer, rounds alternate
    untraced and traced, so both wall times come from the same inputs."""
    untraced, traced, ops = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        for with_trace in (False, True) if tracer else (False,):
            if with_trace:
                tracer.install()
            try:
                round_ops = run_round(state, clock)
            finally:
                if with_trace:
                    tracer.uninstall()
            (traced if with_trace else untraced).append(sum(op.scaled for op in round_ops))
            ops += round_ops
        if time.perf_counter() >= deadline:
            return untraced, traced, ops


def run(workload: str, seed: int, seconds: float, trace: bool, out: Path, smoke: bool = False) -> dict:
    setup, run_round = WORKLOADS[workload]
    tracer = Tracer() if trace else None
    clock = Clock()
    if tracer:
        tracer.install()
        try:
            state = setup(seed, out, smoke)
        finally:
            tracer.uninstall()
        after_setup = tracer.totals()
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            state, op = clock.run("set-up", lambda: setup(seed, out, smoke), lambda _state: False)
            setups.append(op)
        import_scaled = _IMPORT_S * statistics.median(op.scaled / op.seconds for op in setups)
    untraced, traced, ops = _rounds(run_round, state, seconds, clock, tracer)

    if tracer:
        values = per_layer(after_setup, tracer.totals(), len(traced))
        values["trace.wall_s"] = (statistics.median(traced), "s")
        values["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    else:
        values = {
            "wall_s": (statistics.median(untraced), "s"),
            "setup_s": (import_scaled + statistics.median(op.scaled for op in setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    errors = [e for op in ops for e in op.errors]
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    rounds = len(untraced) + len(traced)
    print(f"{workload}: {rounds} rounds; first round, wall and scaled seconds:")
    for op in ops[:len(ops) // rounds]:
        status = "FAILED" if op.failed else "ok"
        print(f"  {op.name:<36} {op.seconds:9.4f} {op.scaled:9.4f}  {status:<6} {op.info}")
    return {
        "correct": not errors,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round of the smallest input of every workload")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    out = ROOT / ".bench_out" / f"{args.workload or 'smoke'}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        if args.smoke:
            results = {w: run(w, args.seed, 0.0, False, out, smoke=True) for w in WORKLOADS}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
            }
        else:
            result = run(args.workload, args.seed, args.seconds, bool(args.trace), out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(result))
    # a measured run reports its verdict in `correct`; only smoke mode fails on it
    return 0 if result["correct"] or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
