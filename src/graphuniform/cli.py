"""Command-line interface.

Subcommands: solve (harmonic map at a fixed surface), optimize (energy
minimization over a metric family), example (reproduce built-in worked
examples as PASS/FAIL tables), check (the internal checks and every example
at its defaults), render (Poincare-disk SVG figures).  The checks live in
`selfcheck`; this module parses, dispatches and prints.

Exit codes: 0 success, 2 bad input file or usage, 3 solver did not converge,
4 domain/geometry error, 5 a check or example criterion failed.  A standard
output that its reader closed changes none of them.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .errors import (
    BracketError,
    DomainError,
    GeometryError,
    GraphValidationError,
    NonConvergenceError,
    SchemaError,
)
from .families import lagrange_solve, minimize_1d
from .maps import initial_lifts
from .solver import SolverConfig, solve
from .surfaces import family
from . import serialize


def _say(text: str) -> None:
    """Print a line of the command's output.  Once the reader has closed
    standard output (`graphuniform check | head -1`), the rest is dropped,
    print() writing nothing while sys.stdout is None: the command still
    finishes and returns its own exit code."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        sys.stdout = None


# --------------------------------------------------------------------------
# solve


def cmd_solve(args) -> int:
    """Solve a map document; write the artifact and its iteration trace.

    The artifact's `energy`, like the trace's, is the solver's float64
    `EdgeData.energy` of the last iterate.  Near the ends of the
    `hexagon-genus2` domain it is 30 to 10,000 times further off the closed
    form than `maps.energy` of the same map, the long-double energy that
    `optimize` searches."""
    doc = serialize.read_json(args.map)
    surface = graph = None
    inputs = [args.map]
    if args.surface:
        surface = serialize.surface_from_json(serialize.read_json(args.surface))
        inputs.append(args.surface)
    if args.graph:
        graph = serialize.graph_from_json(serialize.read_json(args.graph))
        inputs.append(args.graph)
    m = serialize.map_from_json(doc, surface, graph)
    if args.init != "map":
        m = m.with_lifts(initial_lifts(m.surface, m.graph, args.init, args.seed))

    # the manifest rejects a bad SOURCE_DATE_EPOCH, so build it before the solve
    manifest = serialize.make_manifest(
        "solve", inputs, {"seed": args.seed, "init": args.init},
        {"residual_tol": args.tol, "max_iters": args.max_iters})
    cfg = SolverConfig(residual_tol=args.tol, max_iters=args.max_iters)
    trace = solve(m, cfg)
    final_energy, max_residual = trace.energies[-1], trace.residuals[-1]

    payload = {
        "manifest": manifest,
        "converged": trace.converged,
        "stop_reason": trace.stop_reason,
        "iterations": trace.iterations,
        "energy": final_energy,
        "max_residual": max_residual,
        "map": serialize.map_to_json(trace.final_map),
    }
    # the trace first: a trace path that cannot be written leaves --out as it was
    trace_path = args.trace if args.trace else args.out + ".trace.jsonl"
    serialize.write_text(trace_path, serialize.trace_jsonl(trace))
    serialize.write_artifact(args.out, payload)

    if trace.converged:
        _say(f"converged in {trace.iterations} iterations   "
             f"energy {final_energy:.12g}   max residual {max_residual:.3e}")
    else:
        _say(f"did not converge ({trace.stop_reason}) after {trace.iterations} iterations   "
             f"max residual {max_residual:.3e}")
    _say(f"wrote {args.out}\nwrote {trace_path}")
    return 0 if trace.converged else 3


# --------------------------------------------------------------------------
# optimize


def cmd_optimize(args) -> int:
    fam = family(args.family, weights=(args.mc, args.md))
    manifest = None
    if args.out:  # rejects a bad SOURCE_DATE_EPOCH before the search
        manifest = serialize.make_manifest(
            "optimize", [],
            {"seed": args.seed},
            {"search_tol": args.tol, "residual_tol": args.solver_tol,
             "max_iters": args.max_iters})
    cfg = SolverConfig(residual_tol=args.solver_tol, max_iters=args.max_iters)
    theta, value = minimize_1d(fam, (args.bracket[0], args.bracket[1]), tol=args.tol, cfg=cfg)
    sol = lagrange_solve(args.mc / args.md)

    _say(f"minimizer s* = {theta:.8f}   energy E* = {value:.10g}\n"
         f"stationarity cross-check: s = {sol.s:.8f}  |difference| = {abs(theta - sol.s):.3e}\n"
         f"  closure residual {abs(sol.constraint_residual):.3e}   "
         f"stationarity residual {abs(sol.stationarity_residual):.3e}")

    if args.out:
        payload = {
            "manifest": manifest,
            "family": args.family,
            "weights": {"m_c": args.mc, "m_d": args.md},
            "bracket": [args.bracket[0], args.bracket[1]],
            "theta_star": theta,
            "energy_star": value,
            "stationarity": {
                "s": sol.s, "t": sol.t,
                "constraint_residual": sol.constraint_residual,
                "stationarity_residual": sol.stationarity_residual,
            },
            "agreement": abs(theta - sol.s),
        }
        serialize.write_artifact(args.out, payload)
        _say(f"wrote {args.out}")
    return 0


# --------------------------------------------------------------------------
# example


def cmd_example(args) -> int:
    from .selfcheck import example_hexagon_genus2, example_klein, example_regular_4g

    if args.name == "hexagon-genus2":
        return _print_table(example_hexagon_genus2(args.mc, args.md))
    if args.name == "regular-4g":
        return _print_table(example_regular_4g(args.genus))
    return _print_table(example_klein())


# --------------------------------------------------------------------------
# check / render


def cmd_check(args) -> int:
    from .selfcheck import run_all

    return _print_table(run_all())


def _print_table(results) -> int:
    from .selfcheck import summary_table

    _say(summary_table(results))
    return 0 if all(r.ok for r in results) else 5


def cmd_render(args) -> int:
    from .render import render_map_svg, render_surface_svg

    if args.map:
        doc = serialize.read_json(args.map)
        if isinstance(doc, dict) and "vertex_lifts" not in doc and "map" in doc:
            doc = doc["map"]  # solve artifacts nest the map payload
        m = serialize.map_from_json(doc)
        svg = render_map_svg(m, translate_depth=args.depth, size=args.size)
    else:
        surface = serialize.surface_from_json(serialize.read_json(args.surface))
        svg = render_surface_svg(surface, translate_depth=args.depth, size=args.size)
    serialize.write_text(args.out, svg)
    _say(f"wrote {args.out}")
    return 0


# --------------------------------------------------------------------------
# parser


def positive_float(text: str) -> float:
    """argparse type: a finite positive number."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


@functools.cache  # once per process: a parser is ~285 objects in cycles only a full gc frees
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphuniform",
        description="Discrete harmonic maps from weighted graphs into hyperbolic surfaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the balanced-map equations at a fixed surface")
    p.add_argument("--map", required=True, help="map JSON (lifts + deck words [+ surface/graph])")
    p.add_argument("--surface", help="surface JSON overriding the one embedded in the map")
    p.add_argument("--graph", help="graph JSON overriding the one embedded in the map")
    p.add_argument("--init", choices=["map", "barycenter", "random"], default="map",
                   help="starting lifts: from the map file, or reseeded")
    p.add_argument("--seed", type=int, default=0, help="seeds --init random; unused otherwise")
    p.add_argument("--tol", type=positive_float, default=1e-9, help="max residual norm for convergence")
    p.add_argument("--max-iters", type=int, default=10000)
    p.add_argument("--out", required=True, help="output artifact path")
    p.add_argument("--trace", help="iteration trace path (default: OUT.trace.jsonl)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("optimize", help="minimize harmonic energy over a metric family")
    p.add_argument("--family", default="hexagon-genus2")
    p.add_argument("--mc", type=positive_float, default=1.0, help="weight of c-class edges")
    p.add_argument("--md", type=positive_float, default=1.0, help="weight of d-class edges")
    p.add_argument("--bracket", type=float, nargs=2, default=[0.5, 3.0], metavar=("LO", "HI"))
    p.add_argument("--tol", type=positive_float, default=1e-8, help="parameter search tolerance")
    p.add_argument("--solver-tol", type=positive_float, default=1e-9)
    p.add_argument("--max-iters", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the artifact's manifest; the search draws no random numbers")
    p.add_argument("--out", help="optional output artifact path")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("example", help="reproduce a built-in worked example")
    p.add_argument("name", choices=["regular-4g", "hexagon-genus2", "klein"])
    p.add_argument("--genus", type=int, default=2)
    p.add_argument("--mc", type=positive_float, default=1.0)
    p.add_argument("--md", type=positive_float, default=1.0)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("check", help="run the internal consistency checks")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("render", help="draw a map or surface into an SVG")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--map", help="map JSON with embedded surface and graph")
    group.add_argument("--surface", help="surface JSON (polygon only)")
    p.add_argument("--out", required=True)
    p.add_argument("--depth", type=int, default=1, help="translate shells to draw (0, 1 or 2)")
    p.add_argument("--size", type=int, default=640, help="image size in pixels (positive)")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # an input that overflows ends in one `error:` line, not numpy's
        # warnings ahead of it; the solver raises on overflow in its own context
        with np.errstate(all="ignore"):
            return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, GraphValidationError, GeometryError, BracketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
