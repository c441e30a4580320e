"""Built-in consistency checks runnable from the command line.

Each check compares a computed quantity against a closed form or an invariant
that can be stated without reference to the implementation, so a clean run is
meaningful evidence the geometric kernel and solver agree with each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import families, surfaces
from .hyperboloid import dist_arr, hexagon_partner_length, polygon_area, regular_polygon
from .maps import balanced_residual, energy
from .solver import SolverConfig, gauge_fix, solve
from .variations import first_variation, first_variation_fd, random_variation


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _check(name: str, value: float, bound: float, extra: str = "") -> CheckResult:
    detail = f"{value:.3e} (tol {bound:.0e})"
    if extra:
        detail += f"  {extra}"
    return CheckResult(name, bool(value <= bound), detail)


def check_hexagon_area() -> CheckResult:
    corners = surfaces.hexagon_corners(1.0)
    return _check("right-angled hexagon area = pi", abs(polygon_area(corners) - math.pi), 1e-8)


def check_genus2_relators() -> CheckResult:
    s = 1.3
    surface, _, _ = surfaces.build_genus2_hexagon_surface(s)
    report = surfaces.validate_surface(surface)
    worst = max(report.relator_defects) if report.relator_defects else math.inf
    return _check(f"genus-2 relators at seam {s}", worst, 1e-8,
                  extra=f"area err {abs(report.area - report.area_expected):.1e}")


def check_klein() -> CheckResult:
    surface = surfaces.build_klein_quartic()
    report = surfaces.validate_surface(surface)
    worst = max(report.relator_defects)
    area_err = abs(report.area - 8.0 * math.pi)
    angle_err = max(abs(a - 2.0 * math.pi) for a in report.angle_sums)
    return _check("klein 14-gon relators/area/angles", max(worst, area_err, angle_err), 1e-8)


def check_octagon_systole() -> CheckResult:
    surface = surfaces.build_regular_4g_surface(2)
    length = surface.generators[0].translation_length()
    expected = 2.0 * math.acosh(1.0 + math.sqrt(2.0))
    return _check("octagon generator length", abs(length - expected), 1e-8)


def check_constraint_curve() -> CheckResult:
    worst = 0.0
    for s in np.linspace(0.1, 10.0, 40):
        t = hexagon_partner_length(float(s))
        worst = max(worst, abs(math.sinh(s / 2.0) * math.sinh(t / 2.0) - 0.5))
    return _check("hexagon closure constraint on grid", worst, 1e-12)


def check_lagrange_balanced() -> CheckResult:
    sol = families.lagrange_solve(1.0)
    target = math.log(2.0 + math.sqrt(3.0))
    return _check("equal-weight stationary seam = log(2+sqrt(3))",
                  abs(sol.s - target), 1e-10)


def check_family_search() -> CheckResult:
    """Brent's search on the equal-weight family's energy values alone, at
    tol 1e-8, finds the closed-form minimizer (to 1e-10, in 11 evaluations)."""
    hexagon = surfaces.family("hexagon-genus2")
    seams = []

    def build(s):
        seams.append(s)
        return hexagon.build(s)

    counted = surfaces.MetricFamily(hexagon.family_id, hexagon.domain, build)
    theta, _ = families.minimize_1d(counted, (0.5, 3.0))
    return _check("equal-weight family search finds log(2+sqrt(3))",
                  abs(theta - math.log(2.0 + math.sqrt(3.0))), 1e-7, extra=f"{len(seams)} evaluations")


def check_reference_map() -> CheckResult:
    s = 1.1
    _surface, _graph, reference = surfaces.build_genus2_hexagon_surface(s)
    report = balanced_residual(reference)
    closed = families.hexagon_family_energy(s, 1.0, 1.0)
    energy_err = abs(energy(reference) - closed) / closed
    return _check("genus-2 skeleton map is balanced", report.max_norm, 1e-9,
                  extra=f"energy rel err {energy_err:.1e}")


def check_solver_roundtrip() -> CheckResult:
    _surface, graph, reference = surfaces.build_genus2_hexagon_surface(1.0)
    rng = np.random.default_rng(11)
    x = reference.lifts
    lifts = []
    for v in range(graph.vertex_count):
        vec = rng.standard_normal(3) * 0.1
        vec[0] = 0.0
        lifts.append(x[v] + vec)
    cfg = SolverConfig(residual_tol=1e-10, max_iters=4000)
    trace = solve(reference.with_lifts(lifts), cfg)
    if not trace.converged:
        return CheckResult("solver returns to the balanced map", False,
                           f"no convergence in {trace.iterations} iterations")
    a = gauge_fix(trace.final_map).lifts
    b = gauge_fix(reference).lifts
    gap = float(np.max(dist_arr(a, b)))
    return _check("solver returns to the balanced map", gap, 1e-7)


def check_first_variation() -> CheckResult:
    _surface, _graph, reference = surfaces.build_genus2_hexagon_surface(0.9)
    variation = random_variation(reference, seed=5)
    exact = first_variation(reference, variation)
    approx = first_variation_fd(reference, variation)
    scale = max(1.0, abs(exact))
    return _check("first variation matches finite differences",
                  abs(exact - approx) / scale, 1e-6)


def check_klein_bouquet() -> CheckResult:
    """The Z7-symmetric bouquet at the Klein 14-gon's centre: seven loops of
    twice the inradius of the regular 14-gon with angle 2*pi/7."""
    bouquet_map = surfaces.center_bouquet(surfaces.build_klein_quartic())
    closed = 7.0 * (2.0 * regular_polygon(14, 2.0 * math.pi / 7.0).inradius) ** 2
    energy_err = abs(energy(bouquet_map) - closed) / closed
    residual = balanced_residual(bouquet_map).max_norm
    return _check("klein centre bouquet energy closed form", max(energy_err, residual), 1e-10,
                  extra=f"energy rel err {energy_err:.1e}, residual {residual:.1e}")


def run_all() -> list[CheckResult]:
    return [
        check_hexagon_area(),
        check_genus2_relators(),
        check_klein(),
        check_octagon_systole(),
        check_constraint_curve(),
        check_lagrange_balanced(),
        check_family_search(),
        check_reference_map(),
        check_solver_roundtrip(),
        check_first_variation(),
        check_klein_bouquet(),
    ]


def summary_table(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        lines.append(f"{status}  {r.name.ljust(width)}  {r.detail}")
    passed = sum(1 for r in results if r.ok)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines)
