"""Every closed-form PASS/FAIL check of the program, defined once.

Each check compares a computed quantity against a closed form or an invariant
that can be stated without reference to the implementation, so a clean run is
meaningful evidence the geometric kernel and solver agree with each other.
The worked examples reproduce the paper's symmetric surfaces: the
hexagon-glued genus-2 family's stationary seam, the regular 4g-gon with the
bouquet at its centre, and the Klein quartic's 14-gon.  Each returns its
rows, the figures it computes shown in their details; `run_all` runs the
internal checks and then every example at its defaults.  Nothing here
prints: the command line prints `summary_table`.
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
    detail = f"{value:.3e} (tol {bound:.2g})"
    if extra:
        detail += f"  {extra}"
    return CheckResult(name, bool(value <= bound), detail)


def _verdict(name: str, report: surfaces.SurfaceReport) -> CheckResult:
    """`validate_surface`'s verdict as a row: its issue codes, or none."""
    return CheckResult(name, report.ok, ", ".join(code for code, _ in report.issues) or "no issues")


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


def check_constraint_curve() -> CheckResult:
    worst = 0.0
    for s in np.linspace(0.1, 10.0, 40):
        t = hexagon_partner_length(float(s))
        worst = max(worst, abs(math.sinh(s / 2.0) * math.sinh(t / 2.0) - 0.5))
    return _check("hexagon closure constraint on grid", worst, 1e-12)


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


def example_hexagon_genus2(m_c: float = 1.0, m_d: float = 1.0) -> list[CheckResult]:
    """The hexagon-glued genus-2 family at weights (m_c, m_d): the stationary
    seam s* against its equations, the energy search and the closed form."""
    sol = families.lagrange_solve(m_c / m_d)
    checks = [_check("closure constraint at s*", abs(sol.constraint_residual), 1e-10,
                     extra=f"s* = {sol.s:.6f}, partner length t* = {sol.t:.6f}"),
              _check("stationarity condition at s*", abs(sol.stationarity_residual), 1e-10)]
    if m_c == m_d:
        checks.append(_check("equal weights give s* = log(2+sqrt(3))",
                             abs(sol.s - math.log(2.0 + math.sqrt(3.0))), 1e-10))
    fam = surfaces.family("hexagon-genus2", weights=(m_c, m_d))
    theta, value = families.minimize_1d(fam, (0.5 * sol.s, 2.0 * sol.s), tol=1e-8,
                                        cfg=SolverConfig(residual_tol=1e-9))
    closed = families.hexagon_family_energy(sol.s, m_c, m_d)
    return checks + [
        _check("energy search agrees with stationarity solve", abs(theta - sol.s), 1e-7,
               extra=f"minimizer {theta:.6f}"),
        _check("minimum energy matches closed form", abs(value - closed) / closed, 1e-6,
               extra=f"minimum energy {value:.6f}")]


def example_regular_4g(genus: int = 2) -> list[CheckResult]:
    """The regular 4g-gon with corner angles pi/(2g), judged by
    `validate_surface`'s own gates, and the bouquet of 2g loops at its centre."""
    surface = surfaces.build_regular_4g_surface(genus)
    report = surfaces.validate_surface(surface)
    defect, gate = max(zip(report.relator_defects, report.relator_gates), key=lambda pair: pair[0] / pair[1])
    checks = [_verdict(f"4g-gon surface validates (genus {genus})", report),
              _check(f"4g-gon relators close up (genus {genus})", defect / gate, 1.0,
                     extra=f"ratio of defect {defect:.3e} to gate {gate:.3e}"),
              _check("polygon area matches Gauss-Bonnet", abs(report.area - report.area_expected), report.area_gate)]
    if genus == 2:
        expected = 2.0 * math.acosh(1.0 + math.sqrt(2.0))
        checks.append(_check("octagon generator translation length",
                             abs(surface.generators[0].translation_length() - expected), 1e-8))
    bouquet = surfaces.center_bouquet(surface)
    loop = 2.0 * regular_polygon(4 * genus, math.pi / (2 * genus)).inradius
    bouquet_energy, closed = energy(bouquet), 2 * genus * loop ** 2
    return checks + [
        _check("center bouquet map is balanced", balanced_residual(bouquet).max_norm, 1e-10),
        _check("bouquet energy matches closed form", abs(bouquet_energy - closed) / closed, 1e-12,
               extra=f"energy {bouquet_energy:.6f}, loop length {loop:.6f}")]


def example_klein() -> list[CheckResult]:
    """The Klein quartic's 14-gon: its verdict, relators, area 8*pi and two
    corner cycles."""
    report = surfaces.validate_surface(surfaces.build_klein_quartic())
    return [_verdict("14-gon surface validates", report),
            _check("14-gon relators close up", max(report.relator_defects), 1e-8),
            _check("polygon area is 8*pi", abs(report.area - 8.0 * math.pi), 1e-8),
            _check("both corner cycles have angle sum 2*pi",
                   max(abs(a - 2.0 * math.pi) for a in report.angle_sums), 1e-8),
            _check("corner cycle count is 2", abs(len(report.angle_sums) - 2), 0)]


def run_all() -> list[CheckResult]:
    """The internal checks, then every worked example at its defaults."""
    internal = (check_hexagon_area, check_genus2_relators, check_constraint_curve, check_reference_map,
                check_solver_roundtrip, check_first_variation, check_klein_bouquet)
    return [check() for check in internal] + example_hexagon_genus2() + example_regular_4g() + example_klein()


def summary_table(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        lines.append(f"{status}  {r.name.ljust(width)}  {r.detail}")
    passed = sum(1 for r in results if r.ok)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines)
