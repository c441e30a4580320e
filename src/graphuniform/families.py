"""Energy minimization over one-parameter metric families.

The inner problem (harmonic map at a fixed metric) is delegated to the
solver; this module sweeps or searches the family parameter.  For the
hexagon-tiled genus-2 family the minimizer is also available through an
independent route: a stationarity condition in (s, t) under the hexagon
closure constraint sinh(s/2) sinh(t/2) = 1/2, solved by bisection on a
monotone ratio.  The two routes agreeing is one of the package's main
cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import BracketError, DomainError, NonConvergenceError
from .hyperboloid import hexagon_partner_length, triangle_from_angles
from .maps import energy
from .solver import SolveTrace, SolverConfig, solve
from .surfaces import MetricFamily

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def hexagon_family_energy(s: float, m_c: float, m_d: float) -> float:
    """Closed-form minimum energy at seam length s: the reference skeleton is
    harmonic, so the energy is 6 (m_d s^2 + m_c t(s)^2)."""
    t = hexagon_partner_length(s)
    return 6.0 * (m_d * s * s + m_c * t * t)


def stationarity_ratio(s: float) -> float:
    """(s tanh(s/2)) / (t tanh(t/2)) with t = hexagon_partner_length(s);
    strictly increasing in s, equal to m_c/m_d exactly at the minimizer."""
    t = hexagon_partner_length(s)
    return (s * math.tanh(s / 2.0)) / (t * math.tanh(t / 2.0))


@dataclass(frozen=True)
class LagrangeSolution:
    ratio: float
    s: float
    t: float
    constraint_residual: float
    stationarity_residual: float


def lagrange_solve(ratio: float) -> LagrangeSolution:
    """Solve the constrained stationarity system for weight ratio m_c/m_d.

    Bisection on stationarity_ratio(s) = ratio over a bracket expanded
    geometrically from [1e-6, 50] if needed.
    """
    if not ratio > 0.0:
        raise DomainError(f"weight ratio must be positive, got {ratio!r}")
    lo, hi = 1e-6, 50.0
    for _ in range(60):
        if stationarity_ratio(lo) < ratio:
            break
        lo *= 0.1
    else:
        raise BracketError(f"no lower bracket for ratio {ratio!r}")
    for _ in range(60):
        if stationarity_ratio(hi) > ratio:
            break
        hi *= 2.0
    else:
        raise BracketError(f"no upper bracket for ratio {ratio!r}")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if stationarity_ratio(mid) < ratio:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    t = hexagon_partner_length(s)
    constraint = math.sinh(s / 2.0) * math.sinh(t / 2.0) - 0.5
    stationarity = math.tanh(s / 2.0) / math.tanh(t / 2.0) - ratio * t / s
    return LagrangeSolution(ratio, s, t, constraint, stationarity)


class EnergyEvaluator:
    """Evaluates E(theta) = energy of the converged harmonic map at theta,
    solving from the family's reference map at theta each time."""

    def __init__(self, fam: MetricFamily, cfg: SolverConfig | None = None):
        self.family = fam
        self.cfg = cfg or SolverConfig()
        self.solve_count = 0
        self.last_trace: SolveTrace | None = None

    def energy(self, theta: float | None = None) -> float:
        _surface, _graph, reference = self.family.build(theta)
        trace = solve(reference, self.cfg)
        self.solve_count += 1
        self.last_trace = trace
        if not trace.converged:
            raise NonConvergenceError(
                f"harmonic solve did not reach residual {self.cfg.residual_tol} "
                f"at parameter {theta!r} ({trace.stop_reason} after {trace.iterations} iterations)")
        return energy(trace.final_map)


def energy_of_parameter(fam: MetricFamily, theta: float | None, cfg: SolverConfig | None = None) -> float:
    """One-shot E(theta) from the family's reference start."""
    return EnergyEvaluator(fam, cfg).energy(theta)


@dataclass(frozen=True)
class EnergyCurve:
    family_id: str
    parameters: tuple[float, ...]
    energies: tuple[float, ...]
    iterations: tuple[int, ...]


def sample_curve(
    fam: MetricFamily,
    parameters: tuple[float, ...],
    cfg: SolverConfig | None = None,
) -> EnergyCurve:
    """E(theta) over a parameter grid, each point solved from the family's
    reference map."""
    parameters = tuple(parameters)
    energies, iterations = [], []
    for theta in parameters:
        ev = EnergyEvaluator(fam, cfg)
        energies.append(ev.energy(theta))
        iterations.append(ev.last_trace.iterations)
    return EnergyCurve(fam.family_id, parameters, tuple(energies), tuple(iterations))


def minimize_1d(
    fam: MetricFamily,
    bracket: tuple[float, float],
    tol: float = 1e-8,
    cfg: SolverConfig | None = None,
) -> tuple[float, float]:
    """Golden-section search for the family's energy minimizer.

    Requires the minimum strictly inside the bracket; hitting an end within
    2*tol raises BracketError.
    """
    lo, hi = bracket
    if not (lo < hi and tol > 0.0):
        raise DomainError(f"bad bracket {bracket!r} or tolerance {tol!r}")
    ev = EnergyEvaluator(fam, cfg)
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = ev.energy(c), ev.energy(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = ev.energy(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = ev.energy(d)
    theta, value = (c, fc) if fc < fd else (d, fd)
    if theta - lo <= 2.0 * tol or hi - theta <= 2.0 * tol:
        raise BracketError(
            f"minimum of {fam.family_id} sits at the bracket boundary near {theta!r}; widen {bracket!r}")
    return theta, value


@dataclass(frozen=True)
class PropernessReport:
    theta_star: float
    energy_star: float
    factors: tuple[float, ...]
    energies_below: tuple[float, ...]  # at theta*/f
    energies_above: tuple[float, ...]  # at theta**f
    monotone: bool
    exceeds_minimum: bool

    @property
    def ok(self) -> bool:
        return self.monotone and self.exceeds_minimum


def properness_probe(
    fam: MetricFamily,
    theta_star: float,
    factors: tuple[float, ...],
    cfg: SolverConfig | None = None,
    energy_fn: Callable[[float], float] | None = None,
) -> PropernessReport:
    """Checks E grows monotonically when the parameter is scaled away from
    the minimizer by each factor, in both directions.

    By default each point is solved numerically.  Far from the minimizer the
    deck transformations carry huge matrix norms and the f64 solver cannot
    resolve residuals there, so callers probing wide factors should pass a
    closed-form energy_fn when the family has one.
    """
    factors = tuple(sorted(factors))
    if not factors or factors[0] <= 1.0:
        raise DomainError(f"scale factors must exceed 1, got {factors!r}")
    if energy_fn is None:
        energy_fn = lambda theta: energy_of_parameter(fam, theta, cfg)
    e_star = energy_fn(theta_star)
    below = tuple(energy_fn(theta_star / f) for f in factors)
    above = tuple(energy_fn(theta_star * f) for f in factors)
    monotone = all(x < y for x, y in zip(below, below[1:])) and all(
        x < y for x, y in zip(above, above[1:]))
    exceeds = all(v > e_star for v in below + above)
    return PropernessReport(theta_star, e_star, factors, below, above, monotone, exceeds)


def triangle_energy(
    p: int, q: int, r: int, group_order: int,
    m1: float = 1.0, m2: float = 1.0, m3: float = 1.0,
) -> float:
    """Energy of the triangle-tiling skeleton map: group_order copies of the
    fundamental triangle pair, each contributing one edge of every class."""
    if group_order < 1 or int(group_order) != group_order:
        raise DomainError(f"group order must be a positive integer, got {group_order!r}")
    tri = triangle_from_angles(math.pi / p, math.pi / q, math.pi / r)
    l1, l2, l3 = tri.sides
    return group_order * (m1 * l1 * l1 + m2 * l2 * l2 + m3 * l3 * l3)
