"""Energy minimization over one-parameter metric families.

The inner problem (harmonic map at a fixed metric) is delegated to the
solver; this module sweeps or searches the family parameter.  For the
hexagon-tiled genus-2 family the minimizer is also available through an
independent route: a stationarity condition in (s, t) under the hexagon
closure constraint sinh(s/2) sinh(t/2) = 1/2, solved by bisection on a
monotone ratio.  The two routes agreeing is one of the package's main
cross-checks.

E(theta) is `maps.energy` of the float64 solve's harmonic map, summed on
the surface's long-double deck matrices.  Brent's stop rule assumes
energies exact to a few ulps.  Near the hexagon family's minimizer the
float64 energy carries 1e-12 to 2e-11 of rounding noise, from rounding the
deck matrices, and the long-double one about 1e-14, on which the search
finds the minimizer to 4e-8 in 11-13 evaluations.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import BracketError, DomainError, NonConvergenceError
from .hyperboloid import hexagon_partner_length
from .maps import energy
from .solver import SolveTrace, SolverConfig, solve
from .surfaces import MetricFamily

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0
_SQRT_EPS = math.sqrt(sys.float_info.epsilon)


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
    geometrically from [1e-6, 50] if needed.  BracketError when t(s) *
    tanh(t(s)/2) underflows to 0 before the ratio is reached.
    """
    if not 0.0 < ratio < math.inf:
        raise DomainError(f"weight ratio must be finite and positive, got {ratio!r}")
    lo, hi = 1e-6, 50.0
    for _ in range(60):
        if stationarity_ratio(lo) < ratio:
            break
        lo *= 0.1
    else:
        raise BracketError(f"no lower bracket for ratio {ratio!r}")
    for _ in range(60):
        try:
            if stationarity_ratio(hi) > ratio:
                break
        except ZeroDivisionError:
            raise BracketError(
                f"no upper bracket for ratio {ratio!r}: t(s) underflows at s = {hi!r}") from None
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
    solving from the family's reference map at theta each time; the value is
    `maps.energy` of the solve's final map."""

    def __init__(self, fam: MetricFamily, cfg: SolverConfig | None = None):
        self.family = fam
        self.cfg = cfg or SolverConfig()
        self.last_trace: SolveTrace | None = None

    def energy(self, theta: float) -> float:
        _surface, _graph, reference = self.family.build(theta)
        trace = solve(reference, self.cfg)
        self.last_trace = trace
        if not trace.converged:
            raise NonConvergenceError(
                f"harmonic solve did not reach residual {self.cfg.residual_tol} "
                f"at parameter {theta!r} ({trace.stop_reason} after {trace.iterations} iterations)")
        return energy(trace.final_map)


def minimize_1d(
    fam: MetricFamily,
    bracket: tuple[float, float],
    tol: float = 1e-8,
    cfg: SolverConfig | None = None,
) -> tuple[float, float]:
    """Brent's method for the family's energy minimizer inside the bracket.

    Each step fits a parabola through the three best points seen so far and
    falls back to a golden-section step when the parabola is unsafe (Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 5).  The
    resolution at theta is tol1 = sqrt(eps)*|theta| + tol/3, so tol is an
    absolute tolerance on top of a sqrt(eps)*|theta| floor: below that floor
    energy differences are float noise.  The search stops when
    |theta - (a+b)/2| <= 2*tol1 - (b-a)/2 for the current interval [a, b].

    Requires the minimum strictly inside the bracket.  BracketError is raised
    when the result lies within 2*tol of an end, or when the final interval
    still ends at lo or hi, i.e. the search never found a worse point on
    that side.
    """
    lo, hi = bracket
    if not (lo < hi and tol > 0.0):
        raise DomainError(f"bad bracket {bracket!r} or tolerance {tol!r}")
    ev = EnergyEvaluator(fam, cfg)
    # x: best point so far, w: second best, v: the previous w; d: the last
    # step, e: the step before it (a parabola must move less than half of e)
    a, b = lo, hi
    x = w = v = a + _CGOLD * (b - a)
    fx = fw = fv = ev.energy(x)
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + tol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            break
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            prev_e, e = e, d
            if abs(p) < abs(0.5 * q * prev_e) and q * (a - x) < p < q * (b - x):
                parabolic = True
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = math.copysign(tol1, m - x)
        if not parabolic:
            e = (a - x) if x >= m else (b - x)
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else (tol1 if d >= 0.0 else -tol1))
        fu = ev.energy(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    if a == lo or b == hi or x - lo <= 2.0 * tol or hi - x <= 2.0 * tol:
        raise BracketError(
            f"minimum of {fam.family_id} sits at the bracket boundary near {x!r}; widen {bracket!r}")
    return x, fx
