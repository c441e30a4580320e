import math

import numpy as np
import pytest

from graphuniform.errors import BracketError, DomainError, NonConvergenceError
from graphuniform import families
from graphuniform.families import (
    EnergyEvaluator,
    hexagon_family_energy,
    lagrange_solve,
    minimize_1d,
    stationarity_ratio,
)
from graphuniform.hyperboloid import Isometry, hexagon_partner_length
from graphuniform.maps import MarkedMap
from graphuniform.solver import SolverConfig
from graphuniform.surfaces import MetricFamily, family

THETA_STAR = math.log(2.0 + math.sqrt(3.0))


def test_closed_form_energy_matches_solver():
    fam = family("hexagon-genus2")
    cfg = SolverConfig(residual_tol=1e-10, max_iters=2000)
    for s in (0.6, 1.0, 1.7, 2.5):
        solved = EnergyEvaluator(fam, cfg).energy(s)
        closed = hexagon_family_energy(s, 1.0, 1.0)
        assert abs(solved - closed) < 1e-7 * (1.0 + closed)


def test_closed_form_energy_with_asymmetric_weights():
    m_c, m_d = 2.0, 0.5
    fam = family("hexagon-genus2", weights=(m_c, m_d))
    cfg = SolverConfig(residual_tol=1e-10, max_iters=2000)
    for s in (0.8, 1.4):
        solved = EnergyEvaluator(fam, cfg).energy(s)
        t = hexagon_partner_length(s)
        closed = 6.0 * (m_d * s * s + m_c * t * t)
        assert abs(hexagon_family_energy(s, m_c, m_d) - closed) < 1e-12 * closed
        assert abs(solved - closed) < 1e-7 * (1.0 + closed)


def test_stationarity_ratio_strictly_increasing():
    grid = np.linspace(0.05, 8.0, 120)
    vals = [stationarity_ratio(float(s)) for s in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_lagrange_solve_equal_weights_closed_form():
    sol = lagrange_solve(1.0)
    assert abs(sol.s - THETA_STAR) < 1e-10
    assert abs(sol.t - THETA_STAR) < 1e-10
    assert sol.constraint_residual < 1e-12
    assert sol.stationarity_residual < 1e-12


def test_lagrange_solve_various_ratios():
    for ratio in (0.25, 1.0, 4.0):
        sol = lagrange_solve(ratio)
        assert abs(math.sinh(sol.s / 2.0) * math.sinh(sol.t / 2.0) - 0.5) < 1e-12
        # stationarity: s tanh(s/2) = ratio * t tanh(t/2)
        lhs = sol.s * math.tanh(sol.s / 2.0)
        rhs = ratio * sol.t * math.tanh(sol.t / 2.0)
        assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(lhs))


def test_lagrange_solve_rejects_unreachable_and_non_finite_ratios():
    # t(s) tanh(t(s)/2) underflows to 0 near s = 750, before the ratio 1e200
    # is reached
    with pytest.raises(BracketError):
        lagrange_solve(1e200)
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            lagrange_solve(bad)


def test_lagrange_symmetry_under_ratio_inversion():
    a = lagrange_solve(3.0)
    b = lagrange_solve(1.0 / 3.0)
    assert abs(a.s - b.t) < 1e-9
    assert abs(a.t - b.s) < 1e-9


def test_minimizer_matches_lagrange_solution():
    fam = family("hexagon-genus2")
    cfg = SolverConfig(residual_tol=1e-9, max_iters=2000)
    theta, value = minimize_1d(fam, (0.5, 3.0), tol=1e-8, cfg=cfg)
    assert abs(theta - THETA_STAR) < 1e-6
    assert abs(value - hexagon_family_energy(THETA_STAR, 1.0, 1.0)) < 1e-6 * (1.0 + value)


def test_minimizer_first_order_condition():
    # the closed-form energy has zero slope at the searched minimizer
    fam = family("hexagon-genus2")
    cfg = SolverConfig(residual_tol=1e-9, max_iters=2000)
    theta, _ = minimize_1d(fam, (0.5, 3.0), tol=1e-8, cfg=cfg)
    d = 1e-4
    slope = (
        hexagon_family_energy(theta + d, 1.0, 1.0)
        - hexagon_family_energy(theta - d, 1.0, 1.0)
    ) / (2.0 * d)
    assert abs(slope) < 1e-5 * (1.0 + hexagon_family_energy(theta, 1.0, 1.0))


@pytest.mark.parametrize("tol", [1e-3, 1e-8])
@pytest.mark.parametrize("bracket", [(2.5, 3.5), (0.1, 0.9)], ids=["below", "above"])
def test_minimize_rejects_bracket_hugging_minimum(bracket, tol):
    # the minimum lies outside the bracket, beyond its lower or upper end; at
    # tol 1e-8 the search stops about sqrt(eps)*|theta| from that end, outside
    # 2*tol, so only the final interval still ending there gives it away
    fam = family("hexagon-genus2")
    cfg = SolverConfig(residual_tol=1e-8, max_iters=2000)
    with pytest.raises(BracketError):
        minimize_1d(fam, bracket, tol=tol, cfg=cfg)


@pytest.mark.parametrize("ratio", [0.25, 1.0, 4.0])
def test_minimize_evaluation_budget(ratio):
    # a golden-section search needs 43 evaluations to shrink (0.5, 3.0) to
    # 1e-8; on energies with about 1e-14 of noise Brent's search takes 11-13
    # (15-23 on the float64 kernel's, with 1e-12 to 2e-11 of noise)
    hexagon = family("hexagon-genus2", weights=(ratio, 1.0))
    calls = []

    def counting_builder(s):
        calls.append(s)
        return hexagon.build(s)

    fam = MetricFamily("counted", hexagon.domain, counting_builder)
    theta, _ = minimize_1d(fam, (0.5, 3.0), tol=1e-8)
    assert len(calls) <= 14
    assert abs(theta - lagrange_solve(ratio).s) < 1e-6


@pytest.mark.parametrize("ratio", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_minimize_lands_on_the_stationarity_solve(ratio):
    # from energy values alone, to 3.9e-8 or better (up to 4.0e-7 away, at
    # ratio 0.25, on the float64 kernel's energies)
    theta, _ = minimize_1d(family("hexagon-genus2", weights=(ratio, 1.0)), (0.5, 3.0), tol=1e-8)
    assert abs(theta - lagrange_solve(ratio).s) < 1e-7


@pytest.mark.parametrize("ratio", [0.25, 4.0])
def test_family_energy_is_smooth_near_its_minimizer(ratio):
    # 41 seams within 2e-6 of theta* deviate from their least-squares
    # parabola by 1.7e-14 (ratio 0.25) and 3.9e-14 (ratio 4) rms; the
    # float64 kernel's energies of the same maps by 4.6e-12 and 1.7e-11
    s_star = lagrange_solve(ratio).s
    evaluator = EnergyEvaluator(family("hexagon-genus2", weights=(ratio, 1.0)))
    x = np.linspace(-1.0, 1.0, 41)
    values = np.array([evaluator.energy(s_star + 2e-6 * d) for d in x])
    fit = np.polyval(np.polyfit(x, values, 2), x)
    assert np.sqrt(np.mean((values - fit) ** 2)) <= 2e-13


def test_evaluator_repeats_match_one_shot_energy(monkeypatch):
    # one evaluator serves many parameters, each solved from its own
    # reference map, so its values equal the one-shot evaluations
    fam = family("hexagon-genus2")
    cfg = SolverConfig(residual_tol=1e-10, max_iters=2000)
    ev = EnergyEvaluator(fam, cfg)
    params = (0.9, 1.1, 1.3)
    solves = []
    solve = families.solve
    monkeypatch.setattr(families, "solve", lambda m, c: solves.append(1) or solve(m, c))
    repeated = [ev.energy(s) for s in params]
    assert len(solves) == len(params)
    one_shot = [EnergyEvaluator(fam, cfg).energy(s) for s in params]
    for a, b in zip(repeated, one_shot):
        assert abs(a - b) < 1e-8 * (1.0 + abs(a))


def test_family_evaluation_builds_no_isometry(monkeypatch):
    evaluator = EnergyEvaluator(family("hexagon-genus2"))
    built = []
    post_init = Isometry.__post_init__
    monkeypatch.setattr(Isometry, "__post_init__", lambda self: built.append(1) or post_init(self))
    evaluator.energy(1.3)
    assert not built


def test_evaluations_reuse_the_first_reference_map(monkeypatch):
    # the family builds one reference map and moves it to every later seam
    evaluator = EnergyEvaluator(family("hexagon-genus2"))
    built = []
    post_init = MarkedMap.__post_init__
    monkeypatch.setattr(MarkedMap, "__post_init__", lambda self: built.append(1) or post_init(self))
    for s in (0.8, 1.0, THETA_STAR, 1.5, 2.0):
        value = evaluator.energy(s)
        assert abs(value - hexagon_family_energy(s, 1.0, 1.0)) < 1e-9 * value
    assert len(built) == 1


def test_properness_probe_grows_both_ways():
    # E grows monotonically as the seam is scaled away from the minimizer by
    # each factor, both ways.  Wide factors via the closed form: at theta*/8
    # the deck matrices have norms ~1e4 and f64 residuals cannot be
    # evaluated, let alone solved
    factors = (2.0, 4.0, 8.0)
    e_star = hexagon_family_energy(THETA_STAR, 1.0, 1.0)
    below = [hexagon_family_energy(THETA_STAR / f, 1.0, 1.0) for f in factors]
    above = [hexagon_family_energy(THETA_STAR * f, 1.0, 1.0) for f in factors]
    for side in (below, above):
        assert all(a < b for a, b in zip(side, side[1:]))
        assert min(side) > e_star
    assert below[-1] > 2.0 * e_star


def test_properness_probe_solver_backed_near_minimum():
    fam = family("hexagon-genus2")
    cfg = SolverConfig(residual_tol=1e-9, max_iters=2000)
    low, star, high = (EnergyEvaluator(fam, cfg).energy(s) for s in (THETA_STAR / 2.0, THETA_STAR, 2.0 * THETA_STAR))
    assert low > star and high > star
    closed = hexagon_family_energy(THETA_STAR, 1.0, 1.0)
    assert abs(star - closed) < 1e-7 * closed


def test_nonconvergence_raises():
    fam = family("hexagon-genus2")
    cfg = SolverConfig(residual_tol=1e-15, max_iters=3)
    with pytest.raises(NonConvergenceError):
        EnergyEvaluator(fam, cfg).energy(1.0)

