import json
import math

import numpy as np
import pytest

import oracles
from graphuniform.errors import DomainError, GraphValidationError
from graphuniform.families import hexagon_family_energy
from graphuniform.graphs import WeightedGraph, bouquet
from graphuniform.hyperboloid import HPoint, Isometry, dist, dist_arr, exp_arr, minkowski_dot, tangent_basis_arr
from graphuniform.maps import MarkedMap, balanced_residual, energy, gauge_transform, initial_lifts
from graphuniform.solver import (
    SolverConfig,
    UniquenessReport,
    fd_gradient,
    gauge_fix,
    hessian_fd,
    hessian_product,
    solve,
    uniqueness_probe,
)
from graphuniform.surfaces import family, genus2_deck_words
from graphuniform.variations import VertexVariation, second_variation_fd, second_variation_geodesic

SEAM = math.log(2.0 + math.sqrt(3.0))


def perturbed(m, scale, seed):
    """Every lift moved by a seeded random tangent vector of the given scale."""
    rng = np.random.default_rng(seed)
    x = m.lift_array()
    noise = rng.standard_normal(x.shape) * scale
    noise[..., 0] = 0.0
    noise += minkowski_dot(noise, x)[..., None] * x
    return m.with_lifts(exp_arr(x, noise))


def test_config_validation():
    with pytest.raises(DomainError):
        SolverConfig(residual_tol=0.0)
    with pytest.raises(DomainError):
        SolverConfig(max_iters=-1)


def test_solve_converges_from_random_start(genus2_bundle):
    surface, graph, ref = genus2_bundle
    lifts = initial_lifts(surface, graph, mode="random", seed=1)
    start = ref.with_lifts(lifts)
    trace = solve(start, SolverConfig(residual_tol=1e-9, max_iters=2000))
    assert trace.converged and trace.stop_reason == "converged"
    assert balanced_residual(trace.final_map).max_norm <= 1e-9
    assert abs(energy(trace.final_map) - energy(ref)) < 1e-8 * (1.0 + energy(ref))


def test_trace_records_monotone_energies(genus2_solved, genus2_bundle):
    surface, graph, ref = genus2_bundle
    lifts = initial_lifts(surface, graph, mode="random", seed=2)
    trace = solve(ref.with_lifts(lifts), SolverConfig(residual_tol=1e-9, max_iters=2000))
    energies = np.asarray(trace.energies)
    assert len(energies) == trace.iterations + 1
    # line search guarantees decrease until the energy hits float resolution,
    # after which accepted steps may wobble by evaluation noise only; that
    # noise is eps amplified by the squared deck-translated coordinates
    slack = 1e3 * np.finfo(float).eps * (1.0 + energies[0])
    assert np.all(np.diff(energies) <= slack)
    assert trace.residuals[-1] <= 1e-9


def test_trace_jsonl_parses(genus2_bundle):
    surface, graph, ref = genus2_bundle
    lifts = initial_lifts(surface, graph, mode="random", seed=3)
    trace = solve(ref.with_lifts(lifts), SolverConfig(residual_tol=1e-6, max_iters=500))
    lines = trace.jsonl().strip().splitlines()
    assert len(lines) == len(trace.energies)
    for i, line in enumerate(lines):
        doc = json.loads(line)
        assert doc["iteration"] == i
        assert doc["energy"] == trace.energies[i]
        assert doc["residual"] == trace.residuals[i]


def test_gradient_vanishes_at_convergence(genus2_bundle):
    # FD noise floor is ~2e-7 here (eps * squared deck-matrix norms / h), so
    # the 10*tol bound is checked at a tolerance FD can actually resolve
    surface, graph, ref = genus2_bundle
    tol = 1e-7
    lifts = initial_lifts(surface, graph, mode="random", seed=13)
    trace = solve(ref.with_lifts(lifts), SolverConfig(residual_tol=tol, max_iters=2000))
    assert trace.converged
    grad = fd_gradient(trace.final_map, h=1e-5)
    assert np.max(np.abs(grad)) <= 10.0 * tol


def test_gauge_fix_canonical_position(genus2_solved):
    fixed = gauge_fix(genus2_solved)
    lifts = fixed.lift_array()
    assert dist(HPoint(lifts[0]), HPoint.origin()) < 1e-12
    # first outgoing edge points along the +x1 axis
    t = fixed.edge_tangent(fixed.graph.origins.index(0))
    direction = t.vec / t.norm
    assert abs(direction[2]) < 1e-9
    assert direction[1] > 0
    assert abs(energy(fixed) - energy(genus2_solved)) < 1e-10 * (1.0 + energy(genus2_solved))


def test_gauge_fix_reconciles_random_starts(genus2_bundle):
    surface, graph, ref = genus2_bundle
    cfg = SolverConfig(residual_tol=1e-10, max_iters=2000)
    finals = []
    for seed in (10, 11):
        lifts = initial_lifts(surface, graph, mode="random", seed=seed)
        trace = solve(ref.with_lifts(lifts), cfg)
        assert trace.converged
        finals.append(gauge_fix(trace.final_map).lift_array())
    assert float(np.max(dist_arr(finals[0], finals[1]))) < 1e-8


def test_hessian_fd_step_domain(genus2_solved):
    with pytest.raises(DomainError):
        hessian_fd(genus2_solved, h=1e-7)
    with pytest.raises(DomainError):
        hessian_fd(genus2_solved, h=1e-2)


def test_hessian_fd_symmetric_positive(genus2_solved):
    h = hessian_fd(genus2_solved, h=1e-4)
    n = 2 * genus2_solved.graph.vertex_count
    assert h.shape == (n, n)
    assert np.max(np.abs(h - h.T)) < 1e-12  # symmetrized by construction
    eigs = np.linalg.eigvalsh(h)
    assert eigs.min() > 0


def test_hessian_single_loop_has_translation_zero_mode(octagon_surface):
    # one loop mapped to one generator: any point on the generator axis is
    # harmonic, so the Hessian has a near-zero eigenvalue along the axis
    graph = bouquet(1)
    from graphuniform.maps import initial_lifts as seeds

    lifts = seeds(octagon_surface, graph, mode="random", seed=2)
    m = MarkedMap(octagon_surface, graph, lifts, ((1,), (-1,)))
    trace = solve(m, SolverConfig(residual_tol=1e-10, max_iters=2000))
    assert trace.converged
    eigs = np.linalg.eigvalsh(hessian_fd(trace.final_map, h=1e-4))
    # the zero mode shows up at FD-noise scale, orders below the cross mode
    assert abs(eigs[0]) < 1e-4
    assert eigs[1] > 0.1


def test_hessian_eigenvalues_gauge_invariant(genus2_solved):
    from graphuniform.hyperboloid import Isometry
    from graphuniform.maps import gauge_transform

    g = Isometry.x_translation(0.4) @ Isometry.rotation(HPoint.origin(), 0.7)
    # h at the top of the allowed range keeps FD evaluation noise (which
    # scales like eps/h^2) below the 1e-6 relative target
    e0 = np.linalg.eigvalsh(hessian_fd(genus2_solved, h=1e-3))
    e1 = np.linalg.eigvalsh(hessian_fd(gauge_transform(genus2_solved, g), h=1e-3))
    assert np.max(np.abs(e0 - e1)) < 1e-6 * (1.0 + np.max(np.abs(e0)))


def test_solver_rejects_isolated_vertices(genus2_bundle):
    surface, _, ref = genus2_bundle
    graph = WeightedGraph(
        vertex_count=2,
        origins=np.array([0, 0]),
        reversals=np.array([1, 0]),
        weights=np.array([1.0, 1.0]),
        classes=("loop", "loop"),
    )
    lifts = (HPoint.origin(), HPoint.at(0.5, 0.0))
    m = MarkedMap(surface, graph, lifts, ((1,), (-1,)))
    assert np.all(balanced_residual(m).residuals[1] == 0.0)
    with pytest.raises(GraphValidationError) as exc:
        solve(m, SolverConfig(max_iters=1))
    assert exc.value.code == "ISOLATED_VERTEX"


def test_uniqueness_probe_agrees_on_genus2(genus2_bundle):
    surface, graph, _ = genus2_bundle
    report = uniqueness_probe(
        surface, graph, genus2_deck_words(), n_starts=3,
        cfg=SolverConfig(residual_tol=1e-9, max_iters=2000, seed=20),
    )
    assert report.ok
    assert not report.degenerate
    assert all(report.converged)
    assert report.max_gauge_deviation < 1e-7
    spread = max(report.energies) - min(report.energies)
    assert spread < 1e-9 * (1.0 + max(report.energies))


def test_uniqueness_probe_flags_single_loop(octagon_surface):
    report = uniqueness_probe(
        octagon_surface, bouquet(1), ((1,),), n_starts=3,
        cfg=SolverConfig(residual_tol=1e-9, max_iters=2000, seed=4),
    )
    assert report.degenerate
    assert not report.ok
    assert "uniqueness hypothesis" in report.message


def test_zero_iteration_budget_reports_nonconvergence(genus2_bundle):
    surface, graph, ref = genus2_bundle
    lifts = initial_lifts(surface, graph, mode="random", seed=8)
    trace = solve(ref.with_lifts(lifts), SolverConfig(residual_tol=1e-9, max_iters=0))
    assert not trace.converged
    assert trace.iterations == 0
    assert trace.stop_reason == "budget"


def test_unreachable_tolerance_stops_as_stalled(genus2_bundle):
    # 1e-15 lies under the float64 residual floor of the genus-2 map: the
    # line search runs out of steps long before the iteration budget
    surface, graph, ref = genus2_bundle
    lifts = initial_lifts(surface, graph, mode="random", seed=8)
    trace = solve(ref.with_lifts(lifts), SolverConfig(residual_tol=1e-15))
    assert trace.stop_reason == "stalled"
    assert not trace.converged
    assert trace.iterations < SolverConfig().max_iters
    assert trace.residuals[-1] < 1e-11


def test_report_with_disagreeing_starts_is_not_ok():
    report = UniquenessReport(
        n_starts=2, converged=(True, True), energies=(23.44, 23.44),
        max_gauge_deviation=1e-3, max_raw_deviation=0.5, degenerate=False)
    assert not report.ok
    assert "disagree" in report.message
    agree = UniquenessReport(2, (True, True), (23.44, 23.44), 1e-12, 0.5, False)
    assert agree.ok and agree.message == "all starts agree"


def _tangent_field(m, coords):
    bases = tangent_basis_arr(m.lift_array())
    return coords[0::2, None] * bases[:, 0] + coords[1::2, None] * bases[:, 1]


def test_hessian_product_matches_fd_hessian_at_solution(genus2_solved):
    m = genus2_solved
    hess = hessian_fd(m, h=1e-4)
    bases = tangent_basis_arr(m.lift_array())
    rng = np.random.default_rng(30)
    for _ in range(3):
        coords = rng.standard_normal(2 * m.graph.vertex_count)
        hv = hessian_product(m, _tangent_field(m, coords))
        got = minkowski_dot(hv[:, None, :], bases).ravel()
        want = hess @ coords
        assert np.max(np.abs(got - want)) < 1e-6 * (1.0 + np.max(np.abs(want)))


def test_hessian_product_is_second_variation_off_critical_points(genus2_bundle):
    # the product is the Hessian under the exponential retraction at every
    # point, so it reproduces the second derivative along exp away from
    # harmonic maps too
    _, _, ref = genus2_bundle
    m = perturbed(ref, 0.2, seed=31)
    assert balanced_residual(m).max_norm > 0.1
    for seed in (32, 33, 34):
        v = VertexVariation.random(m, seed=seed)
        vecs = np.array([t.vec for t in v.vectors])
        quad = float(np.sum(minkowski_dot(vecs, hessian_product(m, vecs))))
        assert abs(quad - second_variation_geodesic(m, v)) < 1e-10 * (1.0 + abs(quad))
        fd = second_variation_fd(m, v, h=1e-3)
        assert abs(quad - fd) < 1e-6 * (1.0 + abs(quad))


@pytest.mark.parametrize("k", [1, 2, 4, 8, 32])
def test_subdivided_genus2_solves_in_few_newton_steps(k):
    # a k-fold subdivision with weights k*w keeps the harmonic energy, and
    # the Newton iteration count does not grow with k
    _, _, ref = family("hexagon-genus2").build(SEAM)
    start = perturbed(oracles.subdivide(ref, k), 0.05, seed=k)
    trace = solve(start)
    assert trace.converged
    assert trace.iterations <= 20
    exact = hexagon_family_energy(SEAM, 1.0, 1.0)
    assert abs(energy(trace.final_map) - exact) <= 1e-9 * exact


@pytest.mark.parametrize("k,seed", [(2, 22), (2, 23), (2, 41), (2, 70), (4, 38), (4, 51), (4, 64)])
def test_random_starts_on_subdivisions_converge(k, seed):
    # first-order descent stalled above the tolerance from these starts
    _, _, ref = family("hexagon-genus2").build(SEAM)
    sub = oracles.subdivide(ref, k)
    trace = solve(sub.with_lifts(initial_lifts(sub.surface, sub.graph, "random", seed)))
    assert trace.converged
    exact = hexagon_family_energy(SEAM, 1.0, 1.0)
    assert abs(energy(trace.final_map) - exact) <= 1e-9 * exact


def test_gauge_fix_is_canonical_and_idempotent(genus2_solved):
    fixed = gauge_fix(genus2_solved)
    scale = 1.0 + np.max(np.abs(fixed.edges.mats))
    rng = np.random.default_rng(17)
    for _ in range(6):
        a, b = rng.uniform(0.0, 2.0 * math.pi, 2)
        g = (Isometry.rotation(HPoint.origin(), a) @ Isometry.x_translation(rng.uniform(0.0, 1.5))
             @ Isometry.rotation(HPoint.origin(), b))
        again = gauge_fix(gauge_transform(genus2_solved, g))
        assert np.max(np.abs(again.lift_array() - fixed.lift_array())) < 1e-10
        assert np.max(np.abs(again.edges.mats - fixed.edges.mats)) < 1e-10 * scale
    twice = gauge_fix(fixed)
    assert np.max(np.abs(twice.lift_array() - fixed.lift_array())) < 1e-10
    assert np.max(np.abs(twice.gauge.matrix - fixed.gauge.matrix)) < 1e-10


def test_uniqueness_probe_builds_no_points_per_vertex(genus2_bundle, monkeypatch):
    # the probe holds lifts as arrays: the number of HPoints it constructs
    # must not grow with the graph (1-fold: V = 6, 4-fold: V = 42)
    _surface, _graph, ref = genus2_bundle
    maps = [oracles.subdivide(ref, k) for k in (1, 4)]
    original = HPoint.__post_init__
    calls = []

    def counting(point):
        calls.append(point)
        original(point)

    monkeypatch.setattr(HPoint, "__post_init__", counting)
    counts = []
    for m in maps:
        words = tuple(m.deck_words[e] for e, *_ in m.graph.unoriented_edges())
        before = len(calls)
        report = uniqueness_probe(m.surface, m.graph, words, 4)
        assert report.ok, report.message
        counts.append(len(calls) - before)
    assert counts[0] == counts[1], counts
