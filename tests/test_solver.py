import json
import math

import numpy as np
import pytest

import oracles
from graphuniform import serialize
from graphuniform.errors import DomainError, GraphValidationError, NotHyperbolicError
from graphuniform.families import hexagon_family_energy
from graphuniform.graphs import WeightedGraph, bouquet
from graphuniform.hyperboloid import (
    HPoint, Isometry, dist_arr, exp_arr, log_arr, minkowski_dot, tangent_basis_arr)
from graphuniform.maps import (
    DENSE_MAX_VERTICES,
    LEVEL_BLOCK_VERTICES,
    BlockPlan,
    EdgeData,
    Hessian,
    MarkedMap,
    _block_layout,
    _breadth_first_levels,
    _derived,
    balanced_residual,
    energy,
    initial_lifts,
)
from graphuniform.solver import (
    GAUGE_TOL,
    SolverConfig,
    UniquenessReport,
    gauge_fix,
    hessian_fd,
    solve,
    uniqueness_probe,
)
from graphuniform.surfaces import (
    build_genus2_hexagon_surface,
    build_regular_4g_surface,
    center_bouquet,
    family,
    genus2_deck_words,
)
from graphuniform.variations import random_variation

SEAM = math.log(2.0 + math.sqrt(3.0))


def perturbed(m, scale, seed):
    """Every lift moved by a seeded random tangent vector of the given scale."""
    rng = np.random.default_rng(seed)
    x = m.lifts
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
    lines = serialize.trace_jsonl(trace).splitlines()
    assert len(lines) == len(trace.energies) == trace.iterations + 1
    assert len(trace.steps) == trace.iterations > 0
    for i, line in enumerate(lines):
        doc = json.loads(line)
        assert list(doc)[:3] == ["iteration", "energy", "residual"]
        assert doc["iteration"] == i
        # read back bit for bit
        assert doc["energy"].hex() == float(trace.energies[i]).hex()
        assert doc["residual"].hex() == float(trace.residuals[i]).hex()
        # the kind of step that reached the iterate; the start has none
        assert doc.get("step") == (trace.steps[i - 1] if i else None)
        assert doc.get("step", "lu") in ("lu", "cg")


def test_gradient_vanishes_at_convergence(genus2_bundle):
    # FD noise floor is ~2e-7 here (eps * squared deck-matrix norms / h), so
    # the 10*tol bound is checked at a tolerance FD can actually resolve
    surface, graph, ref = genus2_bundle
    tol = 1e-7
    lifts = initial_lifts(surface, graph, mode="random", seed=13)
    trace = solve(ref.with_lifts(lifts), SolverConfig(residual_tol=tol, max_iters=2000))
    assert trace.converged
    grad = oracles.fd_gradient(trace.final_map, h=1e-5)
    assert np.max(np.abs(grad)) <= 10.0 * tol


def test_gauge_fix_canonical_position(genus2_solved):
    fixed = gauge_fix(genus2_solved)
    lifts = fixed.lifts
    assert dist_arr(lifts[0], oracles.point_at(0.0, 0.0)) < 1e-12
    # first outgoing edge points along the +x1 axis
    t = log_arr(*oracles.edge_segment(fixed, fixed.graph.origins.index(0)))
    direction = t / np.sqrt(minkowski_dot(t, t))
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
        finals.append(gauge_fix(trace.final_map).lifts)
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
    g = oracles.x_translation(0.4) @ oracles.rot_z(0.7)
    # h at the top of the allowed range keeps FD evaluation noise (which
    # scales like eps/h^2) below the 1e-6 relative target
    e0 = np.linalg.eigvalsh(hessian_fd(genus2_solved, h=1e-3))
    e1 = np.linalg.eigvalsh(hessian_fd(oracles.moved(genus2_solved, g), h=1e-3))
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
    lifts = (oracles.point_at(0.0, 0.0), oracles.point_at(0.5, 0.0))
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
    # the loop's Hessian is singular along the generator's axis at the limit;
    # the exact steps that reach it still converge from every start
    for seed in range(8):
        report = uniqueness_probe(octagon_surface, bouquet(1), ((1,),), 4, SolverConfig(seed=seed))
        assert all(report.converged) and report.degenerate and not report.ok


@pytest.mark.parametrize("k", [1, 2])
def test_probe_deviation_is_the_distance_between_solo_limits(genus2_bundle, k):
    # the probe compares its limits as solved: its deviation is the largest
    # distance between the limits of the same starts solved one at a time,
    # bit for bit, as the stacked descents are the solo ones
    surface, graph, words = genus2_bundle[0], genus2_bundle[1], genus2_deck_words()
    if k > 1:
        m = oracles.subdivide(genus2_bundle[2], k)
        graph, words = m.graph, tuple(m.deck_words[e] for e, *_ in m.graph.unoriented_edges())
    cfg = SolverConfig(seed=30)
    report = uniqueness_probe(surface, graph, words, 4, cfg)
    base = MarkedMap.from_unoriented_words(surface, graph, initial_lifts(surface, graph), words)
    limits = [solve(base.with_lifts(initial_lifts(surface, graph, "random", seed=30 + i)), cfg).final_map.lifts
              for i in range(4)]
    spread = max(float(np.max(dist_arr(a, b))) for i, a in enumerate(limits) for b in limits[i + 1:])
    assert report.ok and report.max_gauge_deviation == spread
    assert 0.0 < spread <= GAUGE_TOL


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


@pytest.mark.parametrize("weights", [(1.0, 4.0), (4.0, 1.0)])
def test_line_search_rejects_trial_steps_that_leave_the_sheet(weights, monkeypatch):
    # at seam 8.5 the deck matrices are so large that some Newton trial
    # steps carry lifts off the upper sheet; those trials are halved like
    # failed Armijo tests, and the float64 floor ends the solve as stalled.
    # Which trials leave the sheet is up to rounding: with weights 1:4 and
    # 4:1 several do (8 and 1), with 1:1 none or one
    import graphuniform.solver as solver

    left = []

    def exp_counting(p, v):
        try:
            return exp_arr(p, v)
        except NotHyperbolicError:
            left.append(1)
            raise

    monkeypatch.setattr(solver, "exp_arr", exp_counting)
    trace = solve(build_genus2_hexagon_surface(8.5, weights)[2])
    assert left
    assert trace.stop_reason == "stalled"
    assert trace.energies[-1] < trace.energies[0]


def _assert_trace_describes_its_final_map(trace):
    final = trace.final_map
    assert final.edges.energy(final.lifts) == trace.energies[-1]
    assert balanced_residual(final).max_norm == trace.residuals[-1]
    assert not final.lifts.flags.writeable


@pytest.mark.parametrize("k", [1, 4, 16])
def test_solve_hands_back_its_last_iterate_bit_for_bit(genus2_bundle, k):
    # the final map carries the lifts of the last iterate as they are, so
    # the trace's last energy and residual are those of the map it returns
    _surface, _graph, ref = genus2_bundle
    start = perturbed(oracles.subdivide(ref, k), 0.05, seed=30 + k)
    trace = solve(start)
    assert trace.converged and trace.iterations > 0
    _assert_trace_describes_its_final_map(trace)


def test_solve_that_takes_no_step_returns_its_start_unchanged(genus2_bundle):
    for m in (genus2_bundle[2], family("hexagon-genus2").build(2.3)[2]):
        trace = solve(m)
        assert trace.converged and trace.iterations == 0
        assert trace.final_map.lifts.tobytes() == m.lifts.tobytes()
        _assert_trace_describes_its_final_map(trace)


def test_stacked_starts_hand_back_their_last_iterates(genus2_bundle):
    import graphuniform.solver as solver

    # the stack that a uniqueness probe descends
    surface, graph, ref = genus2_bundle
    starts = np.stack([initial_lifts(surface, graph, "random", seed=seed) for seed in range(4)])
    traces = solver._solve_stack(ref.with_lifts(starts[0]), starts, SolverConfig())
    assert all(t.converged and t.iterations > 0 for t in traces)
    for trace in traces:
        _assert_trace_describes_its_final_map(trace)


def test_solver_builds_edge_geometry_once_per_iterate_and_blocks_per_step(genus2_bundle, monkeypatch):
    _, _, ref = genus2_bundle
    calls = {"geometry": 0, "hessian": 0}
    for name in calls:
        original = getattr(EdgeData, name)

        def counting(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(EdgeData, name, counting)
    trace = solve(perturbed(ref, 0.1, seed=45))
    assert trace.converged and trace.iterations > 2
    assert calls == {"geometry": trace.iterations + 1, "hessian": trace.iterations}
    # a solve that starts converged builds no blocks
    calls.update(geometry=0, hessian=0)
    assert solve(ref).iterations == 0
    assert calls == {"geometry": 1, "hessian": 0}


def test_probe_builds_hessians_once_per_lockstep_iteration(genus2_bundle, monkeypatch):
    # the 4 starts descend as one stack: one Hessian per lockstep iteration,
    # max(iterations) in all, and one edge-geometry pass per trial round
    # (one exp_arr each) plus the first, not one set per start
    import graphuniform.solver as solver

    surface, graph, _ = genus2_bundle
    calls = {"geometry": 0, "hessian": 0, "exp_arr": 0}
    for name in ("geometry", "hessian"):
        original = getattr(EdgeData, name)

        def counting(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(EdgeData, name, counting)
    monkeypatch.setattr(solver, "exp_arr", lambda p, v: calls.__setitem__("exp_arr", calls["exp_arr"] + 1)
                        or exp_arr(p, v))
    traces = []
    descend = solver._descend
    monkeypatch.setattr(solver, "_descend", lambda *args: traces.extend(descend(*args)) or traces)
    report = uniqueness_probe(surface, graph, genus2_deck_words(), 4)
    assert report.ok and len(traces) == 4
    iterations = [t.iterations for t in traces]
    assert min(iterations) > 2
    assert calls["hessian"] == max(iterations) < sum(iterations)
    assert calls["exp_arr"] >= max(iterations)  # the trial rounds: one per iteration, plus backtracks
    assert calls["geometry"] == calls["exp_arr"] + 1


def test_float_floor_step_hands_its_residual_on(genus2_bundle, monkeypatch):
    # the last step raises the energy, so the float-floor test accepted it,
    # and the residual that test computed is the next iterate's: one
    # residual per iterate
    calls = []
    residual = EdgeData.residual
    monkeypatch.setattr(EdgeData, "residual", lambda self, *args: calls.append(1) or residual(self, *args))
    trace = solve(perturbed(genus2_bundle[2], 0.05, seed=6), SolverConfig(residual_tol=1e-11))
    assert trace.converged and trace.energies[-1] > trace.energies[-2]
    assert len(calls) == len(trace.residuals) == 4


def _spans_a_line_by_singular_values(edges, x):
    """The degenerate-image test from the singular values of each star's
    tangents, as LAPACK's eigenvalues of their Gram matrix give them."""
    p = x[:, edges.origins]
    coords = minkowski_dot(log_arr(p, edges.far_ends(x))[..., None, :], tangent_basis_arr(p))
    gram = edges.star_sums(coords[..., :, None] * coords[..., None, :], axis=1)
    low, high = np.moveaxis(np.sqrt(np.maximum(0.0, np.linalg.eigvalsh(gram))), -1, 0)
    return ~np.any((high > 1e-9) & (low > 1e-6 * high), axis=1)


def test_one_dimensional_image_test_decides_as_the_singular_values(octagon_surface):
    # one loop's harmonic vertex lies on the generator's axis; moved off it
    # by 1e-1 to 1e-11, its two tangents span a plane of singular-value
    # ratio about 0.3 sqrt(offset), across the 1e-6 threshold
    import graphuniform.solver as solver

    graph = bouquet(1)
    start = MarkedMap(octagon_surface, graph, initial_lifts(octagon_surface, graph, "random", seed=2), ((1,), (-1,)))
    trace = solve(start, SolverConfig(residual_tol=1e-12, max_iters=2000))
    assert trace.converged
    x, edges = trace.final_map.lifts, start.edges
    axis = log_arr(x[0], edges.far_ends(x)[0])
    basis = tangent_basis_arr(x[0])
    normal = basis[0] * minkowski_dot(axis, basis[1]) - basis[1] * minkowski_dot(axis, basis[0])
    offsets = 10.0 ** -np.arange(1.0, 11.25, 0.25)
    stack = np.stack([exp_arr(x, d * normal / math.sqrt(minkowski_dot(normal, normal))) for d in offsets])
    got = solver._image_is_one_dimensional(edges, stack)
    assert np.array_equal(got, _spans_a_line_by_singular_values(edges, stack))
    assert not got[0] and got[-1]


def test_report_with_disagreeing_starts_is_not_ok():
    report = UniquenessReport(
        n_starts=2, converged=(True, True), energies=(23.44, 23.44),
        max_gauge_deviation=1e-3, degenerate=False)
    assert not report.ok
    assert "disagree" in report.message
    agree = UniquenessReport(2, (True, True), (23.44, 23.44), 1e-12, False)
    assert agree.ok and agree.message == "all starts agree"


def _tangent_field(m, coords):
    bases = tangent_basis_arr(m.lifts)
    return coords[0::2, None] * bases[:, 0] + coords[1::2, None] * bases[:, 1]


def test_hessian_product_matches_fd_hessian_at_solution(genus2_solved):
    m = genus2_solved
    hess = hessian_fd(m, h=1e-4)
    bases = tangent_basis_arr(m.lifts)
    rng = np.random.default_rng(30)
    for _ in range(3):
        coords = rng.standard_normal(2 * m.graph.vertex_count)
        hv = m.edges.hessian(m.lifts)(_tangent_field(m, coords))
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
        v = random_variation(m, seed=seed)
        quad = oracles.hessian_form(m, v)
        assert abs(quad - oracles.jacobi_second_variation(m, v)) < 1e-10 * (1.0 + abs(quad))
        fd = oracles.second_variation_fd(m, v, h=1e-3)
        assert abs(quad - fd) < 1e-6 * (1.0 + abs(quad))


def _map_with_empty_stars(surface):
    # vertices 1 and 3 carry no edge: one empty star between busy ones, one
    # at the end of the half-edge rows
    graph = WeightedGraph.from_edges(4, [(0, 2, 1.0, "e"), (2, 0, 2.0, "e")])
    lifts = [oracles.point_at(d, a) for d, a in ((0.0, 0.0), (0.3, 1.0), (0.5, 0.0), (0.2, 2.0))]
    return MarkedMap(surface, graph, lifts, ((1,), (-1,), (), ()))


def _hessian_test_maps(bundle, case):
    surface, graph, ref = bundle
    if case == "perturbed":
        return perturbed(ref, 0.3, seed=40)
    if case == "random":
        return ref.with_lifts(initial_lifts(surface, graph, "random", seed=41))
    if case == "gauged":
        return oracles.moved(perturbed(ref, 0.2, seed=43), oracles.x_translation(0.8) @ oracles.rot_z(1.1))
    return _map_with_empty_stars(surface)


@pytest.mark.parametrize("case", ["perturbed", "random", "gauged", "empty-star"])
def test_assembled_hessian_matches_per_edge_reference(genus2_bundle, case):
    # the near/far blocks give the same product as the per-half-edge formula
    m = _hessian_test_maps(genus2_bundle, case)
    assert balanced_residual(m).max_norm > 0.01
    x = m.lifts
    rng = np.random.default_rng(44)
    for _ in range(3):
        v = _tangent_field(m, rng.standard_normal(2 * m.graph.vertex_count))
        got = m.edges.hessian(m.lifts)(v)
        want = oracles.polarized_hvp(m, x, v)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    if case == "empty-star":
        assert np.all(got[[1, 3]] == 0.0)


@pytest.mark.parametrize("case", ["solved", "perturbed", "empty-star"])
def test_batched_fd_hessian_matches_column_loop(genus2_bundle, genus2_solved, case):
    m = genus2_solved if case == "solved" else _hessian_test_maps(genus2_bundle, case)
    for h in (1e-4, 1e-3):
        got = hessian_fd(m, h)
        assert got.shape == (2 * m.graph.vertex_count,) * 2
        assert np.array_equal(got, oracles.hessian_fd_columns(m, h))


@pytest.mark.parametrize("case", ["octagon-bouquet", "gauged", "k4-perturbed"])
def test_star_local_fd_hessian_matches_column_loop(genus2_bundle, genus2_solved, octagon_surface, case):
    # each column is read at the star vertices of its vertex, from a
    # residual with the other vertices of its colour moved too: on loops
    # (every edge of the bouquet starts and ends at its one vertex), on
    # conjugated deck matrices and on a 42-vertex map
    if case == "octagon-bouquet":
        m = perturbed(center_bouquet(octagon_surface), 0.3, seed=47)
    elif case == "gauged":
        m = _hessian_test_maps(genus2_bundle, case)
    else:
        m = perturbed(oracles.subdivide(genus2_solved, 4), 0.05, seed=4)
    for h in (1e-4, 1e-3):
        assert np.array_equal(hessian_fd(m, h), oracles.hessian_fd_columns(m, h))


def test_fd_hessian_of_the_harmonic_32_fold_subdivision_is_positive_definite():
    _, _, ref = family("hexagon-genus2").build(SEAM)
    m = oracles.subdivide(ref, 32)  # V = 378
    assert balanced_residual(m).max_norm < 1e-9
    hess = hessian_fd(m, h=1e-4)
    assert np.array_equal(hess, hess.T)
    assert np.linalg.eigvalsh(hess).min() > 0


@pytest.mark.parametrize("k", [1, 2, 4, 8, 16, 32])
def test_subdivided_genus2_solves_in_few_newton_steps(k):
    # a k-fold subdivision with weights k*w keeps the harmonic energy, and
    # the Newton iteration count does not grow with k: every step is exact
    # (V = 6 to 378), 2 at k = 1 and 4 from k = 2 on, where truncated CG
    # took 6 to 15
    _, _, ref = family("hexagon-genus2").build(SEAM)
    start = perturbed(oracles.subdivide(ref, k), 0.05, seed=k)
    trace = solve(start)
    assert trace.converged
    assert trace.steps == ("lu",) * trace.iterations
    assert trace.iterations <= 4
    exact = hexagon_family_energy(SEAM, 1.0, 1.0)
    assert abs(energy(trace.final_map) - exact) <= 1e-9 * exact


def test_ladder_solves_factor_no_matrix_wider_than_a_block(monkeypatch):
    # the exact steps on V = 90 to 378 eliminate blocks of at most
    # DENSE_MAX_VERTICES vertices; a dense (2V, 2V) solve would show here
    _, _, ref = family("hexagon-genus2").build(SEAM)
    widths = []
    dense_solve = np.linalg.solve

    def recording(a, b):
        widths.append(a.shape[-1])
        return dense_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    for k in (8, 16, 32):
        start = perturbed(oracles.subdivide(ref, k), 0.05, seed=k)
        before = len(widths)
        trace = solve(start)
        assert trace.converged and trace.steps == ("lu",) * trace.iterations
        # one solve per block and step
        assert len(widths) - before == len(start.edges.block_plan.blocks) * trace.iterations
    assert max(widths) <= 2 * DENSE_MAX_VERTICES


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
        g = oracles.rot_z(a) @ oracles.x_translation(rng.uniform(0.0, 1.5)) @ oracles.rot_z(b)
        again = gauge_fix(oracles.moved(genus2_solved, g))
        assert np.max(np.abs(again.lifts - fixed.lifts)) < 1e-10
        assert np.max(np.abs(again.edges.mats - fixed.edges.mats)) < 1e-10 * scale
    twice = gauge_fix(fixed)
    assert np.max(np.abs(twice.lifts - fixed.lifts)) < 1e-10
    assert np.max(np.abs(twice.surface.matrices - fixed.surface.matrices)) < 1e-10 * scale


def test_gauge_fix_builds_no_isometry_value(genus2_solved, monkeypatch):
    # its frame is an isometry as built, and a map stores no gauge to update
    built = []
    post_init = Isometry.__post_init__
    monkeypatch.setattr(Isometry, "__post_init__", lambda self: built.append(1) or post_init(self))
    fixed = gauge_fix(genus2_solved)
    assert not built
    assert np.max(np.abs(fixed.lifts[0] - [1.0, 0.0, 0.0])) < 1e-12


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


def _two_component_map(m):
    """m beside one more vertex with two loops, mapped to generators 1 and 2
    of m's surface: a map of two components, one of them all loops."""
    graph = m.graph
    edges = [(u, v, w, cls) for _e, u, v, w, cls in graph.unoriented_edges()]
    extra = graph.vertex_count
    edges += [(extra, extra, 1.0, "loop"), (extra, extra, 1.0, "loop")]
    words = tuple(m.deck_words[e] for e, *_ in graph.unoriented_edges()) + ((1,), (2,))
    lifts = np.vstack([m.lifts, oracles.point_at(0.3, 0.5)])
    union = WeightedGraph.from_edges(extra + 1, edges)
    assert oracles.component_count(union) == 2
    return MarkedMap.from_unoriented_words(m.surface, union, lifts, words)


def _dense_test_maps(genus2_solved, klein_surface, case):
    if case == "k1-solved":
        return genus2_solved
    if case == "k1-perturbed":
        return perturbed(genus2_solved, 0.3, seed=40)
    if case == "k2-solved":
        return oracles.subdivide(genus2_solved, 2)
    if case == "k2-perturbed":
        return perturbed(oracles.subdivide(genus2_solved, 2), 0.05, seed=2)
    if case in ("k4-perturbed", "k8-perturbed", "k16-perturbed"):
        k = int(case[1:case.index("-")])
        return perturbed(oracles.subdivide(genus2_solved, k), 0.05, seed=k)
    if case == "two-components":
        return perturbed(_two_component_map(oracles.subdivide(genus2_solved, 8)), 0.05, seed=49)
    if case == "octagon-bouquet":
        return perturbed(center_bouquet(build_regular_4g_surface(2)), 0.3, seed=47)
    if case == "klein-bouquet":
        return perturbed(center_bouquet(klein_surface), 0.3, seed=48)
    surface = build_regular_4g_surface(2)
    return MarkedMap(surface, bouquet(1), initial_lifts(surface, bouquet(1), "random", seed=2), ((1,), (-1,)))


@pytest.mark.parametrize("case", ["k1-solved", "k1-perturbed", "k2-solved", "k2-perturbed",
                                  "octagon-bouquet", "klein-bouquet", "one-loop", "k4-perturbed",
                                  "k8-perturbed", "two-components"])
def test_dense_hessian_reproduces_the_product_on_every_basis_vector(genus2_solved, klein_surface, case):
    # the genus-2 maps have doubled edges and the bouquets put every far
    # block on the diagonal: blocks sharing a place must add up.  The
    # one-block maps (V <= 24) give the whole matrix; the others give the
    # blocks of its symmetric part, superdiagonal blocks transposed in
    m = _dense_test_maps(genus2_solved, klein_surface, case)
    x = m.lifts
    bases = tangent_basis_arr(x)
    hessian = m.edges.hessian(x)
    diagonal, upper = hessian.matrix(bases)
    dim = 2 * len(x)
    assert (len(diagonal) == 1) == (len(x) <= LEVEL_BLOCK_VERTICES)
    columns = np.empty((dim, dim))
    scale = 0.0
    for j in range(dim):
        v = np.zeros_like(x)
        v[j // 2] = bases[j // 2, j % 2]
        hv = hessian(v)
        columns[:, j] = minkowski_dot(hv[:, None, :], bases).ravel()
        scale = max(scale, np.max(np.abs(hv)))
    # an entry is a pairing of two vectors with ambient coordinates up to
    # |H b| and |b|, which sets the size of its rounding
    bound = 1e-12 * scale * np.max(np.abs(bases))
    if len(diagonal) == 1:
        assert diagonal[0].shape == (dim, dim)
        assert np.max(np.abs(diagonal[0] - columns)) <= bound
    symmetric = oracles.symmetric_from_blocks(m.edges.block_plan, diagonal, upper)
    assert np.max(np.abs(symmetric - (columns + columns.T))) <= 2.0 * bound
    reference = oracles.dense_hessian(hessian, x, bases)
    assert np.max(np.abs(symmetric - (reference + reference.T))) <= 2.0 * bound


@pytest.mark.parametrize("case", ["k1-solved", "k2-solved"])
def test_dense_hessian_matches_fd_hessian_at_a_harmonic_map(genus2_solved, klein_surface, case):
    m = _dense_test_maps(genus2_solved, klein_surface, case)
    assert balanced_residual(m).max_norm < 1e-9
    x = m.lifts
    (dense,), () = m.edges.hessian(x).matrix(tangent_basis_arr(x))
    fd = hessian_fd(m, h=1e-4)
    assert np.max(np.abs(dense - fd)) <= 1e-4 * np.max(np.abs(fd))


@pytest.mark.parametrize("case", ["k1-perturbed", "k2-perturbed", "octagon-bouquet", "klein-bouquet", "one-loop",
                                  "k8-perturbed"])
def test_exact_step_equals_a_converged_cg_step(genus2_solved, klein_surface, case):
    import graphuniform.solver as solver

    m = _dense_test_maps(genus2_solved, klein_surface, case)
    x = m.lifts
    r = m.edges.residual(x)
    assert np.max(np.abs(r)) > 1e-3
    hessian = m.edges.hessian(x)
    lu = solver._exact_step(m.edges.hessian(x[None]), x[None], r[None])[0]  # a stack of one
    cg, relative_residual = oracles.cg_solve(hessian, 2.0 * r, tangent_basis_arr(x), rtol=1e-13)
    # CG is driven to 1e-13 or to its rounding floor (1e-12 on the k = 2
    # map), far under the 1e-8 that the steps are compared at.  The k = 8
    # map's lifts reach ambient coordinates of 63, against 11 on the k = 2
    # map, and the floor rises with their square: there it is 7.4e-10, and
    # the steps differ by 5.5e-9
    assert relative_residual <= (1e-9 if case == "k8-perturbed" else 1e-10)
    assert np.max(np.abs(lu - cg)) <= 1e-8 * np.max(np.abs(cg))


def _assert_exact_step_is_the_dense_solve(edges, x):
    # the step through the blocks is the step through the whole matrix,
    # assembled in vertex order as the one-block maps assemble it
    import graphuniform.solver as solver

    r = edges.residual(x)
    bases = tangent_basis_arr(x)
    dense = oracles.dense_hessian(edges.hessian(x), x, bases)
    rhs = 2.0 * minkowski_dot(r[:, None, :], bases).ravel()
    coords = np.linalg.solve(dense + dense.T, 2.0 * rhs)
    want = np.einsum("vi,vij->vj", coords.reshape(-1, 2), bases)
    got = solver._exact_step(edges.hessian(x[None]), x[None], r[None])[0]  # a stack of one
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("case", ["k4-perturbed", "k8-perturbed", "k16-perturbed", "two-components"])
def test_block_eliminated_step_equals_a_dense_solve(genus2_solved, klein_surface, case):
    m = _dense_test_maps(genus2_solved, klein_surface, case)
    assert len(m.edges.block_plan.blocks) > 1
    _assert_exact_step_is_the_dense_solve(m.edges, m.lifts)


def test_one_block_out_of_vertex_order_steps_as_a_dense_solve(genus2_solved, klein_surface):
    # today's constants build no such plan: a map of at most
    # LEVEL_BLOCK_VERTICES vertices is one block in vertex order, a larger one
    # several.  With one block in breadth-first order, the step must still
    # be read back through the plan's order
    m = _dense_test_maps(genus2_solved, klein_surface, "k2-perturbed")
    edges = _derived(m.edges, mats=m.edges.mats)  # a copy whose plan this test may set
    order = np.concatenate(_breadth_first_levels(edges.vertex_count, edges.origins, edges.termini))
    edges.__dict__["block_plan"] = plan = BlockPlan((order,), *_block_layout(edges, [order]))
    assert not plan.in_vertex_order
    _assert_exact_step_is_the_dense_solve(edges, m.lifts)


def _assert_failed_exact_steps_fall_back_to_cg(monkeypatch, start, case):
    # a block that LU cannot factor, a step that is not finite or climbs,
    # or a step no line-search trial accepts: the iteration takes the CG
    # step, so the solve is the CG-only solve, step for step.  A failed
    # exact step is a row of NaN in the stack of steps
    import graphuniform.solver as solver

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_exact_step", lambda hessian, x, r: np.full_like(x, np.nan))
        cg_only = solve(start)
    matrix = Hessian.matrix

    def scaled(factor):
        return lambda self, bases: tuple(tuple(factor * block for block in part) for part in matrix(self, bases))

    if case == "singular":
        monkeypatch.setattr(Hessian, "matrix", scaled(0.0))
    elif case == "not-finite":
        # factors without a zero pivot, but the solution overflows
        def tiny(self, bases):
            diagonal, upper = matrix(self, bases)
            return (tuple(0.0 * block + 1e-320 * np.eye(block.shape[-1]) for block in diagonal),
                    tuple(0.0 * block for block in upper))

        monkeypatch.setattr(Hessian, "matrix", tiny)
    elif case == "uphill":
        monkeypatch.setattr(Hessian, "matrix", scaled(-1.0))
    else:
        exact_step, line_search = solver._exact_step, solver._line_search
        proposed = []

        def proposing(hessian, x, r):
            proposed.append(exact_step(hessian, x, r))
            return proposed[-1]

        def rejecting(edges, x, delta, *args):  # no trial passed: no (rows, trial) pieces
            return [] if delta is proposed[-1] else line_search(edges, x, delta, *args)

        monkeypatch.setattr(solver, "_exact_step", proposing)
        monkeypatch.setattr(solver, "_line_search", rejecting)
    trace = solve(start)
    if case == "line-search":
        assert len(proposed) == trace.iterations
        assert all(np.isfinite(step).all() for step in proposed)
    assert trace.converged and trace.iterations == cg_only.iterations > 2
    assert trace.steps == ("cg",) * trace.iterations
    assert trace.energies == cg_only.energies and trace.residuals == cg_only.residuals


@pytest.mark.parametrize("case", ["singular", "not-finite", "uphill", "line-search"])
def test_failed_exact_step_falls_back_to_cg(genus2_bundle, monkeypatch, case):
    _assert_failed_exact_steps_fall_back_to_cg(monkeypatch, perturbed(genus2_bundle[2], 0.1, seed=46), case)


@pytest.mark.parametrize("case", ["singular", "not-finite", "uphill", "line-search"])
def test_failed_exact_step_falls_back_to_cg_on_a_multi_block_map(genus2_solved, monkeypatch, case):
    start = perturbed(oracles.subdivide(genus2_solved, 8), 0.05, seed=8)
    assert len(start.edges.block_plan.blocks) > 1
    _assert_failed_exact_steps_fall_back_to_cg(monkeypatch, start, case)


@pytest.mark.parametrize("genus_or_klein,words", [(2, ((1,), (-1,))), (3, ((1, 2),)), ("klein", ((1,), (1,)))])
def test_exact_steps_do_not_run_along_the_geodesic_of_a_degenerate_map(genus_or_klein, words):
    # every loop maps into one geodesic, along which the Hessian is singular:
    # an LU step there is rounding amplified along the geodesic, nearly
    # orthogonal to the gradient, and without the angle condition it carried
    # the lifts out of float range on some of these starts
    from graphuniform.surfaces import build_klein_quartic, build_regular_4g_surface

    surface = build_klein_quartic() if genus_or_klein == "klein" else build_regular_4g_surface(genus_or_klein)
    graph = bouquet(len(words))
    for seed in range(6):
        start = initial_lifts(surface, graph, "random", seed)
        trace = solve(MarkedMap.from_unoriented_words(surface, graph, start, words))
        assert trace.converged
        assert np.max(np.abs(trace.final_map.lifts)) < 10.0
        report = uniqueness_probe(surface, graph, words, 3, SolverConfig(seed=seed))
        assert report.degenerate and not report.ok


def _plan_test_maps(genus2_solved, klein_surface, case):
    if case.startswith("fold-"):
        return oracles.subdivide(genus2_solved, int(case[5:]))
    if case == "two-components-small":
        return _two_component_map(genus2_solved)
    return _dense_test_maps(genus2_solved, klein_surface, case)


@pytest.mark.parametrize("case", ["fold-1", "fold-4", "fold-8", "fold-32", "two-components-small",
                                  "two-components", "octagon-bouquet", "klein-bouquet"])
def test_block_plan_keeps_every_edge_within_neighbouring_blocks(genus2_solved, klein_surface, case):
    m = _plan_test_maps(genus2_solved, klein_surface, case)
    edges = m.edges
    plan = edges.block_plan
    count = m.graph.vertex_count
    links = edges.origins != edges.termini  # loops are no adjacency
    # the levels are breadth-first: each vertex once, every edge within a
    # level or to the next, and every level but a component's root reached
    # from the level before
    levels = _breadth_first_levels(count, edges.origins, edges.termini)
    level_of = np.full(count, -1)
    for i, level in enumerate(levels):
        assert np.all(np.diff(level) > 0) and np.all(level_of[level] == -1)
        level_of[level] = i
    assert np.all(level_of >= 0)
    assert np.all(np.abs(level_of[edges.origins] - level_of[edges.termini]) <= 1)
    for i, level in enumerate(levels[1:], start=1):
        into = links & (level_of[edges.origins] == i - 1) & (level_of[edges.termini] == i)
        assert np.array_equal(np.unique(edges.termini[into]), level) or (len(level) == 1 and not into.any())
    # the blocks partition the vertices, are no larger than the limit, and
    # join only themselves or their neighbours
    order = np.concatenate(plan.blocks)
    assert np.array_equal(np.sort(order), np.arange(count))
    assert all(0 < len(block) <= DENSE_MAX_VERTICES for block in plan.blocks)
    block_of = np.empty(count, dtype=int)
    for b, block in enumerate(plan.blocks):
        block_of[block] = b
    assert np.all(np.abs(block_of[edges.origins] - block_of[edges.termini]) <= 1)
    if count <= LEVEL_BLOCK_VERTICES:
        assert len(plan.blocks) == 1 and np.array_equal(plan.blocks[0], np.arange(count))
    else:
        assert len(plan.blocks) > 1 and np.array_equal(order, np.concatenate(levels))
        # levels grouped greedily: a block is one level or levels of at most
        # LEVEL_BLOCK_VERTICES vertices, and the next block's first level
        # would not fit into it
        for block, following in zip(plan.blocks, plan.blocks[1:]):
            assert len(block) <= LEVEL_BLOCK_VERTICES or len(set(level_of[block])) == 1
            assert len(block) + len(levels[level_of[following[0]]]) > LEVEL_BLOCK_VERTICES
    # no block of the matrix is wider than 2 * DENSE_MAX_VERTICES, and each
    # superdiagonal block reaches every column that an edge needs
    sizes = [2 * len(block) for block in plan.blocks]
    assert plan.shapes[0::2] == tuple((size, size) for size in sizes)
    local = np.empty(count, dtype=int)
    for block in plan.blocks:
        local[block] = np.arange(len(block))
    for b, (rows, cols) in enumerate(plan.shapes[1::2]):
        assert rows == sizes[b] and cols <= sizes[b + 1]
        ahead = (block_of[edges.origins] == b) & (block_of[edges.termini] == b + 1)
        assert np.all(2 * local[edges.termini[ahead]] < cols)
    assert max(max(shape) for shape in plan.shapes) <= 2 * DENSE_MAX_VERTICES


def test_block_plan_is_built_once_and_shared_by_with_lifts_copies(genus2_solved, monkeypatch):
    builds = []
    build = BlockPlan.build
    monkeypatch.setattr(BlockPlan, "build", staticmethod(lambda edges: builds.append(edges) or build(edges)))
    m = oracles.subdivide(genus2_solved, 8)
    start = perturbed(m, 0.05, seed=8)
    trace = solve(start)
    assert trace.converged and trace.iterations > 1 and len(m.edges.block_plan.blocks) > 1
    assert builds == [m.edges]
    assert trace.final_map.edges.block_plan is start.edges.block_plan is m.edges.block_plan


def test_block_plan_without_blocks_leaves_the_steps_to_cg(genus2_bundle):
    # a star of 60 leaves has a level of 60 vertices, wider than a block
    surface = genus2_bundle[0]
    leaves = 60
    graph = WeightedGraph.from_edges(leaves + 1, [(0, v, 1.0, "e") for v in range(1, leaves + 1)])
    words = tuple((1 + v % 2,) for v in range(leaves))
    lifts = [oracles.point_at(0.1 * (v % 7), 0.3 * v) for v in range(leaves + 1)]
    m = MarkedMap.from_unoriented_words(surface, graph, lifts, words)
    plan = m.edges.block_plan
    levels = _breadth_first_levels(leaves + 1, m.edges.origins, m.edges.termini)
    assert [len(level) for level in levels] == [1, leaves]
    assert plan.blocks == () and plan.shapes == ()
    trace = solve(m)
    assert trace.converged and trace.steps == ("cg",) * trace.iterations


def _assert_stack_matches_solo_solves(m, lifts, cfg=SolverConfig()):
    # each start of a stacked descent is the start's own solve: the same
    # steps and stop, energies to 1e-12 relative, limits to 1e-9
    import graphuniform.solver as solver

    starts = np.stack(lifts)
    traces = solver._solve_stack(m, starts, cfg)
    assert len(traces) == len(lifts)
    for x, trace in zip(lifts, traces):
        solo = solve(m.with_lifts(x), cfg)
        assert trace.stop_reason == solo.stop_reason
        assert trace.iterations == solo.iterations
        assert trace.steps == solo.steps
        assert len(trace.residuals) == len(solo.residuals)
        assert np.allclose(trace.energies, solo.energies, rtol=1e-12, atol=0.0)
        assert np.max(np.abs(trace.final_map.lifts - solo.final_map.lifts)) <= 1e-9
    return traces


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_stacked_descent_matches_solo_solves_on_the_genus2_ladder(genus2_solved, k):
    # 4- and 8-fold are several blocks: every elimination step is batched
    m = oracles.subdivide(genus2_solved, k)
    assert (len(m.edges.block_plan.blocks) > 1) == (k in (4, 8))
    lifts = [initial_lifts(m.surface, m.graph, "random", seed=seed) for seed in range(3)]
    lifts.append(perturbed(m, 0.05, seed=k).lifts)
    traces = _assert_stack_matches_solo_solves(m, lifts)
    assert all(t.converged for t in traces)
    assert len({t.iterations for t in traces}) > 1 or k == 1  # starts leave the stack at different steps


def test_stacked_descent_matches_solo_solves_with_cg_steps_mid_stack(octagon_surface):
    # the loop's Hessian is singular at its limit: some starts end on a CG
    # step while the others take exact steps or have stopped
    graph = bouquet(1)
    lifts = [initial_lifts(octagon_surface, graph, "random", seed=seed) for seed in range(4)]
    m = MarkedMap.from_unoriented_words(octagon_surface, graph, lifts[0], ((1,),))
    traces = _assert_stack_matches_solo_solves(m, lifts)
    steps = [t.steps for t in traces]
    assert any("cg" in s for s in steps) and any("cg" not in s for s in steps), steps


def test_stacked_descent_keeps_a_converged_start_among_perturbed_ones(genus2_solved):
    lifts = [perturbed(genus2_solved, 0.1, seed=seed).lifts for seed in (3, 4)]
    traces = _assert_stack_matches_solo_solves(genus2_solved, [lifts[0], genus2_solved.lifts, lifts[1]])
    assert traces[1].iterations == 0 and traces[1].converged
    assert traces[0].iterations > 0 and traces[2].iterations > 0


@pytest.mark.parametrize("budget", [0, 1])
def test_stacked_descent_ends_on_its_budget(genus2_bundle, budget):
    surface, graph, ref = genus2_bundle
    lifts = [initial_lifts(surface, graph, "random", seed=seed) for seed in range(3)]
    traces = _assert_stack_matches_solo_solves(ref, lifts, SolverConfig(max_iters=budget))
    assert all(t.stop_reason == "budget" and t.iterations == budget for t in traces)


@pytest.mark.parametrize("k", [1, 8])
def test_stacked_descent_sends_only_the_failing_start_to_cg(genus2_solved, monkeypatch, k):
    # a singular block in one start's matrix is that start's: the batched
    # solve or elimination fails, each start is solved alone, and only that
    # start takes a CG step, as it would alone
    import graphuniform.solver as solver

    m = oracles.subdivide(genus2_solved, k)
    lifts = [perturbed(m, 0.1 / k, seed=seed).lifts for seed in (5, 6, 7)]
    matrix = Hessian.matrix

    def singular_middle(self, bases):
        diagonal, upper = matrix(self, bases)
        if len(bases) == 3:
            diagonal[0][1] = 0.0
        return diagonal, upper

    monkeypatch.setattr(Hessian, "matrix", singular_middle)
    starts = np.stack([m.with_lifts(x).lifts for x in lifts])
    traces = solver._solve_stack(m, starts, SolverConfig())
    assert traces[1].steps[0] == "cg"
    assert traces[0].steps[0] == traces[2].steps[0] == "lu"
    assert all(t.converged for t in traces)


def test_stacked_descent_rejects_a_trial_off_the_sheet_for_its_start_alone(genus2_solved, monkeypatch):
    # every trial from the middle start leaves the sheet: the stack's trial
    # pass is redone start by start, the middle start stalls where it
    # stands, as it does alone, and the others descend
    import graphuniform.solver as solver

    lifts = [perturbed(genus2_solved, 0.1, seed=seed).lifts for seed in (8, 9, 10)]
    marked = genus2_solved.with_lifts(lifts[1]).lifts
    stacks = []

    def leaving(p, v):
        if any(np.array_equal(start, marked) for start in p):
            stacks.append(len(p))
            raise NotHyperbolicError("exponential map left the upper sheet")
        return exp_arr(p, v)

    monkeypatch.setattr(solver, "exp_arr", leaving)
    traces = _assert_stack_matches_solo_solves(genus2_solved, lifts)
    assert max(stacks) == 3
    assert traces[1].stop_reason == "stalled" and traces[1].iterations == 0
    assert traces[0].converged and traces[2].converged
