
import numpy as np
import pytest

from graphuniform.errors import DomainError, GeometryError
from graphuniform.graphs import WeightedGraph
from graphuniform.hyperboloid import HPoint, Isometry, dist_arr, exp_arr, log_arr, minkowski_dot
from graphuniform.maps import (
    _REVERSAL_TOL,
    MarkedMap,
    balanced_residual,
    energy,
    gauge_transform,
    initial_lifts,
    rebase_vertex,
)


def perturbed(m, scale, seed):
    rng = np.random.default_rng(seed)
    lifts = m.lift_array()
    noise = rng.standard_normal(lifts.shape) * scale
    noise[..., 0] = 0.0
    noise += minkowski_dot(noise, lifts)[..., None] * lifts
    return m.with_lifts(exp_arr(lifts, noise))


def test_reference_map_is_balanced(genus2_bundle):
    _, _, ref = genus2_bundle
    report = balanced_residual(ref)
    assert report.max_norm < 1e-9
    assert report.is_harmonic()
    assert report.rms_norm <= report.max_norm


def test_energy_is_weighted_sum_of_squared_lengths(genus2_bundle):
    _, _, ref = genus2_bundle
    total = sum(w * ref.edge_length(e) ** 2 for e, _, _, w, _ in ref.graph.unoriented_edges())
    assert abs(energy(ref) - total) < 1e-10 * (1.0 + total)


def test_energy_gauge_invariance(genus2_bundle):
    _, _, ref = genus2_bundle
    m = perturbed(ref, 0.2, seed=11)
    g = Isometry.x_translation(0.8) @ Isometry.rotation(HPoint.origin(), 1.1)
    moved = gauge_transform(m, g)
    assert abs(energy(moved) - energy(m)) < 1e-10 * (1.0 + energy(m))
    r0 = balanced_residual(m).max_norm
    r1 = balanced_residual(moved).max_norm
    assert abs(r0 - r1) < 1e-10 * (1.0 + r0)
    # lifts actually moved
    assert np.max(np.abs(moved.lift_array() - m.lift_array())) > 0.1


def test_rebase_vertex_keeps_energy_and_residual(genus2_bundle):
    surface, _, ref = genus2_bundle
    m = perturbed(ref, 0.15, seed=3)
    e0 = energy(m)
    r0 = balanced_residual(m).max_norm
    moved = rebase_vertex(m, 2, (1,))
    assert np.max(np.abs(moved.lift_array()[2] - m.lift_array()[2])) > 0.05
    assert abs(energy(moved) - e0) < 1e-9 * (1.0 + e0)
    assert abs(balanced_residual(moved).max_norm - r0) < 1e-9 * (1.0 + r0)


def test_edge_lengths_symmetric_under_reversal(genus2_bundle):
    _, _, ref = genus2_bundle
    # asymmetry grows with cosh of the deck-translated distances; 0.1-scale
    # perturbations keep it below ~1e-11
    m = perturbed(ref, 0.1, seed=4)
    for e in range(m.graph.half_edge_count):
        r = m.graph.reversals[e]
        assert abs(m.edge_length(e) - m.edge_length(r)) < 1e-10


def test_deck_words_must_invert_under_reversal(genus2_bundle):
    surface, graph, ref = genus2_bundle
    words = list(ref.deck_words)
    # corrupt one reversed half-edge word: (g1) paired with (g2) instead of (-g1)
    bad = words.copy()
    for e in range(graph.half_edge_count):
        if bad[e] == (1,):
            bad[graph.reversals[e]] = (2,)
            break
    with pytest.raises(GeometryError):
        MarkedMap(surface, graph, ref.vertex_lifts, tuple(bad))


def test_with_lifts_accepts_points_and_arrays(genus2_bundle):
    _, _, ref = genus2_bundle
    arr = ref.lift_array()
    a = ref.with_lifts(arr)
    b = ref.with_lifts([HPoint(row) for row in arr])
    assert np.max(np.abs(a.lift_array() - b.lift_array())) < 1e-15


def test_initial_lifts_modes(genus2_bundle):
    surface, graph, _ = genus2_bundle
    bary = initial_lifts(surface, graph, mode="barycenter")
    assert len(bary) == graph.vertex_count
    # all vertices start at the same interior point
    assert all(p.close_to(bary[0], 1e-12) for p in bary)

    def arr(pts):
        return np.array([p.coords for p in pts])

    r1 = initial_lifts(surface, graph, mode="random", seed=5)
    r2 = initial_lifts(surface, graph, mode="random", seed=5)
    r3 = initial_lifts(surface, graph, mode="random", seed=6)
    assert np.array_equal(arr(r1), arr(r2))
    assert np.max(np.abs(arr(r1) - arr(r3))) > 1e-3
    with pytest.raises(DomainError):
        initial_lifts(surface, graph, mode="nope")


def test_perturbation_produces_measurable_residual(genus2_bundle):
    _, graph, ref = genus2_bundle
    m = perturbed(ref, 0.1, seed=9)
    min_weight = min(w for _, _, _, w, _ in graph.unoriented_edges())
    assert balanced_residual(m).max_norm > 0.05 * min_weight


def test_deck_matrices_conjugated_by_gauge(genus2_bundle):
    surface, graph, ref = genus2_bundle
    g = Isometry.x_translation(0.6)
    moved = gauge_transform(ref, g)
    for e in range(graph.half_edge_count):
        lhs = moved.deck_matrix(e)
        rhs = g.matrix @ ref.deck_matrix(e) @ g.inverse().matrix
        assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_edge_segment_and_tangent_are_consistent(genus2_bundle):
    _, _, ref = genus2_bundle
    for e, *_ in ref.graph.unoriented_edges():
        p, q = ref.edge_segment(e)
        t = ref.edge_tangent(e)
        assert t.base.close_to(p, 1e-12)
        assert abs(t.norm - ref.edge_length(e)) < 1e-11
        assert abs(dist_arr(p.coords, q.coords) - ref.edge_length(e)) < 1e-11


def test_residual_is_weighted_sum_of_edge_tangents(genus2_bundle):
    _, graph, ref = genus2_bundle
    m = perturbed(ref, 0.2, seed=12)
    x = m.lift_array()
    want = np.zeros((graph.vertex_count, 3))
    for e in range(graph.half_edge_count):
        o, q = graph.origins[e], m.deck_matrix(e) @ x[graph.terminus(e)]
        want[o] += graph.weights[e] * log_arr(x[o], q)
    got = balanced_residual(m).residuals
    assert np.max(np.abs(got - want)) < 1e-12 * (1.0 + np.max(np.abs(want)))


def test_isolated_vertices_have_zero_residual(genus2_bundle):
    # vertices 1 and 3 carry no edge: one empty star between busy ones, one
    # at the end of the half-edge rows
    surface, _, _ = genus2_bundle
    graph = WeightedGraph.from_edges(4, [(0, 2, 1.0, "e"), (2, 0, 2.0, "e")])
    lifts = (HPoint.origin(), HPoint.at(0.3, 1.0), HPoint.at(0.5, 0.0), HPoint.at(0.2, 2.0))
    m = MarkedMap(surface, graph, lifts, ((1,), (-1,), (), ()))
    residuals = balanced_residual(m).residuals
    assert residuals.shape == (4, 3)
    assert np.all(residuals[[1, 3]] == 0.0)
    assert np.max(np.abs(residuals[[0, 2]])) > 0.1
    total = 1.0 * m.edge_length(0) ** 2 + 2.0 * m.edge_length(2) ** 2
    assert abs(energy(m) - total) < 1e-12 * total


def _assert_same_deck_matrices(a, b):
    for e in range(a.graph.half_edge_count):
        want = b.deck_matrix(e)
        scale = (1.0 + np.max(np.abs(want))) ** 2
        assert np.max(np.abs(a.deck_matrix(e) - want)) <= _REVERSAL_TOL * scale


def test_derived_maps_match_fresh_construction(genus2_bundle):
    surface, graph, ref = genus2_bundle
    m = perturbed(ref, 0.1, seed=6)
    _assert_same_deck_matrices(m, MarkedMap(surface, graph, m.vertex_lifts, m.deck_words, m.gauge))
    g = Isometry.x_translation(0.9) @ Isometry.rotation(HPoint.origin(), 0.4)
    moved = gauge_transform(gauge_transform(m, g), g)
    fresh = MarkedMap(surface, graph, moved.vertex_lifts, m.deck_words, g @ g @ m.gauge)
    assert moved.deck_words == m.deck_words
    assert np.max(np.abs(moved.gauge.matrix - fresh.gauge.matrix)) < 1e-12
    _assert_same_deck_matrices(moved, fresh)
