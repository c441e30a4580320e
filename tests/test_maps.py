
import math

import numpy as np
import pytest

from graphuniform.errors import DomainError, GeometryError, SchemaError
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
from graphuniform.serialize import map_from_json, map_to_json


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
    assert bary.shape == (graph.vertex_count, 3)
    # all vertices start at the same interior point
    assert np.all(dist_arr(bary, bary[0]) <= 1e-12)

    r1 = initial_lifts(surface, graph, mode="random", seed=5)
    r2 = initial_lifts(surface, graph, mode="random", seed=5)
    r3 = initial_lifts(surface, graph, mode="random", seed=6)
    assert np.array_equal(r1, r2)
    assert np.max(np.abs(r1 - r3)) > 1e-3
    with pytest.raises(DomainError):
        initial_lifts(surface, graph, mode="nope")


def test_random_initial_lifts_match_per_vertex_draws(genus2_bundle):
    # one Dirichlet draw of all V rows takes the same random numbers as V
    # single draws; the batched product may round differently
    surface, graph, _ = genus2_bundle
    corners = np.array([p.coords for p in surface.polygon])
    rng = np.random.default_rng(5)
    want = np.array([HPoint(rng.dirichlet(np.ones(len(corners))) @ corners).coords
                     for _ in range(graph.vertex_count)])
    got = initial_lifts(surface, graph, mode="random", seed=5)
    assert np.max(np.abs(got - want)) <= 8.0 * np.finfo(float).eps * np.max(np.abs(want))


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


# one bad row (vertex 3) per case, with the error map_from_json raises when
# its schema rejects the row before any geometry (None: HPoint's error)
_BAD_ROWS = {
    "nan": ([2.0, math.nan, 0.0], SchemaError),
    "inf": ([2.0, 0.0, math.inf], SchemaError),
    "spacelike": ([0.1, 1.0, 0.0], None),
    "lower-sheet": ([-math.cosh(1.0), math.sinh(1.0), 0.0], None),
}


@pytest.mark.parametrize("case", sorted(_BAD_ROWS))
def test_bad_lift_rows_rejected_like_hpoint(case, genus2_bundle):
    surface, graph, ref = genus2_bundle
    row, schema_error = _BAD_ROWS[case]
    with pytest.raises(GeometryError) as point_exc:
        HPoint(np.array(row))
    error = type(point_exc.value)
    x = ref.lift_array()
    x[3] = row
    with pytest.raises(error, match="row 3"):
        ref.with_lifts(x)
    with pytest.raises(error, match="row 3"):
        MarkedMap(surface, graph, x, ref.deck_words)
    with pytest.raises(error):
        ref.with_lifts([HPoint(p) if i != 3 else p for i, p in enumerate(x)])
    doc = map_to_json(ref)
    doc["vertex_lifts"][3] = row
    with pytest.raises(schema_error or error) as doc_exc:
        map_from_json(doc)
    if schema_error is not None:
        assert doc_exc.value.path.startswith("map.vertex_lifts[3]")


def test_lift_array_of_wrong_shape_rejected_like_hpoint(genus2_bundle):
    surface, graph, ref = genus2_bundle
    with pytest.raises(GeometryError):
        HPoint(np.array([2.0, 1.0]))
    short = ref.lift_array()[:, :2]
    for build in (ref.with_lifts, lambda x: MarkedMap(surface, graph, x, ref.deck_words)):
        with pytest.raises(GeometryError):
            build(short)
        with pytest.raises(GeometryError):
            build(ref.lift_array()[:, 0])
        with pytest.raises(GeometryError):
            build([p if i != 2 else p[:2] for i, p in enumerate(ref.lift_array())])
    doc = map_to_json(ref)
    doc["vertex_lifts"][2] = [2.0, 1.0]
    with pytest.raises(SchemaError):
        map_from_json(doc)


def test_lifts_are_read_only_and_points_built_on_demand(genus2_bundle):
    _, _, ref = genus2_bundle
    m = perturbed(ref, 0.1, seed=5)
    assert not m.lifts.flags.writeable
    assert "vertex_lifts" not in vars(m)
    points = m.vertex_lifts
    assert np.max(np.abs(np.array([p.coords for p in points]) - m.lifts)) < 1e-14
    assert "vertex_lifts" not in vars(m.with_lifts(m.lifts))
