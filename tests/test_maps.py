
import math

import numpy as np
import pytest

import oracles
from graphuniform import maps
from graphuniform.errors import DomainError, GeometryError, SchemaError
from graphuniform.graphs import WeightedGraph, bouquet
from graphuniform.hyperboloid import HPoint, Isometry, J_MATRIX, dist_arr, exp_arr, log_arr, minkowski_dot
from graphuniform.maps import (
    MarkedMap,
    balanced_residual,
    energy,
    initial_lifts,
)
from graphuniform.serialize import map_from_json, map_to_json
from graphuniform.solver import solve
from graphuniform.surfaces import (
    SurfaceModel,
    build_genus2_hexagon_surface,
    build_klein_quartic,
    build_regular_4g_surface,
    center_bouquet,
    family,
)


def perturbed(m, scale, seed):
    rng = np.random.default_rng(seed)
    lifts = m.lifts
    noise = rng.standard_normal(lifts.shape) * scale
    noise[..., 0] = 0.0
    noise += minkowski_dot(noise, lifts)[..., None] * lifts
    return m.with_lifts(exp_arr(lifts, noise))


def test_reference_map_is_balanced(genus2_bundle):
    _, _, ref = genus2_bundle
    report = balanced_residual(ref)
    assert report.max_norm < 1e-9


def test_energy_is_weighted_sum_of_squared_lengths(genus2_bundle):
    _, _, ref = genus2_bundle
    total = sum(w * dist_arr(*oracles.edge_segment(ref, e)) ** 2 for e, _, _, w, _ in ref.graph.unoriented_edges())
    assert abs(energy(ref) - total) < 1e-10 * (1.0 + total)


def test_energy_gauge_invariance(genus2_bundle):
    _, _, ref = genus2_bundle
    m = perturbed(ref, 0.2, seed=11)
    g = oracles.x_translation(0.8) @ oracles.rot_z(1.1)
    moved = oracles.moved(m, g)
    assert abs(energy(moved) - energy(m)) < 1e-10 * (1.0 + energy(m))
    r0 = balanced_residual(m).max_norm
    r1 = balanced_residual(moved).max_norm
    assert abs(r0 - r1) < 1e-10 * (1.0 + r0)
    # lifts actually moved
    assert np.max(np.abs(moved.lifts - m.lifts)) > 0.1


def test_gauge_transform_keeps_the_long_double_energy():
    # a gauge move conjugates the long-double generators as well as the
    # float64 ones, and moves accumulate: one and two gauge moves of a solved map
    # change its energy by 1e-15 to 1e-14 relative
    for s in (math.log(2.0 + math.sqrt(3.0)), 2.0):
        m = solve(family("hexagon-genus2").build(s)[2]).final_map
        once = oracles.moved(m, oracles.x_translation(0.8) @ oracles.rot_z(1.1))
        twice = oracles.moved(once, oracles.rot_z(0.4) @ oracles.x_translation(0.3))
        for moved in (once, twice):
            assert abs(energy(moved) - energy(m)) <= 1e-13 * energy(m)


def test_energy_on_generators_read_as_float64_is_the_float64_kernels(genus2_bundle):
    # generators read from JSON widen exactly, so the long-double energy
    # differs from the float64 kernel's by that kernel's rounding alone:
    # under 1e-14 on the centre bouquets, whose deck matrices and lifts are
    # small, and growing with their norms on the genus-2 map (1.1e-13 here,
    # at seam 1.0, with deck entries up to 173)
    cases = ((center_bouquet(build_klein_quartic()), 1e-14),
             (center_bouquet(build_regular_4g_surface(3)), 1e-14),
             (perturbed(center_bouquet(build_regular_4g_surface(2)), 0.2, seed=5), 1e-14),
             (perturbed(genus2_bundle[2], 0.1, seed=5), 1e-11))
    for m, bound in cases:
        back = map_from_json(map_to_json(m))
        assert abs(energy(back) - back.edges.energy(back.lifts)) <= bound * energy(back)


def test_rebase_vertex_keeps_energy_and_residual(genus2_bundle):
    surface, _, ref = genus2_bundle
    m = perturbed(ref, 0.15, seed=3)
    e0 = energy(m)
    r0 = balanced_residual(m).max_norm
    moved = oracles.rebase_vertex(m, 2, (1,))
    assert np.max(np.abs(moved.lifts[2] - m.lifts[2])) > 0.05
    assert abs(energy(moved) - e0) < 1e-9 * (1.0 + e0)
    assert abs(balanced_residual(moved).max_norm - r0) < 1e-9 * (1.0 + r0)


def test_edge_lengths_symmetric_under_reversal(genus2_bundle):
    _, _, ref = genus2_bundle
    # asymmetry grows with cosh of the deck-translated distances; 0.1-scale
    # perturbations keep it below ~1e-11
    m = perturbed(ref, 0.1, seed=4)
    for e in range(m.graph.half_edge_count):
        r = m.graph.reversals[e]
        assert abs(dist_arr(*oracles.edge_segment(m, e)) - dist_arr(*oracles.edge_segment(m, r))) < 1e-10


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
    arr = ref.lifts
    a = ref.with_lifts(arr)
    b = ref.with_lifts([HPoint(row) for row in arr])
    assert np.max(np.abs(a.lifts - b.lifts)) < 1e-15


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
    with pytest.raises(DomainError, match="non-negative"):
        initial_lifts(surface, graph, mode="random", seed=-1)  # numpy's SeedSequence would raise ValueError


def test_random_initial_lifts_match_per_vertex_draws(genus2_bundle):
    # one Dirichlet draw of all V rows takes the same random numbers as V
    # single draws; the batched product may round differently
    surface, graph, _ = genus2_bundle
    corners = surface.polygon
    rng = np.random.default_rng(5)
    want = np.array([HPoint(rng.dirichlet(np.ones(len(corners))) @ corners).coords
                     for _ in range(graph.vertex_count)])
    got = initial_lifts(surface, graph, mode="random", seed=5)
    assert np.max(np.abs(got - want)) <= 8.0 * np.finfo(float).eps * np.max(np.abs(want))


def test_stacked_random_lifts_are_the_draws_of_their_seeds(genus2_bundle):
    # uniqueness_probe draws its starts as one stack
    from graphuniform.maps import _random_lifts

    surface, graph, _ = genus2_bundle
    stack = _random_lifts(surface, graph, range(7, 11))
    for seed, lifts in zip(range(7, 11), stack):
        assert np.array_equal(lifts, initial_lifts(surface, graph, "random", seed=seed))


def test_perturbation_produces_measurable_residual(genus2_bundle):
    _, graph, ref = genus2_bundle
    m = perturbed(ref, 0.1, seed=9)
    min_weight = min(w for _, _, _, w, _ in graph.unoriented_edges())
    assert balanced_residual(m).max_norm > 0.05 * min_weight


def test_deck_matrices_conjugated_by_gauge(genus2_bundle):
    surface, graph, ref = genus2_bundle
    g = Isometry(oracles.x_translation(0.6))
    moved = oracles.moved(ref, g.matrix)
    for e in range(graph.half_edge_count):
        lhs = oracles.deck_matrix(moved, e)
        rhs = g.matrix @ oracles.deck_matrix(ref, e) @ (J_MATRIX @ g.matrix.T @ J_MATRIX)
        assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_edge_segment_and_tangent_are_consistent(genus2_bundle):
    _, _, ref = genus2_bundle
    for e, *_ in ref.graph.unoriented_edges():
        p, q = oracles.edge_segment(ref, e)
        t = log_arr(p, q)
        assert abs(minkowski_dot(t, p)) < 1e-12
        assert abs(minkowski_dot(q, q) + 1.0) < 1e-12
        assert abs(np.sqrt(minkowski_dot(t, t)) - dist_arr(p, q)) < 1e-11


def test_residual_is_weighted_sum_of_edge_tangents(genus2_bundle):
    _, graph, ref = genus2_bundle
    m = perturbed(ref, 0.2, seed=12)
    x = m.lifts
    want = np.zeros((graph.vertex_count, 3))
    for e in range(graph.half_edge_count):
        o, q = graph.origins[e], oracles.deck_matrix(m, e) @ x[graph.terminus(e)]
        want[o] += graph.weights[e] * log_arr(x[o], q)
    got = balanced_residual(m).residuals
    assert np.max(np.abs(got - want)) < 1e-12 * (1.0 + np.max(np.abs(want)))


def test_isolated_vertices_have_zero_residual(genus2_bundle):
    # vertices 1 and 3 carry no edge: one empty star between busy ones, one
    # at the end of the half-edge rows
    surface, _, _ = genus2_bundle
    graph = WeightedGraph.from_edges(4, [(0, 2, 1.0, "e"), (2, 0, 2.0, "e")])
    lifts = [oracles.point_at(d, a) for d, a in ((0.0, 0.0), (0.3, 1.0), (0.5, 0.0), (0.2, 2.0))]
    m = MarkedMap(surface, graph, lifts, ((1,), (-1,), (), ()))
    residuals = balanced_residual(m).residuals
    assert residuals.shape == (4, 3)
    assert np.all(residuals[[1, 3]] == 0.0)
    assert np.max(np.abs(residuals[[0, 2]])) > 0.1
    total = 1.0 * dist_arr(*oracles.edge_segment(m, 0)) ** 2 + 2.0 * dist_arr(*oracles.edge_segment(m, 2)) ** 2
    assert abs(energy(m) - total) < 1e-12 * total


def _assert_same_deck_matrices(a, b):
    for e in range(a.graph.half_edge_count):
        want = oracles.deck_matrix(b, e)
        scale = (1.0 + np.max(np.abs(want))) ** 2  # product round-off grows with the square of the norm
        assert np.max(np.abs(oracles.deck_matrix(a, e) - want)) <= 1e-10 * scale


def test_derived_maps_match_fresh_construction(genus2_bundle):
    surface, graph, ref = genus2_bundle
    m = perturbed(ref, 0.1, seed=6)
    _assert_same_deck_matrices(m, MarkedMap(surface, graph, m.vertex_lifts, m.deck_words))
    g = Isometry(oracles.x_translation(0.9) @ oracles.rot_z(0.4))
    moved = oracles.moved(oracles.moved(m, g.matrix), g.matrix)
    fresh = MarkedMap(surface.conjugated(g.matrix @ g.matrix), graph, moved.vertex_lifts, m.deck_words)
    assert moved.deck_words == m.deck_words
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
    x = ref.lifts.copy()
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
    short = ref.lifts[:, :2]
    for build in (ref.with_lifts, lambda x: MarkedMap(surface, graph, x, ref.deck_words)):
        with pytest.raises(GeometryError):
            build(short)
        with pytest.raises(GeometryError):
            build(ref.lifts[:, 0])
        with pytest.raises(GeometryError):
            build([p if i != 2 else p[:2] for i, p in enumerate(ref.lifts)])
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
    assert np.array([p.coords for p in points]).tobytes() == m.lifts.tobytes()
    assert "vertex_lifts" not in vars(m.with_lifts(m.lifts))


@pytest.mark.parametrize("s", [0.5, 3.0])
def test_points_and_isometries_handed_out_are_the_array_rows(s, genus2_solved):
    surface, _, ref = build_genus2_hexagon_surface(s)
    for m in (ref, solve(perturbed(ref, 0.05, seed=2)).final_map, genus2_solved):
        assert np.array([p.coords for p in m.vertex_lifts]).tobytes() == m.lifts.tobytes()
    assert np.array([g.matrix for g in surface.generators]).tobytes() == surface.matrices.tobytes()
    with pytest.raises(GeometryError):
        HPoint(np.array([0.1, 1.0, 0.0]))  # outside callers are still checked
    assert dist_arr(HPoint(2.0 * ref.lifts[3]).coords, ref.vertex_lifts[3].coords) <= 1e-10


_INDEX_ARRAYS = ("half_edges", "origins", "termini", "weights", "even", "busy", "starts")


def _assert_retargets_like_fresh(m, surface, lifts):
    """m moved onto `surface` at `lifts` keeps its words and edge index
    arrays, and has the deck matrices of a map built there afresh."""
    m.vertex_lifts  # read on m first: the moved map's points are still its own
    moved = m.with_surface(surface, lifts)
    fresh = MarkedMap(surface, m.graph, lifts, m.deck_words)
    assert moved.surface is surface and moved.graph is m.graph
    assert moved.deck_words is m.deck_words
    assert all(getattr(moved.edges, name) is getattr(m.edges, name) for name in _INDEX_ARRAYS)
    assert np.array_equal(moved.lifts, fresh.lifts)
    assert np.array_equal([p.coords for p in moved.vertex_lifts], fresh.lifts)
    assert np.array_equal(moved.edges.mats, fresh.edges.mats)
    assert energy(moved) == energy(fresh)
    return moved


def _conjugated(surface, g):
    return SurfaceModel(surface.genus, g @ surface.matrices @ np.linalg.inv(g))


def test_with_surface_matches_fresh_construction(genus2_bundle):
    _, _, ref = genus2_bundle
    other, _, target = build_genus2_hexagon_surface(1.7)
    moved = _assert_retargets_like_fresh(ref, other, target.lifts)
    assert moved.edges.mats.tobytes() == target.edges.mats.tobytes()
    ladder = oracles.subdivide(ref, 8)
    _assert_retargets_like_fresh(ladder, other, ladder.lifts)
    rebased = oracles.rebase_vertex(oracles.rebase_vertex(ref, 2, (1, -3, 2)), 3, (-4, 1))  # words of up to six letters
    assert max(map(len, rebased.deck_words)) == 6
    _assert_retargets_like_fresh(rebased, other, rebased.lifts)
    g = oracles.x_translation(0.3) @ oracles.rot_z(0.7)
    for surface in (build_regular_4g_surface(2), build_klein_quartic()):
        bouquet = center_bouquet(surface)
        _assert_retargets_like_fresh(bouquet, _conjugated(surface, g), bouquet.lifts @ g.T)


def test_with_surface_moves_a_gauged_map_to_a_conjugated_surface(genus2_bundle):
    # a map carries no frame: a map moved by g goes to another metric on the
    # surface conjugated by g, and lands where the target moved by g does
    _, _, ref = genus2_bundle
    g = Isometry(oracles.x_translation(0.8) @ oracles.rot_z(1.1))
    gauged = oracles.moved(ref, g.matrix)
    other, _, target = build_genus2_hexagon_surface(0.9)
    moved = _assert_retargets_like_fresh(gauged, other.conjugated(g.matrix), target.lifts @ g.matrix.T)
    assert moved.edges.mats.tobytes() == oracles.moved(target, g.matrix).edges.mats.tobytes()


def test_with_surface_refuses_what_fresh_construction_refuses():
    # a surface without the generator that a word names refuses the map
    # fresh and moved, with the same text
    t = oracles.x_translation(0.5)
    m = MarkedMap(SurfaceModel(2, np.stack([t, t])), bouquet(1), [[1.0, 0.0, 0.0]], ((2,), (-2,)))
    surface = SurfaceModel(2, t[None])
    with pytest.raises(DomainError) as fresh:
        MarkedMap(surface, m.graph, m.lifts, m.deck_words)
    with pytest.raises(DomainError) as moved:
        m.with_surface(surface, m.lifts)
    assert str(moved.value) == str(fresh.value)


def test_words_inverse_only_as_matrices_are_refused_on_every_surface():
    # the loop's words (1,) and (-2,) are inverse matrices while g1 = g2, yet
    # not literal inverses, so no surface takes them
    t = oracles.x_translation(0.5)
    for gens in (np.stack([t, t]), np.stack([t, oracles.x_translation(0.7)])):
        with pytest.raises(GeometryError, match="^deck word of half-edge 1 is not inverse to half-edge 0$"):
            MarkedMap(SurfaceModel(2, gens), bouquet(1), [[1.0, 0.0, 0.0]], ((1,), (-2,)))


def test_words_equal_only_as_group_elements_are_refused_at_the_first_pair():
    # (1, -1) is the identity as a group element, but not the literal
    # inverse of the empty word; the first pair of half-edges is fine
    t = oracles.x_translation(0.5)
    surface = SurfaceModel(2, np.stack([t, oracles.x_translation(0.7)]))
    graph = bouquet(2)
    assert graph.reversals[0] == 1 and graph.reversals[2] == 3
    lifts = [[1.0, 0.0, 0.0]]
    MarkedMap(surface, graph, lifts, ((1, -2), (2, -1), (), ()))
    with pytest.raises(GeometryError, match="^deck word of half-edge 3 is not inverse to half-edge 2$"):
        MarkedMap(surface, graph, lifts, ((1, -2), (2, -1), (1, -1), ()))


def test_copies_share_the_caches_that_their_fields_do_not_decide(monkeypatch):
    # a copy replaces lifts, surface or deck matrices, none of which
    # the edge arrays' plans read, so it shares them; `hessian_fd` takes its
    # columns through the map's own edge arrays
    from graphuniform.solver import hessian_fd

    _, _, ref = family("hexagon-genus2").build(1.3)
    m = solve(ref.with_lifts(initial_lifts(ref.surface, ref.graph, "random", seed=3))).final_map
    edges = m.edges
    plan, colours = edges.block_plan, edges.fd_colours
    other, _, target = build_genus2_hexagon_surface(1.7)
    m.vertex_lifts  # read on m first: each copy's points are still its own
    copies = (m.with_lifts(target.lifts), m.with_surface(other, target.lifts),
              oracles.moved(m, oracles.x_translation(0.3)))
    for copy in copies:
        assert copy.edges.block_plan is plan and copy.edges.fd_colours is colours
        assert np.array([p.coords for p in copy.vertex_lifts]).tobytes() == copy.lifts.tobytes()
    assert not np.array_equal(copies[2].lifts, m.lifts)  # the gauge moved the lifts

    evaluated = []
    residual = maps.EdgeData.residual

    def spy(self, x, geometry=None):
        evaluated.append(self)
        return residual(self, x, geometry)

    monkeypatch.setattr(maps.EdgeData, "residual", spy)
    hessian_fd(m)
    assert len(evaluated) == 1 and evaluated[0] is edges


def _star_vertices(edges) -> list[set]:
    """The vertices whose residual moves with each vertex's lift: itself and
    the origins of the rows that end at it."""
    stars = [{v} for v in range(edges.vertex_count)]
    for o, t in zip(edges.origins.tolist(), edges.termini.tolist()):
        stars[t].add(o)
    return stars


@pytest.mark.parametrize("case", ["octagon-bouquet", "genus2-k1", "genus2-k2", "genus2-k4", "isolated-vertex"])
def test_fd_colours_share_no_star_vertex(genus2_bundle, case):
    # loops (the bouquet), doubled edges (the genus-2 graph and its
    # subdivisions) and an empty star: no two vertices of one colour share
    # a star vertex, and each takes the least colour that no earlier vertex
    # sharing one has
    if case == "octagon-bouquet":
        edges = center_bouquet(build_regular_4g_surface(2)).edges
    elif case == "isolated-vertex":
        graph = WeightedGraph.from_edges(4, [(0, 2, 1.0, "e"), (2, 0, 2.0, "e"), (0, 3, 1.0, "e")])
        edges = maps.EdgeData.build(graph, np.broadcast_to(np.eye(3), (graph.half_edge_count, 3, 3)))
    else:
        edges = oracles.subdivide(genus2_bundle[2], int(case[-1])).edges
    colours = edges.fd_colours.tolist()
    assert len(colours) == edges.vertex_count
    stars = _star_vertices(edges)
    for v in range(edges.vertex_count):
        taken = {colours[w] for w in range(v) if stars[v] & stars[w]}
        assert colours[v] not in taken and all(c in taken for c in range(colours[v]))


def test_energy_is_the_long_double_sum_over_unoriented_edges():
    for weights in ((1.0, 1.0), (2.0, 1.0), (1.0, 3.0), (2.5, 1.5)):
        fam = family("hexagon-genus2", weights=weights)
        for s in (0.6, 1.3, 2.9):
            _, _, ref = fam.build(s)
            m = perturbed(ref, 0.1, seed=int(10 * s))
            for case in (ref, m, oracles.moved(m, oracles.x_translation(0.8) @ oracles.rot_z(1.1))):
                want = oracles.ld_energy(case)
                assert abs(energy(case) - want) <= math.ulp(want), (weights, s)
