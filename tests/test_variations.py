import numpy as np
import pytest

import oracles
from graphuniform.errors import DegenerateEdgeError, DomainError, TangencyError
from graphuniform.hyperboloid import exp_arr, log_arr, minkowski_dot, tangent_basis_arr
from graphuniform.maps import MarkedMap, energy
from graphuniform.variations import (
    energy_along,
    first_variation,
    first_variation_fd,
    hessian_consistency,
    random_variation,
)


def perturbed(m, scale, seed):
    rng = np.random.default_rng(seed)
    lifts = m.lifts
    noise = rng.standard_normal(lifts.shape) * scale
    noise[..., 0] = 0.0
    noise += minkowski_dot(noise, lifts)[..., None] * lifts
    return m.with_lifts(exp_arr(lifts, noise))


def test_first_variation_linearity(genus2_bundle):
    _, _, ref = genus2_bundle
    m = perturbed(ref, 0.1, seed=1)
    v = random_variation(m, seed=2)
    w = random_variation(m, seed=3)
    a, b = 0.7, -1.3
    combo = a * v + b * w
    lhs = first_variation(m, combo)
    rhs = a * first_variation(m, v) + b * first_variation(m, w)
    assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(lhs))


def test_first_variation_matches_fd_at_generic_map(genus2_bundle):
    _, _, ref = genus2_bundle
    m = perturbed(ref, 0.2, seed=4)
    for seed in (5, 6, 7):
        v = random_variation(m, seed=seed)
        exact = first_variation(m, v)
        fd = first_variation_fd(m, v)
        assert abs(exact - fd) < 1e-6 * (1.0 + abs(exact))


def test_first_variation_vanishes_at_harmonic_map(genus2_solved):
    for seed in (8, 9):
        v = random_variation(genus2_solved, seed=seed)
        assert abs(first_variation(genus2_solved, v)) < 1e-8


def test_first_variation_equals_per_edge_sum(genus2_bundle):
    _, graph, ref = genus2_bundle
    m = perturbed(ref, 0.2, seed=22)
    v = random_variation(m, seed=23)
    total = sum(graph.weights[e] * float(minkowski_dot(v[graph.origins[e]],
                                                       log_arr(*oracles.edge_segment(m, e))))
                for e in range(graph.half_edge_count))
    assert abs(first_variation(m, v) + 2.0 * total) < 1e-12 * (1.0 + abs(total))


def test_second_variation_equals_sum_of_jacobi_fields(genus2_bundle):
    # agreement is rounding-limited and degrades with the size of the
    # deck-translated coordinates, so the map is kept near the reference
    _, _, ref = genus2_bundle
    m = perturbed(ref, 0.1, seed=24)
    for seed in (25, 26, 27):
        v = random_variation(m, seed=seed)
        total = oracles.jacobi_second_variation(m, v)
        assert abs(oracles.hessian_form(m, v) - total) <= 1e-12 * abs(total)


def test_second_variation_matches_fd(genus2_solved):
    # h = 1e-3 balances truncation against eps/h^2 evaluation noise
    for seed in (10, 11, 12):
        v = random_variation(genus2_solved, seed=seed)
        exact = oracles.hessian_form(genus2_solved, v)
        fd = oracles.second_variation_fd(genus2_solved, v, h=1e-3)
        assert abs(exact - fd) < 1e-6 * (1.0 + abs(exact))


def test_second_variation_nonnegative_at_harmonic_maps(genus2_solved):
    for seed in range(20):
        v = random_variation(genus2_solved, seed=seed)
        assert oracles.hessian_form(genus2_solved, v) >= -1e-12


def test_energy_along_is_quadratic_to_second_order(genus2_solved):
    v = random_variation(genus2_solved, seed=13)
    e0 = energy(genus2_solved)
    d2 = oracles.hessian_form(genus2_solved, v)
    s = 1e-3
    lhs = energy_along(genus2_solved, v, s)
    quad = e0 + 0.5 * d2 * s * s  # first variation vanishes at harmonic maps
    assert abs(lhs - quad) < 1e-7 * (1.0 + abs(lhs))


def test_jacobi_boundary_reconstruction(genus2_bundle):
    _, _, ref = genus2_bundle
    m = perturbed(ref, 0.1, seed=14)
    v = random_variation(m, seed=15)
    for e, *_ in m.graph.unoriented_edges():
        field = oracles.jacobi_solve(m, e, v)
        assert field.boundary_error < 1e-10


def test_jacobi_midpoint_against_fd_transport(genus2_bundle):
    _, _, ref = genus2_bundle
    m = perturbed(ref, 0.1, seed=16)
    v = random_variation(m, seed=17)
    h = 1e-4
    lifts = m.lifts
    plus = m.with_lifts(exp_arr(lifts, h * v))
    minus = m.with_lifts(exp_arr(lifts, -h * v))
    for e, *_ in m.graph.unoriented_edges():
        field = oracles.jacobi_solve(m, e, v)
        base, mid = field.value_at(0.5)

        def midpoint(mm):
            p, q = oracles.edge_segment(mm, e)
            return exp_arr(p, 0.5 * log_arr(p, q))

        fd_vec = (midpoint(plus) - midpoint(minus)) / (2.0 * h)
        fd_vec += minkowski_dot(fd_vec, base) * base  # project to tangent plane
        assert np.max(np.abs(fd_vec - mid)) < 1e-6 * (1.0 + np.max(np.abs(mid)))


def _zero_length_edge_map(surface):
    """Two vertices at the origin joined by two edges of the empty word."""
    from graphuniform.graphs import WeightedGraph

    graph = WeightedGraph.from_edges(2, [(0, 1, 1.0, "e"), (1, 0, 1.0, "e")])
    p = np.array([1.0, 0.0, 0.0])
    return MarkedMap(surface, graph, (p, p), ((), (), (), ()))


def test_jacobi_rejects_degenerate_edge(genus2_bundle):
    m = _zero_length_edge_map(genus2_bundle[0])
    v = random_variation(m, seed=18)
    with pytest.raises(DegenerateEdgeError):
        oracles.jacobi_solve(m, 0, v)


def test_second_variation_is_finite_on_a_zero_length_edge(genus2_bundle):
    # along the variation both edges have length s|v0 - v1| + O(s^2), so
    # the energy 2 s^2 |v0 - v1|^2 has second derivative 4|v0 - v1|^2; no
    # Jacobi field exists there, but the Hessian's coefficients stay finite
    m = _zero_length_edge_map(genus2_bundle[0])
    v = random_variation(m, seed=18)
    gap = v[0] - v[1]
    want = 4.0 * float(minkowski_dot(gap, gap))
    assert abs(oracles.hessian_form(m, v) - want) <= 1e-12 * want
    report = hessian_consistency(m, n_random=4, seed=18, h=1e-3)
    assert report.samples == 4 and report.max_relative_deviation < 1e-6


def test_hessian_consistency_report(genus2_solved):
    report = hessian_consistency(genus2_solved, n_random=20, seed=19, h=1e-4)
    assert report.max_relative_deviation < 1e-4


def test_variation_coordinates_roundtrip(genus2_solved):
    # the coordinates hessian_consistency reads in the canonical tangent bases
    v = random_variation(genus2_solved, seed=20)
    bases = tangent_basis_arr(genus2_solved.lifts)
    coords = minkowski_dot(v[:, None, :], bases).ravel()
    assert coords.shape == (2 * genus2_solved.graph.vertex_count,)
    # rebuilding from the same coordinates reproduces the vectors
    for i, t in enumerate(v):
        b = tangent_basis_arr(genus2_solved.lifts[i])
        rebuilt = coords[2 * i] * b[0] + coords[2 * i + 1] * b[1]
        assert np.max(np.abs(t - rebuilt)) < 1e-12 * (1.0 + np.max(np.abs(t)))


def test_random_variation_matches_per_vertex_draws(genus2_solved):
    # one (V, 2) draw takes the same random numbers as V draws of two; the
    # batched basis and projection may round differently
    rng = np.random.default_rng(21)
    want = []
    for p in genus2_solved.lifts:
        b = tangent_basis_arr(p)
        c = rng.standard_normal(2)
        w = c[0] * b[0] + c[1] * b[1]
        want.append(w + minkowski_dot(w, p) * p)
    want = np.array(want)
    got = random_variation(genus2_solved, seed=21)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 8.0 * np.finfo(float).eps * np.max(np.abs(want))


def test_stacked_variations_are_the_draws_of_their_seeds(genus2_solved):
    # hessian_consistency draws its variations as one stack on one basis
    from graphuniform.variations import _random_variations

    x = genus2_solved.lifts
    stack = _random_variations(x, tangent_basis_arr(x), range(30, 34))
    for seed, field in zip(range(30, 34), stack):
        assert np.array_equal(field, random_variation(genus2_solved, seed))


def test_variation_rejects_non_tangent_rows_and_mixed_bases(genus2_bundle):
    _, _, ref = genus2_bundle
    vectors = random_variation(ref, seed=22).copy()
    vectors[2] = ref.lifts[2]
    for evaluate in (first_variation, first_variation_fd, lambda m, v: energy_along(m, v, 0.1)):
        with pytest.raises(TangencyError, match="row 2"):
            evaluate(ref, vectors)
    # the vectors of a variation at another map are not tangent at these lifts
    with pytest.raises(TangencyError):
        first_variation(ref, random_variation(perturbed(ref, 0.1, seed=24), seed=23))


def test_zero_variation_gives_zero_derivatives(genus2_bundle):
    _, _, ref = genus2_bundle
    m = perturbed(ref, 0.15, seed=21)
    z = np.zeros_like(m.lifts)
    assert first_variation(m, z) == 0.0
    assert oracles.hessian_form(m, z) == 0.0


@pytest.mark.parametrize("n_random", [0, -1])
def test_hessian_consistency_needs_a_variation(genus2_bundle, n_random, monkeypatch):
    # refused by count before the finite-difference Hessian is built
    import graphuniform.solver as solver

    monkeypatch.setattr(solver, "hessian_fd", None)
    with pytest.raises(DomainError, match=f"^Hessian consistency needs at least 1 variation, got {n_random}$"):
        hessian_consistency(genus2_bundle[2], n_random)


def test_negative_seeds_are_a_domain_error(genus2_bundle):
    _, _, ref = genus2_bundle
    with pytest.raises(DomainError, match="non-negative"):
        random_variation(ref, seed=-1)
    with pytest.raises(DomainError, match="non-negative"):
        hessian_consistency(ref, 2, seed=-1)
