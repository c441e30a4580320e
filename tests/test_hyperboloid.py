import math

import numpy as np
import pytest

import oracles
from graphuniform.errors import DomainError, GeometryError, NotHyperbolicError, TangencyError
from graphuniform.hyperboloid import (
    HPoint,
    HTangent,
    Isometry,
    J_DIAG,
    _minkowski_gram_schmidt,
    dist,
    dist_arr,
    exp_arr,
    exp_map,
    geodesic_point,
    hexagon_partner_length,
    log_arr,
    log_map,
    minkowski_cross,
    minkowski_dot,
    polygon_area,
    polygon_interior_angles,
    regular_polygon,
    tangent_basis,
    triangle_from_angles,
)
from graphuniform.surfaces import hexagon_corners


def random_points(rng, n, radius=2.0):
    return [
        HPoint.at(float(rng.uniform(0.0, radius)), float(rng.uniform(0.0, 2.0 * math.pi)))
        for _ in range(n)
    ]


def test_point_normalization_and_validation():
    p = HPoint(np.array([math.cosh(1.0), math.sinh(1.0), 0.0]))
    assert abs(minkowski_dot(p.coords, p.coords) + 1.0) < 1e-14
    with pytest.raises(NotHyperbolicError):
        HPoint(np.array([0.1, 1.0, 0.0]))  # spacelike
    with pytest.raises(NotHyperbolicError):
        HPoint(np.array([-math.cosh(1.0), math.sinh(1.0), 0.0]))  # lower sheet


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_point_rejects_non_finite_coordinates(bad):
    # NaN passes both the timelike and the upper-sheet comparison
    with pytest.raises(GeometryError):
        HPoint(np.array([bad, 0.0, 0.0]))
    with pytest.raises(GeometryError):
        HPoint(np.array([2.0, bad, 0.0]))


def test_exp_log_roundtrip_random():
    rng = np.random.default_rng(0)
    for _ in range(60):
        p = random_points(rng, 1)[0]
        v = rng.standard_normal(2)
        basis = tangent_basis(p)
        t = HTangent(p, v[0] * basis[0].vec + v[1] * basis[1].vec)
        q = exp_map(p, t)
        back = log_map(p, q)
        # endpoints stay within distance ~5 of the origin, coords <= cosh 5
        assert np.max(np.abs(back.vec - t.vec)) < 1e-11
        assert abs(dist(p, q) - t.norm) < 1e-11


def test_dist_small_separation_has_no_cancellation():
    p = HPoint.origin()
    for d in [1e-9, 1e-7, 1e-5, 1e-3]:
        q = HPoint.at(d, 0.3)
        assert abs(dist(p, q) - d) < 1e-15 + 1e-12 * d


def test_dist_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(1)
    pts = random_points(rng, 30)
    for i in range(0, 30, 3):
        a, b, c = pts[i], pts[i + 1], pts[i + 2]
        assert abs(dist(a, b) - dist(b, a)) < 1e-13
        assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-12


def test_array_kernels_match_scalar_wrappers():
    rng = np.random.default_rng(2)
    ps = np.stack([p.coords for p in random_points(rng, 8)])
    qs = np.stack([p.coords for p in random_points(rng, 8)])
    d = dist_arr(ps, qs)
    for i in range(8):
        assert abs(d[i] - dist(HPoint(ps[i]), HPoint(qs[i]))) < 1e-13
    vs = log_arr(ps, qs)
    back = exp_arr(ps, vs)
    assert np.max(np.abs(back - qs)) < 1e-12


def test_tangent_rejects_non_tangent_vector():
    p = HPoint.at(1.0, 0.0)
    with pytest.raises(TangencyError):
        HTangent(p, np.array([1.0, 0.0, 0.0]))


def test_tangent_addition_requires_same_base():
    p = HPoint.origin()
    q = HPoint.at(0.5, 0.0)
    b = tangent_basis(p)
    with pytest.raises(GeometryError):
        _ = b[0] + tangent_basis(q)[0]
    s = b[0] + b[1]
    assert abs(s.norm - math.sqrt(2.0)) < 1e-14


def test_isometry_group_operations():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = Isometry.x_translation(float(rng.uniform(-2, 2)))
        r = Isometry.rotation(HPoint.origin(), float(rng.uniform(0, 2 * math.pi)))
        g = a @ r
        assert abs(np.linalg.det(g.matrix) - 1.0) < 1e-12
        assert (g @ g.inverse()).is_identity(1e-12)
        p = random_points(rng, 1)[0]
        q = random_points(rng, 1)[0]
        assert abs(dist(g.apply(p), g.apply(q)) - dist(p, q)) < 1e-12


def test_isometry_rejects_orientation_reversal():
    m = np.eye(3)
    m[2, 2] = -1.0
    with pytest.raises(GeometryError):
        Isometry(m)


def test_translation_length_classification():
    g = Isometry.x_translation(1.7)
    assert abs(g.translation_length() - 1.7) < 1e-12
    with pytest.raises(GeometryError):
        Isometry.rotation(HPoint.origin(), 0.4).translation_length()
    with pytest.raises(GeometryError):
        Isometry.identity().translation_length()


def test_geodesic_point_endpoints_and_midpoint():
    p = HPoint.at(0.9, 0.2)
    q = HPoint.at(1.4, 2.1)
    assert geodesic_point(p, q, 0.0).close_to(p, 1e-12)
    assert geodesic_point(p, q, 1.0).close_to(q, 1e-12)
    mid = geodesic_point(p, q, 0.5)
    assert abs(dist(p, mid) - dist(mid, q)) < 1e-12


def test_regular_polygon_against_bisection_oracle():
    for n, angle in [(8, math.pi / 4), (6, math.pi / 2), (16, 2 * math.pi / 16)]:
        geo = regular_polygon(n, angle)
        r_oracle = oracles.regular_polygon_inradius_oracle(n, angle)
        assert abs(geo.inradius - r_oracle) < 1e-10
        # corners placed from the reported circumradius must realize the angle
        corners = [
            HPoint.at(geo.circumradius, (2 * k + 1) * math.pi / n) for k in range(n)
        ]
        angles = polygon_interior_angles(corners)
        assert np.max(np.abs(np.asarray(angles) - angle)) < 1e-10
        assert abs(polygon_area(corners) - geo.area) < 1e-10
        assert abs(dist(corners[0], corners[1]) - geo.side_length) < 1e-10


def test_regular_polygon_rejects_euclidean_or_impossible_angle():
    with pytest.raises(DomainError):
        regular_polygon(6, 2 * math.pi / 3)  # flat hexagon
    with pytest.raises(DomainError):
        regular_polygon(6, 0.0)
    with pytest.raises(DomainError):
        regular_polygon(3, 0.3)  # too few sides


def test_triangle_from_angles_against_shooting_oracle():
    for (p, q, r) in [(2, 3, 7), (2, 4, 5), (3, 3, 4)]:
        tri = triangle_from_angles(math.pi / p, math.pi / q, math.pi / r)
        sides = oracles.triangle_sides_oracle(p, q, r)
        assert np.max(np.abs(np.asarray(tri.sides) - np.asarray(sides))) < 1e-10


def test_triangle_rejects_non_hyperbolic_angles():
    with pytest.raises(DomainError):
        triangle_from_angles(math.pi / 2, math.pi / 2, math.pi / 2)
    with pytest.raises(DomainError):
        triangle_from_angles(math.pi / 3, -0.1, math.pi / 7)


def test_hexagon_partner_length_identity_and_symmetry():
    for s in np.linspace(0.1, 6.0, 25):
        t = hexagon_partner_length(float(s))
        assert abs(math.sinh(s / 2) * math.sinh(t / 2) - 0.5) < 1e-13
        assert abs(hexagon_partner_length(t) - s) < 1e-10 * (1.0 + s)


def test_polygon_area_matches_fan_oracle():
    corners = hexagon_corners(1.0)
    a = polygon_area(corners)
    assert abs(a - math.pi) < 1e-10
    assert abs(a - oracles.polygon_area_fan_oracle(corners)) < 1e-10


@pytest.mark.parametrize("shapes", [((3,), (3,)), ((7, 3), (7, 3)), ((7, 1, 3), (7, 2, 3))],
                         ids=["single", "rows", "broadcast"])
def test_minkowski_cross_matches_j_times_numpy_cross(shapes):
    rng = np.random.default_rng(21)
    u = rng.standard_normal(shapes[0]) * 3.0
    w = rng.standard_normal(shapes[1]) * 3.0
    got = minkowski_cross(u, w)
    want = J_DIAG * np.cross(u, w)
    assert got.shape == want.shape
    bound = 4.0 * np.finfo(float).eps * np.linalg.norm(u, axis=-1)[..., None] * np.linalg.norm(w, axis=-1)[..., None]
    assert np.all(np.abs(got - want) <= bound)


def test_minkowski_dot_matches_elementwise_formula():
    rng = np.random.default_rng(22)
    u = rng.standard_normal((50, 3)) * 10.0 ** rng.uniform(-3, 3, (50, 1))
    w = rng.standard_normal((50, 3)) * 10.0 ** rng.uniform(-3, 3, (50, 1))
    want = -u[:, 0] * w[:, 0] + u[:, 1] * w[:, 1] + u[:, 2] * w[:, 2]
    bound = 4.0 * np.finfo(float).eps * np.linalg.norm(u, axis=1) * np.linalg.norm(w, axis=1)
    assert np.all(np.abs(minkowski_dot(u, w) - want) <= bound)
    assert abs(minkowski_dot(u[0], w[0]) - want[0]) <= bound[0]


def test_gram_schmidt_rejects_columns_without_a_frame():
    # a spacelike first column has no unit timelike direction to keep
    with pytest.raises(GeometryError):
        _minkowski_gram_schmidt(np.array([[0.1, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
