import math

import numpy as np
import pytest

import oracles
from graphuniform.errors import DomainError, GeometryError, NotHyperbolicError, TangencyError
from graphuniform.hyperboloid import (
    HPoint,
    Isometry,
    J_DIAG,
    J_MATRIX,
    _minkowski_gram_schmidt,
    dist_arr,
    exp_arr,
    hexagon_partner_length,
    isometries_arr,
    log_arr,
    minkowski_cross,
    minkowski_dot,
    points_arr,
    polygon_area,
    polygon_interior_angles,
    regular_polygon,
    tangent_basis_arr,
    tangents_arr,
)
from graphuniform.surfaces import hexagon_corners


def random_points(rng, n, radius=2.0):
    return np.array([
        oracles.point_at(float(rng.uniform(0.0, radius)), float(rng.uniform(0.0, 2.0 * math.pi)))
        for _ in range(n)
    ])


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
        basis = tangent_basis_arr(p)
        t = tangents_arr(p, v[0] * basis[0] + v[1] * basis[1])
        q = exp_arr(p, t)
        back = log_arr(p, q)
        # endpoints stay within distance ~5 of the origin, coords <= cosh 5
        assert np.max(np.abs(back - t)) < 1e-11
        assert abs(dist_arr(p, q) - np.sqrt(minkowski_dot(t, t))) < 1e-11


def test_dist_small_separation_has_no_cancellation():
    p = oracles.point_at(0.0, 0.0)
    for d in [1e-9, 1e-7, 1e-5, 1e-3]:
        q = oracles.point_at(d, 0.3)
        assert abs(dist_arr(p, q) - d) < 1e-15 + 1e-12 * d


def test_dist_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(1)
    pts = random_points(rng, 30)
    for i in range(0, 30, 3):
        a, b, c = pts[i], pts[i + 1], pts[i + 2]
        assert abs(dist_arr(a, b) - dist_arr(b, a)) < 1e-13
        assert dist_arr(a, c) <= dist_arr(a, b) + dist_arr(b, c) + 1e-12


def test_array_kernels_match_scalar_wrappers():
    rng = np.random.default_rng(2)
    ps = random_points(rng, 8)
    qs = random_points(rng, 8)
    d = dist_arr(ps, qs)
    for i in range(8):
        assert abs(d[i] - dist_arr(ps[i], qs[i])) < 1e-13
    vs = log_arr(ps, qs)
    back = exp_arr(ps, vs)
    assert np.max(np.abs(back - qs)) < 1e-12


def test_tangent_rejects_non_tangent_vector():
    p = oracles.point_at(1.0, 0.0)
    with pytest.raises(TangencyError):
        tangents_arr(p, np.array([1.0, 0.0, 0.0]))
    # rows are checked at once, and the error names the first bad one
    points = random_points(np.random.default_rng(4), 5)
    vectors = 3.0 * tangent_basis_arr(points)[:, 0]
    assert not tangents_arr(points, vectors).flags.writeable
    vectors[3] = vectors[4] = points[4]
    with pytest.raises(TangencyError, match="row 3"):
        tangents_arr(points, vectors)


def test_isometry_group_operations():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = Isometry(oracles.x_translation(float(rng.uniform(-2, 2))))
        r = Isometry(oracles.rot_z(float(rng.uniform(0, 2 * math.pi))))
        g = Isometry(a.matrix @ r.matrix)
        assert abs(np.linalg.det(g.matrix) - 1.0) < 1e-12
        assert np.max(np.abs(g.matrix @ (J_MATRIX @ g.matrix.T @ J_MATRIX) - np.eye(3))) < 1e-12
        p = random_points(rng, 1)[0]
        q = random_points(rng, 1)[0]
        assert abs(dist_arr(g.matrix @ p, g.matrix @ q) - dist_arr(p, q)) < 1e-12


def test_isometry_rejects_orientation_reversal():
    m = np.eye(3)
    m[2, 2] = -1.0
    with pytest.raises(GeometryError):
        Isometry(m)


def test_isometries_arr_agrees_with_isometry_row_by_row(monkeypatch):
    import graphuniform.surfaces as surfaces

    # the genus-2 build at seam 0.27 hands over a long-double stack whose
    # float64 rounding has generator 5 drifted past GEOM_TOL, needing the
    # Gram-Schmidt cleanup
    raw = []
    monkeypatch.setattr(surfaces, "isometries_arr",
                        lambda m: raw.append(np.asarray(m, dtype=float)) or isometries_arr(m))
    surfaces.build_genus2_hexagon_surface(0.27)
    out = isometries_arr(raw[0])
    assert not out.flags.writeable
    cleaned = [k for k in range(8) if not np.array_equal(out[k], raw[0][k])]
    assert cleaned == [4]
    for k in range(8):
        assert out[k].tobytes() == Isometry(raw[0][k]).matrix.tobytes()
    for shape in [(4, 3, 2), (3,), (2, 9)]:
        with pytest.raises(GeometryError, match="3x3"):
            isometries_arr(np.zeros(shape))


@pytest.mark.parametrize("bad", [
    np.diag([2.0, 1.0, 1.0]),  # does not preserve the form
    np.diag([-1.0, -1.0, 1.0]),  # swaps the sheets
    np.diag([1.0, 1.0, -1.0]),  # reverses the orientation
    np.full((3, 3), np.nan),
])
def test_isometries_arr_rejects_rows_like_isometry(bad):
    with pytest.raises(GeometryError) as single:
        Isometry(bad)
    stack = np.stack([oracles.x_translation(0.5)] * 2 + [bad] + [np.eye(3)])
    with pytest.raises(type(single.value), match="in row 2"):
        isometries_arr(stack)


def test_validators_name_the_row_of_the_first_check_that_fails():
    # each check runs over every row before the next one, so a later row that
    # fails an earlier check is named before an earlier row that fails a later one
    spacelike, infinite = [0.1, 1.0, 0.0], [math.inf, 0.0, 0.0]
    with pytest.raises(GeometryError, match="point in row 1 has non-finite coordinates"):
        points_arr(np.array([spacelike, infinite]))
    sheet_swapping, stretched = np.diag([-1.0, -1.0, 1.0]), np.diag([2.0, 1.0, 1.0])
    with pytest.raises(GeometryError, match="matrix in row 1 does not preserve the Minkowski form"):
        isometries_arr(np.stack([sheet_swapping, stretched]))


@pytest.mark.parametrize("row", [[1e200, 0.0, 0.0], [1e200, 1e199, 0.0]])
def test_points_whose_form_overflows_are_rejected(row):
    # the form overflows to -inf, which would normalize the first row to
    # (0, 0, 0), or to -inf + inf = nan (an invalid value, and a warning too)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(GeometryError, match="point overflows the Minkowski form"):
            HPoint(np.array(row))
    with pytest.warns(RuntimeWarning):
        with pytest.raises(GeometryError, match="point in row 1 overflows the Minkowski form"):
            points_arr(np.array([[1.0, 0.0, 0.0], row]))


def test_isometries_whose_defect_overflows_are_rejected():
    # 1e200 I: its defect and the gate it is held to both overflow to inf
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(GeometryError, match="matrix overflows the Minkowski form"):
            Isometry(1e200 * np.eye(3))
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(GeometryError, match="matrix in row 1 overflows the Minkowski form"):
            isometries_arr(np.stack([np.eye(3), 1e200 * np.eye(3)]))


def test_translation_length_classification():
    g = Isometry(oracles.x_translation(1.7))
    assert abs(g.translation_length() - 1.7) < 1e-12
    with pytest.raises(GeometryError):
        Isometry(oracles.rot_z(0.4)).translation_length()
    with pytest.raises(GeometryError):
        Isometry(np.eye(3)).translation_length()


def test_regular_polygon_against_bisection_oracle():
    for n, angle in [(8, math.pi / 4), (6, math.pi / 2), (16, 2 * math.pi / 16)]:
        geo = regular_polygon(n, angle)
        r_oracle = oracles.regular_polygon_inradius_oracle(n, angle)
        assert abs(geo.inradius - r_oracle) < 1e-10
        # corners placed from the reported circumradius must realize the angle
        corners = np.stack([
            oracles.point_at(geo.circumradius, (2 * k + 1) * math.pi / n) for k in range(n)
        ])
        angles = polygon_interior_angles(corners)
        assert angles.shape == (n,)
        assert np.max(np.abs(angles - angle)) < 1e-10
        assert abs(polygon_area(corners) - geo.area) < 1e-10
        assert abs(dist_arr(corners[0], corners[1]) - geo.side_length) < 1e-10


def test_regular_polygon_rejects_euclidean_or_impossible_angle():
    with pytest.raises(DomainError):
        regular_polygon(6, 2 * math.pi / 3)  # flat hexagon
    with pytest.raises(DomainError):
        regular_polygon(6, 0.0)
    with pytest.raises(DomainError):
        regular_polygon(3, 0.3)  # too few sides


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
