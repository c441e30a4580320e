"""Hyperboloid-model kernel for the hyperbolic plane.

Points live on the upper sheet of <p, p> = -1 in Minkowski 3-space, where
<p, q> = -p0*q0 + p1*q1 + p2*q2.  Isometries are 3x3 matrices preserving the
form and the sheet, so geodesics, exponentials and translation lengths all
reduce to plain linear algebra.  The `*_arr` functions work on arrays of
shape (..., 3), which is how maps and the solver hold lifts; `points_arr`
checks a whole array as HPoint checks one point.  `HPoint`, `HTangent` and
`Isometry` are the pure value types at the API edges: constructors validate
and normalize, methods return new objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateEdgeError,
    DomainError,
    GeometryError,
    NotHyperbolicError,
    TangencyError,
)

# Tolerance for geometric identity checks (form preservation, tangency).
GEOM_TOL = 1e-10
# Construction defect above which a matrix is rejected instead of cleaned.
MAX_CONSTRUCTION_DEFECT = 1e-6

J_DIAG = np.array([-1.0, 1.0, 1.0])
J_MATRIX = np.diag(J_DIAG)


def minkowski_dot(u: np.ndarray, w: np.ndarray) -> np.ndarray | float:
    """Bilinear form of signature (-, +, +) on the last axis."""
    return (u * w) @ J_DIAG


def minkowski_cross(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Vector v with <v, x> = det[u, w, x] for all x: J times the cross
    product, written out (np.cross costs several times as much per call)."""
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    w0, w1, w2 = w[..., 0], w[..., 1], w[..., 2]
    return np.stack([u2 * w1 - u1 * w2, u2 * w0 - u0 * w2, u0 * w1 - u1 * w0], axis=-1)


def _sinhc(x: np.ndarray) -> np.ndarray:
    """sinh(x)/x, stable at 0."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    big = x > 1e-8
    out[big] = np.sinh(x[big]) / x[big]
    small = ~big
    out[small] = 1.0 + x[small] * x[small] / 6.0
    return out


def points_arr(v) -> np.ndarray:
    """Validated, normalized, read-only copy of points of shape (..., 3).

    The checks are HPoint's, in its order: three coordinates, all finite,
    timelike, on the upper sheet.  The error names the first offending row.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim == 0 or v.shape[-1] != 3:
        raise GeometryError(f"points need 3 coordinates, got shape {v.shape}")
    flat = v.reshape(-1, 3)
    q = minkowski_dot(flat, flat)
    for bad, error, what in ((~np.isfinite(flat).all(axis=1), GeometryError, "has non-finite coordinates"),
                             (q >= 0, NotHyperbolicError, "is not timelike"),
                             (flat[:, 0] <= 0, NotHyperbolicError, "is not on the upper sheet")):
        if bad.any():
            i = int(np.argmax(bad))
            raise error(f"point{f' in row {i}' if v.ndim > 1 else ''} {what}: {flat[i].tolist()!r}")
    out = v / np.sqrt(-q).reshape(v.shape[:-1] + (1,))
    out.flags.writeable = False
    return out


def _project_tangent_arr(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Orthogonal projection of an ambient vector onto the tangent plane at p."""
    return w + minkowski_dot(w, p)[..., None] * p


def dist_arr(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # chord identity <p-q, p-q> = 4 sinh^2(d/2): no cancellation for p near q,
    # unlike arccosh(-<p,q>) whose error floor is sqrt(eps)
    diff = p - q
    chord = np.sqrt(np.maximum(0.0, minkowski_dot(diff, diff)))
    return 2.0 * np.arcsinh(0.5 * chord)


def exp_arr(p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Exponential map, arrays of shape (..., 3)."""
    n = np.sqrt(np.maximum(0.0, minkowski_dot(v, v)))
    out = np.cosh(n)[..., None] * p + _sinhc(n)[..., None] * v
    q = minkowski_dot(out, out)
    if np.any(q >= 0) or np.any(out[..., 0] <= 0):
        raise NotHyperbolicError("exponential map left the upper sheet")
    return out / np.sqrt(-q)[..., None]


def log_arr(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Inverse of exp_arr in the first argument; zero vector when p == q."""
    d = dist_arr(p, q)
    v = (q - np.cosh(d)[..., None] * p) / _sinhc(d)[..., None]
    return _project_tangent_arr(p, v)


@dataclass(frozen=True, eq=False)
class HPoint:
    """A point on the upper sheet, stored normalized."""

    coords: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.coords, dtype=float)
        if v.shape != (3,):
            raise GeometryError(f"point needs 3 coordinates, got shape {v.shape}")
        object.__setattr__(self, "coords", points_arr(v))

    @staticmethod
    def origin() -> "HPoint":
        return HPoint(np.array([1.0, 0.0, 0.0]))

    @staticmethod
    def at(distance: float, angle: float) -> "HPoint":
        """Point at the given distance from the origin, in the given direction."""
        v = distance * np.array([0.0, math.cos(angle), math.sin(angle)])
        return HPoint(exp_arr(np.array([1.0, 0.0, 0.0]), v))

    def close_to(self, other: "HPoint", tol: float = GEOM_TOL) -> bool:
        return dist(self, other) <= tol


@dataclass(frozen=True, eq=False)
class HTangent:
    """A tangent vector at a base point (spacelike or zero, Minkowski-orthogonal to it)."""

    base: HPoint
    vec: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.vec, dtype=float)
        if w.shape != (3,):
            raise GeometryError(f"tangent needs 3 coordinates, got shape {w.shape}")
        p = self.base.coords
        defect = abs(minkowski_dot(w, p))
        scale = max(1.0, float(np.max(np.abs(w))))
        if defect > 1e-8 * scale:
            raise TangencyError(f"vector is not tangent at its base (defect {defect:.3e})")
        w = _project_tangent_arr(p, w)
        w.flags.writeable = False
        object.__setattr__(self, "vec", w)

    @property
    def norm(self) -> float:
        return math.sqrt(max(0.0, float(minkowski_dot(self.vec, self.vec))))

    def scaled(self, c: float) -> "HTangent":
        return HTangent(self.base, c * self.vec)

    def __add__(self, other: "HTangent") -> "HTangent":
        if not self.base.close_to(other.base, 1e-9):
            raise GeometryError("cannot add tangents at different base points")
        return HTangent(self.base, self.vec + other.vec)

    @staticmethod
    def zero(base: HPoint) -> "HTangent":
        return HTangent(base, np.zeros(3))


def dist(p: HPoint, q: HPoint) -> float:
    return float(dist_arr(p.coords, q.coords))


def exp_map(p: HPoint, v: HTangent) -> HPoint:
    return HPoint(exp_arr(p.coords, v.vec))


def log_map(p: HPoint, q: HPoint) -> HTangent:
    return HTangent(p, log_arr(p.coords, q.coords))


def geodesic_point(p: HPoint, q: HPoint, t: float) -> HPoint:
    """Point at parameter t in [0, 1] on the geodesic from p to q."""
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"geodesic parameter {t} outside [0, 1]")
    return exp_map(p, log_map(p, q).scaled(t))


def direction(p: HPoint, q: HPoint) -> HTangent:
    """Unit tangent at p pointing toward q."""
    d = dist(p, q)
    if d < 1e-14:
        raise DegenerateEdgeError("no direction between coincident points")
    return log_map(p, q).scaled(1.0 / d)


def normal_at(p: HPoint, u: HTangent) -> HTangent:
    """Unit tangent at p obtained by rotating the unit vector u by +90 degrees."""
    n = minkowski_cross(p.coords, u.vec)
    m = minkowski_dot(n, n)
    if m < 1e-24:
        raise DegenerateEdgeError("cannot rotate a zero tangent")
    return HTangent(p, n / math.sqrt(m))


def angle_between(v: HTangent, w: HTangent) -> float:
    """Unsigned angle between two tangent vectors at the same point."""
    a, b = v.norm, w.norm
    if a < 1e-14 or b < 1e-14:
        raise DegenerateEdgeError("angle with a zero tangent is undefined")
    c = float(minkowski_dot(v.vec, w.vec)) / (a * b)
    return math.acos(min(1.0, max(-1.0, c)))


def tangent_basis_arr(p: np.ndarray) -> np.ndarray:
    """Orthonormal tangent bases at points of shape (..., 3), shape (..., 2, 3):
    the x1-axis projected onto the tangent plane, then its +90 degree rotation."""
    t1 = _project_tangent_arr(p, np.array([0.0, 1.0, 0.0]))
    t1 = t1 / np.sqrt(minkowski_dot(t1, t1))[..., None]
    t2 = minkowski_cross(p, t1)
    t2 = t2 / np.sqrt(minkowski_dot(t2, t2))[..., None]
    return np.stack([t1, t2], axis=-2)


def tangent_basis(p: HPoint) -> tuple[HTangent, HTangent]:
    """Deterministic orthonormal basis of the tangent plane at p."""
    b1, b2 = tangent_basis_arr(p.coords)
    return HTangent(p, b1), HTangent(p, b2)


def frame_matrix(p: HPoint, u: HTangent) -> np.ndarray:
    """Matrix with columns (p, u, u rotated +90): a positively oriented Minkowski frame."""
    n = normal_at(p, u.scaled(1.0 / u.norm))
    return np.column_stack([p.coords, u.vec / u.norm, n.vec])


def _minkowski_gram_schmidt(m: np.ndarray) -> np.ndarray:
    """Re-orthonormalize the columns of an isometry matrix drifted by round-off."""
    def unit(v: np.ndarray, sign: float) -> np.ndarray:
        q = sign * float(minkowski_dot(v, v))
        if not q > 0.0:
            raise GeometryError("matrix columns do not span a Minkowski frame")
        return v / math.sqrt(q)

    e0, e1, e2 = m[:, 0].copy(), m[:, 1].copy(), m[:, 2].copy()
    e0 = unit(e0, -1.0)
    e1 = unit(e1 + minkowski_dot(e1, e0) * e0, 1.0)
    e2 += minkowski_dot(e2, e0) * e0
    e2 = unit(e2 - minkowski_dot(e2, e1) * e1, 1.0)
    return np.column_stack([e0, e1, e2])


@dataclass(frozen=True, eq=False)
class Isometry:
    """An orientation-preserving linear isometry of the hyperbolic plane.

    Construction cleans small round-off drift against the Minkowski form
    (Gram-Schmidt once the defect passes GEOM_TOL) and rejects matrices that
    are not isometries to begin with.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise GeometryError(f"isometry needs a 3x3 matrix, got shape {m.shape}")
        scale = max(1.0, float(np.max(np.abs(m))) ** 2)
        defect = float(np.max(np.abs(m.T @ J_MATRIX @ m - J_MATRIX)))
        if defect > MAX_CONSTRUCTION_DEFECT * scale:
            raise GeometryError(f"matrix does not preserve the Minkowski form (defect {defect:.3e})")
        if m[0, 0] <= 0:
            raise GeometryError("matrix swaps the sheets of the hyperboloid")
        # the cleanup gate must scale with the squared norm: storage rounding
        # alone produces defect ~ eps * |m|^2, and re-orthonormalizing such a
        # matrix hurts (Gram-Schmidt error grows like eps * |m|^3)
        if defect > GEOM_TOL * scale:
            m = _minkowski_gram_schmidt(m)
        if np.linalg.det(m) < 0:
            raise GeometryError("orientation-reversing matrix is not an Isometry value")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @staticmethod
    def identity() -> "Isometry":
        return Isometry(np.eye(3))

    @staticmethod
    def x_translation(length: float) -> "Isometry":
        """Hyperbolic translation by `length` along the x1-axis geodesic."""
        c, s = math.cosh(length), math.sinh(length)
        return Isometry(np.array([[c, s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]))

    @staticmethod
    def rotation(center: HPoint, angle: float) -> "Isometry":
        e1, _ = tangent_basis(center)
        f = frame_matrix(center, e1)
        c, s = math.cos(angle), math.sin(angle)
        block = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
        return Isometry(f @ block @ J_MATRIX @ f.T @ J_MATRIX)

    def __matmul__(self, other: "Isometry") -> "Isometry":
        return Isometry(self.matrix @ other.matrix)

    def inverse(self) -> "Isometry":
        return Isometry(J_MATRIX @ self.matrix.T @ J_MATRIX)

    def apply(self, p: HPoint) -> HPoint:
        return HPoint(self.matrix @ p.coords)

    def close_to(self, other: "Isometry", tol: float = GEOM_TOL) -> bool:
        return float(np.max(np.abs(self.matrix - other.matrix))) <= tol

    def is_identity(self, tol: float = GEOM_TOL) -> bool:
        return float(np.max(np.abs(self.matrix - np.eye(3)))) <= tol

    def translation_length(self) -> float:
        """Length of a hyperbolic translation; raises for elliptic or parabolic maps."""
        tr = float(np.trace(self.matrix))
        if tr < 3.0 + 1e-10:
            if abs(tr - 3.0) <= 1e-10:
                raise NotHyperbolicError(f"isometry is parabolic or the identity (trace {tr!r})")
            raise NotHyperbolicError(f"isometry is elliptic (trace {tr!r})")
        return math.acosh((tr - 1.0) / 2.0)


# --------------------------------------------------------------------------
# hyperbolic trigonometry


@dataclass(frozen=True)
class RegularPolygonGeometry:
    sides: int
    interior_angle: float
    inradius: float
    circumradius: float
    side_length: float
    area: float


def regular_polygon(n: int, interior_angle: float) -> RegularPolygonGeometry:
    """Metric data of the regular hyperbolic n-gon with the given interior angle."""
    if n < 5:
        raise DomainError(f"regular polygon needs at least 5 sides, got {n}")
    if not 0.0 < interior_angle < (n - 2) * math.pi / n:
        raise DomainError(
            f"interior angle {interior_angle!r} outside (0, (n-2)pi/n) for n={n}"
        )
    half = interior_angle / 2.0
    central = math.pi / n
    inradius = math.acosh(math.cos(half) / math.sin(central))
    side = 2.0 * math.acosh(math.cos(central) / math.sin(half))
    circumradius = math.acosh(1.0 / (math.tan(half) * math.tan(central)))
    area = (n - 2) * math.pi - n * interior_angle
    return RegularPolygonGeometry(n, interior_angle, inradius, circumradius, side, area)


@dataclass(frozen=True)
class TriangleGeometry:
    angles: tuple[float, float, float]
    sides: tuple[float, float, float]  # sides[i] is opposite angles[i]
    area: float


def triangle_from_angles(a1: float, a2: float, a3: float) -> TriangleGeometry:
    """Side lengths of the hyperbolic triangle with the given angles."""
    angles = (a1, a2, a3)
    if min(angles) <= 0.0:
        raise DomainError("triangle angles must be positive")
    if sum(angles) >= math.pi:
        raise DomainError("triangle angles must sum to less than pi")

    def side(a, b, c):
        return math.acosh((math.cos(a) + math.cos(b) * math.cos(c)) / (math.sin(b) * math.sin(c)))

    sides = (side(a1, a2, a3), side(a2, a3, a1), side(a3, a1, a2))
    return TriangleGeometry(angles, sides, math.pi - sum(angles))


def hexagon_partner_length(s: float) -> float:
    """Second side length of the right-angled hexagon with sides alternating (s, t).

    For an all-right-angled hexagon whose sides alternate between two lengths,
    the lengths are tied by sinh(s/2) * sinh(t/2) = 1/2.
    """
    if s <= 0.0:
        raise DomainError(f"hexagon side length must be positive, got {s!r}")
    return 2.0 * math.asinh(0.5 / math.sinh(s / 2.0))


def polygon_interior_angles(corners: list[HPoint]) -> list[float]:
    n = len(corners)
    out = []
    for k in range(n):
        prev_c, here, next_c = corners[k - 1], corners[k], corners[(k + 1) % n]
        out.append(angle_between(log_map(here, prev_c), log_map(here, next_c)))
    return out


def polygon_area(corners: list[HPoint]) -> float:
    """Gauss-Bonnet area of a geodesic polygon given its corners in cyclic order."""
    n = len(corners)
    return (n - 2) * math.pi - sum(polygon_interior_angles(corners))
