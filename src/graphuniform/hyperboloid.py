"""Hyperboloid-model kernel for the hyperbolic plane.

Points live on the upper sheet of <p, p> = -1 in Minkowski 3-space, where
<p, q> = -p0*q0 + p1*q1 + p2*q2.  Isometries are 3x3 matrices preserving the
form and the sheet, so geodesics, exponentials and translation lengths all
reduce to plain linear algebra.  Inside the library points, tangent vectors
and isometries are plain arrays of shape (..., 3) and (..., 3, 3); the
`*_arr` functions work on them and validate a whole array at once.
`HPoint` and `Isometry` are the value types at the API edges: constructors
validate and normalize.
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
J_OUTER = np.outer(J_DIAG, J_DIAG)  # J m^T J, an isometry's inverse, is m^T * J_OUTER
_X1_AXIS = np.array([0.0, 1.0, 0.0])
# |<x, x> + 1| / x0^2 up to which `points_arr` keeps a row as on the sheet
_SHEET_ROUNDING = 16.0 * np.finfo(float).eps


def minkowski_dot(u: np.ndarray, w: np.ndarray) -> np.ndarray | float:
    """Bilinear form of signature (-, +, +) on the last axis."""
    return (u * w) @ J_DIAG


_CROSS_LEFT = np.array([2, 2, 0])
_CROSS_RIGHT = np.array([1, 0, 1])


def minkowski_cross(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Vector v with <v, x> = det[u, w, x] for all x: J times the cross
    product, (u2 w1 - u1 w2, u2 w0 - u0 w2, u0 w1 - u1 w0), as two products
    of permuted copies (np.cross costs several times as much per call, and
    stacking the three components costs more on stacked arrays)."""
    return u[..., _CROSS_LEFT] * w[..., _CROSS_RIGHT] - u[..., _CROSS_RIGHT] * w[..., _CROSS_LEFT]


def _sinhc(x: np.ndarray) -> np.ndarray:
    """sinh(x)/x, stable at 0: 1 + x^2/6 up to 1e-8.  Where some x is that
    small both branches are formed whole and selected by np.where, at half
    the cost of masked assignment on the arrays of a small map."""
    x = np.asarray(x, dtype=float)
    if x.size and x.min() > 1e-8:
        return np.sinh(x) / x
    big = x > 1e-8
    safe = np.where(big, x, 1.0)
    return np.where(big, np.sinh(safe) / safe, 1.0 + x * x / 6.0)


def points_arr(v) -> np.ndarray:
    """Validated, normalized, read-only copy of points of shape (..., 3).

    The checks are HPoint's, in its order: three coordinates, all finite,
    timelike, on the upper sheet, a finite Minkowski form (coordinates
    near 1e155 overflow it).  When every row passes, three reductions
    tell; otherwise each check runs over all rows in turn, and the error
    names the first offending row.

    A row already on the sheet to its rounding, |<x, x> + 1| <= 16 eps x0^2,
    is kept as it is (one more reduction tells when all are), and only the
    other rows are rescaled: a rescaled row measures at most
    4 eps |x|^2 < 8 eps x0^2, so normalizing a second time changes nothing.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim == 0 or v.shape[-1] != 3:
        raise GeometryError(f"points need 3 coordinates, got shape {v.shape}")
    flat = v.reshape(-1, 3)
    q = minkowski_dot(flat, flat)
    # a finite q needs finite coordinates
    if not (len(q) and -math.inf < q.min() and q.max() < 0.0 < flat[:, 0].min()):
        for bad, error, what in ((~np.isfinite(flat).all(axis=1), GeometryError, "has non-finite coordinates"),
                                 (q >= 0, NotHyperbolicError, "is not timelike"),
                                 (flat[:, 0] <= 0, NotHyperbolicError, "is not on the upper sheet"),
                                 (~np.isfinite(q), GeometryError, "overflows the Minkowski form")):
            if bad.any():
                i = int(np.argmax(bad))
                raise error(f"point{f' in row {i}' if v.ndim > 1 else ''} {what}: {flat[i].tolist()!r}")
    drift = np.abs(q + 1.0) / np.square(flat[:, 0])
    if drift.max(initial=0.0) <= _SHEET_ROUNDING:
        out = v.copy()
    else:
        out = np.where((drift > _SHEET_ROUNDING)[:, None], flat / np.sqrt(-q)[:, None], flat).reshape(v.shape)
    out.flags.writeable = False
    return out


def _project_tangent_arr(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Orthogonal projection of an ambient vector onto the tangent plane at p."""
    return w + minkowski_dot(w, p)[..., None] * p


def tangents_arr(p: np.ndarray, w) -> np.ndarray:
    """Validated, read-only tangent vectors w at the points p, both (..., 3).

    A row of w must be Minkowski-orthogonal to its point up to 1e-8 times
    max(1, max |row|); the error names the first row that is not.  Accepted
    rows are projected onto the tangent plane to remove that defect.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != p.shape:
        raise GeometryError(f"tangents need shape {p.shape}, got {w.shape}")
    defect = np.abs(minkowski_dot(w, p)).reshape(-1)
    scale = np.maximum(1.0, np.max(np.abs(w), axis=-1)).reshape(-1)
    bad = ~(defect <= 1e-8 * scale)  # NaN fails too
    if bad.any():
        i = int(np.argmax(bad))
        raise TangencyError(f"vector{f' in row {i}' if w.ndim > 1 else ''} is not tangent "
                            f"at its point (defect {defect[i]:.3e})")
    out = _project_tangent_arr(p, w)
    out.flags.writeable = False
    return out


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
    if (q >= 0).any() or (out[..., 0] <= 0).any():
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


def tangent_basis_arr(p: np.ndarray) -> np.ndarray:
    """Orthonormal tangent bases at points of shape (..., 3), shape (..., 2, 3):
    the x1-axis projected onto the tangent plane, then its +90 degree rotation."""
    t1 = p[..., 1:2] * p + _X1_AXIS  # the projection, as <x1-axis, p> = p1
    t1 = t1 / np.sqrt(minkowski_dot(t1, t1))[..., None]
    t2 = minkowski_cross(p, t1)
    t2 = t2 / np.sqrt(minkowski_dot(t2, t2))[..., None]
    return np.concatenate([t1[..., None, :], t2[..., None, :]], axis=-2)  # np.stack costs twice as much


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


def isometries_arr(m) -> np.ndarray:
    """Validated, read-only copy of isometry matrices of shape (..., 3, 3): Isometry's
    checks and cleanup on each (NaN fails too).  A stack that needs no cleanup
    and passes every check takes one pass; otherwise each check runs over all
    matrices in turn, and the error names the first bad one.  Entries near
    1e155 overflow the defect and its gate, which are then rejected."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-2:] != (3, 3):
        raise GeometryError(f"isometry needs a 3x3 matrix, got shape {m.shape}")
    flat = m.reshape(-1, 3, 3)
    scale = np.maximum(1.0, np.abs(flat).max(axis=(1, 2)) ** 2)
    defect = np.abs((flat.transpose(0, 2, 1) * J_DIAG) @ flat - J_MATRIX).max(axis=(1, 2))
    # strictly below the gate: an overflowing defect meets an overflowing gate at inf
    clean = len(flat) and (defect < GEOM_TOL * scale).all() and flat[:, 0, 0].min() > 0.0
    if clean and np.linalg.det(flat).min() >= 0.0:
        out = m.copy()
        out.flags.writeable = False
        return out
    isometric = defect <= MAX_CONSTRUCTION_DEFECT * scale
    out = flat.copy()
    # the cleanup gate must scale with the squared norm: storage rounding
    # alone produces defect ~ eps * |m|^2, and re-orthonormalizing such a
    # matrix hurts (Gram-Schmidt error grows like eps * |m|^3)
    for i in np.flatnonzero(isometric & (defect > GEOM_TOL * scale)):
        out[i] = _minkowski_gram_schmidt(flat[i])
    checks = ((lambda: ~isometric, "matrix{} does not preserve the Minkowski form (defect {:.3e})"),
              (lambda: ~np.isfinite(scale), "matrix{} overflows the Minkowski form (defect {:.3e})"),
              (lambda: flat[:, 0, 0] <= 0, "matrix{} swaps the sheets of the hyperboloid"),
              (lambda: np.linalg.det(out) < 0, "orientation-reversing matrix{} is not an Isometry value"))
    for test, what in checks:  # in order: no determinant of a rejected matrix
        bad = test()
        if bad.any():
            i = int(np.argmax(bad))
            raise GeometryError(what.format(f" in row {i}" if m.ndim > 2 else "", defect[i]))
    out = out.reshape(m.shape)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Isometry:
    """An orientation-preserving linear isometry of the hyperbolic plane.

    Construction cleans small round-off drift against the Minkowski form
    (Gram-Schmidt once the defect passes GEOM_TOL) and rejects matrices that
    are not isometries to begin with; see `isometries_arr`.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise GeometryError(f"isometry needs a 3x3 matrix, got shape {m.shape}")
        object.__setattr__(self, "matrix", isometries_arr(m))

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


def hexagon_partner_length(s: float) -> float:
    """Second side length of the right-angled hexagon with sides alternating (s, t).

    For an all-right-angled hexagon whose sides alternate between two lengths,
    the lengths are tied by sinh(s/2) * sinh(t/2) = 1/2.
    """
    if s <= 0.0:
        raise DomainError(f"hexagon side length must be positive, got {s!r}")
    return 2.0 * math.asinh(0.5 / math.sinh(s / 2.0))


def polygon_interior_angles(corners: np.ndarray) -> np.ndarray:
    """Interior angle at every corner of a geodesic polygon, corners (n, 3) in
    cyclic order, as 2 atan2(|u - w|, |u + w|) for the unit tangents u and w
    towards the two neighbours (Kahan): unlike the arccos of their cosine it
    keeps full precision at angles near 0 and pi."""
    corners = np.asarray(corners, dtype=float)
    back = log_arr(corners, np.roll(corners, 1, axis=0))
    ahead = log_arr(corners, np.roll(corners, -1, axis=0))
    a = np.sqrt(np.maximum(0.0, minkowski_dot(back, back)))
    b = np.sqrt(np.maximum(0.0, minkowski_dot(ahead, ahead)))
    if min(np.min(a), np.min(b)) < 1e-14:
        raise DegenerateEdgeError("angle with a zero tangent is undefined")
    u, w = back / a[:, None], ahead / b[:, None]
    diff, total = u - w, u + w
    return 2.0 * np.arctan2(np.sqrt(np.maximum(0.0, minkowski_dot(diff, diff))),
                            np.sqrt(np.maximum(0.0, minkowski_dot(total, total))))


def polygon_area(corners: np.ndarray) -> float:
    """Gauss-Bonnet area of a geodesic polygon given its corners (n, 3) in cyclic order."""
    return (len(corners) - 2) * math.pi - float(np.sum(polygon_interior_angles(corners)))
