"""First and second energy variations via closed-form Jacobi fields.

A variation assigns one tangent vector per graph vertex; moving every vertex
along its vector (by the exponential map) and re-geodesicizing the edges
gives a one-parameter family of maps.  Along each lifted edge the variation
field of that family is a Jacobi field of the curvature -1 plane, which
splits into a tangential part affine in t and a normal part spanned by
cosh/sinh -- so both variation derivatives of the energy have closed forms,
checkable against finite differences.

A variation is a (V, 3) array of tangent vectors at the map's lifts.  Both
closed forms are evaluated for all half-edges at once on the map's
`maps.EdgeData` arrays; `jacobi_solve` keeps the per-edge field, on single
3-vectors, as the reference they are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEdgeError, DomainError, GeometryError
from .hyperboloid import (
    _project_tangent_arr,
    dist_arr,
    exp_arr,
    log_arr,
    minkowski_cross,
    minkowski_dot,
    points_arr,
    tangent_basis_arr,
    tangents_arr,
)
from .maps import MarkedMap, energy


@dataclass(frozen=True, eq=False)
class VertexVariation:
    """One tangent vector per graph vertex: row v of `vectors` is tangent at
    row v of `base`, the map's lifts as they are (not normalized again).
    Both are read-only (V, 3) arrays; tangents_arr checks the vectors."""

    base: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        base = np.array(self.base, dtype=float)
        base.flags.writeable = False
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "vectors", tangents_arr(base, self.vectors))

    @staticmethod
    def zero(m: MarkedMap) -> "VertexVariation":
        return VertexVariation(m.lifts, np.zeros_like(m.lifts))

    @staticmethod
    def random(m: MarkedMap, seed: int = 0, scale: float = 1.0) -> "VertexVariation":
        """Gaussian coordinates in the canonical tangent bases; one (V, 2)
        draw is the same stream as V draws of two."""
        c = np.random.default_rng(seed).standard_normal((len(m.lifts), 2))
        b = tangent_basis_arr(m.lifts)
        return VertexVariation(m.lifts, scale * (c[:, :1] * b[:, 0] + c[:, 1:] * b[:, 1]))

    def scaled(self, c: float) -> "VertexVariation":
        return VertexVariation(self.base, c * self.vectors)

    def plus(self, other: "VertexVariation") -> "VertexVariation":
        if self.base.shape != other.base.shape or np.any(dist_arr(self.base, other.base) > 1e-9):
            raise GeometryError("cannot add variations at different base points")
        return VertexVariation(self.base, self.vectors + other.vectors)

    def coordinates(self) -> np.ndarray:
        """Components in the canonical orthonormal bases (matches hessian_fd)."""
        return minkowski_dot(self.vectors[:, None, :], tangent_basis_arr(self.base)).ravel()


def _unit(w: np.ndarray) -> np.ndarray:
    return w / np.sqrt(minkowski_dot(w, w))[..., None]


@dataclass(frozen=True)
class JacobiField:
    """Variation field along one lifted edge, t in [0, 1], edge speed ell.

    Tangential component (c + d*t) * u(t); normal component
    (a*cosh(ell*t) + b*sinh(ell*t)) * n(t), with (u, n) the transported
    frame of the edge geodesic, starting from the unit tangent `unit` at
    the point `start`.
    """

    length: float
    c: float
    d: float
    a: float
    b: float
    start: np.ndarray
    unit: np.ndarray
    boundary_error: float

    def value_at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(point, field vector there) at edge parameter t."""
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"edge parameter {t} outside [0, 1]")
        tau = self.length * t
        p, u = self.start, self.unit
        point = points_arr(math.cosh(tau) * p + math.sinh(tau) * u)
        u_t = _project_tangent_arr(point, math.sinh(tau) * p + math.cosh(tau) * u)
        n_t = _unit(minkowski_cross(point, u_t))
        tangential = (self.c + self.d * t) * u_t
        normal = (self.a * math.cosh(tau) + self.b * math.sinh(tau)) * n_t
        return point, _project_tangent_arr(point, tangential + normal)


def jacobi_solve_segment(p: np.ndarray, q: np.ndarray, v0: np.ndarray, v1: np.ndarray) -> JacobiField:
    """Jacobi field along the geodesic p -> q with endpoint values v0, v1."""
    ell = float(dist_arr(p, q))
    if ell < 1e-12:
        raise DegenerateEdgeError("jacobi field needs an edge of positive length")
    u0 = log_arr(p, q) / ell
    n0 = _unit(minkowski_cross(p, u0))
    u1 = _project_tangent_arr(q, math.sinh(ell) * p + math.cosh(ell) * u0)
    n1 = _unit(minkowski_cross(q, u1))

    vt0 = float(minkowski_dot(v0, u0))
    vn0 = float(minkowski_dot(v0, n0))
    vt1 = float(minkowski_dot(v1, u1))
    vn1 = float(minkowski_dot(v1, n1))

    c, d = vt0, vt1 - vt0
    a = vn0
    b = (vn1 - a * math.cosh(ell)) / math.sinh(ell)

    err0 = np.max(np.abs((c * u0 + a * n0) - v0))
    rec1 = (c + d) * u1 + (a * math.cosh(ell) + b * math.sinh(ell)) * n1
    err1 = np.max(np.abs(rec1 - v1))
    return JacobiField(ell, c, d, a, b, p, u0, float(max(err0, err1)))


def edge_boundary_values(m: MarkedMap, e: int, variation: VertexVariation) -> tuple[np.ndarray, np.ndarray]:
    """Variation values at the two ends of the lifted half-edge e: the origin
    vertex's vector, and the terminus vector pushed through the deck matrix,
    projected at the far end of edge_segment."""
    _, q = m.edge_segment(e)
    w = m.deck_matrix(e) @ variation.vectors[m.graph.terminus(e)]
    return variation.vectors[m.graph.origins[e]], _project_tangent_arr(q, w)


def jacobi_solve(m: MarkedMap, e: int, variation: VertexVariation) -> JacobiField:
    p, q = m.edge_segment(e)
    v0, v1 = edge_boundary_values(m, e, variation)
    return jacobi_solve_segment(p, q, v0, v1)


def first_variation(m: MarkedMap, variation: VertexVariation) -> float:
    """d/ds of energy under the vertex-exponential homotopy, at s = 0:
    -2 * sum over oriented edges of weight * <V(origin), T_e(0)>, that is
    -2 * sum over vertices of <V_v, r_v> with r the balanced residual."""
    r = m.edges.residual(m.lift_array())
    return -2.0 * float(np.sum(minkowski_dot(variation.vectors, r)))


def second_variation_geodesic(m: MarkedMap, variation: VertexVariation) -> float:
    """d^2/ds^2 of energy under the same homotopy, summed in closed form.

    Per oriented edge: d^2 + (ell/2) * ((a^2+b^2) sinh 2ell + 2ab (cosh 2ell - 1)),
    the integral of |grad_T V|^2 + |V_normal|^2 |T|^2 over the edge, with the
    Jacobi coefficients (c, d, a, b) of jacobi_solve_segment computed for all
    half-edges at once.
    """
    edges = m.edges
    x = m.lift_array()
    vec = variation.vectors
    p = x[edges.origins]
    q = edges.far_ends(x)
    # back onto the sheet, as edge_segment's far end in jacobi_solve: the
    # deck matrices' rounding grows with the square of their norm
    q /= np.sqrt(-minkowski_dot(q, q))[:, None]
    ell = dist_arr(p, q)
    if np.any(ell < 1e-12):
        raise DegenerateEdgeError("jacobi field needs an edge of positive length")
    ch, sh = np.cosh(ell), np.sinh(ell)
    u0 = log_arr(p, q) / ell[:, None]
    n0 = _unit(minkowski_cross(p, u0))
    u1 = sh[:, None] * p + ch[:, None] * u0
    n1 = _unit(minkowski_cross(q, u1))
    v0 = vec[edges.origins]
    v1 = np.einsum("eij,ej->ei", edges.mats, vec[edges.termini])

    c = minkowski_dot(v0, u0)
    d = minkowski_dot(v1, u1) - c
    a = minkowski_dot(v0, n0)
    b = (minkowski_dot(v1, n1) - a * ch) / sh
    terms = d * d + (ell / 2.0) * (
        (a * a + b * b) * np.sinh(2.0 * ell) + 2.0 * a * b * (np.cosh(2.0 * ell) - 1.0))
    return float(np.sum(edges.weights * terms))


def energy_along(m: MarkedMap, variation: VertexVariation, s: float) -> float:
    """Energy of the map with every vertex moved by s along its variation
    vector (edges re-geodesicized by construction)."""
    return energy(m.with_lifts(exp_arr(m.lift_array(), s * variation.vectors)))


def first_variation_fd(m: MarkedMap, variation: VertexVariation, h: float = 1e-5) -> float:
    return (energy_along(m, variation, h) - energy_along(m, variation, -h)) / (2.0 * h)


def second_variation_fd(m: MarkedMap, variation: VertexVariation, h: float = 1e-4) -> float:
    return (
        energy_along(m, variation, h) - 2.0 * energy(m) + energy_along(m, variation, -h)
    ) / (h * h)


@dataclass(frozen=True)
class ConsistencyReport:
    samples: int
    max_relative_deviation: float
    deviations: tuple[float, ...]


def hessian_consistency(m: MarkedMap, n_random: int, seed: int = 0, h: float = 1e-4) -> ConsistencyReport:
    """Compare second_variation_geodesic with the quadratic form of the
    finite-difference Hessian over random variations."""
    from .solver import hessian_fd

    hess = hessian_fd(m, h)
    devs = []
    for i in range(n_random):
        variation = VertexVariation.random(m, seed=seed + i)
        closed = second_variation_geodesic(m, variation)
        coords = variation.coordinates()
        quad = float(coords @ hess @ coords)
        devs.append(abs(closed - quad) / max(1.0, abs(closed)))
    return ConsistencyReport(n_random, max(devs), tuple(devs))
