"""First and second energy variations via closed-form Jacobi fields.

A variation assigns one tangent vector per graph vertex; moving every vertex
along its vector (by the exponential map) and re-geodesicizing the edges
gives a one-parameter family of maps.  Along each lifted edge the variation
field of that family is a Jacobi field of the curvature -1 plane, which
splits into a tangential part affine in t and a normal part spanned by
cosh/sinh -- so both variation derivatives of the energy have closed forms,
checkable against finite differences.

Both closed forms are evaluated for all half-edges at once on the map's
`maps.EdgeData` arrays; `jacobi_solve` keeps the per-edge field as the
reference they are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEdgeError, DomainError
from .hyperboloid import (
    HPoint,
    HTangent,
    dist,
    dist_arr,
    exp_arr,
    log_arr,
    minkowski_cross,
    minkowski_dot,
    normal_at,
    tangent_basis,
    tangent_basis_arr,
)
from .maps import MarkedMap, energy


@dataclass(frozen=True)
class VertexVariation:
    """One tangent vector per graph vertex (tangency enforced by HTangent)."""

    vectors: tuple[HTangent, ...]

    @staticmethod
    def zero(m: MarkedMap) -> "VertexVariation":
        return VertexVariation(tuple(HTangent.zero(p) for p in m.vertex_lifts))

    @staticmethod
    def random(m: MarkedMap, seed: int = 0, scale: float = 1.0) -> "VertexVariation":
        rng = np.random.default_rng(seed)
        vecs = []
        for p in m.vertex_lifts:
            b1, b2 = tangent_basis(p)
            c = rng.standard_normal(2)
            vecs.append(HTangent(p, scale * (c[0] * b1.vec + c[1] * b2.vec)))
        return VertexVariation(tuple(vecs))

    def scaled(self, c: float) -> "VertexVariation":
        return VertexVariation(tuple(v.scaled(c) for v in self.vectors))

    def plus(self, other: "VertexVariation") -> "VertexVariation":
        return VertexVariation(tuple(a + b for a, b in zip(self.vectors, other.vectors)))

    def array(self) -> np.ndarray:
        """The vectors as rows of a (V, 3) array."""
        return np.array([v.vec for v in self.vectors]).reshape(-1, 3)

    def coordinates(self, m: MarkedMap) -> np.ndarray:
        """Components in the canonical orthonormal bases (matches hessian_fd)."""
        return minkowski_dot(self.array()[:, None, :], tangent_basis_arr(m.lift_array())).ravel()


@dataclass(frozen=True)
class JacobiField:
    """Variation field along one lifted edge, t in [0, 1], edge speed ell.

    Tangential component (c + d*t) * u(t); normal component
    (a*cosh(ell*t) + b*sinh(ell*t)) * n(t), with (u, n) the transported
    frame of the edge geodesic.
    """

    length: float
    c: float
    d: float
    a: float
    b: float
    start: HPoint
    unit: HTangent
    boundary_error: float

    def value_at(self, t: float) -> HTangent:
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"edge parameter {t} outside [0, 1]")
        ell = self.length
        tau = ell * t
        p = self.start.coords
        u = self.unit.vec
        point = HPoint(math.cosh(tau) * p + math.sinh(tau) * u)
        u_t = HTangent(point, math.sinh(tau) * p + math.cosh(tau) * u)
        n_t = normal_at(point, u_t)
        tangential = (self.c + self.d * t) * u_t.vec
        normal = (self.a * math.cosh(tau) + self.b * math.sinh(tau)) * n_t.vec
        return HTangent(point, tangential + normal)


def jacobi_solve_segment(p: HPoint, q: HPoint, v0: HTangent, v1: HTangent) -> JacobiField:
    """Jacobi field along the geodesic p -> q with endpoint values v0, v1."""
    ell = dist(p, q)
    if ell < 1e-12:
        raise DegenerateEdgeError("jacobi field needs an edge of positive length")
    from .hyperboloid import direction

    u0 = direction(p, q)
    n0 = normal_at(p, u0)
    u1 = HTangent(q, math.sinh(ell) * p.coords + math.cosh(ell) * u0.vec)
    n1 = normal_at(q, u1)

    vt0 = float(minkowski_dot(v0.vec, u0.vec))
    vn0 = float(minkowski_dot(v0.vec, n0.vec))
    vt1 = float(minkowski_dot(v1.vec, u1.vec))
    vn1 = float(minkowski_dot(v1.vec, n1.vec))

    c, d = vt0, vt1 - vt0
    a = vn0
    b = (vn1 - a * math.cosh(ell)) / math.sinh(ell)

    err0 = np.max(np.abs((c * u0.vec + a * n0.vec) - v0.vec))
    rec1 = (c + d) * u1.vec + (a * math.cosh(ell) + b * math.sinh(ell)) * n1.vec
    err1 = np.max(np.abs(rec1 - v1.vec))
    return JacobiField(ell, c, d, a, b, p, u0, float(max(err0, err1)))


def edge_boundary_values(m: MarkedMap, e: int, variation: VertexVariation) -> tuple[HTangent, HTangent]:
    """Variation values at the two ends of the lifted half-edge e: the origin
    vertex's vector, and the terminus vector pushed through the deck matrix."""
    g = m.graph
    v0 = variation.vectors[g.origins[e]]
    w = variation.vectors[g.terminus(e)]
    mat = m.deck_matrix(e)
    p1 = HPoint(mat @ w.base.coords)
    return v0, HTangent(p1, mat @ w.vec)


def jacobi_solve(m: MarkedMap, e: int, variation: VertexVariation) -> JacobiField:
    p, q = m.edge_segment(e)
    v0, v1 = edge_boundary_values(m, e, variation)
    return jacobi_solve_segment(p, q, v0, v1)


def first_variation(m: MarkedMap, variation: VertexVariation) -> float:
    """d/ds of energy under the vertex-exponential homotopy, at s = 0:
    -2 * sum over oriented edges of weight * <V(origin), T_e(0)>, that is
    -2 * sum over vertices of <V_v, r_v> with r the balanced residual."""
    r = m.edges.residual(m.lift_array())
    return -2.0 * float(np.sum(minkowski_dot(variation.array(), r)))


def _unit(w: np.ndarray) -> np.ndarray:
    return w / np.sqrt(minkowski_dot(w, w))[:, None]


def second_variation_geodesic(m: MarkedMap, variation: VertexVariation) -> float:
    """d^2/ds^2 of energy under the same homotopy, summed in closed form.

    Per oriented edge: d^2 + (ell/2) * ((a^2+b^2) sinh 2ell + 2ab (cosh 2ell - 1)),
    the integral of |grad_T V|^2 + |V_normal|^2 |T|^2 over the edge, with the
    Jacobi coefficients (c, d, a, b) of jacobi_solve_segment computed for all
    half-edges at once.
    """
    edges = m.edges
    x = m.lift_array()
    vec = variation.array()
    p = x[edges.origins]
    q = edges.far_ends(x)
    # back onto the sheet, as the HPoint end of jacobi_solve: the deck
    # matrices' rounding grows with the square of their norm
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
    return energy(m.with_lifts(exp_arr(m.lift_array(), s * variation.array())))


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
        coords = variation.coordinates(m)
        quad = float(coords @ hess @ coords)
        devs.append(abs(closed - quad) / max(1.0, abs(closed)))
    return ConsistencyReport(n_random, max(devs), tuple(devs))
