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
`maps.EdgeData` arrays.  `first_variation_fd` checks the first against a
central difference of the energy along the variation, and
`hessian_consistency` the second against `solver.hessian_fd`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEdgeError
from .hyperboloid import (
    dist_arr,
    exp_arr,
    log_arr,
    minkowski_cross,
    minkowski_dot,
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
    def random(m: MarkedMap, seed: int = 0) -> "VertexVariation":
        """Gaussian coordinates in the canonical tangent bases; one (V, 2)
        draw is the same stream as V draws of two."""
        c = np.random.default_rng(seed).standard_normal((len(m.lifts), 2))
        b = tangent_basis_arr(m.lifts)
        return VertexVariation(m.lifts, c[:, :1] * b[:, 0] + c[:, 1:] * b[:, 1])

    def coordinates(self) -> np.ndarray:
        """Components in the canonical orthonormal bases (matches hessian_fd)."""
        return minkowski_dot(self.vectors[:, None, :], tangent_basis_arr(self.base)).ravel()


def _unit(w: np.ndarray) -> np.ndarray:
    return w / np.sqrt(minkowski_dot(w, w))[..., None]


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
    Jacobi coefficients (c, d, a, b) of each half-edge computed for all
    half-edges at once: the field is (c + d t) u(t) + (a cosh(ell t) +
    b sinh(ell t)) n(t) in the transported frame (u, n) of the edge.
    """
    edges = m.edges
    x = m.lift_array()
    vec = variation.vectors
    p = x[edges.origins]
    q = edges.far_ends(x)
    # back onto the sheet: the deck matrices' rounding grows with the square
    # of their norm
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


def first_variation_fd(m: MarkedMap, variation: VertexVariation) -> float:
    """Central difference of the energy along the variation, step 1e-5."""
    return (energy_along(m, variation, 1e-5) - energy_along(m, variation, -1e-5)) / 2e-5


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
