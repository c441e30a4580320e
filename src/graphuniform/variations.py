"""First and second energy variations, evaluated through `maps.EdgeData`.

A variation is a (V, 3) array of tangent vectors at the map's lifts, one
per graph vertex.  Moving every vertex along its vector by the exponential
map, and re-geodesicizing the edges, gives a one-parameter family of maps.
Its first derivative at s = 0 is -2 <v, r> for the balanced residual r.
The curves s -> exp(s v) are geodesics, so its second derivative is
<v, H v> for the Riemannian Hessian H that the solver's exact Newton steps
factor, at every map and not only at harmonic ones.  `first_variation_fd`
checks the first against a central difference of the energy along the
variation, and `hessian_consistency` the second against `solver.hessian_fd`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .hyperboloid import exp_arr, minkowski_dot, tangent_basis_arr, tangents_arr
from .maps import MarkedMap, energy


def random_variation(m: MarkedMap, seed: int = 0) -> np.ndarray:
    """Gaussian coordinates in the canonical tangent bases at the lifts; one
    (V, 2) draw is the same stream as V draws of two."""
    return _random_variations(m.lifts, tangent_basis_arr(m.lifts), (seed,))[0]


def _random_variations(x: np.ndarray, bases: np.ndarray, seeds) -> np.ndarray:
    """(S, V, 3): the `random_variation` of each seed at lifts x (V, 3), with
    their tangent bases (V, 2, 3), as one stack."""
    if min(seeds, default=0) < 0:
        raise DomainError(f"random seeds must be non-negative, got {min(seeds)}")
    c = np.stack([np.random.default_rng(seed).standard_normal((len(x), 2)) for seed in seeds])
    return tangents_arr(np.broadcast_to(x, c.shape[:-1] + (3,)), c[..., :1] * bases[:, 0] + c[..., 1:] * bases[:, 1])


def first_variation(m: MarkedMap, v: np.ndarray) -> float:
    """d/ds of energy under the vertex-exponential homotopy, at s = 0:
    -2 * sum over oriented edges of weight * <V(origin), T_e(0)>, that is
    -2 * sum over vertices of <V_v, r_v> with r the balanced residual."""
    v = tangents_arr(m.lifts, v)
    return -2.0 * float(np.sum(minkowski_dot(v, m.edges.residual(m.lifts))))


def energy_along(m: MarkedMap, v: np.ndarray, s: float) -> float:
    """Energy of the map with every vertex moved by s along its variation
    vector (edges re-geodesicized by construction)."""
    return energy(m.with_lifts(exp_arr(m.lifts, s * tangents_arr(m.lifts, v))))


def first_variation_fd(m: MarkedMap, v: np.ndarray) -> float:
    """Central difference of the energy along the variation, step 1e-5."""
    return (energy_along(m, v, 1e-5) - energy_along(m, v, -1e-5)) / 2e-5


@dataclass(frozen=True)
class ConsistencyReport:
    samples: int
    max_relative_deviation: float
    deviations: tuple[float, ...]


def hessian_consistency(m: MarkedMap, n_random: int, seed: int = 0, h: float = 1e-4) -> ConsistencyReport:
    """Compare the second variation <v, H v>, for the Hessian the exact
    Newton steps factor, with the quadratic form of the finite-difference
    Hessian over the random variations of seeds seed, seed + 1, ...: drawn,
    bit for bit as `random_variation` draws them, and applied as one stack
    on one set of tangent bases."""
    from .solver import hessian_fd

    if n_random < 1:
        raise DomainError(f"Hessian consistency needs at least 1 variation, got {n_random}")
    hess = hessian_fd(m, h)
    bases = tangent_basis_arr(m.lifts)
    fields = _random_variations(m.lifts, bases, range(seed, seed + n_random))
    closed = np.sum(minkowski_dot(fields, m.edges.hessian(m.lifts)(fields)), axis=-1)
    coords = minkowski_dot(fields[..., None, :], bases).reshape(n_random, -1)
    quad = np.einsum("si,ij,sj->s", coords, hess, coords)
    devs = np.abs(closed - quad) / np.maximum(1.0, np.abs(closed))
    return ConsistencyReport(n_random, float(np.max(devs)), tuple(devs.tolist()))
