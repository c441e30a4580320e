"""Harmonic-map solver: Riemannian Newton-CG over vertex lifts with fixed deck words.

Each step solves the Newton equation H s = 2r (r the balanced-condition
residual, -2r the energy gradient) inexactly by truncated conjugate
gradients on a matrix-free Hessian-vector product, then moves every vertex
along its share of s by the exponential map, with Armijo backtracking so
accepted steps strictly decrease energy.  The squared distance is jointly
convex on the hyperbolic plane, so the Hessian is positive semidefinite and
CG meets non-positive curvature only through rounding or on a degenerate
map; its first iterate is a gradient step.  Convergence is declared on the
residual itself, the harmonicity criterion, not on energy stalling.

Energy, residual and Hessian products come from the map's `maps.EdgeData`
kernel, evaluated at trial lift arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GraphValidationError
from .graphs import WeightedGraph
from .hyperboloid import (
    J_DIAG,
    J_MATRIX,
    Isometry,
    _project_tangent_arr,
    dist_arr,
    exp_arr,
    log_arr,
    minkowski_dot,
    tangent_basis_arr,
)
from .maps import MarkedMap, energy, gauge_transform, initial_lifts
from .surfaces import SurfaceModel

# Largest gauge-fixed distance between the limits of two starts that still
# counts as agreement in a uniqueness probe.
GAUGE_TOL = 1e-7
# Armijo line search: the trial step t*delta, t = 1, 1/2, 1/4, ..., passes
# when the energy falls by at least SUFFICIENT_DECREASE * t * slope.
SUFFICIENT_DECREASE = 1e-4
BACKTRACK_FACTOR = 0.5


@dataclass(frozen=True)
class SolverConfig:
    residual_tol: float = 1e-9
    max_iters: int = 10000
    seed: int = 0

    def __post_init__(self):
        if not self.residual_tol > 0:
            raise DomainError(f"residual_tol must be positive, got {self.residual_tol!r}")
        if self.max_iters < 0:
            raise DomainError(f"max_iters must be nonnegative, got {self.max_iters!r}")


@dataclass(frozen=True)
class SolveTrace:
    energies: tuple[float, ...]
    residuals: tuple[float, ...]
    final_map: MarkedMap
    iterations: int
    # "converged" (residual tolerance met), "budget" (max_iters used up) or
    # "stalled" (no step passes the line search: the float floor)
    stop_reason: str

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    def jsonl(self) -> str:
        """One JSON object per iteration: iteration, energy, residual."""
        lines = []
        for i, (e, r) in enumerate(zip(self.energies, self.residuals)):
            lines.append('{"iteration": %d, "energy": %.17g, "residual": %.17g}' % (i, e, r))
        return "\n".join(lines) + "\n"


def _residual_norms(r: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(0.0, minkowski_dot(r, r)))


def _inner(u: np.ndarray, w: np.ndarray) -> float:
    """Metric pairing of two tangent fields (one tangent vector per vertex)."""
    return float(np.vdot(u * J_DIAG, w))


def _newton_step(hessian, r: np.ndarray) -> np.ndarray:
    """Inexact solution s of H s = 2r by truncated conjugate gradients.

    Stops once the CG residual falls under min(0.5, sqrt|2r|) |2r| or after
    4V steps.  At non-positive curvature it returns the current iterate, or
    the first search direction (a gradient step) if there is none yet.
    """
    res = 2.0 * r
    rr = _inner(res, res)
    norm = math.sqrt(rr)
    target = (min(0.5, math.sqrt(norm)) * norm) ** 2
    s = np.zeros_like(r)
    d = res
    for i in range(4 * len(r)):
        hd = hessian(d)
        curv = _inner(d, hd)
        if curv <= 0.0:
            return s if i else d
        alpha = rr / curv
        s = s + alpha * d
        res = res - alpha * hd
        rr, rr_old = _inner(res, res), rr
        if rr <= target:
            break
        d = res + (rr / rr_old) * d
    return s


def solve(m0: MarkedMap, cfg: SolverConfig | None = None) -> SolveTrace:
    """Minimize energy over vertex lifts; deck words are never touched.

    Returns the trace whether or not the residual tolerance was reached;
    `stop_reason` says why it stopped.
    """
    cfg = cfg or SolverConfig()
    edges = m0.edges
    if len(edges.busy) < m0.graph.vertex_count:
        raise GraphValidationError("ISOLATED_VERTEX", "solver needs every vertex to carry an edge")
    x = m0.lift_array()
    energies: list[float] = []
    residual_trace: list[float] = []
    steps = 0
    stop_reason = "stalled"

    e_cur = edges.energy(x)
    while True:
        r = edges.residual(x)
        max_res = float(np.max(_residual_norms(r)))
        energies.append(e_cur)
        residual_trace.append(max_res)
        if max_res <= cfg.residual_tol:
            stop_reason = "converged"
            break
        if steps >= cfg.max_iters:
            stop_reason = "budget"
            break

        delta = _newton_step(edges.hessian(x), r)
        slope = 2.0 * _inner(r, delta)
        # once the predicted decrease drops under the float resolution of the
        # energy, the Armijo comparison is rounding noise; switch the
        # acceptance test to strict residual decrease, which stays measurable
        floor = 16.0 * np.finfo(float).eps * max(1.0, abs(e_cur))
        tau = 1.0
        accepted = False
        for _ in range(80):
            x_new = exp_arr(x, tau * delta)
            e_new = edges.energy(x_new)
            if e_new <= e_cur - SUFFICIENT_DECREASE * tau * slope:
                accepted = True
                break
            if SUFFICIENT_DECREASE * tau * slope <= floor:
                new_max = float(np.max(_residual_norms(edges.residual(x_new))))
                if new_max < max_res:
                    accepted = True
                    break
            tau *= BACKTRACK_FACTOR
        if not accepted:
            break  # at the numerical floor of both energy and residual
        x = x_new
        e_cur = e_new
        steps += 1

    final = m0.with_lifts(x)
    return SolveTrace(tuple(energies), tuple(residual_trace), final, steps, stop_reason)


def hessian_product(m: MarkedMap, vectors: np.ndarray) -> np.ndarray:
    """Riemannian Hessian of the energy at m applied to one tangent vector
    per vertex (rows of `vectors`, ambient coordinates)."""
    return m.edges.hessian(m.lift_array())(np.asarray(vectors, dtype=float))


def gauge_fix(m: MarkedMap) -> MarkedMap:
    """Canonical gauge: first vertex lift at (1,0,0), first edge tangent along
    the positive x1-axis."""
    x = m.lifts
    # inverse of the Minkowski frame (x0, tangent basis at x0): it takes x0
    # to the origin and the first basis vector to the x1-axis
    frame = np.column_stack([x[0], *tangent_basis_arr(x[0])])
    to_origin = J_MATRIX @ frame.T @ J_MATRIX
    # the first edge's initial tangent, up to a positive factor
    t0 = to_origin @ _project_tangent_arr(x[m.graph.origins[0]], m.deck_matrix(0) @ x[m.graph.terminus(0)])
    size = math.hypot(t0[1], t0[2])
    if size < 1e-12:
        return gauge_transform(m, Isometry(to_origin))
    c, s = t0[1] / size, t0[2] / size
    turn = np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])  # by minus the tangent's angle
    return gauge_transform(m, Isometry(turn @ to_origin))


def fd_gradient(m: MarkedMap, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference energy gradient in the canonical orthonormal
    tangent coordinates (2 per vertex)."""
    edges = m.edges
    x = m.lift_array()
    bases = tangent_basis_arr(x)
    grad = np.zeros(2 * len(x))
    for i in range(len(grad)):
        step = np.zeros_like(x)
        step[i // 2] = h * bases[i // 2, i % 2]
        grad[i] = (edges.energy(exp_arr(x, step)) - edges.energy(exp_arr(x, -step))) / (2.0 * h)
    return grad


def hessian_fd(m: MarkedMap, h: float = 1e-4) -> np.ndarray:
    """Central finite-difference Hessian of energy in the same coordinates as
    fd_gradient: differences of the closed-form gradient -2 * residual, read
    in the tangent basis of each moved point; symmetrized.  Meaningful as a
    second-order object at a harmonic map, where the coordinate choice drops
    out."""
    if not 1e-6 <= h <= 1e-3:
        raise DomainError(f"finite-difference step {h!r} outside [1e-6, 1e-3]")
    edges = m.edges
    x = m.lift_array()
    bases = tangent_basis_arr(x)
    dim = 2 * len(x)
    hess = np.zeros((dim, dim))
    for i in range(dim):
        step = np.zeros_like(x)
        step[i // 2] = h * bases[i // 2, i % 2]
        grads = []
        for sign in (1.0, -1.0):
            moved = exp_arr(x, sign * step)
            grad = -2.0 * edges.residual(moved)
            grads.append(minkowski_dot(grad[:, None, :], tangent_basis_arr(moved)).ravel())
        hess[:, i] = (grads[0] - grads[1]) / (2.0 * h)
    return 0.5 * (hess + hess.T)


@dataclass(frozen=True)
class UniquenessReport:
    n_starts: int
    converged: tuple[bool, ...]
    energies: tuple[float, ...]
    max_gauge_deviation: float
    max_raw_deviation: float
    degenerate: bool

    @property
    def ok(self) -> bool:
        return all(self.converged) and not self.degenerate and self.max_gauge_deviation <= GAUGE_TOL

    @property
    def message(self) -> str:
        if self.degenerate:
            return "uniqueness hypothesis violated"
        if not all(self.converged):
            return f"{self.converged.count(False)} of {self.n_starts} starts did not converge"
        if self.max_gauge_deviation > GAUGE_TOL:
            return f"starts disagree (gauge-fixed deviation {self.max_gauge_deviation:.3e})"
        return "all starts agree"


def _image_is_one_dimensional(m: MarkedMap) -> bool:
    """True when at every vertex the outgoing edge tangents span at most a
    line -- the map's image lies in a single geodesic (or a point), which is
    exactly the degenerate case excluded by the uniqueness hypothesis.  A star
    spans a plane when the larger singular value of its tangents (in
    tangent_basis coordinates, from their 2x2 Gram matrix) exceeds 1e-9 and
    the smaller exceeds 1e-6 times the larger."""
    edges = m.edges
    x = m.lift_array()
    p = x[edges.origins]
    tangents = log_arr(p, edges.far_ends(x))
    coords = minkowski_dot(tangents[:, None, :], tangent_basis_arr(p))
    gram = edges.star_sums(coords[:, :, None] * coords[:, None, :])
    low, high = np.sqrt(np.maximum(0.0, np.linalg.eigvalsh(gram))).T
    return not np.any((high > 1e-9) & (low > 1e-6 * high))


def uniqueness_probe(
    surface: SurfaceModel,
    graph: WeightedGraph,
    deck_words: tuple[tuple[int, ...], ...],
    n_starts: int,
    cfg: SolverConfig | None = None,
) -> UniquenessReport:
    """Solve from n_starts seeded-random initial lifts and compare the results
    after gauge fixing.  Distinct limits (or a one-dimensional image) mean the
    uniqueness hypothesis fails for this homotopy class."""
    if n_starts < 2:
        raise DomainError(f"uniqueness probe needs at least 2 starts, got {n_starts}")
    cfg = cfg or SolverConfig()

    starts = [initial_lifts(surface, graph, "random", seed=cfg.seed + i) for i in range(n_starts)]
    base = MarkedMap.from_unoriented_words(surface, graph, starts[0], deck_words)
    traces = [solve(base.with_lifts(x), cfg) for x in starts]
    fixed = [gauge_fix(t.final_map) for t in traces]

    def max_pair_dev(maps) -> float:
        worst = 0.0
        for i in range(len(maps)):
            xi = maps[i].lifts
            for j in range(i + 1, len(maps)):
                worst = max(worst, float(np.max(dist_arr(xi, maps[j].lifts))))
        return worst

    degenerate = any(t.converged and _image_is_one_dimensional(t.final_map) for t in traces)
    return UniquenessReport(
        n_starts,
        tuple(t.converged for t in traces),
        tuple(energy(t.final_map) for t in traces),
        max_pair_dev(fixed),
        max_pair_dev([t.final_map for t in traces]),
        degenerate,
    )
