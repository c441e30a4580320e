"""Harmonic-map solver: Riemannian Newton over vertex lifts with fixed deck words.

Each step solves the Newton equation H s = 2r (r the balanced-condition
residual, -2r the energy gradient), then moves every vertex along its share
of s by the exponential map, with Armijo backtracking so accepted steps
strictly decrease energy; a trial step that leaves the hyperboloid's upper
sheet is rejected like one that fails the Armijo test.  The Hessian is
assembled once per step as 3x3 blocks: `near`, one per vertex (its star's
own terms), and `far`, one per half-edge (the coupling to the far end's
lift) (`maps.EdgeData.hessian`).

The equation is solved exactly.  In the breadth-first vertex order of the
map's `maps.BlockPlan` the Hessian is block-tridiagonal, with blocks of at
most DENSE_MAX_VERTICES (49) vertices, so one block elimination solves it
(`_exact_step`) and no matrix wider than 98 is ever built or factored; a
map of at most 49 vertices is one block, one LU solve.  Exact steps
converge quadratically: from the perturbed subdivided genus-2 starts of
V = 90, 186 and 378 a solve takes 3 steps and 4.1, 5.8 and 10.5 ms, where
truncated conjugate gradients took 11-12 steps and 12.4, 23.7 and 60.2 ms
(single-threaded BLAS, 2-core x86-64 host).

Truncated CG, with forcing term min(0.5, sqrt|2r|) and each product two
batched 3x3 products and one star sum, is the fallback: it takes the step
when the map has a breadth-first level wider than DENSE_MAX_VERTICES, or
when the elimination meets a singular block, or its step is not finite,
meets the gradient at an angle whose cosine is under DESCENT_COSINE, or
passes no line-search trial.  The squared distance is jointly convex on
the hyperbolic plane, so the Hessian is positive semidefinite and CG meets
non-positive curvature only through rounding or on a degenerate map; its
first iterate is a gradient step.
Convergence is declared on the residual itself, the harmonicity criterion,
not on energy stalling.

Energy, residual and Hessian blocks come from the map's `maps.EdgeData`
kernel, evaluated at trial lift arrays.  Each line-search trial makes one
pass over the edge geometry, for its energy; the accepted trial's pass also
gives the next iterate's residual and blocks, and the blocks are built only
when a step is taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GraphValidationError, NotHyperbolicError
from .graphs import WeightedGraph
from .hyperboloid import (
    J_DIAG,
    J_MATRIX,
    Isometry,
    _prevalidated,
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
# Smallest cosine between an exact step and the gradient (the angle condition
# of line-search Newton methods).  A Newton step on a Hessian of condition
# number k has cosine at least 2/sqrt(k), 0.38 or more on the genus-2 maps;
# on maps whose image lies in a geodesic, the Hessian is singular along it,
# and the LU solve turns rounding in the gradient into steps with cosines of
# 3e-7 to 2e-4 that carry the lifts far along the geodesic, out of float range.
DESCENT_COSINE = 1e-2


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
    # kind of each accepted step: "lu" (exact) or "cg" (truncated CG)
    steps: tuple[str, ...]

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    def jsonl(self) -> str:
        """One JSON object per iterate: iteration, energy, residual, and from
        iterate 1 on the kind of step that reached it."""
        lines = []
        for i, (e, r) in enumerate(zip(self.energies, self.residuals)):
            step = ', "step": "%s"' % self.steps[i - 1] if i else ""
            lines.append('{"iteration": %d, "energy": %.17g, "residual": %.17g%s}' % (i, e, r, step))
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
    `stop_reason` says why it stopped.  DomainError when float64 overflows.
    """
    try:
        return _descend(m0, cfg or SolverConfig())
    except FloatingPointError as exc:
        raise DomainError(f"float64 overflowed ({exc}): edge weights or lift coordinates too large") from None


def _exact_step(hessian, x: np.ndarray, r: np.ndarray) -> np.ndarray | None:
    """Exact solution s of H s = 2r in tangent_basis_arr coordinates, mapped
    back along the bases; None when a block is singular, or s is not finite
    or not a descent direction at an angle to the gradient of cosine
    DESCENT_COSINE or more.  The Hessian is self-adjoint, so the assembled
    matrix's antisymmetric part is rounding and is dropped: (H + H^T) s = 4r.
    `Hessian.matrix` gives it in the blocks of the map's `BlockPlan`: one
    block in vertex order takes one LU solve, several blocks in breadth-first
    order are eliminated in that order (`_eliminate`)."""
    plan = hessian.edges.block_plan
    bases = tangent_basis_arr(x)
    rhs = 2.0 * minkowski_dot(r[:, None, :], bases).ravel()
    diagonal, upper = hessian.matrix(bases)
    try:
        if upper:
            coords = np.empty_like(rhs)
            coords[plan.coordinates] = _eliminate(diagonal, upper, 2.0 * rhs[plan.coordinates])
        else:  # one block in vertex order: the same solve, without a step's reordering (10% of a V = 6 step)
            coords = np.linalg.solve(diagonal[0] + diagonal[0].T, 2.0 * rhs)
    except (np.linalg.LinAlgError, FloatingPointError):  # a singular block, or a step that overflows
        return None
    with np.errstate(all="ignore"):
        cosine = rhs @ coords / (np.linalg.norm(rhs) * np.linalg.norm(coords))
    if not cosine >= DESCENT_COSINE:  # also when coords are not finite: nan
        return None
    return np.einsum("vi,vij->vj", coords.reshape(-1, 2), bases)


def _eliminate(diagonal, upper, y: np.ndarray) -> np.ndarray:
    """Solution s of the symmetric block-tridiagonal system with diagonal
    blocks D_b + D_b^T and superdiagonal blocks U_b, right-hand side y, by
    block elimination: [X_b | z_b] = solve(S_b, [U_b | y_b]) with
    S_0 = D_0 + D_0^T and S_{b+1} = D_{b+1} + D_{b+1}^T - U_b^T X_b,
    y_{b+1} less U_b^T z_b, then s_b = z_b - X_b s_{b+1} back from the last
    block.  U_b spans only the leading columns of block b + 1, which are all
    that those products change or read."""
    factors = []
    start = len(diagonal[0])
    schur, carry = diagonal[0] + diagonal[0].T, y[:start]
    for u, block in zip(upper, diagonal[1:]):
        solved = np.linalg.solve(schur, np.column_stack([u, carry]))
        factors.append(solved)
        lead = u.shape[1]
        schur = block + block.T
        schur[:lead, :lead] -= u.T @ solved[:, :-1]
        carry = y[start:start + len(block)].copy()
        carry[:lead] -= u.T @ solved[:, -1]
        start += len(block)
    parts = [np.linalg.solve(schur, carry)]
    for solved in reversed(factors):
        parts.append(solved[:, -1] - solved[:, :-1] @ parts[-1][:solved.shape[1] - 1])
    return np.concatenate(parts[::-1])


def _line_search(edges, x: np.ndarray, delta: np.ndarray, r: np.ndarray, e_cur: float, max_res: float):
    """Armijo backtracking along exp_x(tau delta), tau = 1, 1/2, ...: the
    accepted trial's (lifts, geometry, energy), or None when no trial passes.
    A trial that leaves the sheet is rejected like one that fails the test."""
    slope = 2.0 * _inner(r, delta)
    # once the predicted decrease drops under the float resolution of the
    # energy, the Armijo comparison is rounding noise; switch the
    # acceptance test to strict residual decrease, which stays measurable
    floor = 16.0 * np.finfo(float).eps * max(1.0, abs(e_cur))
    tau = 1.0
    for _ in range(80):
        try:
            x_new = exp_arr(x, tau * delta)
        except NotHyperbolicError:
            tau *= BACKTRACK_FACTOR
            continue
        trial = edges.geometry(x_new)
        e_new = edges.energy(x_new, trial)
        if e_new <= e_cur - SUFFICIENT_DECREASE * tau * slope:
            return x_new, trial, e_new
        if SUFFICIENT_DECREASE * tau * slope <= floor:
            if float(np.max(_residual_norms(edges.residual(x_new, trial)))) < max_res:
                return x_new, trial, e_new
        tau *= BACKTRACK_FACTOR
    return None


@np.errstate(over="raise", invalid="raise")
def _descend(m0: MarkedMap, cfg: SolverConfig) -> SolveTrace:
    edges = m0.edges
    if len(edges.busy) < m0.graph.vertex_count:
        raise GraphValidationError("ISOLATED_VERTEX", "solver needs every vertex to carry an edge")
    x = m0.lift_array()
    energies: list[float] = []
    residual_trace: list[float] = []
    kinds: list[str] = []
    stop_reason = "stalled"

    geometry = edges.geometry(x)
    e_cur = edges.energy(x, geometry)
    while True:
        r = edges.residual(x, geometry)
        max_res = float(np.max(_residual_norms(r)))
        energies.append(e_cur)
        residual_trace.append(max_res)
        if max_res <= cfg.residual_tol:
            stop_reason = "converged"
            break
        if len(kinds) >= cfg.max_iters:
            stop_reason = "budget"
            break

        hessian = edges.hessian(x, geometry)
        found = None
        if edges.block_plan.blocks:  # built at the first step, for this map and its copies
            delta = _exact_step(hessian, x, r)
            if delta is not None:
                found, kind = _line_search(edges, x, delta, r, e_cur, max_res), "lu"
        if found is None:
            found, kind = _line_search(edges, x, _newton_step(hessian, r), r, e_cur, max_res), "cg"
        if found is None:
            break  # at the numerical floor of both energy and residual
        x, geometry, e_cur = found
        kinds.append(kind)

    final = m0.with_lifts(x)
    return SolveTrace(tuple(energies), tuple(residual_trace), final, len(kinds), stop_reason, tuple(kinds))


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
        return gauge_transform(m, _prevalidated(Isometry, to_origin))
    c, s = t0[1] / size, t0[2] / size
    turn = np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])  # by minus the tangent's angle
    # a Minkowski-orthonormal frame's inverse turned about the origin is an
    # isometry as built; gauge_transform validates its product with m.gauge
    return gauge_transform(m, _prevalidated(Isometry, turn @ to_origin))


def hessian_fd(m: MarkedMap, h: float = 1e-4) -> np.ndarray:
    """Central finite-difference Hessian of energy in the coordinates of the
    orthonormal `tangent_basis_arr` bases at the lifts, 2 per vertex:
    differences of the closed-form gradient -2 * residual along each basis
    vector, read in the tangent basis of each moved point; symmetrized.
    Meaningful as a second-order object at a harmonic map, where the
    coordinate choice drops out.  The moved lifts of all 2V columns form
    one (2, 2V, V, 3) stack, +h and -h along each coordinate direction,
    which goes through the batched residual in chunks of columns whose
    per-half-edge arrays are no larger than the stack (about E / V
    chunks)."""
    if not 1e-6 <= h <= 1e-3:
        raise DomainError(f"finite-difference step {h!r} outside [1e-6, 1e-3]")
    x = m.lift_array()
    dim = 2 * len(x)
    column = np.arange(dim)
    steps = np.zeros((2, dim) + x.shape)
    steps[0, column, column // 2] = h * tangent_basis_arr(x).reshape(dim, 3)
    steps[1] = -steps[0]
    hess = np.empty((dim, dim))
    width = max(1, dim * len(x) // max(1, len(m.edges.origins)))
    for lo in range(0, dim, width):
        moved = exp_arr(x, steps[:, lo:lo + width])
        grad = -2.0 * m.edges.residual(moved)
        grads = minkowski_dot(grad[..., None, :], tangent_basis_arr(moved)).reshape(2, -1, dim)
        hess[:, lo:lo + width] = ((grads[0] - grads[1]) / (2.0 * h)).T
    return 0.5 * (hess + hess.T)


@dataclass(frozen=True)
class UniquenessReport:
    n_starts: int
    converged: tuple[bool, ...]
    energies: tuple[float, ...]
    max_gauge_deviation: float
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
    tangent_basis_arr coordinates, from their 2x2 Gram matrix) exceeds 1e-9 and
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
    fixed = [gauge_fix(t.final_map).lifts for t in traces]
    worst = 0.0
    for i, x in enumerate(fixed):
        for y in fixed[i + 1:]:
            worst = max(worst, float(np.max(dist_arr(x, y))))
    degenerate = any(t.converged and _image_is_one_dimensional(t.final_map) for t in traces)
    return UniquenessReport(
        n_starts,
        tuple(t.converged for t in traces),
        tuple(energy(t.final_map) for t in traces),
        worst,
        degenerate,
    )
