"""Harmonic-map solver: Riemannian Newton over vertex lifts with fixed deck words.

Each step solves the Newton equation H s = 2r (r the balanced-condition
residual, -2r the energy gradient), then moves every vertex along its share
of s by the exponential map, with backtracking.  A trial passes one of two
tests.  The Armijo test asks the energy to fall by a fraction of the
predicted decrease.  Once that predicted decrease is under the energy's
float64 resolution (16 eps max(1, |E|)), a trial that fails Armijo passes
if it strictly lowers the largest residual norm instead; that test puts no
bound on the energy, so such a step may raise it.  A trial step that leaves
the hyperboloid's upper sheet is rejected like one that fails both tests.
The Hessian is assembled once per step as 3x3 blocks: `near`, one per
vertex (its star's own terms), and `far`, one per half-edge (the coupling
to the far end's lift) (`maps.EdgeData.hessian`).

The equation is solved exactly.  In the breadth-first vertex order of the
map's `maps.BlockPlan` the Hessian is block-tridiagonal, with blocks of
consecutive levels of at most LEVEL_BLOCK_VERTICES (24) vertices, or of one
wider level of at most DENSE_MAX_VERTICES (49), so one block elimination
solves it (`_exact_step`) and no matrix wider than 98 is ever built or
factored; a map of at most 24 vertices is one block in vertex order, one LU
solve.  The probes' V = 42 map splits into blocks of 23 and 19 vertices: an
exact step on a stack of 4 takes 349 us there against 524 us as one (84, 84)
LU, one on a stack of 1 takes 214 us against 195 us (minimum of 3,000
interleaved calls).  Exact steps converge quadratically: from the
perturbed subdivided genus-2 starts of V = 90, 186 and 378 a solve takes 3
steps and 1.9, 2.8 and 4.7 ms (1.9, 3.0 and 5.4 ms with blocks of up to 49
vertices; minimum of 40 interleaved solves in process), where truncated
conjugate gradients took 11-12 steps and 12.4, 23.7 and 60.2 ms
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

One descent (`_descend`) runs a stack of starts, lifts (S, V, 3) that
share the map's words and `maps.EdgeData`, in lockstep.  Each iteration
makes one residual, one Hessian build, one `Hessian.matrix` and one batched
solve or block elimination for every start still descending, and its line
search one exp_arr and one pass over the edge geometry per trial, for every
start still searching.  A start leaves the stack when it converges, runs
out of budget or stalls; a start that fails its exact step (a singular
block, a step that is not finite or climbs, or no trial passes) takes the
CG step alone, and a failure of the batched solve is found start by start
(`_by_start`).  Every test is made per start, so each start takes the steps
it takes alone: `solve` is the descent of a stack of one, and
`uniqueness_probe` descends its starts as one stack, which amortizes the
fixed cost of numpy calls over them on small maps: a probe of 4 starts on
the genus-2 map and its 2- and 4-fold subdivisions (V = 6, 18, 42) takes
0.38-0.39, 0.42-0.43 and 0.52 of the time of its 4 solves one after another
(0.66-0.67 at V = 42 with the map in one block; minimum and median of 400
interleaved calls, single-threaded BLAS, 2-core x86-64 host).

Energy, residual and Hessian blocks come from the map's `maps.EdgeData`
kernel, evaluated at trial lift arrays.  Each line-search trial makes one
pass over the edge geometry, for its energy; the accepted trial's pass also
gives the next iterate's residual and blocks, and the blocks are built only
when a step is taken.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GraphValidationError, NotHyperbolicError
from .graphs import WeightedGraph
from .hyperboloid import (
    J_DIAG,
    J_MATRIX,
    _project_tangent_arr,
    dist_arr,
    exp_arr,
    log_arr,
    minkowski_dot,
    tangent_basis_arr,
)
from .maps import Hessian, MarkedMap, _derived, _random_lifts
from .surfaces import SurfaceModel

# Largest distance between the limits of two starts, as the solver returns
# them, that still counts as agreement in a uniqueness probe: with the deck
# words fixed a harmonic lift has no gauge freedom, so no gauge is fixed.
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
# Relative float resolution of an energy in the line search's tests.
_ENERGY_RESOLUTION = 16.0 * np.finfo(float).eps


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
    # "converged" (residual tolerance met), "budget" (max_iters used up) or
    # "stalled" (no step passes the line search: the float floor)
    stop_reason: str
    # kind of each accepted step: "lu" (exact) or "cg" (truncated CG)
    steps: tuple[str, ...]

    @property
    def iterations(self) -> int:
        return len(self.steps)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def _max_residuals(r: np.ndarray) -> list[float]:
    """Largest residual norm of each start of a stack of residuals (S, V, 3)."""
    return np.maximum.reduce(np.sqrt(np.maximum(0.0, minkowski_dot(r, r))), axis=1).tolist()


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
    return _solve_stack(m0, m0.lifts[None], cfg or SolverConfig())[0]


def _solve_stack(m0: MarkedMap, lifts: np.ndarray, cfg: SolverConfig) -> list[SolveTrace]:
    """One trace per start of the stack of lifts (S, V, 3), each with m0's
    words; DomainError when float64 overflows in any of them."""
    try:
        return _descend(m0, lifts, cfg)
    except FloatingPointError as exc:
        raise DomainError(f"float64 overflowed ({exc}): edge weights or lift coordinates too large") from None


def _rows(arrays: tuple, rows: list[int]) -> tuple:
    """The given rows, ascending, of each of the stacked arrays; the arrays
    themselves when that is every row."""
    if len(rows) == len(arrays[0]):
        return arrays
    return tuple(a[rows] for a in arrays)


def _by_start(f, errors, *args) -> np.ndarray:
    """f(*args) on a stack of starts: each argument an array, or a tuple of
    arrays, with the starts along the first axis, and the result shaped like
    the last.  When f raises one of `errors` on a stack of several, f on each
    start alone, with a row of NaN for each start that it raises on: one
    start's singular block or trial off the sheet is not its stack's."""
    try:
        return f(*args)
    except errors:
        if len(args[-1]) == 1:
            return np.full(args[-1].shape, np.nan)
        return np.concatenate([
            _by_start(f, errors, *(tuple(b[s:s + 1] for b in a) if isinstance(a, tuple) else a[s:s + 1]
                                   for a in args))
            for s in range(len(args[-1]))])


def _exact_step(hessian, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Exact solutions s of H s = 2r for a stack of starts, lifts x and
    residuals r of shape (S, V, 3), in tangent_basis_arr coordinates, mapped
    back along the bases; a start's row is NaN when a block of its matrix is
    singular, or its s is not finite or not a descent direction at an angle
    to the gradient of cosine DESCENT_COSINE or more.  The Hessian is
    self-adjoint, so the assembled matrix's antisymmetric part is rounding
    and is dropped: (H + H^T) s = 4r.  `Hessian.matrix` gives it in the
    blocks of the map's `BlockPlan`, and `_eliminate` solves every start's
    system at once, its coordinates in the plan's order (`coordinates`,
    the identity for a map of one block, which is one batched LU solve)."""
    plan = hessian.edges.block_plan
    bases = tangent_basis_arr(x)
    rhs = 2.0 * minkowski_dot(r[..., None, :], bases).reshape(len(x), -1)
    diagonal, upper = hessian.matrix(bases)
    failures = (np.linalg.LinAlgError, FloatingPointError)  # a singular block, or a step that overflows
    coords = np.empty_like(rhs)
    coords[:, plan.coordinates] = _by_start(_eliminate, failures, diagonal, upper,
                                            2.0 * rhs[:, plan.coordinates, None])[..., 0]
    with np.errstate(all="ignore"):
        cosine = _dots(rhs, coords) / np.sqrt(_dots(rhs, rhs) * _dots(coords, coords))
        steps = (coords.reshape(len(x), -1, 1, 2) @ bases).reshape(x.shape)
    for i, c in enumerate(cosine.tolist()):
        if not c >= DESCENT_COSINE:  # also when coords are not finite: nan
            steps[i] = np.nan
    return steps


def _dots(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Dot product of each start's rows of u and w, both (S, n)."""
    return (u[:, None, :] @ w[:, :, None]).ravel()


def _eliminate(diagonal, upper, y: np.ndarray) -> np.ndarray:
    """Solutions s of the symmetric block-tridiagonal systems, one per start
    of a stack, with diagonal blocks D_b + D_b^T and superdiagonal blocks
    U_b, right-hand sides y (S, n, 1), by block elimination:
    [X_b | z_b] = solve(S_b, [U_b | y_b]) with S_0 = D_0 + D_0^T and
    S_{b+1} = D_{b+1} + D_{b+1}^T - U_b^T X_b, y_{b+1} less U_b^T z_b, then
    s_b = z_b - X_b s_{b+1} back from the last block.  U_b spans only the
    leading columns of block b + 1, which are all that those products change
    or read.  Each step is one batched solve for the whole stack."""
    factors = []
    start = diagonal[0].shape[-1]
    schur, carry = diagonal[0] + diagonal[0].swapaxes(1, 2), y[:, :start]
    for u, block in zip(upper, diagonal[1:]):
        solved = np.linalg.solve(schur, np.concatenate([u, carry], axis=2))
        factors.append(solved)
        lead, size = u.shape[-1], block.shape[-1]
        back = u.swapaxes(1, 2)
        schur = block + block.swapaxes(1, 2)
        schur[:, :lead, :lead] -= back @ solved[..., :-1]
        carry = y[:, start:start + size].copy()
        carry[:, :lead] -= back @ solved[..., -1:]
        start += size
    parts = [np.linalg.solve(schur, carry)]
    for solved in reversed(factors):
        parts.append(solved[..., -1:] - solved[..., :-1] @ parts[-1][:, :solved.shape[-1] - 1])
    return np.concatenate(parts[::-1], axis=1) if factors else parts[0]


def _line_search(edges, x: np.ndarray, delta: np.ndarray, r: np.ndarray, e_cur: list, max_res: list):
    """Armijo backtracking of a stack of starts along exp_x(tau delta),
    tau = 1, 1/2, ..., in lockstep: each trial is one exp_arr and one pass
    over the edge geometry for all the starts still searching.  A start
    whose step is a row of NaN has none and does not search.  Returns
    (rows, energies, lifts, *geometry) for each trial that some starts
    passed: those rows of the stack and their accepted trials.  A trial
    that leaves the sheet is rejected for its start like one that fails the
    test.  A stack holds a few starts: their scalars are Python floats."""
    slope = (2.0 * _dots((r * J_DIAG).reshape(len(x), -1), delta.reshape(len(x), -1))).tolist()
    rows = [i for i, value in enumerate(slope) if not math.isnan(value)]
    passed = []
    tau = 1.0
    for _ in range(80):
        if not rows:
            break
        x_try, delta_try = _rows((x, delta), rows)
        # a trial off the sheet is a row of NaN, which no test below passes
        x_new = _by_start(exp_arr, NotHyperbolicError, x_try, tau * delta_try)
        trial = edges.geometry(x_new)
        e_new = edges.energy(x_new, trial).tolist()
        ok, flat = [], []
        for k, (i, e) in enumerate(zip(rows, e_new)):
            decrease = SUFFICIENT_DECREASE * tau * slope[i]
            ok.append(e <= e_cur[i] - decrease)
            # once the predicted decrease drops under the float resolution
            # of the energy, the Armijo comparison is rounding noise; switch
            # the acceptance test to strict residual decrease, which stays
            # measurable
            if not ok[k] and decrease <= _ENERGY_RESOLUTION * max(1.0, abs(e_cur[i])):
                flat.append(k)
        if flat:
            x_flat, *trial_flat = _rows((x_new, *trial), flat)
            for k, value in zip(flat, _max_residuals(edges.residual(x_flat, trial_flat))):
                ok[k] = value < max_res[rows[k]]
        done = [k for k, passes in enumerate(ok) if passes]
        if done:
            passed.append(([rows[k] for k in done], [e_new[k] for k in done], *_rows((x_new, *trial), done)))
        rows = [i for i, passes in zip(rows, ok) if not passes]
        tau *= BACKTRACK_FACTOR
    return passed


@np.errstate(over="raise", invalid="raise")
def _descend(m0: MarkedMap, lifts: np.ndarray, cfg: SolverConfig) -> list[SolveTrace]:
    """Newton descent of a stack of starts (S, V, 3) with m0's words, in
    lockstep: per iteration one residual, one Hessian and one exact solve
    for every start still descending, and one line search.  A start leaves
    the stack when it converges, runs out of budget or stalls."""
    edges = m0.edges
    if len(edges.busy) < m0.graph.vertex_count:
        raise GraphValidationError("ISOLATED_VERTEX", "solver needs every vertex to carry an edge")
    count = len(lifts)
    energies: list[list[float]] = [[] for _ in range(count)]
    residual_trace: list[list[float]] = [[] for _ in range(count)]
    kinds: list[list[str]] = [[] for _ in range(count)]
    stop_reason = ["stalled"] * count
    finals: list[np.ndarray | None] = [None] * count

    live = list(range(count))  # the starts still descending, in stack order
    x = lifts
    geometry = edges.geometry(x)
    e_cur = edges.energy(x, geometry).tolist()
    for iteration in itertools.count():
        r = edges.residual(x, geometry)
        max_res = _max_residuals(r)
        keep = []
        for i, (s, e, res) in enumerate(zip(live, e_cur, max_res)):
            energies[s].append(e)
            residual_trace[s].append(res)
            if res <= cfg.residual_tol:
                stop_reason[s], finals[s] = "converged", x[i]
            elif iteration >= cfg.max_iters:
                stop_reason[s], finals[s] = "budget", x[i]
            else:
                keep.append(i)
        if not keep:
            break
        if len(keep) < len(live):
            live, e_cur, max_res = [live[i] for i in keep], [e_cur[i] for i in keep], [max_res[i] for i in keep]
            x, r, *geometry = _rows((x, r, *geometry), keep)

        hessian = edges.hessian(x, geometry)
        found = []  # (kind, rows of the stack, energies, lifts, *geometry) of the trials that they passed
        if edges.block_plan.blocks:  # built at the first step, for this map and its copies
            found = [("lu", *piece) for piece in _line_search(edges, x, _exact_step(hessian, x, r), r, e_cur, max_res)]
        unmoved = set(range(len(x))).difference(*(piece[1] for piece in found))
        if unmoved:  # truncated CG, start by start, where no exact step passed
            delta = np.full_like(x, np.nan)
            for i in unmoved:
                delta[i] = _newton_step(Hessian(edges, hessian.near[i], hessian.far[i]), r[i])
            found += [("cg", *piece) for piece in _line_search(edges, x, delta, r, e_cur, max_res)]
            for i in unmoved.difference(*(piece[1] for piece in found)):
                finals[live[i]] = x[i]  # at the numerical floor of both energy and residual
            if not found:
                break
        for kind, rows, *_trial in found:
            for i in rows:
                kinds[live[i]].append(kind)
        live = [live[i] for piece in found for i in piece[1]]
        if len(found) == 1:
            e_cur, x, *geometry = found[0][2:]
        else:  # the stack in the order of the pieces, as `live` now is
            e_cur = [e for piece in found for e in piece[2]]
            x, *geometry = map(np.concatenate, zip(*(piece[3:] for piece in found)))

    return [SolveTrace(tuple(energies[s]), tuple(residual_trace[s]), _final_map(m0, finals[s]),
                       stop_reason[s], tuple(kinds[s])) for s in range(count)]


def _final_map(m0: MarkedMap, x: np.ndarray) -> MarkedMap:
    """m0 at the last iterate x of a start, bit for bit, with no second check:
    x is validated and normalized already, by exp_arr or as the start's own
    lifts."""
    lifts = np.array(x)
    lifts.flags.writeable = False
    return _derived(m0, lifts=lifts)


def gauge_fix(m: MarkedMap) -> MarkedMap:
    """Canonical gauge: first vertex lift at (1,0,0), first edge tangent along
    the positive x1-axis."""
    edges, x = m.edges, m.lifts
    # inverse of the Minkowski frame (x0, tangent basis at x0): it takes x0
    # to the origin and the first basis vector to the x1-axis
    frame = np.concatenate([x[:1], tangent_basis_arr(x[0])])  # rows x0, t1, t2
    to_origin = J_MATRIX @ frame @ J_MATRIX
    # the first half-edge's initial tangent, up to a positive factor
    e = int(np.argmin(edges.half_edges))  # the row that holds half-edge 0
    far = edges.mats[e] @ x[edges.termini[e]]
    t0 = np.einsum("ij,j->i", to_origin, _project_tangent_arr(x[edges.origins[e]], far))
    size = math.hypot(t0[1], t0[2])
    # no tangent to turn: the frame's inverse alone
    c, s = (1.0, 0.0) if size < 1e-12 else (t0[1] / size, t0[2] / size)
    turn = np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])  # about the origin, by minus the tangent's angle
    # a Minkowski-orthonormal frame's inverse turned about the origin: an
    # isometry as built, which moves the map onto the conjugated surface
    g = turn @ to_origin
    return m.with_surface(m.surface.conjugated(g), m.lifts @ g.T)


def hessian_fd(m: MarkedMap, h: float = 1e-4) -> np.ndarray:
    """Central finite-difference Hessian of energy in the coordinates of the
    orthonormal `tangent_basis_arr` bases at the lifts, 2 per vertex:
    differences of the closed-form gradient -2 * residual along each basis
    vector, read in the tangent basis of each moved point; symmetrized.
    Meaningful as a second-order object at a harmonic map, where the
    coordinate choice drops out.

    Moving vertex v moves the residual only at its star vertices (v and
    its neighbours), and no two vertices of one colour of
    `EdgeData.fd_colours` share a star vertex, so one residual with every
    vertex of a colour moved gives all of their columns (the column
    grouping of Curtis, Powell and Reid, 1974): each entry is the one
    that a residual with its vertex alone moved gives, bit for bit, the
    lifts left unmoved taken as exp_arr(x, 0) leaves them, and the others
    are 0.  All columns go through the map's own residual kernel in one
    pass over (2, 2, C) configurations, +h and -h along each basis
    direction and each of the C colours: O(C E) work."""
    if not 1e-6 <= h <= 1e-3:
        raise DomainError(f"finite-difference step {h!r} outside [1e-6, 1e-3]")
    edges, x = m.edges, m.lifts
    count = len(x)
    colour = edges.fd_colours
    step = h * tangent_basis_arr(x).swapaxes(0, 1)  # (direction, V, 3)
    # (direction, colour, V, 3): each colour's vertices moved along the direction
    step = np.where((colour == np.arange(colour.max() + 1)[:, None])[..., None], step[:, None], 0.0)
    lifts = exp_arr(x, np.stack([step, -step]))  # (sign, direction, colour, V, 3)
    grads = minkowski_dot((-2.0 * edges.residual(lifts))[..., None, :], tangent_basis_arr(lifts))
    # each vertex's column is read at its star vertices: itself, and the origin of each row that ends at it
    vertex = np.concatenate([np.arange(count), edges.termini])
    star = np.concatenate([np.arange(count), edges.origins])
    hess = np.zeros((2 * count, 2 * count))
    pair = np.arange(2)
    diff = (grads[0] - grads[1]) / (2.0 * h)  # (direction, colour, V, 2)
    hess[2 * star[:, None] + pair, 2 * vertex[:, None] + pair[:, None, None]] = diff[:, colour[vertex], star]
    return 0.5 * (hess + hess.T)


@dataclass(frozen=True)
class UniquenessReport:
    n_starts: int
    converged: tuple[bool, ...]
    energies: tuple[float, ...]
    max_gauge_deviation: float  # largest distance between the lifts of two limits, taken as solved: no gauge fixed
    degenerate: bool

    @property
    def ok(self) -> bool:
        return all(self.converged) and not self.degenerate and self.max_gauge_deviation <= GAUGE_TOL


def _image_is_one_dimensional(edges, x: np.ndarray) -> np.ndarray:
    """For each start of a stack of lifts (S, V, 3): True when at every
    vertex the outgoing edge tangents span at most a line -- the map's image
    lies in a single geodesic (or a point), which is exactly the degenerate
    case excluded by the uniqueness hypothesis.  A star spans a plane when
    the larger singular value of its tangents (in the tangent_basis_arr
    coordinates of its vertex) exceeds 1e-9 and the smaller exceeds 1e-6
    times the larger: when the larger eigenvalue of their 2x2 Gram matrix
    exceeds 1e-18 and its determinant 1e-12 times that eigenvalue squared."""
    tangents = log_arr(x.take(edges.origins, axis=-2), edges.far_ends(x))
    coords = minkowski_dot(tangents[..., None, :], tangent_basis_arr(x).take(edges.origins, axis=-3))
    gram = edges.star_sums(coords[..., :, None] * coords[..., None, :], axis=1)
    a, b, c = gram[..., 0, 0], gram[..., 0, 1], gram[..., 1, 1]
    high = 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)
    return ~np.any((high > 1e-18) & (a * c - b * b > 1e-12 * high * high), axis=1)


def uniqueness_probe(
    surface: SurfaceModel,
    graph: WeightedGraph,
    deck_words: tuple[tuple[int, ...], ...],
    n_starts: int,
    cfg: SolverConfig | None = None,
) -> UniquenessReport:
    """Solve from n_starts seeded-random initial lifts and compare the results
    as solved.  Distinct limits (or a one-dimensional image) mean the
    uniqueness hypothesis fails for this homotopy class.

    Start i is `initial_lifts(..., "random", seed=cfg.seed + i)`, bit for
    bit, drawn seed by seed and normalized together, and the starts
    descend as one stack (S, V, 3), in lockstep, each exactly as `solve`
    would take it alone.  Each start's energy is the last of its trace, and
    the largest distance between corresponding lifts of two limits, over
    all pairs, is the deviation.  No gauge is fixed: with the deck words
    held fixed, an isometry that keeps a harmonic lift harmonic commutes
    with every deck matrix, and in a closed surface's deck group only an
    elementary subgroup has one, whose lifts lie in one geodesic or a
    point, the one-dimensional image that the probe flags as degenerate."""
    if n_starts < 2:
        raise DomainError(f"uniqueness probe needs at least 2 starts, got {n_starts}")
    cfg = cfg or SolverConfig()

    starts = _random_lifts(surface, graph, range(cfg.seed, cfg.seed + n_starts))
    base = MarkedMap.from_unoriented_words(surface, graph, starts[0], deck_words)
    traces = _solve_stack(base, starts, cfg)
    x = np.stack([t.final_map.lifts for t in traces])
    first, second = np.triu_indices(n_starts, 1)
    converged = np.array([t.converged for t in traces])
    return UniquenessReport(
        n_starts,
        tuple(converged.tolist()),
        tuple(t.energies[-1] for t in traces),
        float(np.max(dist_arr(x[first], x[second]))),
        bool(np.any(converged & _image_is_one_dimensional(base.edges, x))),
    )
