"""Piecewise-geodesic maps from a weighted graph into a hyperbolic surface.

A map is stored through an equivariant lift: one hyperboloid point per graph
vertex plus, for every oriented edge, a word in the surface generators (the
deck transformation).  The lifted edge e runs from lift(o(e)) to
deck_e * lift(t(e)); the words are combinatorial data encoding the homotopy
class and are never recomputed from floats.  A gauge isometry can be applied
on top without touching the words, so gauge moves keep the class exact.

Every quantity of a map is a sum over its lifted half-edges.  `EdgeData`
holds the half-edge arrays, built once per map from the words, and is the
one kernel for energy, balanced residual and the Hessian-vector product;
`variations` and `solver` evaluate through it too.  The lifts are one
validated (V, 3) array; `HPoint`s appear only at the API edges, built on demand.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import DomainError, GeometryError, GraphValidationError
from .graphs import WeightedGraph
from .hyperboloid import (
    HPoint,
    HTangent,
    Isometry,
    J_DIAG,
    _project_tangent_arr,
    _sinhc,
    dist_arr,
    log_arr,
    minkowski_cross,
    minkowski_dot,
    points_arr,
)
from .surfaces import SurfaceModel

_REVERSAL_TOL = 1e-10


def _inverse_word(word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-w for w in reversed(word))


def _lift_array(lifts, count: int) -> np.ndarray:
    """(count, 3) read-only array of validated, normalized lifts, from an
    array or a sequence of rows.  A sequence of HPoints is taken as it is:
    its points are validated and normalized already."""
    points = False
    if not isinstance(lifts, np.ndarray):
        lifts = tuple(lifts)
        points = all(isinstance(p, HPoint) for p in lifts)
        lifts = [p.coords if isinstance(p, HPoint) else p for p in lifts]
    if len(lifts) != count:
        raise GraphValidationError("LIFT_COUNT", f"{len(lifts)} lifts for {count} vertices")
    try:
        x = np.asarray(lifts, dtype=float).reshape(count, 3)
    except ValueError:  # ragged rows, or rows of the wrong length
        raise GeometryError(f"lifts need {count} rows of 3 coordinates") from None
    if not points:
        return points_arr(x)
    x.flags.writeable = False  # a fresh array, built from the points' rows
    return x


@dataclass(frozen=True, eq=False)
class EdgeData:
    """Half-edge arrays of a marked map, sorted by origin so that every sum
    over a vertex star is a segment sum; half-edge e sits in row[e].  Methods
    take the lifts as a (V, 3) array x, so callers can evaluate at trial
    positions without building a map."""

    vertex_count: int
    row: np.ndarray
    origins: np.ndarray
    termini: np.ndarray
    weights: np.ndarray
    mats: np.ndarray  # (E, 3, 3) deck matrices, gauge included
    even: np.ndarray  # rows of the first half-edge of each reversal pair
    busy: np.ndarray  # vertices with a nonempty star
    starts: np.ndarray  # first row of each busy vertex's star

    @staticmethod
    def build(graph: WeightedGraph, mats: np.ndarray) -> "EdgeData":
        """Arrays of `graph` with deck matrices `mats` (in half-edge order)."""
        origins = np.asarray(graph.origins, dtype=int)
        reversals = np.asarray(graph.reversals, dtype=int)
        order = np.argsort(origins, kind="stable")
        busy = np.flatnonzero(np.bincount(origins, minlength=graph.vertex_count))
        return EdgeData(
            vertex_count=graph.vertex_count,
            row=np.argsort(order),
            origins=origins[order],
            termini=origins[reversals][order],
            weights=np.asarray(graph.weights, dtype=float)[order],
            mats=mats[order],
            even=np.flatnonzero(order < reversals[order]),
            busy=busy,
            starts=np.searchsorted(origins[order], busy))

    def star_sums(self, per_edge: np.ndarray) -> np.ndarray:
        """Sum of per-row values over each vertex star (zero for an empty star)."""
        sums = np.add.reduceat(per_edge, self.starts)
        if len(self.busy) == self.vertex_count:
            return sums
        # reduceat has no empty segments: scatter the busy vertices' sums
        out = np.zeros((self.vertex_count,) + per_edge.shape[1:])
        out[self.busy] = sums
        return out

    def far_ends(self, x: np.ndarray) -> np.ndarray:
        """Lifted terminus of every row: its deck matrix applied to the terminus lift."""
        return np.einsum("eij,ej->ei", self.mats, x[self.termini])

    def energy(self, x: np.ndarray) -> float:
        e = self.even
        q = np.einsum("eij,ej->ei", self.mats[e], x[self.termini[e]])
        return float(np.sum(self.weights[e] * dist_arr(x[self.origins[e]], q) ** 2))

    def residual(self, x: np.ndarray) -> np.ndarray:
        """Weighted sum of outgoing edge tangents at every vertex, shape (V, 3)."""
        return self.star_sums(self.weights[:, None] * log_arr(x[self.origins], self.far_ends(x)))

    def hessian(self, x: np.ndarray):
        """Riemannian Hessian of the energy at x, as a map on tangent fields.

        Per half-edge from p to q (length ell, geodesic pole n, variation
        values v0 at p and v1 at q) this is the polarized closed-form second
        variation, 2w [<v0,u0> u0 - <v1,u1> u0 + (ell coth ell <v0,n>
        - ell/sinh ell <v1,n>) n].  It is evaluated as 2w [v0 - P v1
        + (ell coth ell - 1) <v0,n> n - (ell/sinh ell - 1) <v1,n> n], with P
        the parallel transport q -> p, which stays finite as ell -> 0.  The
        edge geometry is computed once per x; each product costs one pass
        over the half-edges.
        """
        o, t, mats = self.origins, self.termini, self.mats
        p = x[o]
        q = self.far_ends(x)
        ell = dist_arr(p, q)
        pole = minkowski_cross(p, q)
        size = np.sqrt(np.maximum(0.0, minkowski_dot(pole, pole)))
        pole /= np.where(size > 0.0, size, 1.0)[:, None]
        sinhc = _sinhc(ell)
        a = (np.cosh(ell) / sinhc - 1.0)[:, None]
        b = (1.0 / sinhc - 1.0)[:, None]
        transport = (p + q) / (1.0 - minkowski_dot(p, q))[:, None]
        w2 = 2.0 * self.weights[:, None]

        def apply(v: np.ndarray) -> np.ndarray:
            v0 = v[o]
            v1 = np.einsum("eij,ej->ei", mats, v[t])
            terms = v0 - v1 - minkowski_dot(p, v1)[:, None] * transport
            terms += (a * minkowski_dot(v0, pole)[:, None] - b * minkowski_dot(v1, pole)[:, None]) * pole
            return _project_tangent_arr(x, self.star_sums(w2 * terms))

        return apply


@dataclass(frozen=True, eq=False)
class MarkedMap:
    """Vertex lifts + per-half-edge deck words (+ an overall gauge isometry).

    The effective deck matrix of half-edge e is gauge * word(e) * gauge^-1;
    matrices are cached at construction in `edges`, words are the source of
    truth.  Maps derived by `with_lifts` and `gauge_transform` share or
    conjugate the cached arrays instead of rebuilding them.
    """

    surface: SurfaceModel
    graph: WeightedGraph
    lifts: np.ndarray  # (V, 3), normalized, read-only; given as an array or HPoints/rows
    deck_words: tuple[tuple[int, ...], ...]
    gauge: Isometry = field(default_factory=Isometry.identity)

    def __post_init__(self):
        g = self.graph
        given = self.lifts
        object.__setattr__(self, "lifts", _lift_array(given, g.vertex_count))
        if isinstance(given, tuple) and all(isinstance(p, HPoint) for p in given):
            self.__dict__["vertex_lifts"] = given  # the points are the rows
        if len(self.deck_words) != g.half_edge_count:
            raise GraphValidationError(
                "DECK_COUNT", f"{len(self.deck_words)} deck words for {g.half_edge_count} half-edges")
        object.__setattr__(self, "deck_words", tuple(tuple(w) for w in self.deck_words))

        ginv = self.gauge.inverse().matrix
        mats = np.array([self.gauge.matrix @ self.surface.word_matrix(word) @ ginv
                         for word in self.deck_words]).reshape(-1, 3, 3)
        reversals = np.asarray(g.reversals, dtype=int)
        back = mats.transpose(0, 2, 1) * np.outer(J_DIAG, J_DIAG)  # J m^T J, the inverses
        # product round-off grows with the square of the matrix norm
        scale = (1.0 + np.max(np.abs(back), axis=(1, 2))) ** 2
        defect = np.max(np.abs(mats[reversals] - back), axis=(1, 2))
        bad = np.flatnonzero((defect > _REVERSAL_TOL * scale) & (np.arange(len(mats)) < reversals))
        if bad.size:
            e = int(bad[0])
            raise GeometryError(
                f"deck word of half-edge {reversals[e]} is not inverse to half-edge {e} "
                f"(defect {defect[e]:.3e})")
        object.__setattr__(self, "edges", EdgeData.build(g, mats))

    @staticmethod
    def from_unoriented_words(
        surface: SurfaceModel,
        graph: WeightedGraph,
        lifts,
        words: tuple[tuple[int, ...], ...],
        gauge: Isometry | None = None,
    ) -> "MarkedMap":
        """Build from one deck word per unoriented edge (in unoriented_edges()
        order); the reversed half-edges get the inverse words."""
        unoriented = graph.unoriented_edges()
        if len(words) != len(unoriented):
            raise GraphValidationError(
                "DECK_COUNT", f"{len(words)} deck words for {len(unoriented)} unoriented edges")
        full: list[tuple[int, ...]] = [()] * graph.half_edge_count
        for (e, _u, _v, _w, _cls), word in zip(unoriented, words):
            full[e] = tuple(word)
            full[graph.reversals[e]] = _inverse_word(tuple(word))
        return MarkedMap(surface, graph, lifts, tuple(full),
                         gauge if gauge is not None else Isometry.identity())

    # -- accessors ---------------------------------------------------------

    @cached_property
    def vertex_lifts(self) -> tuple[HPoint, ...]:
        """The lifts as points, built on first use."""
        return tuple(HPoint(p) for p in self.lifts)

    def lift_array(self) -> np.ndarray:
        """A writable copy of `lifts`."""
        return self.lifts.copy()

    def deck_matrix(self, e: int) -> np.ndarray:
        return self.edges.mats[self.edges.row[e]]

    def edge_segment(self, e: int) -> tuple[HPoint, HPoint]:
        """Endpoints of the lifted half-edge e."""
        p = self.vertex_lifts[self.graph.origins[e]]
        q = self.deck_matrix(e) @ self.lifts[self.graph.terminus(e)]
        return p, HPoint(q)

    def edge_tangent(self, e: int) -> HTangent:
        """Initial tangent T_e(0) of the lifted half-edge (norm = edge length)."""
        p, q = self.edge_segment(e)
        return HTangent(p, log_arr(p.coords, q.coords))

    def edge_length(self, e: int) -> float:
        p, q = self.edge_segment(e)
        return float(dist_arr(p.coords, q.coords))

    def with_lifts(self, lifts) -> "MarkedMap":
        """Same class and gauge, new vertex positions; the words and edge
        arrays are shared."""
        x = _lift_array(lifts, self.graph.vertex_count)
        m = copy.copy(self)
        m.__dict__.pop("vertex_lifts", None)
        object.__setattr__(m, "lifts", x)
        return m


def energy(m: MarkedMap) -> float:
    """Sum over unoriented edges of weight * (lifted edge length)^2."""
    return m.edges.energy(m.lifts)


@dataclass(frozen=True, eq=False)
class BalancedReport:
    residuals: np.ndarray  # (V, 3): the residual tangent vector at each vertex lift
    max_norm: float
    rms_norm: float

    def is_harmonic(self, tol: float = 1e-9) -> bool:
        return self.max_norm <= tol


def balanced_residual(m: MarkedMap) -> BalancedReport:
    """Weighted sum of outgoing edge tangents at every vertex.

    Zero residual everywhere is the harmonicity criterion; the residual is
    also half the negative Riemannian energy gradient at each vertex lift.
    """
    residuals = m.edges.residual(m.lifts)
    norms = np.sqrt(np.maximum(0.0, minkowski_dot(residuals, residuals)))
    return BalancedReport(residuals, float(np.max(norms)), math.sqrt(float(np.mean(norms * norms))))


def gauge_transform(m: MarkedMap, g: Isometry) -> MarkedMap:
    """Move every lift by g and conjugate the deck matrices; words unchanged."""
    moved = m.with_lifts(m.lifts @ g.matrix.T)
    object.__setattr__(moved, "gauge", g @ m.gauge)
    conjugated = g.matrix @ m.edges.mats @ g.inverse().matrix
    object.__setattr__(moved, "edges", replace(m.edges, mats=conjugated))
    return moved


def rebase_vertex(m: MarkedMap, v: int, word: tuple[int, ...]) -> MarkedMap:
    """Replace the lift of v by its translate under `word`, fixing up the deck
    words of incident edges so the map is unchanged.  Energy is invariant."""
    if not 0 <= v < m.graph.vertex_count:
        raise DomainError(f"no vertex {v}")
    word = tuple(word)
    gamma = m.gauge.matrix @ m.surface.word_matrix(word) @ m.gauge.inverse().matrix
    lifts = m.lift_array()
    lifts[v] = gamma @ lifts[v]
    inv = _inverse_word(word)
    new_words = []
    for e in range(m.graph.half_edge_count):
        w = m.deck_words[e]
        if m.graph.origins[e] == v:
            w = word + w
        if m.graph.terminus(e) == v:
            w = w + inv
        new_words.append(w)
    return MarkedMap(m.surface, m.graph, lifts, tuple(new_words), m.gauge)


def initial_lifts(
    surface: SurfaceModel, graph: WeightedGraph, mode: str = "barycenter", seed: int = 0
) -> np.ndarray:
    """Seed positions inside the fundamental polygon, one row per vertex.

    "barycenter" puts every vertex at the normalized average of the polygon
    corners; "random" draws a Dirichlet-weighted corner combination per
    vertex from the given seed.
    """
    if surface.polygon is None:
        raise DomainError("surface has no polygon to seed lifts in")
    corners = np.array([p.coords for p in surface.polygon])
    if mode == "barycenter":
        return points_arr(np.tile(corners.mean(axis=0), (graph.vertex_count, 1)))
    if mode == "random":
        weights = np.random.default_rng(seed).dirichlet(np.ones(len(corners)), size=graph.vertex_count)
        return points_arr(weights @ corners)
    raise DomainError(f"unknown lift seeding mode {mode!r}")
