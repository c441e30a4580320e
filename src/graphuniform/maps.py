"""Piecewise-geodesic maps from a weighted graph into a hyperbolic surface.

A map is stored through an equivariant lift: one hyperboloid point per graph
vertex plus, for every oriented edge, a word in the surface generators (the
deck transformation).  The lifted edge e runs from lift(o(e)) to
deck_e * lift(t(e)); the words are combinatorial data encoding the homotopy
class and are never recomputed from floats.  The word of each half-edge's
reversal is the literal inverse of its own, checked once on the words, so a
map's validity never depends on its surface.  A map carries no frame of its
own: moving it by an isometry g, `m.with_surface(m.surface.conjugated(g),
m.lifts @ g.T)`, moves its lifts and puts it on the conjugated surface,
whose generators the same words name, so the class stays exact.

Every quantity of a map is a sum over its lifted half-edges.  `EdgeData`
holds the half-edge arrays, built once per graph and deck words (a map moved
to another surface keeps them, with new deck matrices), and is the
one kernel for energy, balanced residual and the Hessian blocks, which
`Hessian` applies to tangent fields or assembles into the blocks of a
block-tridiagonal matrix, in the breadth-first vertex order of the map's
`BlockPlan`; `variations` and `solver` evaluate through it too, and
`energy` sums its energy on the surface's long-double deck matrices.  The
lifts are one validated (V, 3) array, deck matrices one (E, 3, 3) array from
the surface's generator array, edge endpoints and tangents plain 3-vectors;
`HPoint`s appear only at the API edges, built on demand.

A map moves to other lifts or another surface as a copy (`_derived`) that
shares everything its source has cached, so a copy replaces only fields
that no cache reads: a map's lifts, surface and edge arrays, and an
`EdgeData`'s deck matrices, which only `MarkedMap.with_surface` replaces.
Arrays with other rows are a new `EdgeData`, with caches of their own.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, GeometryError, GraphValidationError
from .graphs import WeightedGraph
from .hyperboloid import (
    HPoint,
    J_DIAG,
    _project_tangent_arr,
    _sinhc,
    dist_arr,
    minkowski_cross,
    minkowski_dot,
    points_arr,
)
from .surfaces import SurfaceModel

# Widest breadth-first level that a block of the Hessian's `BlockPlan` may
# hold (a map with a wider level takes CG steps), so no exact Newton step
# factors a matrix wider than 2 * 49: from 10,000 entries OpenBLAS's dgesv
# starts worker threads, which on a shared 2-core host stalled n = 120 by 0.1 s.
DENSE_MAX_VERTICES = 49
# Most vertices of a `BlockPlan` block, unless one level is wider; a map of at
# most this many is one block in vertex order.  Narrow bands factor faster: on
# the ladder's perturbed maps of V = 186 and 378 (levels of 4) a solve takes 7%
# and 12% less time than with blocks of up to 49 vertices (16 or 32: no better),
# and at V = 42 an exact step on a stack of 4 takes 30% less in blocks of 23 and
# 19 vertices than as one (84, 84) LU (single-threaded BLAS, 2-core host).
LEVEL_BLOCK_VERTICES = 24


def _derived(value, **fields):
    """A copy of a frozen dataclass value with some fields replaced, at a
    fraction of the cost of copy.copy or dataclasses.replace.  Every cached
    property carries over, so the fields replaced must be ones that no
    cached property reads (see the module docstring)."""
    out = object.__new__(type(value))
    out.__dict__.update(value.__dict__, **fields)
    return out


def _inverse_word(word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-w for w in reversed(word))


def _lift_array(lifts, count: int) -> np.ndarray:
    """(count, 3) read-only array of validated, normalized lifts, from an
    array or a sequence of rows or HPoints."""
    if not isinstance(lifts, np.ndarray):
        lifts = [p.coords if isinstance(p, HPoint) else p for p in lifts]
    if len(lifts) != count:
        raise GraphValidationError("LIFT_COUNT", f"{len(lifts)} lifts for {count} vertices")
    try:
        x = np.asarray(lifts, dtype=float).reshape(count, 3)
    except ValueError:  # ragged rows, or rows of the wrong length
        raise GeometryError(f"lifts need {count} rows of 3 coordinates") from None
    return points_arr(x)


@dataclass(frozen=True, eq=False)
class EdgeData:
    """Half-edge arrays of a marked map, sorted by origin so that every sum
    over a vertex star is a segment sum; row r holds half-edge
    half_edges[r].  Methods take the lifts as an array x of shape
    (..., V, 3), so callers can evaluate at trial positions without building
    a map, and at a stack of lifts (S, V, 3) in one pass."""

    vertex_count: int
    half_edges: np.ndarray
    origins: np.ndarray
    termini: np.ndarray
    weights: np.ndarray
    mats: np.ndarray  # (E, 3, 3) deck matrices, the products of the words on the surface
    even: np.ndarray  # rows of the first half-edge of each reversal pair
    busy: np.ndarray  # vertices with a nonempty star
    starts: np.ndarray  # first row of each busy vertex's star

    @staticmethod
    def build(graph: WeightedGraph, mats: np.ndarray) -> "EdgeData":
        """Arrays of `graph` with deck matrices `mats` (in half-edge order)."""
        origins, reversals = graph.origin_array, graph.reversal_array
        order = np.argsort(origins, kind="stable")
        busy = np.flatnonzero(np.bincount(origins, minlength=graph.vertex_count))
        return EdgeData(
            vertex_count=graph.vertex_count,
            half_edges=order,
            origins=origins[order],
            termini=origins[reversals][order],
            weights=graph.weight_array[order],
            mats=mats[order],
            even=np.flatnonzero(order < reversals[order]),
            busy=busy,
            starts=np.searchsorted(origins[order], busy))

    def star_sums(self, per_edge: np.ndarray, axis: int = 0) -> np.ndarray:
        """Sum of per-row values over each vertex star, rows along `axis`
        (zero for an empty star)."""
        sums = np.add.reduceat(per_edge, self.starts, axis=axis)
        if len(self.busy) == self.vertex_count:
            return sums
        # reduceat has no empty segments: scatter the busy vertices' sums
        shape = list(sums.shape)
        shape[axis] = self.vertex_count
        out = np.zeros(shape)
        np.moveaxis(out, axis, 0)[self.busy] = np.moveaxis(sums, axis, 0)
        return out

    def far_ends(self, x: np.ndarray) -> np.ndarray:
        """Lifted terminus of every row: its deck matrix applied to the terminus lift."""
        return np.einsum("eij,...ej->...ei", self.mats, x.take(self.termini, axis=-2))

    def geometry(self, x: np.ndarray) -> tuple[np.ndarray, ...]:
        """One pass over the rows at lifts x of shape (..., V, 3): origin
        lifts p, far ends q, and sinhc(ell), cosh(ell) and the lengths ell
        themselves, shaped (..., E, 1).  `energy`, `residual` and `hessian`
        take it.  (The gathers here and below are ndarray.take, the
        cheapest on the arrays of a small map.)"""
        p = x.take(self.origins, axis=-2)
        q = self.far_ends(x)
        ell = dist_arr(p, q)[..., None]
        return p, q, _sinhc(ell), np.cosh(ell), ell

    def energy(self, x: np.ndarray, geometry: tuple | None = None) -> float | np.ndarray:
        """Sum of w ell^2 over the even rows, one per unoriented edge, at lifts
        x (V, 3), or one sum per start at a stack (S, V, 3): the lengths of
        `geometry` when given, else of x's far ends."""
        ell = geometry[4][..., 0] if geometry else dist_arr(x.take(self.origins, axis=-2), self.far_ends(x))
        total = np.add.reduce(self.weights[self.even] * ell.take(self.even, axis=-1) ** 2, axis=-1)  # np.sum, less its dispatch
        return float(total) if total.ndim == 0 else total

    def residual(self, x: np.ndarray, geometry: tuple | None = None) -> np.ndarray:
        """Weighted sum of outgoing edge tangents log_p q at every vertex, shape
        (..., V, 3) for lifts x of shape (..., V, 3)."""
        p, q, sinhc, cosh, _ell = geometry or self.geometry(x)
        tangents = _project_tangent_arr(p, (q - cosh * p) / sinhc)
        return self.star_sums(self.weights[:, None] * tangents, axis=-2)

    def hessian(self, x: np.ndarray, geometry: tuple | None = None) -> "Hessian":
        """Riemannian Hessian of the energy at lifts x (..., V, 3), as a
        `Hessian` that applies it to tangent fields.

        Per half-edge from p to q (length ell, geodesic pole n, variation
        values v0 at p and v1 = deck v[terminus] at q) this is the polarized
        closed-form second variation, 2w [<v0,u0> u0 - <v1,u1> u0 + (ell coth
        ell <v0,n> - ell/sinh ell <v1,n>) n], evaluated as
        2w [(I + a n n^T J) v0 - (I + T p^T J + b n n^T J) v1] with
        a = ell coth ell - 1 and b = ell/sinh ell - 1, finite as ell -> 0,
        and T = (p + q) / (1 - <p,q>): v1 + <p,v1> T is v1 transported to p.
        It is assembled once per x as 3x3 blocks:

        - near, (..., V, 3, 3): the star sum of 2w (I + a n n^T J), acting on
          v[vertex];
        - far, (..., E, 3, 3): 2w (-I - T p^T J - b n n^T J), acting on v1.

        Both images are tangent at p (<T,p> = -1, <n,p> = 0).  A product is
        near v + star_sums(far v1), the blocks applied as the formula reads:
        a tangent projection or a deck matrix multiplied into a block first
        would only amplify rounding (in <v, H v>, the second variation,
        about 20-fold on a perturbed genus-2 map with lifts of norm 13).
        `Hessian.matrix` multiplies the deck matrices in and assembles the
        blocks into the block-tridiagonal matrix of the `block_plan`: one
        dense (2V, 2V) matrix when V <= LEVEL_BLOCK_VERTICES, else blocks of
        at most 2 * DENSE_MAX_VERTICES rows.
        """
        p, q, sinhc, cosh, _ell = geometry or self.geometry(x)
        pole = minkowski_cross(p, q)
        size = np.sqrt(np.maximum(0.0, minkowski_dot(pole, pole)))
        pole /= np.where(size > 0.0, size, 1.0)[..., None]
        a = (cosh / sinhc - 1.0)[..., None]
        b = (1.0 / sinhc - 1.0)[..., None]
        transport = (p + q) / (1.0 - minkowski_dot(p, q))[..., None]
        w2 = 2.0 * self.weights[:, None, None]
        eye = np.eye(3)
        pole_pole = pole[..., :, None] * (pole * J_DIAG)[..., None, :]
        near = self.star_sums(w2 * (eye + a * pole_pole), axis=-3)
        far = w2 * (-eye - transport[..., :, None] * (p * J_DIAG)[..., None, :] - b * pole_pole)
        return Hessian(self, near, far)

    @cached_property
    def block_plan(self) -> "BlockPlan":
        """The order and blocks in which `Hessian.matrix` assembles the
        Hessian, built on first use and shared by every map that shares
        these arrays."""
        return BlockPlan.build(self)

    @cached_property
    def fd_colours(self) -> np.ndarray:
        """The colour of each vertex for `solver.hessian_fd`, built on first
        use and shared like `block_plan`: greedy in vertex order, the least
        colour of no earlier vertex that shares a star vertex with it (v and
        the origins of the rows that end at v, where moving v's lift moves
        the residual), so one residual with all of a colour's vertices moved
        gives each of their columns (a distance-2 colouring)."""
        stars = [{v} for v in range(self.vertex_count)]
        for o, t in zip(self.origins.tolist(), self.termini.tolist()):
            stars[t].add(o)
        colours = []
        for v, star in enumerate(stars):  # w shares star vertex u with v when u's star holds w
            taken = {colours[w] for u in star for w in stars[u] if w < v}
            colours.append(min(set(range(len(taken) + 1)) - taken))
        return np.array(colours)


@dataclass(frozen=True, eq=False)
class BlockPlan:
    """A vertex order in which the Hessian of a map is block-tridiagonal.

    A graph of at most LEVEL_BLOCK_VERTICES vertices is one level, and so
    one block, in vertex order, with no breadth-first search: its
    `coordinates` are the identity permutation.  A larger
    graph's levels are its breadth-first levels (Cuthill-McKee order): each
    component from its lowest-numbered vertex, neighbours by edges other
    than loops, each level in vertex order, the components' levels one
    after another.  An edge joins a level to itself or to the next, so
    grouping consecutive levels greedily into blocks of at most
    LEVEL_BLOCK_VERTICES vertices (a wider level is a block of its own)
    leaves every edge inside a block or between neighbouring blocks, and
    between neighbouring blocks it ends in the leading level of the later
    one.  A graph with a level wider than DENSE_MAX_VERTICES has no blocks.

    The blocks of the matrix lie end to end along `scatter`: diagonal block
    0, superdiagonal block 0, diagonal block 1, ..., in 2 tangent
    coordinates per vertex, of the `shapes` given.  Superdiagonal block b
    spans the rows of block b and the columns of block b + 1 up to its last
    vertex with a neighbour in block b.  The index places every entry of the
    V near 2x2 blocks at (v, v), then of the E far blocks at (origin,
    terminus), or transposed at (terminus, origin) when the terminus lies in
    the block before the origin's: the superdiagonal blocks are those of
    M + M^T for the assembled M, all that a symmetric solve needs.
    `np.bincount` through it adds up the blocks that share a place (doubled
    edges, loops).
    """

    blocks: tuple[np.ndarray, ...]  # vertices of each block, in order
    shapes: tuple[tuple[int, int], ...]
    offsets: tuple[int, ...]  # where each block starts along `scatter`, and where the last ends
    scatter: np.ndarray

    @staticmethod
    def build(edges: EdgeData) -> "BlockPlan":
        count = edges.vertex_count
        levels = ([list(range(count))] if count <= LEVEL_BLOCK_VERTICES
                  else _breadth_first_levels(count, edges.origins, edges.termini))
        if max(map(len, levels)) > DENSE_MAX_VERTICES:
            return BlockPlan((), (), (0,), np.empty(0, dtype=int))
        blocks = [levels[0]]
        for level in levels[1:]:
            if len(blocks[-1]) + len(level) <= LEVEL_BLOCK_VERTICES:
                blocks[-1] = blocks[-1] + level
            else:
                blocks.append(level)
        blocks = [np.array(block) for block in blocks]
        return BlockPlan(tuple(blocks), *_block_layout(edges, blocks))

    @cached_property
    def coordinates(self) -> np.ndarray:
        """Index of each of the 2V tangent coordinates, block by block, into
        the coordinates in vertex order (2v and 2v + 1 for vertex v)."""
        order = 2 * np.concatenate(self.blocks)
        return np.stack([order, order + 1], axis=1).ravel()


def _breadth_first_levels(count: int, origins: np.ndarray, termini: np.ndarray) -> list[list[int]]:
    """Breadth-first levels of the graph with half-edges origins -> termini,
    as described for `BlockPlan`, each a sorted list of its vertices."""
    neighbours: list[list[int]] = [[] for _ in range(count)]
    for o, t in zip(origins.tolist(), termini.tolist()):
        if o != t:
            neighbours[o].append(t)
    seen = [False] * count
    levels = []
    for root in range(count):
        if seen[root]:
            continue
        seen[root] = True
        frontier = [root]
        while frontier:
            levels.append(sorted(frontier))
            following = []
            for v in frontier:
                for u in neighbours[v]:
                    if not seen[u]:
                        seen[u] = True
                        following.append(u)
            frontier = following
    return levels


def _block_layout(edges: EdgeData, blocks: list[np.ndarray]) -> tuple[tuple, tuple, np.ndarray]:
    """`BlockPlan.shapes`, `offsets` and `scatter` for the given blocks."""
    rows = np.concatenate([np.arange(edges.vertex_count), edges.origins])
    cols = np.concatenate([np.arange(edges.vertex_count), edges.termini])
    pair = np.arange(2)
    sizes = np.array([2 * len(block) for block in blocks])
    block_of = np.empty(edges.vertex_count, dtype=int)
    local = np.empty(edges.vertex_count, dtype=int)
    for b, block in enumerate(blocks):
        block_of[block] = b
        local[block] = np.arange(len(block))
    b_row, b_col = block_of[rows], block_of[cols]
    # every pair of blocks is joined both ways, so the half-edges into the
    # next block find the columns that each superdiagonal block needs
    ahead = b_col == b_row + 1
    widths = np.zeros(len(blocks), dtype=int)
    np.maximum.at(widths, b_row[ahead], 2 * local[cols][ahead] + 2)
    shapes = [(sizes[0], sizes[0])]
    for b in range(1, len(blocks)):
        shapes += [(sizes[b - 1], widths[b - 1]), (sizes[b], sizes[b])]
    offsets = np.concatenate([[0], np.cumsum([r * c for r, c in shapes])])
    # the matrix block of each entry: diagonal block b at 2b, superdiagonal
    # block b at 2b + 1, which also takes the mirrored entries below it
    slot = (2 * np.minimum(b_row, b_col) + (b_row != b_col))[:, None, None]
    stride = np.array([c for _, c in shapes])[slot]
    i = 2 * local[rows][:, None, None] + pair[:, None]  # the entry's row in its block
    j = 2 * local[cols][:, None, None] + pair  # and its column
    mirrored = (b_row > b_col)[:, None, None]
    index = offsets[slot] + np.where(mirrored, j * stride + i, i * stride + j)
    return tuple((int(r), int(c)) for r, c in shapes), tuple(offsets.tolist()), index.ravel()


@dataclass(frozen=True, eq=False)
class Hessian:
    """The energy Hessian at one set of lifts, or at each of a stack, as the
    3x3 blocks built by `EdgeData.hessian`: near (..., V, 3, 3) acts on
    v[vertex], far (..., E, 3, 3) on deck v[terminus] of each row.  Calling
    it applies it to a tangent field (..., V, 3)."""

    edges: EdgeData
    near: np.ndarray
    far: np.ndarray

    def __call__(self, v: np.ndarray) -> np.ndarray:
        far = np.einsum("...eij,...ej->...ei", self.far, self.edges.far_ends(v))
        return np.einsum("...vij,...vj->...vi", self.near, v) + self.edges.star_sums(far, axis=-2)

    def matrix(self, bases: np.ndarray) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """The matrix in the coordinates of the orthonormal tangent bases
        (..., V, 2, 3) at the lifts, in the blocks of the `BlockPlan` (which
        must have blocks): (diagonal, superdiagonal), each block with the
        stack's leading axes.  Entry (2i + a, 2j + b) of diagonal block d is
        <bases[v, a], H bases[u, b]> for the i-th and j-th vertices v and u
        of block d; superdiagonal block d holds the same pairings between
        block d and block d + 1, plus the transposed pairings between block
        d + 1 and block d.  With one block (V <= LEVEL_BLOCK_VERTICES), the
        diagonal block is the whole (2V, 2V) matrix.  Superdiagonal block d
        spans only the leading columns of block d + 1 that it can reach
        (`BlockPlan.shapes`).  The near blocks are read as they are, the
        bases being tangent already (reading them through the tangent
        projection I + x x^T J adds rounding of up to 2e-9 of the largest
        entry on lifts of norm 63), the far ones times their deck matrix.
        A stack of S goes through one `np.bincount`, each start's entries
        scattered to the plan's index offset by `offsets[-1]` times its
        place in the stack, a stack of one too."""
        edges = self.edges
        plan = edges.block_plan
        left = bases * J_DIAG
        right = bases.swapaxes(-1, -2)
        far = left.take(edges.origins, axis=-3) @ (self.far @ edges.mats) @ right.take(edges.termini, axis=-3)
        blocks = np.concatenate([left @ self.near @ right, far], axis=-3)
        stack, size = blocks.shape[:-3], plan.offsets[-1]
        count = math.prod(stack)
        scatter = (plan.scatter + size * np.arange(count)[:, None]).ravel()
        flat = np.bincount(scatter, weights=blocks.ravel(), minlength=count * size).reshape(stack + (size,))
        pieces = [flat[..., start:end].reshape(stack + shape)
                  for start, end, shape in zip(plan.offsets, plan.offsets[1:], plan.shapes)]
        return tuple(pieces[0::2]), tuple(pieces[1::2])


@dataclass(frozen=True, eq=False)
class _WordIndex:
    """A map's deck words as arrays: each distinct word once, the longest
    first, with its letters left-aligned in the rows of `letters` (padded
    with 0); `ahead[k]` words have a letter k and `index` names the distinct
    word of each half-edge."""

    letters: np.ndarray
    ahead: tuple[int, ...]
    index: np.ndarray
    reach: float  # the fewest generators that serve every letter (inf for a letter 0)

    @staticmethod
    def build(deck_words: tuple[tuple[int, ...], ...], reversals: np.ndarray) -> "_WordIndex":
        """GeometryError, at the first pair, when the word of a half-edge's
        reversal is not the literal inverse of its own."""
        words = sorted(dict.fromkeys(deck_words), key=len, reverse=True)  # ties in order of first use
        position = {word: i for i, word in enumerate(words)}
        index = np.fromiter(map(position.__getitem__, deck_words), dtype=int, count=len(deck_words))
        inverse = np.fromiter((position.get(_inverse_word(word), -1) for word in words), dtype=int, count=len(words))
        bad = index[reversals] != inverse[index]  # flags both half-edges of a pair, so the first is the lower
        if bad.any():
            e = int(np.argmax(bad))
            raise GeometryError(f"deck word of half-edge {reversals[e]} is not inverse to half-edge {e}")
        longest = len(words[0]) if words else 0
        letters = np.zeros((len(words), longest), dtype=int)
        for i, word in enumerate(words):
            try:
                letters[i, :len(word)] = word
            except OverflowError:  # a letter beyond int64 names no generator: `reach` has every surface refuse it
                continue
        used = [w for word in words for w in word]
        return _WordIndex(
            letters=letters,
            ahead=tuple(sum(len(word) > k for word in words) for k in range(longest)),
            index=index,
            reach=math.inf if 0 in used else max(map(abs, used), default=0))

    def products(self, table: np.ndarray) -> np.ndarray:
        """(D, 3, 3): the product of each distinct word's rows of `table`,
        a surface's identity, generators and inverses, multiplied left to
        right from the identity, one letter position at a time."""
        out = np.repeat(table[:1], len(self.letters), axis=0)
        for k, count in enumerate(self.ahead):
            out[:count] = out[:count] @ table[self.letters[:count, k]]
        return out


@dataclass(frozen=True, eq=False)
class MarkedMap:
    """Vertex lifts + per-half-edge deck words on a surface.

    The deck matrix of half-edge e is the product of its word's generators;
    matrices are cached at construction in `edges`, words are the source of
    truth, and the word of each half-edge's reversal must be the literal
    inverse of its own ((1, -2) against (2, -1)), whatever the surface:
    words equal only as group elements are a GeometryError.  The matrices
    come from one routine: an index of the distinct words, built and
    checked once per map and handed on to derived maps, multiplies the
    letters in batches through the surface's generator table.  `with_lifts`
    shares the cached arrays; `with_surface` moves a map to another surface
    whose generators its words still name, such as the same gluing at
    another metric or in another frame (`SurfaceModel.conjugated`): only the deck
    matrices are multiplied again.
    """

    surface: SurfaceModel
    graph: WeightedGraph
    lifts: np.ndarray  # (V, 3), normalized, read-only; given as an array or HPoints/rows
    deck_words: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        g = self.graph
        object.__setattr__(self, "lifts", _lift_array(self.lifts, g.vertex_count))
        if len(self.deck_words) != g.half_edge_count:
            raise GraphValidationError(
                "DECK_COUNT", f"{len(self.deck_words)} deck words for {g.half_edge_count} half-edges")
        object.__setattr__(self, "deck_words", tuple(map(tuple, self.deck_words)))
        object.__setattr__(self, "edges", EdgeData.build(g, self._deck_matrices(self.surface)))

    @cached_property
    def _word_index(self) -> "_WordIndex":
        """The deck words as arrays, built on first use and shared by every
        map derived from this one."""
        return _WordIndex.build(self.deck_words, self.graph.reversal_array)

    def _deck_matrices(self, surface: SurfaceModel) -> np.ndarray:
        """The (E, 3, 3) deck matrices on `surface` in half-edge order, each
        distinct word multiplied once."""
        words = self._word_index
        if words.reach > len(surface.matrices):
            for word in self.deck_words:
                surface.word_matrix(word)  # raises at the first letter it has no generator for
        return words.products(surface._table)[words.index]

    @staticmethod
    def from_unoriented_words(
        surface: SurfaceModel,
        graph: WeightedGraph,
        lifts,
        words: tuple[tuple[int, ...], ...],
    ) -> "MarkedMap":
        """Build from one deck word per unoriented edge (in unoriented_edges()
        order); the reversed half-edges get the inverse words."""
        unoriented = graph.unoriented_edges()
        if len(words) != len(unoriented):
            raise GraphValidationError(
                "DECK_COUNT", f"{len(words)} deck words for {len(unoriented)} unoriented edges")
        words = tuple(map(tuple, words))
        inverse = {word: _inverse_word(word) for word in set(words)}  # each distinct word once
        full: list[tuple[int, ...]] = [()] * graph.half_edge_count
        reversals = graph.reversals
        for e, word, back in zip(map(operator.itemgetter(0), unoriented), words, map(inverse.__getitem__, words)):
            full[e], full[reversals[e]] = word, back
        return MarkedMap(surface, graph, lifts, tuple(full))

    # -- accessors ---------------------------------------------------------

    @property
    def vertex_lifts(self) -> tuple[HPoint, ...]:
        """The lifts as points, built on every call."""
        return tuple(map(HPoint, self.lifts))

    def with_surface(self, surface: SurfaceModel, lifts) -> "MarkedMap":
        """The same graph and words on another surface that has every
        generator the words name, at new vertex positions: only the deck
        matrices are multiplied again, and the edge index arrays are shared.
        It is the one place where a map's deck matrices change."""
        x = _lift_array(lifts, self.graph.vertex_count)
        mats = self._deck_matrices(surface)[self.edges.half_edges]
        return _derived(self, surface=surface, lifts=x, edges=_derived(self.edges, mats=mats))

    def with_lifts(self, lifts) -> "MarkedMap":
        """Same class, new vertex positions; the words and edge arrays are
        shared."""
        return _derived(self, lifts=_lift_array(lifts, self.graph.vertex_count))


def energy(m: MarkedMap) -> float:
    """Sum over unoriented edges of weight * (lifted edge length)^2, in long
    double on the deck matrices that the surface's float64 ones round and
    the widened lifts.  Rounding the deck matrices moves the energy at first
    order, rounding a harmonic map's lifts at second, so this drops the
    first-order noise of `EdgeData.energy`, the float64 kernel of the solver."""
    edges, x = m.edges, m.lifts.astype(np.longdouble)
    even = edges.even
    mats = m._word_index.products(m.surface._table_ld)[m._word_index.index[edges.half_edges[even]]]
    ell = dist_arr(x[edges.origins[even]], np.einsum("eij,...ej->...ei", mats, x[edges.termini[even]]))
    return float(np.add.reduce(edges.weights[even] * ell ** 2))


@dataclass(frozen=True, eq=False)
class BalancedReport:
    residuals: np.ndarray  # (V, 3): the residual tangent vector at each vertex lift
    max_norm: float


def balanced_residual(m: MarkedMap) -> BalancedReport:
    """Weighted sum of outgoing edge tangents at every vertex.

    Zero residual everywhere is the harmonicity criterion; the residual is
    also half the negative Riemannian energy gradient at each vertex lift.
    """
    residuals = m.edges.residual(m.lifts)
    norms = np.sqrt(np.maximum(0.0, minkowski_dot(residuals, residuals)))
    return BalancedReport(residuals, float(np.max(norms)))


def initial_lifts(
    surface: SurfaceModel, graph: WeightedGraph, mode: str = "barycenter", seed: int = 0
) -> np.ndarray:
    """Seed positions inside the fundamental polygon, one row per vertex.

    "barycenter" puts every vertex at the normalized average of the polygon
    corners; "random" draws a Dirichlet-weighted corner combination per
    vertex from the given seed.
    """
    if mode == "random":
        return _random_lifts(surface, graph, (seed,))[0]
    corners = _polygon(surface)
    if mode == "barycenter":
        return points_arr(np.tile(corners.mean(axis=0), (graph.vertex_count, 1)))
    raise DomainError(f"unknown lift seeding mode {mode!r}")


def _polygon(surface: SurfaceModel) -> np.ndarray:
    if surface.polygon is None:
        raise DomainError("surface has no polygon to seed lifts in")
    return surface.polygon


def _random_lifts(surface: SurfaceModel, graph: WeightedGraph, seeds) -> np.ndarray:
    """(S, V, 3): the "random" `initial_lifts` of each seed, drawn one seed
    at a time and combined and normalized as one stack."""
    if min(seeds, default=0) < 0:
        raise DomainError(f"random seeds must be non-negative, got {min(seeds)}")
    corners = _polygon(surface)
    weights = [np.random.default_rng(seed).dirichlet(np.ones(len(corners)), size=graph.vertex_count) for seed in seeds]
    return points_arr(np.stack(weights) @ corners)
