"""Finite weighted multigraphs with oriented half-edges.

Half-edge k has an origin vertex and a reversal partner; loops and parallel
edges are first-class.  Weights are stored per half-edge and must agree on
reversal pairs.  Each edge also carries a geometric class label ("c"/"d" for
the hexagon tiling, "loop" for bouquets) so periodic weights can be assigned
per class.  A graph is checked once, when it is built: every origin and
reversal indexes a vertex or half-edge, reversal is a fixed-point-free
involution, and weights are finite, positive and equal on both halves of an
edge.  Isolated vertices and several components are allowed; the solver
refuses a vertex without edges itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, GraphValidationError


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    vertex_count: int
    origins: tuple[int, ...]
    reversals: tuple[int, ...]
    weights: tuple[float, ...]
    classes: tuple[str, ...]
    # the first three as read-only arrays, kept from the checks for `EdgeData.build` and `_WordIndex.build`
    origin_array: np.ndarray = field(init=False, repr=False)
    reversal_array: np.ndarray = field(init=False, repr=False)
    weight_array: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        """Raises GraphValidationError, coded, at the first offender."""
        n = len(self.origins)
        if not (len(self.reversals) == len(self.weights) == len(self.classes) == n):
            raise GraphValidationError("FIELD_LENGTH_MISMATCH", "half-edge arrays differ in length")
        if self.vertex_count <= 0:
            raise GraphValidationError("NO_VERTICES", "graph needs at least one vertex")
        origins, reversals = _indices(self.origins), _indices(self.reversals)
        weights = np.asarray(self.weights, dtype=float)

        def first(bad, code, message):
            if bad.any():
                e = int(np.argmax(bad))
                raise GraphValidationError(code, message(e))

        first((origins < 0) | (origins >= self.vertex_count), "ORIGIN_RANGE",
              lambda e: f"half-edge {e} originates at unknown vertex {self.origins[e]}")
        first((reversals < 0) | (reversals >= n), "REVERSAL_RANGE",
              lambda e: f"half-edge {e} reverses to unknown half-edge {self.reversals[e]}")
        partner = reversals[reversals]
        first(partner != np.arange(n), "REVERSAL_NOT_INVOLUTION",
              lambda e: f"reversal of {e} is {reversals[e]} but reversal of {reversals[e]} is {partner[e]}")
        first(reversals == np.arange(n), "REVERSAL_FIXED_POINT", lambda e: f"half-edge {e} is its own reversal")
        first(~((weights > 0.0) & (weights < np.inf)), "WEIGHT_NOT_POSITIVE",
              lambda e: f"half-edge {e} has weight {float(weights[e])!r}; weights must be finite and positive")
        first(weights != weights[reversals], "WEIGHT_NOT_SYMMETRIC",
              lambda e: f"edge ({e},{reversals[e]}) has weights "
                        f"{float(weights[e])!r} != {float(weights[reversals[e]])!r}")
        classes = np.asarray(self.classes, dtype=object)
        first(classes != classes[reversals], "CLASS_NOT_SYMMETRIC",
              lambda e: f"edge ({e},{reversals[e]}) has classes {classes[e]!r} != {classes[reversals[e]]!r}")
        for name, array in (("origin_array", origins), ("reversal_array", reversals), ("weight_array", weights)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @staticmethod
    def from_edges(vertex_count: int, edges: list[tuple[int, int, float, str]]) -> "WeightedGraph":
        """Build from unoriented (u, v, weight, class) tuples; halves 2k and 2k+1."""
        us, vs, weights, classes = list(zip(*edges)) or [()] * 4
        weights = tuple(map(float, weights))
        halves = range(2 * len(us))
        return WeightedGraph(vertex_count, _interleave(us, vs), _interleave(halves[1::2], halves[0::2]),
                             _interleave(weights, weights), _interleave(classes, classes))

    @property
    def half_edge_count(self) -> int:
        return len(self.origins)

    def terminus(self, e: int) -> int:
        return self.origins[self.reversals[e]]

    def unoriented_edges(self) -> tuple[tuple[int, int, int, float, str], ...]:
        """(half_edge, origin, terminus, weight, class) for one half per reversal pair."""
        return self._unoriented_edges

    @cached_property
    def _unoriented_edges(self) -> tuple[tuple[int, int, int, float, str], ...]:
        # built once per graph: one solve reads it to build the map and to write its graph and deck words
        return tuple((e, self.origins[e], self.terminus(e), self.weights[e], self.classes[e])
                     for e in range(self.half_edge_count) if e < self.reversals[e])


def _indices(values) -> np.ndarray:
    """As int64, an index that int64 cannot hold as -1, which the range checks refuse."""
    try:
        return np.asarray(values, dtype=int)
    except OverflowError:
        return np.array([v if -2 ** 63 <= v < 2 ** 63 else -1 for v in values])


def _interleave(evens, odds) -> tuple:
    out = [None] * (len(evens) + len(odds))
    out[0::2], out[1::2] = evens, odds
    return tuple(out)


# --------------------------------------------------------------------------
# builders


def bouquet(k: int) -> WeightedGraph:
    """One vertex with k self-loops of weight 1."""
    if k < 1:
        raise DomainError(f"bouquet needs at least one loop, got {k}")
    return WeightedGraph.from_edges(1, [(0, 0, 1.0, "loop") for _ in range(k)])


def cycle_with_doubled_edges(length: int, m_c: float, m_d: float) -> WeightedGraph:
    """Cycle v0..v_{length-1} with every step doubled; step i has class c (even) or d (odd).

    Edge order: the `length` primary steps first, then the `length` secondary
    copies.  This is the 1-skeleton of the four-hexagon genus-2 tiling when
    length = 6.
    """
    steps = [(i, (i + 1) % length, m_d if i % 2 else m_c, "d" if i % 2 else "c") for i in range(length)]
    return WeightedGraph.from_edges(length, steps + steps)
