"""Finite weighted multigraphs with oriented half-edges.

Half-edge k has an origin vertex and a reversal partner; loops and parallel
edges are first-class.  Weights are stored per half-edge and must agree on
reversal pairs.  Each edge also carries a geometric class label ("c"/"d" for
the hexagon tiling, "loop" for bouquets) so periodic weights can be assigned
per class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError, GraphValidationError


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    vertex_count: int
    origins: tuple[int, ...]
    reversals: tuple[int, ...]
    weights: tuple[float, ...]
    classes: tuple[str, ...]

    def __post_init__(self):
        n = len(self.origins)
        if not (len(self.reversals) == len(self.weights) == len(self.classes) == n):
            raise GraphValidationError("FIELD_LENGTH_MISMATCH", "half-edge arrays differ in length")
        if self.vertex_count <= 0:
            raise GraphValidationError("NO_VERTICES", "graph needs at least one vertex")

    @staticmethod
    def from_edges(vertex_count: int, edges: list[tuple[int, int, float, str]]) -> "WeightedGraph":
        """Build from unoriented (u, v, weight, class) tuples; halves 2k and 2k+1."""
        origins, reversals, weights, classes = [], [], [], []
        for k, (u, v, w, cls) in enumerate(edges):
            if not 0 < w < math.inf:
                raise GraphValidationError(
                    "WEIGHT_NOT_POSITIVE", f"edge {k} has weight {w!r}; weights must be finite and positive"
                )
            origins += [u, v]
            reversals += [2 * k + 1, 2 * k]
            weights += [float(w), float(w)]
            classes += [cls, cls]
        return WeightedGraph(vertex_count, tuple(origins), tuple(reversals),
                             tuple(weights), tuple(classes))

    @property
    def half_edge_count(self) -> int:
        return len(self.origins)

    @property
    def edge_count(self) -> int:
        """Unoriented edge count."""
        return len(self.origins) // 2

    def terminus(self, e: int) -> int:
        return self.origins[self.reversals[e]]

    def degree(self, v: int) -> int:
        return sum(1 for o in self.origins if o == v)

    def unoriented_edges(self) -> tuple[tuple[int, int, int, float, str], ...]:
        """(half_edge, origin, terminus, weight, class) for one half per reversal pair."""
        return self._unoriented_edges

    @cached_property
    def _unoriented_edges(self) -> tuple[tuple[int, int, int, float, str], ...]:
        # built once per graph: one solve reads it to build the map and to write its graph and deck words
        return tuple((e, self.origins[e], self.terminus(e), self.weights[e], self.classes[e])
                     for e in range(self.half_edge_count) if e < self.reversals[e])

    def is_connected(self) -> bool:
        if self.vertex_count == 1:
            return True
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for e in range(self.half_edge_count):
                if self.origins[e] == v:
                    w = self.terminus(e)
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
        return len(seen) == self.vertex_count


@dataclass(frozen=True)
class GraphValidationReport:
    issues: tuple[tuple[str, str], ...]
    degree_sequence: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


def validate(g: WeightedGraph, allow_disconnected: bool = False) -> GraphValidationReport:
    """Structural checks; every violated invariant yields a coded issue."""
    issues: list[tuple[str, str]] = []
    n = g.half_edge_count
    for e in range(n):
        if not 0 <= g.origins[e] < g.vertex_count:
            issues.append(("ORIGIN_RANGE", f"half-edge {e} originates at unknown vertex {g.origins[e]}"))
    for e in range(n):
        r = g.reversals[e]
        if not 0 <= r < n:
            issues.append(("REVERSAL_RANGE", f"half-edge {e} reverses to unknown half-edge {r}"))
        elif g.reversals[r] != e:
            issues.append(("REVERSAL_NOT_INVOLUTION", f"reversal of {e} is {r} but reversal of {r} is {g.reversals[r]}"))
        elif r == e:
            issues.append(("REVERSAL_FIXED_POINT", f"half-edge {e} is its own reversal"))
    for e in range(n):
        if not 0 < g.weights[e] < math.inf:
            issues.append(("WEIGHT_NOT_POSITIVE", f"half-edge {e} has weight {g.weights[e]!r}; weights must be finite and positive"))
        r = g.reversals[e]
        if 0 <= r < n and e < r:
            if g.weights[e] != g.weights[r]:
                issues.append(("WEIGHT_NOT_SYMMETRIC", f"edge ({e},{r}) has weights {g.weights[e]!r} != {g.weights[r]!r}"))
            if g.classes[e] != g.classes[r]:
                issues.append(("CLASS_NOT_SYMMETRIC", f"edge ({e},{r}) has classes {g.classes[e]!r} != {g.classes[r]!r}"))
    if not issues and not allow_disconnected and not g.is_connected():
        issues.append(("NOT_CONNECTED", "graph is not connected"))
    degrees = tuple(g.degree(v) for v in range(g.vertex_count))
    if any(d == 0 for d in degrees):
        issues.append(("ISOLATED_VERTEX", "graph has a vertex of degree zero"))
    return GraphValidationReport(tuple(issues), degrees)


# --------------------------------------------------------------------------
# builders


def bouquet(k: int, weight: float = 1.0) -> WeightedGraph:
    """One vertex with k self-loops."""
    if k < 1:
        raise DomainError(f"bouquet needs at least one loop, got {k}")
    return WeightedGraph.from_edges(1, [(0, 0, weight, "loop") for _ in range(k)])


def cycle_with_doubled_edges(length: int, m_c: float, m_d: float) -> WeightedGraph:
    """Cycle v0..v_{length-1} with every step doubled; step i has class c (even) or d (odd).

    Edge order: the `length` primary steps first, then the `length` secondary
    copies.  This is the 1-skeleton of the four-hexagon genus-2 tiling when
    length = 6.
    """
    def cls(i):
        return "c" if i % 2 == 0 else "d"

    prim = [(i, (i + 1) % length, m_c if cls(i) == "c" else m_d, cls(i)) for i in range(length)]
    sec = [(i, (i + 1) % length, m_c if cls(i) == "c" else m_d, cls(i)) for i in range(length)]
    return WeightedGraph.from_edges(length, prim + sec)

