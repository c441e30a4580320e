import math

import numpy as np
import pytest

import oracles

from graphuniform.errors import DomainError, GraphValidationError
from graphuniform.graphs import WeightedGraph, bouquet, cycle_with_doubled_edges


def test_bouquet_shape():
    g = bouquet(4)
    assert g.vertex_count == 1
    assert g.half_edge_count == 8
    assert len(g.unoriented_edges()) == 4
    assert all(cls == "loop" for _, _, _, _, cls in g.unoriented_edges())
    assert g.origins == (0,) * 8
    assert g.weights == (1.0,) * 8


def test_graph_keeps_its_checked_columns_as_read_only_arrays():
    g = cycle_with_doubled_edges(6, m_c=2.0, m_d=3.0)
    for array, column, dtype in ((g.origin_array, g.origins, int), (g.reversal_array, g.reversals, int),
                                 (g.weight_array, g.weights, float)):
        assert array.dtype == np.dtype(dtype) and array.tolist() == list(column)
        with pytest.raises(ValueError):
            array[0] = array[1]


def test_cycle_with_doubled_edges_structure():
    g = cycle_with_doubled_edges(6, m_c=2.0, m_d=3.0)
    assert g.vertex_count == 6
    assert len(g.unoriented_edges()) == 12
    assert all(g.origins.count(v) == 4 for v in range(6))
    classes = sorted(cls for _, _, _, _, cls in g.unoriented_edges())
    assert classes == ["c"] * 6 + ["d"] * 6
    for e, u, v, w, cls in g.unoriented_edges():
        assert (v - u) % 6 == 1
        assert w == (2.0 if cls == "c" else 3.0)
    # each cycle seam {i, i+1} is doubled with a single class alternating
    # around the cycle: both copies of {0,1} are "c", both of {1,2} are "d", ...
    pair_classes = {}
    for _, u, v, _, cls in g.unoriented_edges():
        pair_classes.setdefault((u, v), []).append(cls)
    for (u, v), cl in pair_classes.items():
        want = "c" if u % 2 == 0 else "d"
        assert cl == [want, want]


def test_from_edges_roundtrip():
    g = WeightedGraph.from_edges(3, [(0, 1, 1.5, "a"), (1, 2, 2.5, "b"), (2, 0, 3.5, "c")])
    assert g.vertex_count == 3
    assert len(g.unoriented_edges()) == 3
    seen = {(u, v, w, cls) for _, u, v, w, cls in g.unoriented_edges()}
    assert seen == {(0, 1, 1.5, "a"), (1, 2, 2.5, "b"), (2, 0, 3.5, "c")}


def test_reversal_pairs_are_consistent():
    g = cycle_with_doubled_edges(6, 1.0, 1.0)
    for e in range(g.half_edge_count):
        r = g.reversals[e]
        assert g.reversals[r] == e
        assert g.origins[e] == g.terminus(r)
        assert g.weights[e] == g.weights[r]
        assert g.classes[e] == g.classes[r]


def _graph(vertex_count, origins, reversals, weights):
    return WeightedGraph(vertex_count, origins, reversals, weights, ("e",) * len(origins))


@pytest.mark.parametrize("code, graph", [
    # unchecked, each defect reaches the kernel: as an IndexError, a
    # GeometryError that blames the deck words, or a solve that "converges"
    # at a negative energy or stalls at nan
    pytest.param("ORIGIN_RANGE", lambda: _graph(1, (0, 3), (1, 0), (1.0, 1.0)), id="origin-3-of-1-vertex"),
    pytest.param("ORIGIN_RANGE", lambda: _graph(2, (0, -1), (1, 0), (1.0, 1.0)), id="origin-negative"),
    pytest.param("REVERSAL_RANGE", lambda: _graph(1, (0, 0), (1, 2), (1.0, 1.0)), id="reversal-out-of-range"),
    pytest.param("REVERSAL_NOT_INVOLUTION", lambda: _graph(2, (0, 1, 0, 1), (1, 2, 3, 0), (1.0,) * 4),
                 id="reversal-not-involution"),
    pytest.param("REVERSAL_FIXED_POINT", lambda: _graph(1, (0, 0), (0, 1), (1.0, 1.0)), id="reversal-fixed-point"),
    pytest.param("WEIGHT_NOT_POSITIVE", lambda: _graph(2, (0, 1), (1, 0), (-1.0, -1.0)), id="weight-negative"),
    pytest.param("WEIGHT_NOT_POSITIVE", lambda: _graph(2, (0, 1), (1, 0), (math.nan, math.nan)), id="weight-nan"),
    pytest.param("WEIGHT_NOT_POSITIVE", lambda: _graph(2, (0, 1), (1, 0), (math.inf, math.inf)), id="weight-inf"),
    pytest.param("WEIGHT_NOT_POSITIVE", lambda: _graph(2, np.array([0, 1]), np.array([1, 0]), np.array([1.0, -1.0])),
                 id="weight-negative-half-of-arrays"),
    pytest.param("WEIGHT_NOT_SYMMETRIC", lambda: _graph(2, (0, 1), (1, 0), (1.0, 2.0)), id="weight-not-symmetric"),
    pytest.param("CLASS_NOT_SYMMETRIC", lambda: WeightedGraph(2, (0, 1), (1, 0), (1.0, 1.0), ("c", "d")),
                 id="class-not-symmetric"),
    pytest.param("FIELD_LENGTH_MISMATCH", lambda: _graph(2, (0, 1), (1,), (1.0, 1.0)), id="field-length-mismatch"),
    pytest.param("NO_VERTICES", lambda: _graph(0, (), (), ()), id="no-vertices"),
])
def test_graph_defects_are_caught_at_construction(code, graph):
    with pytest.raises(GraphValidationError) as exc:
        graph()
    assert exc.value.code == code


@pytest.mark.parametrize("code, graph, message", [
    ("ORIGIN_RANGE", lambda: _graph(2 ** 63 + 1, (0, 2 ** 63), (1, 0), (1.0, 1.0)),
     "half-edge 1 originates at unknown vertex 9223372036854775808"),
    ("ORIGIN_RANGE", lambda: _graph(2, (0, -2 ** 63 - 1), (1, 0), (1.0, 1.0)),
     "half-edge 1 originates at unknown vertex -9223372036854775809"),
    ("REVERSAL_RANGE", lambda: _graph(1, (0, 0), (2 ** 64, 0), (1.0, 1.0)),
     "half-edge 0 reverses to unknown half-edge 18446744073709551616"),
])
def test_indices_that_int64_cannot_hold_are_range_errors(code, graph, message):
    # refused by value, naming the half-edge, not by numpy's OverflowError
    with pytest.raises(GraphValidationError) as exc:
        graph()
    assert exc.value.code == code and str(exc.value) == f"{code}: {message}"


def test_isolated_vertices_and_components_still_build():
    # the solver refuses an isolated vertex itself (ISOLATED_VERTEX), and a
    # map may have several components
    isolated = _graph(3, (0, 1), (1, 0), (1.0, 1.0))
    assert isolated.vertex_count == 3 and set(isolated.origins) == {0, 1}
    two = WeightedGraph.from_edges(4, [(0, 1, 1.0, "e"), (2, 3, 1.0, "e"), (3, 3, 2.0, "loop")])
    assert [e[1:3] for e in two.unoriented_edges()] == [(0, 1), (2, 3), (3, 3)]
    assert oracles.component_count(two) == 2


def test_builders_reject_bad_parameters():
    with pytest.raises(DomainError):
        bouquet(0)
    with pytest.raises(GraphValidationError):
        cycle_with_doubled_edges(6, 0.0, 1.0)
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(GraphValidationError):
            cycle_with_doubled_edges(6, 1.0, bad)
