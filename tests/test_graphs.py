import numpy as np
import pytest

from graphuniform.errors import DomainError, GraphValidationError
from graphuniform.graphs import (
    WeightedGraph,
    bouquet,
    cycle_with_doubled_edges,
    validate,
)


def test_bouquet_shape():
    g = bouquet(4, weight=2.0)
    assert g.vertex_count == 1
    assert g.half_edge_count == 8
    assert g.edge_count == 4
    assert all(cls == "loop" for _, _, _, _, cls in g.unoriented_edges())
    assert validate(g).ok
    assert g.degree(0) == 8


def test_cycle_with_doubled_edges_structure():
    g = cycle_with_doubled_edges(6, m_c=2.0, m_d=3.0)
    assert g.vertex_count == 6
    assert g.edge_count == 12
    assert validate(g).ok
    assert all(d == 4 for d in validate(g).degree_sequence)
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
    assert g.edge_count == 3
    assert validate(g).ok
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


def test_validation_codes():
    def codes(g):
        return {issue[0] for issue in validate(g, allow_disconnected=True).issues}

    good = cycle_with_doubled_edges(6, 1.0, 1.0)
    assert validate(good).ok

    bad = WeightedGraph(
        vertex_count=2,
        origins=np.array([0, 1]),
        reversals=np.array([1, 0]),
        weights=np.array([1.0, -1.0]),
        classes=("e", "e"),
    )
    assert {"WEIGHT_NOT_POSITIVE", "WEIGHT_NOT_SYMMETRIC"} <= codes(bad)
    infinite = WeightedGraph(2, (0, 1), (1, 0), (float("inf"), float("inf")), ("e", "e"))
    assert "WEIGHT_NOT_POSITIVE" in codes(infinite)

    fixed_point = WeightedGraph(
        vertex_count=1,
        origins=np.array([0, 0]),
        reversals=np.array([0, 1]),
        weights=np.array([1.0, 1.0]),
        classes=("e", "e"),
    )
    assert "REVERSAL_FIXED_POINT" in codes(fixed_point)

    out_of_range = WeightedGraph(
        vertex_count=1,
        origins=np.array([0, 3]),
        reversals=np.array([1, 0]),
        weights=np.array([1.0, 1.0]),
        classes=("e", "e"),
    )
    assert "ORIGIN_RANGE" in codes(out_of_range)

    disconnected = WeightedGraph(
        vertex_count=4,
        origins=np.array([0, 1, 2, 3]),
        reversals=np.array([1, 0, 3, 2]),
        weights=np.ones(4),
        classes=("e",) * 4,
    )
    assert "NOT_CONNECTED" in {i[0] for i in validate(disconnected).issues}
    assert validate(disconnected, allow_disconnected=True).ok


def test_isolated_vertex_detected():
    g = WeightedGraph(
        vertex_count=3,
        origins=np.array([0, 1]),
        reversals=np.array([1, 0]),
        weights=np.ones(2),
        classes=("e", "e"),
    )
    assert "ISOLATED_VERTEX" in {i[0] for i in validate(g, allow_disconnected=True).issues}


def test_builders_reject_bad_parameters():
    with pytest.raises(DomainError):
        bouquet(0)
    with pytest.raises(GraphValidationError):
        cycle_with_doubled_edges(6, 0.0, 1.0)
    with pytest.raises(GraphValidationError):
        bouquet(2, weight=-1.0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(GraphValidationError):
            bouquet(1, weight=bad)
