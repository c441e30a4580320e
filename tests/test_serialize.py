import copy
import json
import math
import os
import re
import stat

import numpy as np
import pytest

import oracles
from graphuniform import serialize
from graphuniform.errors import DomainError, GraphValidationError, SchemaError
from graphuniform.graphs import cycle_with_doubled_edges
from graphuniform.hyperboloid import Isometry, J_MATRIX, points_arr
from graphuniform.maps import energy, initial_lifts
from graphuniform.serialize import (
    dumps,
    graph_from_json,
    graph_to_json,
    make_manifest,
    map_from_json,
    map_to_json,
    read_json,
    surface_from_json,
    surface_to_json,
    write_artifact,
)
from graphuniform.surfaces import (
    build_genus2_hexagon_surface,
    build_klein_quartic,
    build_regular_4g_surface,
    validate_surface,
)


# ---------------------------------------------------------------- emitter


def test_dumps_floats_roundtrip_ieee_exactly():
    # repr writes the shortest text that reads back as the same double
    floats = [-0.0, 5e-324, 2.2e-310, 1e308, 0.1, 1.0 / 3.0, float(2**53 + 1), float(10**30), math.pi, -6.02e23]
    for x in floats:
        assert float(dumps(x)).hex() == x.hex()
    back = json.loads(dumps({"floats": floats, "ints": [2**53 + 1, 10**30]}))
    assert [x.hex() for x in back["floats"]] == [x.hex() for x in floats]
    assert back["ints"] == [2**53 + 1, 10**30] and {type(v) for v in back["ints"]} == {int}


def test_dumps_rejects_non_finite():
    nan, inf = float("nan"), float("inf")
    for bad in (nan, inf, -inf, [1.0, nan], [[0.5, 2], [-inf]], {"x": inf}, {"a": {"b": [1, nan]}},
                [{"a": 1.0}, {"a": nan}], {"a": 1.0, "b": {"c": {}, "d": {"e": -inf}}}):
        with pytest.raises(ValueError):
            dumps(bad)


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps({"x": object()})


def test_dumps_deterministic_and_orders_keys_by_insertion():
    payload = {"b": [1, 2.5, True], "a": {"nested": None}}
    text = dumps(payload)
    assert text == dumps(payload)
    assert text.index('"b"') < text.index('"a"')
    assert "true" in text and "null" in text


def test_dumps_bytes_of_a_small_document():
    # each key of an object on its own line; every other value, rows and
    # records too, on one line as the encoder writes it
    doc = {
        "nested": {"empty": {}, "none": None},
        "list": [],
        "rows": [[1.0, -0.0, 2], [0.1, 1e-300, 1e+17]],
        "edges": [{"from": 0, "to": 1, "weight": 2.5, "class": "c"}],
        "flag": True,
        "text": 'caf\u00e9 "q"',
    }
    assert dumps(doc) == (
        '{\n  "nested": {\n    "empty": {},\n    "none": null\n  },\n  "list": [],\n'
        '  "rows": [[1.0, -0.0, 2], [0.1, 1e-300, 1e+17]],\n'
        '  "edges": [{"from": 0, "to": 1, "weight": 2.5, "class": "c"}],\n'
        '  "flag": true,\n  "text": "caf\\u00e9 \\"q\\""\n}')


def test_write_and_read_roundtrip(tmp_path):
    path = str(tmp_path / "artifact.json")
    payload = {"values": [1.5, 2.5], "name": "run"}
    write_artifact(path, payload)
    assert read_json(path) == payload


def test_write_text_overwrites_a_longer_file_with_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "out.json"
    path.write_bytes(b"x" * 10000)
    serialize.write_text(str(path), "caf\u00e9\n")
    assert path.read_bytes() == "caf\u00e9\n".encode("utf-8")
    write_artifact(str(path), {"values": [1.5]})
    assert path.read_bytes() == b'{\n  "values": [1.5]\n}\n'
    serialize.write_text(str(path), "")
    assert path.read_bytes() == b""


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_write_text_gives_files_the_mode_open_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        with open(tmp_path / "opened", "w", encoding="utf-8"):
            pass
        serialize.write_text(str(tmp_path / "written"), "text")
    finally:
        os.umask(old)
    mode = stat.S_IMODE((tmp_path / "opened").stat().st_mode)
    assert stat.S_IMODE((tmp_path / "written").stat().st_mode) == mode
    # an existing file keeps its mode, as it does under open(path, "w")
    os.chmod(tmp_path / "written", 0o640)
    serialize.write_text(str(tmp_path / "written"), "other")
    assert stat.S_IMODE((tmp_path / "written").stat().st_mode) == 0o640


def test_write_text_writes_through_a_symlink(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("an older and longer text")
    link.symlink_to(target)
    serialize.write_text(str(link), "new")
    assert link.is_symlink() and target.read_text() == "new"


def test_write_text_streams_into_a_fifo_and_the_null_device(tmp_path):
    serialize.write_text(os.devnull, "dropped")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # a reader, so opening to write does not block
    try:
        serialize.write_text(str(fifo), "through the pipe")
        assert os.read(reader, 100) == b"through the pipe"
    finally:
        os.close(reader)


def test_read_json_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"a": 1,\n  "b": }\n')
    with pytest.raises(SchemaError) as exc:
        read_json(str(path))
    assert "line 2" in str(exc.value)


# ---------------------------------------------------------------- manifest


def test_manifest_timestamp_frozen_by_source_date_epoch(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    man = make_manifest("solve", ["in.json"], {"seed": 1}, {"tol": 1e-9})
    assert man["timestamp"] == "1970-01-01T00:00:00Z"
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "86400")
    assert make_manifest("solve", [], {}, {})["timestamp"] == "1970-01-02T00:00:00Z"


def test_manifest_carries_inputs_and_settings():
    man = make_manifest("optimize", ["a", "b"], {"seed": 7}, {"tol": 1e-8})
    assert man["command"] == "optimize"
    assert man["inputs"] == ["a", "b"]
    assert man["seeds"] == {"seed": 7}
    assert man["tolerances"] == {"tol": 1e-8}
    assert man["version"]


# ---------------------------------------------------------------- graph


def test_graph_roundtrip_preserves_structure():
    g = cycle_with_doubled_edges(6, 1.0, 1.0)
    back = graph_from_json(graph_to_json(g))
    assert back.vertex_count == g.vertex_count
    assert back.unoriented_edges() == g.unoriented_edges()


def test_graph_schema_errors_carry_paths():
    with pytest.raises(SchemaError) as exc:
        graph_from_json({"edges": []})
    assert exc.value.path == "graph"
    assert "vertices" in str(exc.value)

    with pytest.raises(SchemaError) as exc:
        graph_from_json({"vertices": True, "edges": []})
    assert exc.value.path == "graph.vertices"

    bad_weight = {"vertices": 2, "edges": [
        {"from": 0, "to": 1, "weight": -1.0, "class": "a"}]}
    with pytest.raises(SchemaError) as exc:
        graph_from_json(bad_weight)
    assert exc.value.path == "graph.edges[0].weight"

    out_of_range = {"vertices": 2, "edges": [
        {"from": 0, "to": 1, "weight": 1.0},
        {"from": 0, "to": 5, "weight": 1.0}]}
    with pytest.raises(SchemaError) as exc:
        graph_from_json(out_of_range)
    assert exc.value.path == "graph.edges[1]"


# ---------------------------------------------------------------- surface


def test_surface_roundtrip_is_bit_exact(genus2_bundle):
    surface, _graph, _ref = genus2_bundle
    back = surface_from_json(surface_to_json(surface))
    assert back.genus == surface.genus
    for a, b in zip(back.generators, surface.generators):
        # reconstruction must not touch matrices whose form defect is
        # already at storage level
        assert np.array_equal(a.matrix, b.matrix)
    assert back.side_pairs == surface.side_pairs
    assert back.relator_words == surface.relator_words
    # a normalized corner is on the sheet to its rounding, and loading keeps it
    assert back.polygon.shape == surface.polygon.shape
    assert back.polygon.tobytes() == surface.polygon.tobytes()
    assert validate_surface(back).ok


@pytest.mark.parametrize("build", [
    *(lambda s=s: build_genus2_hexagon_surface(s)[0] for s in (0.26, 0.6, 1.3, 2.9, 3.99)),
    *(lambda g=g: build_regular_4g_surface(g) for g in (2, 3, 5, 10, 40, 80)),
    build_klein_quartic,
])
def test_polygon_reads_back_bit_for_bit(build):
    # loading normalizes the corners again, which keeps every one of them
    surface = build()
    assert surface_from_json(surface_to_json(surface)).polygon.tobytes() == surface.polygon.tobytes()


def test_surface_schema_errors_carry_paths():
    with pytest.raises(SchemaError) as exc:
        surface_from_json({"generators": []})
    assert exc.value.path == "surface"

    bad = {"genus": 2, "generators": [[[1, 0], [0, 1]]]}
    with pytest.raises(SchemaError) as exc:
        surface_from_json(bad)
    assert exc.value.path == "surface.generators[0]"


# ---------------------------------------------------------------- map


def test_map_roundtrip_embedded(genus2_bundle):
    _surface, _graph, m = genus2_bundle
    back = map_from_json(map_to_json(m))
    assert np.max(np.abs(back.lifts - m.lifts)) < 1e-13
    assert back.deck_words == m.deck_words
    assert abs(energy(back) - energy(m)) < 1e-12 * (1.0 + energy(m))


def test_map_roundtrip_with_gauge(genus2_bundle):
    # a moved map is written with no gauge: its conjugated generators, and
    # so its deck matrices, read back bit for bit
    _surface, _graph, m = genus2_bundle
    g = Isometry(oracles.x_translation(0.7) @ oracles.rot_z(0.3))
    moved = oracles.moved(m, g.matrix)
    doc = map_to_json(moved)
    assert "gauge" not in doc and "gauge" not in map_to_json(m)
    back = map_from_json(doc)
    assert back.surface.matrices.tobytes() == moved.surface.matrices.tobytes()
    assert back.edges.mats.tobytes() == moved.edges.mats.tobytes()
    assert abs(energy(back) - energy(moved)) < 1e-12 * (1.0 + energy(moved))


_FRAME = oracles.x_translation(0.7) @ oracles.rot_z(0.3)


def test_a_gauged_document_loads_as_the_map_it_describes():
    # the gauge is the frame of the lifts: the lifts are read as they are,
    # and the surface is conjugated by it; at the 2:1 map at seam
    # log(2 + sqrt 3) the energy moves by 1.4e-15 relative
    from graphuniform.solver import solve
    from graphuniform.surfaces import family

    m = solve(family("hexagon-genus2", (2.0, 1.0)).build(math.log(2.0 + math.sqrt(3.0)))[2]).final_map
    plain = map_to_json(m)
    doc = oracles.gauged_document(plain, _FRAME)
    got, base = map_from_json(doc), map_from_json(plain)
    assert got.lifts.tobytes() == points_arr(np.array(doc["vertex_lifts"])).tobytes()
    assert got.deck_words == base.deck_words
    want = _FRAME @ base.edges.mats @ (J_MATRIX @ _FRAME.T @ J_MATRIX)
    assert np.max(np.abs(got.edges.mats - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))
    assert abs(energy(got) - energy(base)) <= 1e-14 * energy(base)
    # the generators bit for bit those of a value-at-a-time build; corners
    # of size c are renormalized, which moves them by up to eps c^3
    reference = oracles.reference_map(doc)
    for a, b in ((got.surface.matrices, reference.surface.matrices), (got.edges.mats, reference.edges.mats)):
        assert a.tobytes() == b.tobytes()
    corners = reference.surface.polygon
    size = 1.0 + np.max(np.abs(corners))
    assert np.max(np.abs(got.surface.polygon - corners)) <= 8.0 * np.finfo(float).eps * size ** 3


def _gauged_and_plain(ref):
    plain = map_to_json(ref)
    return map_from_json(oracles.gauged_document(plain, _FRAME)), map_from_json(plain)


def test_a_gauged_document_seeds_in_the_frame_of_its_lifts(genus2_bundle):
    # the polygon moves with the lifts, and so do the starts seeded in it
    m, base = _gauged_and_plain(genus2_bundle[2])
    for mode in ("barycenter", "random"):
        start = initial_lifts(m.surface, m.graph, mode, seed=5)
        assert np.max(np.abs(start - initial_lifts(base.surface, base.graph, mode, seed=5) @ _FRAME.T)) <= 1e-12


def test_a_gauged_document_is_drawn_in_the_frame_of_its_lifts(genus2_bundle):
    # the fundamental polygon (black, drawn after its grey translates)
    # starts at the first corner moved by the gauge
    from graphuniform.render import disk_projection, render_map_svg

    m, base = _gauged_and_plain(genus2_bundle[2])
    outline = re.search(r'points="([^"]*)" fill="none" stroke="#000000"', render_map_svg(m, size=640)).group(1)
    first = np.array([float(v) for v in outline.split()[0].split(",")])
    x, y = disk_projection(_FRAME @ base.surface.polygon[0])
    assert np.max(np.abs(first - [320.0 + 304.0 * x, 320.0 - 304.0 * y])) <= 1e-4


def test_map_without_embedding_needs_explicit_surface(genus2_bundle):
    _surface, _graph, m = genus2_bundle
    doc = map_to_json(m)
    del doc["surface"], doc["graph"]
    with pytest.raises(SchemaError) as exc:
        map_from_json(doc)
    assert exc.value.path == "map.surface"
    back = map_from_json(doc, surface=m.surface, graph=m.graph)
    assert np.max(np.abs(back.lifts - m.lifts)) < 1e-13


def test_map_schema_error_on_bad_lift(genus2_bundle):
    _surface, _graph, m = genus2_bundle
    doc = map_to_json(m)
    doc["vertex_lifts"][0] = [1.0, 0.0]
    with pytest.raises(SchemaError) as exc:
        map_from_json(doc)
    assert exc.value.path == "map.vertex_lifts[0]"


@pytest.mark.parametrize("doc", [[], "map", 3, None])
def test_map_schema_error_when_document_is_not_an_object(doc):
    with pytest.raises(SchemaError) as exc:
        map_from_json(doc)
    assert exc.value.path == "map"


# One offender in the middle of the k = 32 map document (V = 378, 384
# edges): the reader checks whole arrays first, and the error it then
# raises must be the one a reader that checks one value at a time raises.
def _edge(key, value, i=192):
    return lambda doc: doc["graph"]["edges"][i].__setitem__(key, value)


def _deck(j, word):
    return lambda doc: doc["edge_decks"].__setitem__(j, word)


_OFFENDERS = {
    "weight-negative": ([_edge("weight", -2.0)],
                        SchemaError, "map.graph.edges[192].weight: weight must be positive, got -2.0"),
    "weight-nan": ([_edge("weight", math.nan)],
                   SchemaError, "map.graph.edges[192].weight: expected a finite number, got nan"),
    "weight-huge-integer": ([_edge("weight", 10 ** 400)], SchemaError,
                            "map.graph.edges[192].weight: expected a finite number, "
                            "got an integer too large for a float"),
    "weight-before-endpoint": ([_edge("to", 378), _edge("weight", -1.0), _edge("weight", 0.0, 300)],
                               SchemaError, "map.graph.edges[192].weight: weight must be positive, got -1.0"),
    "endpoint-past-end": ([_edge("to", 378), _edge("from", -1, 300)],
                          SchemaError, "map.graph.edges[192]: edge endpoints (0,378) outside 0..377"),
    "endpoint-negative": ([_edge("from", -1)],
                          SchemaError, "map.graph.edges[192]: edge endpoints (-1,192) outside 0..377"),
    "letter-float": ([_deck(192, [1, 2.0]), _deck(300, [0.5])],
                     SchemaError, "map.edge_decks[192][1]: expected an integer, got 2.0"),
    "letter-bool": ([_deck(192, [1, True])], SchemaError, "map.edge_decks[192][1]: expected an integer, got True"),
    "deck-count": ([lambda doc: doc["edge_decks"].pop(192)],
                   GraphValidationError, "DECK_COUNT: 383 deck words for 384 unoriented edges"),
    "letter-past-end": ([_deck(192, [1, 9]), _deck(300, [0])], DomainError, "no generator with signed index 9"),
    "letter-zero": ([_deck(192, [0])], DomainError, "no generator with signed index 0"),
}


@pytest.fixture(scope="module")
def k32_document(genus2_bundle):
    _surface, _graph, ref = genus2_bundle
    return map_to_json(oracles.subdivide(ref, 32))


@pytest.mark.parametrize("case", sorted(_OFFENDERS))
def test_map_reader_names_the_first_offender_of_a_large_document(case, k32_document):
    edits, kind, message = _OFFENDERS[case]
    doc = copy.deepcopy(k32_document)
    for edit in edits:
        edit(doc)
    with pytest.raises(kind) as exc:
        map_from_json(doc)
    assert type(exc.value) is kind and str(exc.value) == message


@pytest.mark.parametrize("k", [1, 8, 32])
def test_parsed_map_matches_a_value_at_a_time_build_bit_for_bit(k, genus2_bundle, tmp_path):
    _surface, _graph, ref = genus2_bundle
    path = str(tmp_path / "map.json")
    write_artifact(path, map_to_json(oracles.moved(oracles.subdivide(ref, k), oracles.rot_z(0.3))))
    doc = read_json(path)
    got, want = map_from_json(doc), oracles.reference_map(doc)
    for a, b in ((got.lifts, want.lifts), (got.surface.matrices, want.surface.matrices),
                 (got.surface.polygon, want.surface.polygon), (got.edges.mats, want.edges.mats)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got.deck_words == want.deck_words
    assert got.graph.unoriented_edges() == want.graph.unoriented_edges()
