import errno
import gc
import io
import json
import math
import os
import re
import sys
import warnings
from pathlib import Path

import pytest

import graphuniform
from graphuniform import cli, serialize
from graphuniform.cli import main

THETA_STAR = math.log(2.0 + math.sqrt(3.0))


@pytest.fixture()
def map_file(tmp_path, genus2_bundle):
    _surface, _graph, ref = genus2_bundle
    path = str(tmp_path / "map.json")
    serialize.write_artifact(path, serialize.map_to_json(ref))
    return path


def test_every_exported_name_resolves():
    for name in graphuniform.__all__:
        assert hasattr(graphuniform, name), name


# ------------------------------------------------------------------- solve


def test_solve_from_reference_map(map_file, tmp_path, capsys):
    out = str(tmp_path / "solved.json")
    rc = main(["solve", "--map", map_file, "--out", out])
    assert rc == 0
    assert "converged" in capsys.readouterr().out
    doc = serialize.read_json(out)
    assert doc["converged"] is True
    assert doc["max_residual"] <= 1e-9
    assert abs(doc["energy"] - 23.440366595634146) < 1e-8
    assert "map" in doc and "manifest" in doc


def test_solve_random_init_reaches_same_energy(map_file, tmp_path):
    out = str(tmp_path / "solved.json")
    rc = main(["solve", "--map", map_file, "--out", out,
               "--init", "random", "--seed", "3"])
    assert rc == 0
    doc = serialize.read_json(out)
    assert doc["converged"] is True
    assert abs(doc["energy"] - 23.440366595634146) < 1e-7


def test_solve_of_a_gauged_document_writes_a_self_contained_surface(map_file, tmp_path):
    # the gauge is read as the frame of the lifts: the solved map is written
    # on the surface conjugated by it, with no gauge of its own
    import oracles

    path = str(tmp_path / "gauged.json")
    g = oracles.x_translation(0.7) @ oracles.rot_z(0.3)
    serialize.write_artifact(path, oracles.gauged_document(serialize.read_json(map_file), g))
    out = str(tmp_path / "solved.json")
    assert main(["solve", "--map", path, "--out", out]) == 0
    doc = serialize.read_json(out)
    assert doc["converged"] is True
    assert abs(doc["energy"] - 23.440366595634146) < 1e-8
    assert "gauge" not in doc["map"]
    conjugated = serialize.map_from_json(serialize.read_json(path)).surface
    assert doc["map"]["surface"]["generators"] == conjugated.matrices.tolist()
    assert doc["map"]["surface"]["polygon"] == conjugated.polygon.tolist()


def test_solve_exit_4_on_a_negative_seed(map_file, tmp_path, capsys):
    out = tmp_path / "o.json"
    assert main(["solve", "--map", map_file, "--out", str(out), "--init", "random", "--seed", "-1"]) == 4
    err = capsys.readouterr().err
    assert err == "error: random seeds must be non-negative, got -1\n"
    assert not out.exists()


def _assert_exit_4_with_one_error_line(argv, error, out, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--out", str(out)]) == 4
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.startswith(error) and err.count("\n") == 1
    assert not out.exists()


def _huge_lift_document(map_file, tmp_path):
    doc = serialize.read_json(map_file)
    doc["vertex_lifts"][0] = [1e200, 0.0, 0.0]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_solve_exit_4_on_a_lift_whose_form_overflows(map_file, tmp_path, capsys):
    _assert_exit_4_with_one_error_line(
        ["solve", "--map", _huge_lift_document(map_file, tmp_path)],
        "error: point in row 0 overflows the Minkowski form", tmp_path / "o.json", capsys)


def test_render_exit_4_on_a_lift_or_generator_that_overflows(map_file, tmp_path, capsys):
    _assert_exit_4_with_one_error_line(
        ["render", "--map", _huge_lift_document(map_file, tmp_path)],
        "error: point in row 0 overflows the Minkowski form", tmp_path / "o.svg", capsys)
    doc = serialize.read_json(map_file)["surface"]
    doc["generators"][0][0][0] = 1e200
    path = tmp_path / "huge_surface.json"
    path.write_text(json.dumps(doc))
    _assert_exit_4_with_one_error_line(
        ["render", "--surface", str(path)], "error: matrix overflows the Minkowski form", tmp_path / "o.svg", capsys)


def test_solve_writes_parseable_trace(map_file, tmp_path):
    out = str(tmp_path / "solved.json")
    trace = str(tmp_path / "steps.jsonl")
    rc = main(["solve", "--map", map_file, "--out", out,
               "--init", "random", "--seed", "1", "--trace", trace])
    assert rc == 0
    lines = open(trace).read().splitlines()
    assert len(lines) == serialize.read_json(out)["iterations"] + 1 > 1
    for i, line in enumerate(lines):
        row = json.loads(line)
        assert {"iteration", "energy", "residual"} <= set(row)
        # from the first step on, each line names the kind of step taken
        assert ("step" in row) == (i > 0)
        assert row.get("step", "lu") in ("lu", "cg")
    energies = [json.loads(l)["energy"] for l in lines]
    slack = 1e3 * 2.2e-16 * (1.0 + energies[0])  # rounding wobble at the floor
    assert all(b <= a + slack for a, b in zip(energies, energies[1:]))


def test_solve_exit_3_when_budget_too_small(map_file, tmp_path, capsys):
    out = str(tmp_path / "solved.json")
    rc = main(["solve", "--map", map_file, "--out", out,
               "--init", "random", "--seed", "1", "--max-iters", "2"])
    assert rc == 3
    assert "did not converge" in capsys.readouterr().out
    assert serialize.read_json(out)["converged"] is False


def test_solve_reports_stop_reason(map_file, tmp_path, capsys):
    out = str(tmp_path / "solved.json")
    assert main(["solve", "--map", map_file, "--out", out]) == 0
    assert serialize.read_json(out)["stop_reason"] == "converged"
    capsys.readouterr()
    rc = main(["solve", "--map", map_file, "--out", out,
               "--init", "random", "--seed", "1", "--max-iters", "0"])
    assert rc == 3
    assert "(budget)" in capsys.readouterr().out
    assert serialize.read_json(out)["stop_reason"] == "budget"


@pytest.mark.parametrize("field,literal", [
    (("vertex_lifts", 0, 1), "NaN"),
    (("graph", "edges", 0, "weight"), "1e400"),
], ids=["nan-lift", "1e400-weight"])
def test_solve_exit_2_on_non_finite_input(map_file, tmp_path, capsys, field, literal):
    # the JSON reader turns these literals into nan and inf; both are refused
    # where the document is read, before any solve
    doc = serialize.read_json(map_file)
    target = doc
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = "PLACEHOLDER"
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(doc).replace('"PLACEHOLDER"', literal))
    rc = main(["solve", "--map", str(path), "--out", str(tmp_path / "o.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err


def test_solve_exit_2_on_bad_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  ")
    rc = main(["solve", "--map", str(bad), "--out", str(tmp_path / "o.json")])
    assert rc == 2
    assert "line" in capsys.readouterr().err


def test_solve_exit_2_on_missing_file(tmp_path):
    rc = main(["solve", "--map", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o.json")])
    assert rc == 2


def test_solve_exit_2_on_missing_field(tmp_path, capsys):
    doc = tmp_path / "partial.json"
    doc.write_text('{"vertex_lifts": []}')
    rc = main(["solve", "--map", str(doc), "--out", str(tmp_path / "o.json")])
    assert rc == 2
    assert "surface" in capsys.readouterr().err


def _no_work(*args, **kwargs):
    raise AssertionError("the solve or search ran before its input was checked")


@pytest.mark.parametrize("argv", [
    ["solve", "--tol", "-1"],
    ["solve", "--tol", "inf"],
    ["solve", "--tol", "1e400"],
    ["solve", "--tol", "nan"],
    ["optimize", "--solver-tol", "inf"],
    ["optimize", "--tol", "0"],
    ["example", "hexagon-genus2", "--md", "0"],
    ["example", "hexagon-genus2", "--mc", "inf"],
], ids=lambda argv: " ".join(argv))
def test_number_options_reject_non_finite_or_non_positive(argv, map_file, tmp_path, monkeypatch, capsys):
    # rejected by the argument parser: exit 2 before any solve or search
    out = tmp_path / "o.json"
    tail = {"solve": ["--map", map_file, "--out", str(out)], "optimize": ["--out", str(out)]}
    for name in ("solve", "minimize_1d", "lagrange_solve"):
        monkeypatch.setattr(cli, name, _no_work)
    with pytest.raises(SystemExit) as exc:
        main(argv + tail.get(argv[0], []))
    assert exc.value.code == 2
    assert "finite positive number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "render"])
def test_map_document_that_is_not_an_object_exits_2(command, tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[]")
    assert main([command, "--map", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "expected an object" in err and "Traceback" not in err


def _int64_overflow_document(map_file, tmp_path, case):
    doc = serialize.read_json(map_file)
    if case == "graph":
        doc["graph"]["vertices"] = 2 ** 63 + 1
        doc["graph"]["edges"][0]["to"] = 2 ** 63
    else:
        doc["edge_decks"][6] = [2 ** 63 if case == "letter" else -2 ** 63]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("command", ["solve", "render"])
@pytest.mark.parametrize("case, error", [
    # a letter that int64 cannot hold names no generator, and neither does
    # the letter whose inverse int64 cannot hold
    ("letter", "error: no generator with signed index 9223372036854775808"),
    ("letter-negative", "error: no generator with signed index -9223372036854775808"),
    ("graph", "error: ORIGIN_RANGE: half-edge 1 originates at unknown vertex 9223372036854775808"),
])
def test_integers_that_int64_cannot_hold_exit_4(map_file, tmp_path, capsys, command, case, error):
    _assert_exit_4_with_one_error_line(
        [command, "--map", _int64_overflow_document(map_file, tmp_path, case)],
        error, tmp_path / ("o.json" if command == "solve" else "o.svg"), capsys)


# A malformed document is refused where it is read: exit 2 for a schema
# error, 4 for a value the geometry or the graph rejects.  Each case edits
# the genus-2 reference map document, or the surface or graph embedded in
# it, which is then passed with --surface or --graph.
def _set(key, value):
    def edit(doc):
        target = doc
        for k in key[:-1]:
            target = target[k]
        target[key[-1]] = value
        return doc
    return edit


def _drop(key):
    def edit(doc):
        del doc[key]
        return doc
    return edit


def _shorten(key):
    def edit(doc):
        doc[key].pop()
        return doc
    return edit


def _not_object(doc):
    return []


_NOT_ISOMETRY = [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

_FUZZ = {
    "map-not-object": ("map", _not_object),
    "map-missing-lifts": ("map", _drop("vertex_lifts")),
    "map-lifts-not-array": ("map", _set(["vertex_lifts"], 5)),
    "map-lift-short": ("map", _set(["vertex_lifts", 0], [1.0, 0.0])),
    "map-lift-string": ("map", _set(["vertex_lifts", 0, 1], "0")),
    "map-lift-nan": ("map", _set(["vertex_lifts", 0, 0], math.nan)),
    "map-lift-inf": ("map", _set(["vertex_lifts", 0, 2], math.inf)),
    "map-lift-spacelike": ("map", _set(["vertex_lifts", 0], [0.1, 1.0, 0.0])),
    "map-lift-count": ("map", _shorten("vertex_lifts")),
    "map-deck-count": ("map", _shorten("edge_decks")),
    "map-deck-generator-zero": ("map", _set(["edge_decks", 6], [0])),
    "map-deck-generator-past-end": ("map", _set(["edge_decks", 6], [9])),
    "map-deck-generator-float": ("map", _set(["edge_decks", 6], [1.5])),
    "map-gauge-not-isometry": ("map", _set(["gauge"], _NOT_ISOMETRY)),
    "map-gauge-short": ("map", _set(["gauge"], [[1.0, 0.0, 0.0]])),
    "surface-not-object": ("surface", _not_object),
    "surface-missing-genus": ("surface", _drop("genus")),
    "surface-genus-string": ("surface", _set(["genus"], "2")),
    "surface-no-generators": ("surface", _set(["generators"], [])),
    "surface-generator-not-isometry": ("surface", _set(["generators", 0], _NOT_ISOMETRY)),
    "surface-generator-nan": ("surface", _set(["generators", 0, 1, 1], math.nan)),
    "surface-polygon-spacelike": ("surface", _set(["polygon", 0], [0.1, 1.0, 0.0])),
    "surface-polygon-lower-sheet": ("surface", _set(["polygon", 0], [-2.0, 1.0, 1.0])),
    "surface-polygon-nan": ("surface", _set(["polygon", 0, 1], math.nan)),
    "surface-side-pair-short": ("surface", _set(["side_pairs", 0], [0, 7])),
    "graph-not-object": ("graph", _not_object),
    "graph-missing-edges": ("graph", _drop("edges")),
    "graph-edge-not-object": ("graph", _set(["edges", 0], 3)),
    "graph-endpoint-past-end": ("graph", _set(["edges", 0, "to"], 6)),
    "graph-endpoint-negative": ("graph", _set(["edges", 0, "from"], -1)),
    "graph-weight-string": ("graph", _set(["edges", 0, "weight"], "1")),
    "graph-weight-inf": ("graph", _set(["edges", 0, "weight"], math.inf)),
    "graph-weight-zero": ("graph", _set(["edges", 0, "weight"], 0.0)),
    "graph-class-number": ("graph", _set(["edges", 0, "class"], 3)),
    "graph-vertex-count": ("graph", _set(["vertices"], 7)),
    "graph-no-vertices": ("graph", _set(["vertices"], 0)),
    # bools are ints to Python and 1.0 to numpy, and None is nan to a float
    # array: each must still be refused by type
    "map-lift-bool": ("map", _set(["vertex_lifts", 0, 0], True)),
    "surface-generator-bool": ("surface", _set(["generators", 0, 0, 0], True)),
    "graph-weight-bool": ("graph", _set(["edges", 0, "weight"], True)),
    "map-deck-null": ("map", _set(["edge_decks", 6], [None])),
    # an integer literal too large for a float: refused by value, not by a traceback
    "map-lift-huge-integer": ("map", _set(["vertex_lifts", 0, 0], 10 ** 400)),
    "surface-generator-huge-integer": ("surface", _set(["generators", 0, 0, 0], 10 ** 400)),
    "graph-weight-huge-integer": ("graph", _set(["edges", 0, "weight"], 10 ** 400)),
}

# The exit code and error line of each case, as a reader that checks one
# value at a time reports them: checking whole arrays must not change them.
_FUZZ_ERROR = {
    "graph-class-number": (2, "graph.edges[0].class: expected a string, got 3"),
    "graph-edge-not-object": (2, "graph.edges[0]: expected an object, got int"),
    "graph-endpoint-negative": (2, "graph.edges[0]: edge endpoints (-1,1) outside 0..5"),
    "graph-endpoint-past-end": (2, "graph.edges[0]: edge endpoints (0,6) outside 0..5"),
    "graph-missing-edges": (2, "graph: missing required field 'edges'"),
    "graph-no-vertices": (2, "graph.edges[0]: edge endpoints (0,1) outside 0..-1"),
    "graph-not-object": (2, "graph: expected an object, got list"),
    "graph-vertex-count": (4, "LIFT_COUNT: 6 lifts for 7 vertices"),
    "graph-weight-bool": (2, "graph.edges[0].weight: expected a number, got True"),
    "graph-weight-huge-integer": (
        2, "graph.edges[0].weight: expected a finite number, got an integer too large for a float"),
    "graph-weight-inf": (2, "graph.edges[0].weight: expected a finite number, got inf"),
    "graph-weight-string": (2, "graph.edges[0].weight: expected a number, got '1'"),
    "graph-weight-zero": (2, "graph.edges[0].weight: weight must be positive, got 0.0"),
    "map-deck-count": (4, "DECK_COUNT: 11 deck words for 12 unoriented edges"),
    "map-deck-generator-float": (2, "map.edge_decks[6][0]: expected an integer, got 1.5"),
    "map-deck-generator-past-end": (4, "no generator with signed index 9"),
    "map-deck-generator-zero": (4, "no generator with signed index 0"),
    "map-deck-null": (2, "map.edge_decks[6][0]: expected an integer, got None"),
    "map-gauge-not-isometry": (4, "matrix does not preserve the Minkowski form (defect 3.000e+00)"),
    "map-gauge-short": (2, "map.gauge: expected 3 entries, got 1"),
    "map-lift-bool": (2, "map.vertex_lifts[0][0]: expected a number, got True"),
    "map-lift-count": (4, "LIFT_COUNT: 5 lifts for 6 vertices"),
    "map-lift-huge-integer": (
        2, "map.vertex_lifts[0][0]: expected a finite number, got an integer too large for a float"),
    "map-lift-inf": (2, "map.vertex_lifts[0][2]: expected a finite number, got inf"),
    "map-lift-nan": (2, "map.vertex_lifts[0][0]: expected a finite number, got nan"),
    "map-lift-short": (2, "map.vertex_lifts[0]: expected 3 entries, got 2"),
    "map-lift-spacelike": (4, "point in row 0 is not timelike: [0.1, 1.0, 0.0]"),
    "map-lift-string": (2, "map.vertex_lifts[0][1]: expected a number, got '0'"),
    "map-lifts-not-array": (2, "map.vertex_lifts: expected an array, got int"),
    "map-missing-lifts": (2, "map: missing required field 'vertex_lifts'"),
    "map-not-object": (2, "map: expected an object, got list"),
    "surface-generator-bool": (2, "surface.generators[0][0][0]: expected a number, got True"),
    "surface-generator-huge-integer": (
        2, "surface.generators[0][0][0]: expected a finite number, got an integer too large for a float"),
    "surface-generator-nan": (2, "surface.generators[0][1][1]: expected a finite number, got nan"),
    "surface-generator-not-isometry": (4, "matrix does not preserve the Minkowski form (defect 3.000e+00)"),
    "surface-genus-string": (2, "surface.genus: expected an integer, got '2'"),
    "surface-missing-genus": (2, "surface: missing required field 'genus'"),
    "surface-no-generators": (4, "no generator with signed index -4"),
    "surface-not-object": (2, "surface: expected an object, got list"),
    "surface-polygon-lower-sheet": (4, "point in row 0 is not on the upper sheet: [-2.0, 1.0, 1.0]"),
    "surface-polygon-nan": (2, "surface.polygon[0][1]: expected a finite number, got nan"),
    "surface-polygon-spacelike": (4, "point in row 0 is not timelike: [0.1, 1.0, 0.0]"),
    "surface-side-pair-short": (2, "surface.side_pairs[0]: expected 3 entries, got 2"),
}


@pytest.mark.parametrize("case", sorted(_FUZZ))
def test_malformed_documents_exit_2_or_4(case, map_file, tmp_path, capsys):
    part, edit = _FUZZ[case]
    documents = {"map": serialize.read_json(map_file)}
    fresh = serialize.read_json(map_file)
    documents[part] = edit(fresh if part == "map" else fresh[part])
    argv = ["solve", "--out", str(tmp_path / "o.json")]
    for name, doc in documents.items():
        path = tmp_path / f"edited-{name}.json"
        path.write_text(json.dumps(doc))  # nan and inf are written as NaN and Infinity
        argv += [f"--{name}", str(path)]
    code, message = _FUZZ_ERROR[case]
    assert main(argv) == code
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("case", ["integer-past-digit-limit", "not-utf8"])
def test_unreadable_documents_exit_2(case, map_file, tmp_path, capsys):
    # json.dumps cannot write either document, so each is edited as text
    text = Path(map_file).read_text(encoding="utf-8")
    path = tmp_path / "edited.json"
    if case == "not-utf8":
        path.write_bytes(b"\xff" + text.encode())
        message = f"{path}: not UTF-8 text (byte 0: invalid start byte)"
    else:
        digits = sys.get_int_max_str_digits() + 1
        path.write_text(text.replace('"vertex_lifts": [', '"vertex_lifts": [' + "1" * digits + ", ", 1))
        message = f"{path}: holds an integer of more than {digits - 1} digits"
    assert main(["solve", "--map", str(path), "--out", str(tmp_path / "o.json")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_repeated_main_leaves_no_garbage_cycles(capsys):
    # a parser built per call would leave its argparse objects in reference
    # cycles, which pile up until a full garbage collection
    assert main(["example", "regular-4g"]) == 0
    gc.collect()
    assert main(["example", "regular-4g"]) == 0
    assert gc.collect() == 0


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # missing required --map/--out
    assert exc.value.code == 2


# ---------------------------------------------------------------- optimize


def test_optimize_finds_known_minimizer(tmp_path, capsys):
    out = str(tmp_path / "opt.json")
    rc = main(["optimize", "--tol", "1e-6", "--out", out])
    assert rc == 0
    assert "minimizer" in capsys.readouterr().out
    doc = serialize.read_json(out)
    assert abs(doc["theta_star"] - THETA_STAR) < 1e-5
    assert doc["agreement"] < 1e-5
    assert abs(doc["stationarity"]["s"] - THETA_STAR) < 1e-10


def test_optimize_exit_4_on_parameterless_family(capsys):
    assert main(["optimize", "--family", "klein"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: unknown family 'klein'") and "'hexagon-genus2'" in err and err.count("\n") == 1


def test_optimize_exit_4_on_bad_bracket():
    assert main(["optimize", "--bracket", "3.0", "0.5"]) == 4


# ----------------------------------------------------------------- example


def test_example_subcommands_all_pass(capsys):
    # at genus 80 the cycle's angle sum is off by 5.4e-8: within the angle
    # gate, which at large genus is the rounding of the 4g corner angles
    for argv in (["example", "regular-4g"],
                 ["example", "regular-4g", "--genus", "3"],
                 ["example", "regular-4g", "--genus", "40"],
                 ["example", "regular-4g", "--genus", "80"],
                 ["example", "klein"]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


def test_example_hexagon_genus2_passes(capsys):
    assert main(["example", "hexagon-genus2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "log(2+sqrt(3))" in out


def test_optimize_exit_4_on_bracket_outside_buildable_seams(capsys):
    # seams of 0.04-0.06 are outside the family's domain: the builder cannot
    # make a surface there
    assert main(["optimize", "--bracket", "0.04", "0.06"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["optimize", "solve"])
def test_float64_overflow_exits_4_with_one_error_line(command, map_file, tmp_path, capsys):
    argv = ["optimize", "--family", "hexagon-genus2", "--mc", "1e200", "--md", "1"]
    if command == "solve":
        doc = serialize.read_json(map_file)
        doc["graph"]["edges"][0]["weight"] = 1e200
        heavy = tmp_path / "heavy.json"
        heavy.write_text(json.dumps(doc))
        argv = ["solve", "--map", str(heavy), "--out", str(tmp_path / "o.json")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 4
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "overflow" in err


def test_example_exit_4_when_weight_ratio_has_no_bracket(capsys):
    assert main(["example", "hexagon-genus2", "--mc", "1e200"]) == 4
    err = capsys.readouterr().err
    assert "bracket" in err and "Traceback" not in err


def test_example_genus_g_rejects_low_genus():
    assert main(["example", "regular-4g", "--genus", "1"]) == 4


# ------------------------------------------------------------ check/render


def test_check_passes(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 21 and "FAIL" not in out
    assert "21/21 checks passed" in out
    assert "PASS  klein centre bouquet energy closed form" in out
    assert not [line for line in out.splitlines() if "triangle" in line]


class _ClosedPipe(io.StringIO):
    """A standard output whose reader has gone, as under `| head -1`."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("command", ["check", "example", "solve", "solve-budget", "optimize"])
def test_a_closed_standard_output_leaves_the_exit_code(command, map_file, tmp_path, monkeypatch, capsys):
    # the command finishes and returns what it returns with a reader,
    # with no error line: a broken pipe is no bad input file
    out = str(tmp_path / "out.json")
    argv = {"check": ["check"],
            "example": ["example", "regular-4g", "--genus", "3"],
            "solve": ["solve", "--map", map_file, "--out", out],
            "solve-budget": ["solve", "--map", map_file, "--out", out, "--init", "random", "--max-iters", "2"],
            "optimize": ["optimize", "--out", out]}[command]
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    expected = main(argv)
    assert expected == (3 if command == "solve-budget" else 0)
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(argv) == expected
    assert "error:" not in capsys.readouterr().err


def _table_rows(out: str) -> list[str]:
    """The lines of a PASS/FAIL table, without its count line."""
    return [line for line in out.splitlines() if line.startswith(("PASS  ", "FAIL  "))]


def _check_name(row: str) -> str:
    return row[6:].split("  ")[0]


def test_check_runs_every_example_at_its_defaults_once(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    rows = _table_rows(out)
    names = list(map(_check_name, rows))
    assert len(names) == len(set(names)), "a check name appears twice"
    assert out.splitlines()[-1] == f"{len(rows)}/{len(rows)} checks passed"
    for name in ("hexagon-genus2", "regular-4g", "klein"):
        assert main(["example", name]) == 0
        example_rows = _table_rows(capsys.readouterr().out)
        assert example_rows
        for row in example_rows:
            # the same row, padded to the wider name column of the check table
            assert _check_name(row) in names
            assert rows[names.index(_check_name(row))].split() == row.split()


def test_regular_4g_relator_row_shows_its_gate(capsys):
    # the verdict is the defect-to-gate ratio against 1, and the row prints
    # both numbers it was computed from
    assert main(["example", "regular-4g", "--genus", "40"]) == 0
    row = next(line for line in capsys.readouterr().out.splitlines() if "relators close up" in line)
    found = re.search(r"  (\S+) \(tol 1\)  ratio of defect (\S+) to gate (\S+)$", row)
    assert row.startswith("PASS") and found, row
    ratio, defect, gate = map(float, found.groups())
    assert ratio <= 1.0 and ratio == pytest.approx(defect / gate, rel=2e-3)


def test_render_surface_svg(tmp_path, genus2_bundle):
    surface, _graph, _ref = genus2_bundle
    spath = str(tmp_path / "surface.json")
    serialize.write_artifact(spath, serialize.surface_to_json(surface))
    out = str(tmp_path / "surface.svg")
    assert main(["render", "--surface", spath, "--out", out]) == 0
    svg = open(out).read()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_render_surface_honours_depth_two(tmp_path, genus2_bundle):
    surface, _graph, _ref = genus2_bundle
    spath = str(tmp_path / "surface.json")
    serialize.write_artifact(spath, serialize.surface_to_json(surface))
    svgs = []
    for depth in ("1", "2"):
        out = str(tmp_path / f"depth{depth}.svg")
        assert main(["render", "--surface", spath, "--depth", depth, "--out", out]) == 0
        svgs.append(open(out).read())
    assert svgs[1].count("<polygon") > svgs[0].count("<polygon")


@pytest.mark.parametrize("source", ["surface", "map"])
@pytest.mark.parametrize("option,value", [("--depth", "5"), ("--depth", "-1"), ("--size", "-5"), ("--size", "0")])
def test_render_exit_4_on_out_of_range_limits(map_file, tmp_path, capsys, genus2_bundle, source, option, value):
    path = map_file
    if source == "surface":
        path = str(tmp_path / "surface.json")
        serialize.write_artifact(path, serialize.surface_to_json(genus2_bundle[0]))
    out = tmp_path / "out.svg"
    assert main(["render", f"--{source}", path, option, value, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert option[2:] in err and "Traceback" not in err
    assert not out.exists()


def test_render_accepts_solve_artifact(map_file, tmp_path):
    solved = str(tmp_path / "solved.json")
    assert main(["solve", "--map", map_file, "--out", solved]) == 0
    out = str(tmp_path / "map.svg")
    assert main(["render", "--map", solved, "--out", out]) == 0
    assert "<svg" in open(out).read()


# ------------------------------------------------------------ determinism


def test_bad_source_date_epoch_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "abc")
    rc = main(["optimize", "--tol", "1e-3", "--out", str(tmp_path / "o.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "SOURCE_DATE_EPOCH" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "optimize"])
def test_bad_source_date_epoch_rejected_before_work(command, map_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "abc")
    out = tmp_path / "o.json"
    argv = {"solve": ["solve", "--map", map_file, "--out", str(out)],
            "optimize": ["optimize", "--tol", "1e-3", "--out", str(out)]}[command]
    before = set(tmp_path.iterdir())
    monkeypatch.setattr(cli, "solve", _no_work)
    monkeypatch.setattr(cli, "minimize_1d", _no_work)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "SOURCE_DATE_EPOCH" in captured.err
    assert set(tmp_path.iterdir()) == before  # no artifact, no trace file


def test_artifacts_bit_identical_under_frozen_epoch(map_file, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for out in (a, b):
        assert main(["solve", "--map", map_file, "--out", out,
                     "--init", "random", "--seed", "11"]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    oa, ob = str(tmp_path / "oa.json"), str(tmp_path / "ob.json")
    for out in (oa, ob):
        assert main(["optimize", "--tol", "1e-6", "--out", out]) == 0
    assert open(oa, "rb").read() == open(ob, "rb").read()


# ----------------------------------------------------------------- outputs
# Outputs are overwritten in place and cut to length (serialize.write_text).


def _solve_outputs(map_file, out):
    assert main(["solve", "--map", map_file, "--out", str(out)]) == 0
    return Path(out).read_bytes(), Path(f"{out}.trace.jsonl").read_bytes()


def test_solve_overwrites_longer_outputs_with_the_bytes_of_a_fresh_run(map_file, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    fresh = _solve_outputs(map_file, tmp_path / "fresh.json")
    out = tmp_path / "out.json"
    for path, text in ((out, fresh[0]), (Path(f"{out}.trace.jsonl"), fresh[1])):
        path.write_bytes(b"#" * (len(text) + 5000))
    assert _solve_outputs(map_file, out) == fresh
    assert _solve_outputs(map_file, out) == fresh  # run twice into the same path


def test_optimize_and_render_overwrite_longer_outputs(map_file, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    argvs = {"optimize": ["optimize", "--tol", "1e-6", "--out"], "render": ["render", "--map", map_file, "--out"]}
    for name, argv in argvs.items():
        fresh, out = tmp_path / f"{name}-fresh", tmp_path / f"{name}-out"
        assert main(argv + [str(fresh)]) == 0
        out.write_bytes(b"#" * (fresh.stat().st_size + 5000))
        assert main(argv + [str(out)]) == 0
        assert out.read_bytes() == fresh.read_bytes()


def _exact(x):
    """x with each float as its hex text and each object as its list of
    items: equal only when the values are of the same types and the same
    bit for bit, with keys in the same order."""
    if isinstance(x, dict):
        return [(k, _exact(v)) for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [_exact(v) for v in x]
    return type(x).__name__, x.hex() if isinstance(x, float) else x


def _recording(monkeypatch, name):
    """Wrap serialize.<name> so that each call also appends its last
    argument (a payload or a trace) to the list returned."""
    seen, call = [], getattr(serialize, name)

    def record(*args):
        seen.append(args[-1])
        return call(*args)

    monkeypatch.setattr(serialize, name, record)
    return seen


@pytest.mark.parametrize("k", [8, 32])  # V = 90 and 378, the benchmark's largest artifact
def test_solve_outputs_read_back_bit_for_bit(k, genus2_bundle, tmp_path, monkeypatch):
    import oracles

    source, out, solved, again = (str(tmp_path / name) for name in ("in", "out", "solved", "again"))
    serialize.write_artifact(source, serialize.map_to_json(oracles.subdivide(genus2_bundle[2], k)))
    payloads, traces = _recording(monkeypatch, "write_artifact"), _recording(monkeypatch, "trace_jsonl")
    assert main(["solve", "--map", source, "--out", out, "--init", "random", "--seed", "2"]) == 0
    assert _exact(json.loads(Path(out).read_text())) == _exact(payloads[0])
    lines = Path(out + ".trace.jsonl").read_text().splitlines()
    assert [_exact(json.loads(line)) for line in lines] == [
        _exact({"iteration": i, "energy": e, "residual": r, **({"step": traces[0].steps[i - 1]} if i else {})})
        for i, (e, r) in enumerate(zip(traces[0].energies, traces[0].residuals))]
    # the solved map, read back, is solved as it was: not one step
    serialize.write_artifact(solved, serialize.read_json(out)["map"])
    assert main(["solve", "--map", solved, "--out", again]) == 0
    assert payloads[-1]["iterations"] == 0
    first, last = traces[0].final_map, traces[-1].final_map
    assert last.lifts.tobytes() == first.lifts.tobytes()
    assert last.surface.matrices.tobytes() == first.surface.matrices.tobytes()
    assert main(["render", "--map", out, "--out", str(tmp_path / "map.svg")]) == 0


@pytest.mark.parametrize("mc", [0.25, 4.0])
def test_optimize_artifacts_read_back_bit_for_bit(mc, tmp_path, monkeypatch):
    out = tmp_path / "opt.json"
    payloads = _recording(monkeypatch, "write_artifact")
    assert main(["optimize", "--mc", str(mc), "--tol", "1e-6", "--out", str(out)]) == 0
    assert _exact(json.loads(out.read_text())) == _exact(payloads[0])


def test_solve_writes_through_a_symlinked_out(map_file, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    fresh, _trace = _solve_outputs(map_file, tmp_path / "fresh.json")
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_bytes(b"#" * (len(fresh) + 5000))
    link.symlink_to(target)
    assert _solve_outputs(map_file, link)[0] == fresh
    assert link.is_symlink() and target.read_bytes() == fresh


def test_solve_trace_to_the_null_device_exits_0(map_file, tmp_path):
    assert main(["solve", "--map", map_file, "--out", str(tmp_path / "o.json"), "--trace", os.devnull]) == 0


def test_solve_trace_that_cannot_be_written_leaves_out_as_it_was(map_file, tmp_path, capsys):
    out = tmp_path / "o.json"
    out.write_bytes(b"an earlier artifact\n")
    trace = tmp_path / "a-directory"
    trace.mkdir()
    assert main(["solve", "--map", map_file, "--out", str(out), "--trace", str(trace)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert out.read_bytes() == b"an earlier artifact\n"


def test_solve_out_that_is_a_directory_exits_2_with_one_error_line(map_file, tmp_path, capsys):
    out = tmp_path / "a-directory"
    out.mkdir()
    assert main(["solve", "--map", map_file, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(out)!r}\n"
