import json
import math

import pytest

from graphuniform import cli, serialize
from graphuniform.cli import main

THETA_STAR = math.log(2.0 + math.sqrt(3.0))


@pytest.fixture()
def map_file(tmp_path, genus2_bundle):
    _surface, _graph, ref = genus2_bundle
    path = str(tmp_path / "map.json")
    serialize.write_artifact(path, serialize.map_to_json(ref, embed=True))
    return path


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


def test_solve_writes_parseable_trace(map_file, tmp_path):
    out = str(tmp_path / "solved.json")
    trace = str(tmp_path / "steps.jsonl")
    rc = main(["solve", "--map", map_file, "--out", out,
               "--init", "random", "--seed", "1", "--trace", trace])
    assert rc == 0
    lines = open(trace).read().splitlines()
    assert lines
    for line in lines:
        row = json.loads(line)
        assert {"iteration", "energy", "residual"} <= set(row)
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
    assert main(argv) in (2, 4)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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


def test_optimize_exit_4_on_parameterless_family():
    assert main(["optimize", "--family", "klein"]) == 4


def test_optimize_exit_4_on_bad_bracket():
    assert main(["optimize", "--bracket", "3.0", "0.5"]) == 4


# ----------------------------------------------------------------- example


def test_example_subcommands_all_pass(capsys):
    for argv in (["example", "regular-4g"],
                 ["example", "regular-4g", "--genus", "3"],
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
    assert out.count("PASS") >= 10 and "FAIL" not in out


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
