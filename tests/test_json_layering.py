"""One module writes JSON text: `serialize`, with the standard library's
encoder.

The scan reads every module of `src/graphuniform/` but `serialize.py` and
fails on an import of `json`, or on a string constant that holds `%.17g`,
the mark of JSON formatted by hand.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "graphuniform"


def json_writers(tree: ast.AST) -> list[str]:
    """'line: what' for every import of json and every %.17g string in tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name.split(".")[0] == "json"]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] == "json":
            found.append((node.lineno, node.module))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and "%.17g" in node.value:
            found.append((node.lineno, "%.17g"))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_only_serialize_writes_json():
    found = {path.name: json_writers(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py")) if path.name != "serialize.py"}
    assert not {name: lines for name, lines in found.items() if lines}, f"JSON written outside serialize: {found}"


def test_serialize_is_where_json_is_written():
    assert json_writers(ast.parse((SRC / "serialize.py").read_text()))


def test_the_scan_finds_each_kind_of_reference():
    offenders = '''
import json
import os, json.decoder
from json import dumps
line = '{"energy": %.17g}' % 1.0
'''
    assert [line.split(": ")[0] for line in json_writers(ast.parse(offenders))] == ["2", "3", "4", "5"]
    allowed = '''
from . import serialize
from .jsonish import anything
text = "%.12g" % 1.0
serialize.write_text(path, serialize.trace_jsonl(trace))
'''
    assert json_writers(ast.parse(allowed)) == []
