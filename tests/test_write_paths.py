"""Every file the library writes goes through `serialize.write_text`.

The scan reads `src/graphuniform/*.py` and fails, outside the body of
`serialize.write_text`, on:
- an `open(...)` (or `.open`, `os.fdopen`) call with a write, append,
  create or update mode, or with a mode that is not a string literal;
- any use of an `os.O_*` flag that writes (`os.open` for writing);
- any `.write_text(...)` or `.write_bytes(...)` call other than
  `serialize.write_text(...)`.

`write_text` overwrites a file in place and cuts it to length: opening with
"w" would truncate it to zero first, which on ext4 makes close() start
writeback.  One write path keeps that, and the mode new files get, the same
for every output.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OPENERS = {"open", "fdopen"}
MODE_CHARACTERS = set("rwxabt+U")
WRITE_CHARACTERS = set("wxa+")
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND"}


def _mode_problem(call: ast.Call) -> str | None:
    """Why an open-like call writes, or None when it only reads."""
    name = call.func.id if isinstance(call.func, ast.Name) else call.func.attr
    keyword = next((k.value for k in call.keywords if k.arg == "mode"), None)
    candidates = [keyword] if keyword is not None else list(call.args)
    if keyword is not None or (isinstance(call.func, ast.Name) and len(call.args) > 1):
        mode = keyword if keyword is not None else call.args[1]
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
            return f"{name}() with a mode that is not a string literal"
    for node in candidates:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
            if text and set(text) <= MODE_CHARACTERS and set(text) & WRITE_CHARACTERS:
                return f"{name}() with mode {text!r}"
    return None


def write_paths(tree: ast.AST, exempt_function: str | None = None) -> list[str]:
    """'line: what' for every write in tree outside the function named
    exempt_function."""
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == exempt_function:
            exempt |= set(map(id, ast.walk(node)))
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        what = None
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name in OPENERS and not (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                                        and func.value.id == "os" and name == "open"):
                what = _mode_problem(node)
            elif (isinstance(func, ast.Attribute) and name in ("write_text", "write_bytes")
                  and not (name == "write_text" and isinstance(func.value, ast.Name) and func.value.id == "serialize")):
                what = f".{name}() call"
        elif isinstance(node, ast.Attribute) and node.attr in WRITE_FLAGS:
            what = f"os.{node.attr}"
        elif isinstance(node, ast.Name) and node.id in WRITE_FLAGS:
            what = node.id
        if what:
            found.append((node.lineno, node.col_offset, what))
    return [f"{line}: {what}" for line, _column, what in sorted(found)]


def test_the_library_writes_files_only_through_serialize_write_text():
    found = []
    for path in sorted((ROOT / "src" / "graphuniform").glob("*.py")):
        exempt = "write_text" if path.name == "serialize.py" else None
        found += [f"{path.name}:{where}" for where in write_paths(ast.parse(path.read_text()), exempt)]
    assert not found, f"files written outside serialize.write_text: {found}"


def test_serialize_write_text_is_where_files_are_opened_for_writing():
    tree = ast.parse((ROOT / "src" / "graphuniform" / "serialize.py").read_text())
    assert write_paths(tree), "serialize.write_text no longer opens files for writing"


def test_the_scan_finds_each_kind_of_write():
    offenders = '''
import os, pathlib
open(p, "w")
open(p, "a", encoding="utf-8")
open(p, mode="x")
open(p, "r+")
open(p, mode)
io.open(p, "wb")
pathlib.Path(p).open("w")
os.fdopen(fd, "w")
os.open(p, os.O_WRONLY | os.O_CREAT)
flags = O_APPEND
pathlib.Path(p).write_text("text")
pathlib.Path(p).write_bytes(b"")
'''
    assert [line.split(": ")[0] for line in write_paths(ast.parse(offenders))] == [
        str(n) for n in (3, 4, 5, 6, 7, 8, 9, 10, 11, 11, 12, 13, 14)]
    allowed = '''
open(p)
open(p, "r", encoding="utf-8")
open(p, "rb")
pathlib.Path(p).open()
os.open(p, os.O_RDONLY)
serialize.write_text(p, text)
write_text(p, text)
'''
    assert write_paths(ast.parse(allowed)) == []
