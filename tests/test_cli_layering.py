"""The command line defines no check: every PASS/FAIL row is built in
`selfcheck`, and `cli.py` only parses arguments, dispatches and prints.

The scan reads `src/graphuniform/cli.py` and fails on any reference to
`CheckResult` or `_check`: a call that builds a row, or an import of the
names that would let it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROW_MAKERS = {"CheckResult", "_check"}


def row_makers(tree: ast.AST) -> list[str]:
    """'line: name' for every reference in tree to a name that builds a row."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in ROW_MAKERS:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in ROW_MAKERS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name in ROW_MAKERS]
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_the_cli_builds_no_check_rows():
    found = row_makers(ast.parse((ROOT / "src" / "graphuniform" / "cli.py").read_text()))
    assert not found, f"cli.py builds check rows itself: {found}"


def test_selfcheck_is_where_check_rows_are_built():
    assert row_makers(ast.parse((ROOT / "src" / "graphuniform" / "selfcheck.py").read_text()))


def test_the_scan_finds_each_kind_of_reference():
    offenders = '''
from .selfcheck import CheckResult, _check
CheckResult("name", True, "detail")
_check("name", 0.0, 1.0)
selfcheck._check("name", 0.0, 1.0)
rows = [selfcheck.CheckResult]
'''
    assert [line.split(": ")[0] for line in row_makers(ast.parse(offenders))] == ["2", "2", "3", "4", "5", "6"]
    allowed = '''
from .selfcheck import run_all, summary_table
print(summary_table(run_all()))
checks = example_klein()
'''
    assert row_makers(ast.parse(allowed)) == []


def test_commands_that_print_no_checks_leave_selfcheck_unloaded():
    # `solve`, `optimize` and `render` neither compile nor run the checks:
    # `example` and `check` import them when they run
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, graphuniform.cli; print(sorted(m for m in sys.modules if m.endswith('selfcheck')))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
