"""Every exported name has a caller in the library or the benchmark.

A name counts as used when some `ast.Name` or `ast.Attribute` in
`src/graphuniform/*.py` (other than `__init__.py`, and outside the name's own
`def` or `class`) or in `bench/*.py` refers to it.  Docstrings and comments
do not count, and there is no allowlist: API that only the tests call
belongs in the tests.
"""

import ast
from pathlib import Path

import graphuniform

ROOT = Path(__file__).resolve().parent.parent


def _references(tree: ast.AST, skip: str | None = None) -> set[str]:
    """Names and attribute names referred to in tree, leaving out the body of
    any def or class named `skip`."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_exported_name_has_a_caller_in_the_library_or_the_benchmark():
    library = [ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "graphuniform").glob("*.py"))
               if p.name != "__init__.py"]
    bench = set().union(*(_references(ast.parse(p.read_text())) for p in sorted((ROOT / "bench").glob("*.py"))))
    unused = [name for name in graphuniform.__all__
              if name not in bench and not any(name in _references(tree, skip=name) for tree in library)]
    assert not unused, f"exported but called only from the tests: {unused}"
