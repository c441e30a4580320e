"""Values are built by their constructors: `HPoint` and `Isometry` validate
and normalize what they are given, and normalizing a second time changes
nothing, so no code needs to build one around a row without its checks.
The one use of `object.__new__` is `maps._derived`, the copy of a map or of
its edge arrays with some fields replaced.

The scan reads every module of `src/graphuniform/` and fails on any call of
`object.__new__` outside `maps._derived`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "graphuniform"


def new_calls(tree: ast.AST) -> list[str]:
    """'line: scope' for every call of `object.__new__` in tree, the scope
    being the dotted names of the classes and functions that enclose it
    ('' at module level)."""
    found = []

    def visit(node, scope):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "__new__" \
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "object":
            found.append((node.lineno, ".".join(scope)))
        inner = scope + [node.name] if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(tree, [])
    return [f"{line}: {scope}" for line, scope in sorted(found)]


def test_object_new_only_in_derived():
    found = {f"{path.stem}.{call.split(': ')[1]}" for path in sorted(SRC.glob("*.py"))
             for call in new_calls(ast.parse(path.read_text()))}
    assert found == {"maps._derived"}


def test_the_scan_finds_each_call_and_its_scope():
    source = '''
obj = object.__new__(HPoint)
def _prevalidated(cls, value):
    return object.__new__(cls)
class Isometry:
    def copy(self):
        return object.__new__(type(self))
def build(cls):
    return cls.__new__(cls), super().__new__(cls)
'''
    assert new_calls(ast.parse(source)) == ["2: ", "4: _prevalidated", "7: Isometry.copy"]
