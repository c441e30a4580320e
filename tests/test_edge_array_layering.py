"""A map has one edge-array representation: `EdgeData.build` is the one
place in the package that constructs an `EdgeData`.  Copies that replace
fields no cache reads (`maps._derived`) are not constructions and stay
allowed; every evaluation (energy, residual, Hessian, finite-difference
columns) goes through the map's own arrays.

The scan reads every module of `src/graphuniform/` and fails on a call of
`EdgeData(...)` outside `EdgeData.build`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "graphuniform"
ALLOWED = {"EdgeData.build"}


def edge_data_calls(tree: ast.AST) -> list[str]:
    """'line: scope' for every call of `EdgeData` (by name or attribute) in
    tree, the scope being the dotted names of the classes and functions
    that enclose it ('' at module level)."""
    found = []

    def visit(node, scope):
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id == "EdgeData") or (isinstance(f, ast.Attribute) and f.attr == "EdgeData"):
                found.append((node.lineno, ".".join(scope)))
        inner = scope + [node.name] if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(tree, [])
    return [f"{line}: {scope}" for line, scope in sorted(found)]


def outside_build(calls: list[str]) -> list[str]:
    return [call for call in calls if call.split(": ")[1] not in ALLOWED]


def test_edge_data_is_built_only_by_its_builder():
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found = outside_build(edge_data_calls(ast.parse(path.read_text())))
        if found:
            offenders[path.name] = found
    assert not offenders, f"EdgeData constructed outside EdgeData.build: {offenders}"


def test_the_builder_is_where_edge_data_is_built():
    calls = edge_data_calls(ast.parse((PACKAGE / "maps.py").read_text()))
    assert [call.split(": ")[1] for call in calls] == ["EdgeData.build"]


def test_the_scan_finds_each_kind_of_call():
    offenders = '''
stars = EdgeData(vertex_count=3)
def hessian_fd(m):
    return maps.EdgeData(vertex_count=len(m.lifts))
class Plan:
    @staticmethod
    def build(edges):
        return EdgeData(**vars(edges))
'''
    assert edge_data_calls(ast.parse(offenders)) == ["2: ", "4: hessian_fd", "8: Plan.build"]
    assert outside_build(edge_data_calls(ast.parse(offenders))) == ["2: ", "4: hessian_fd", "8: Plan.build"]
    allowed = '''
class EdgeData:
    @staticmethod
    def build(graph, mats):
        return EdgeData(vertex_count=graph.vertex_count)
copy = _derived(edges, mats=mats)
kind = EdgeData
isinstance(edges, EdgeData)
'''
    assert edge_data_calls(ast.parse(allowed)) == ["5: EdgeData.build"]
    assert outside_build(edge_data_calls(ast.parse(allowed))) == []
