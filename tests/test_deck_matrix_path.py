"""A map's deck matrices change in one place: `MarkedMap.with_surface`
multiplies the words again on another surface, for a new metric and a new
frame alike (a change of frame is the conjugated surface,
`SurfaceModel.conjugated`).  A map carries no frame of its own, so
`MarkedMap` declares exactly the fields surface, graph, lifts and
deck_words.

The scan reads every module of `src/graphuniform/` and fails on a copy
`_derived(..., mats=...)` that replaces an `EdgeData`'s deck matrices
outside `MarkedMap.with_surface`, and on any other field that `MarkedMap`
declares.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "graphuniform"
ALLOWED = {"MarkedMap.with_surface"}
FIELDS = ["surface", "graph", "lifts", "deck_words"]


def mats_replacements(tree: ast.AST) -> list[str]:
    """'line: scope' for every call of `_derived` (by name or attribute)
    with a `mats` keyword in tree, the scope being the dotted names of the
    classes and functions that enclose it ('' at module level)."""
    found = []

    def visit(node, scope):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name == "_derived" and any(k.arg == "mats" for k in node.keywords):
                found.append((node.lineno, ".".join(scope)))
        inner = scope + [node.name] if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(tree, [])
    return [f"{line}: {scope}" for line, scope in sorted(found)]


def outside_with_surface(calls: list[str]) -> list[str]:
    return [call for call in calls if call.split(": ")[1] not in ALLOWED]


def declared_fields(tree: ast.AST, cls: str = "MarkedMap") -> list[str]:
    """The annotated names in the body of each class `cls` in tree, in order."""
    return [stmt.target.id for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and node.name == cls
            for stmt in node.body if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


def test_deck_matrices_are_replaced_only_in_with_surface():
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found = outside_with_surface(mats_replacements(ast.parse(path.read_text())))
        if found:
            offenders[path.name] = found
    assert not offenders, f"deck matrices replaced outside MarkedMap.with_surface: {offenders}"


def test_with_surface_is_where_deck_matrices_are_replaced():
    calls = mats_replacements(ast.parse((PACKAGE / "maps.py").read_text()))
    assert [call.split(": ")[1] for call in calls] == ["MarkedMap.with_surface"]


def test_a_map_declares_its_four_fields_and_no_other():
    assert declared_fields(ast.parse((PACKAGE / "maps.py").read_text())) == FIELDS


def test_the_scan_finds_each_kind_of_replacement_and_field():
    offenders = '''
edges = _derived(m.edges, mats=conjugated)
def gauge_transform(m, g):
    return _derived(m, lifts=lifts, edges=maps._derived(m.edges, mats=g @ m.edges.mats))
class MarkedMap:
    surface: SurfaceModel
    graph: WeightedGraph
    lifts: np.ndarray
    deck_words: tuple
    gauge: Isometry = _IDENTITY
'''
    tree = ast.parse(offenders)
    assert outside_with_surface(mats_replacements(tree)) == ["2: ", "4: gauge_transform"]
    assert declared_fields(tree) == FIELDS + ["gauge"]
    allowed = '''
class MarkedMap:
    surface: SurfaceModel
    def with_surface(self, surface, lifts):
        return _derived(self, surface=surface, edges=_derived(self.edges, mats=mats))
    def with_lifts(self, lifts):
        return _derived(self, lifts=lifts)
mats = _derived
'''
    tree = ast.parse(allowed)
    assert mats_replacements(tree) == ["5: MarkedMap.with_surface"]
    assert outside_with_surface(mats_replacements(tree)) == []
    assert declared_fields(tree) == ["surface"]
