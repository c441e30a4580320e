"""JSON schemas and deterministic serialization.

All artifacts are JSON with floats printed at 17 significant digits (enough
to round-trip IEEE doubles).  Emission is deterministic -- fixed key order,
fixed float formatting -- so identical run manifests produce bit-identical
files.  Parsers raise SchemaError carrying the path of the offending field.
"""

from __future__ import annotations

import json
import math
import os
import time
from typing import Any

import numpy as np

from . import __version__
from .errors import SchemaError
from .graphs import WeightedGraph
from .hyperboloid import HPoint, Isometry
from .maps import MarkedMap
from .surfaces import SurfaceModel


# --------------------------------------------------------------------------
# deterministic emitter


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"cannot serialize non-finite number {x!r}")
    return format(float(x), ".17g")


def dumps(obj: Any, indent: int = 0) -> str:
    """JSON text with .17g floats and insertion-order keys."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {dumps(v, indent + 2)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (bool, int, float, np.integer, np.floating)) for v in seq)
        if flat:
            return "[" + ", ".join(dumps(v) for v in seq) + "]"
        items = ",\n".join(f"{pad}  {dumps(v, indent + 2)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist(), indent)
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_artifact(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(payload) + "\n")


def read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(path, f"not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}")


def make_manifest(command: str, inputs: list[str], seeds: dict, tolerances: dict) -> dict:
    """Reproducibility block attached to every written artifact.

    SOURCE_DATE_EPOCH overrides the wall clock, making outputs bit-identical
    across reruns with the same settings.
    """
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        stamp = int(epoch) if epoch is not None else int(time.time())
        timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(stamp))
    except (ValueError, OverflowError, OSError):
        raise SchemaError(
            "SOURCE_DATE_EPOCH", f"must be a whole number of seconds since 1970, got {epoch!r}") from None
    return {
        "command": command,
        "inputs": list(inputs),
        "seeds": dict(seeds),
        "tolerances": dict(tolerances),
        "version": __version__,
        "timestamp": timestamp,
    }


# --------------------------------------------------------------------------
# schema helpers


def _as_object(x: Any, path: str) -> dict:
    if not isinstance(x, dict):
        raise SchemaError(path, f"expected an object, got {type(x).__name__}")
    return x


def _need(obj: Any, key: str, path: str) -> Any:
    if key not in _as_object(obj, path):
        raise SchemaError(path, f"missing required field {key!r}")
    return obj[key]


def _as_int(x: Any, path: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise SchemaError(path, f"expected an integer, got {x!r}")
    return x


def _as_float(x: Any, path: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SchemaError(path, f"expected a number, got {x!r}")
    if not math.isfinite(x):
        raise SchemaError(path, f"expected a finite number, got {x!r}")
    return float(x)


def _as_str(x: Any, path: str) -> str:
    if not isinstance(x, str):
        raise SchemaError(path, f"expected a string, got {x!r}")
    return x


def _as_list(x: Any, path: str, length: int | None = None) -> list:
    if not isinstance(x, list):
        raise SchemaError(path, f"expected an array, got {type(x).__name__}")
    if length is not None and len(x) != length:
        raise SchemaError(path, f"expected {length} entries, got {len(x)}")
    return x


def _as_triple(x: Any, path: str) -> np.ndarray:
    row = _as_list(x, path, 3)
    return np.array([_as_float(v, f"{path}[{i}]") for i, v in enumerate(row)])


def _as_matrix(x: Any, path: str) -> np.ndarray:
    rows = _as_list(x, path, 3)
    return np.array([_as_triple(r, f"{path}[{i}]") for i, r in enumerate(rows)])


def _as_word(x: Any, path: str) -> tuple[int, ...]:
    return tuple(_as_int(v, f"{path}[{i}]") for i, v in enumerate(_as_list(x, path)))


# --------------------------------------------------------------------------
# graph schema


def graph_to_json(g: WeightedGraph) -> dict:
    return {
        "vertices": g.vertex_count,
        "edges": [
            {"from": u, "to": v, "weight": w, "class": cls}
            for (_e, u, v, w, cls) in g.unoriented_edges()
        ],
    }


def graph_from_json(obj: Any, path: str = "graph") -> WeightedGraph:
    n = _as_int(_need(obj, "vertices", path), f"{path}.vertices")
    raw_edges = _as_list(_need(obj, "edges", path), f"{path}.edges")
    edges = []
    for i, entry in enumerate(raw_edges):
        here = f"{path}.edges[{i}]"
        u = _as_int(_need(entry, "from", here), f"{here}.from")
        v = _as_int(_need(entry, "to", here), f"{here}.to")
        w = _as_float(_need(entry, "weight", here), f"{here}.weight")
        if not w > 0:
            raise SchemaError(f"{here}.weight", f"weight must be positive, got {w!r}")
        cls = _as_str(entry.get("class", "edge"), f"{here}.class")
        if not (0 <= u < n and 0 <= v < n):
            raise SchemaError(here, f"edge endpoints ({u},{v}) outside 0..{n - 1}")
        edges.append((u, v, w, cls))
    return WeightedGraph.from_edges(n, edges)


# --------------------------------------------------------------------------
# surface schema


def surface_to_json(s: SurfaceModel) -> dict:
    out: dict[str, Any] = {
        "genus": s.genus,
        "generators": [g.matrix.tolist() for g in s.generators],
    }
    if s.polygon is not None:
        out["polygon"] = [p.coords.tolist() for p in s.polygon]
    if s.side_pairs is not None:
        out["side_pairs"] = [list(sp) for sp in s.side_pairs]
    if s.relator_words is not None:
        out["relator_words"] = [list(w) for w in s.relator_words]
    return out


def surface_from_json(obj: Any, path: str = "surface") -> SurfaceModel:
    genus = _as_int(_need(obj, "genus", path), f"{path}.genus")
    gens = tuple(
        Isometry(_as_matrix(m, f"{path}.generators[{i}]"))
        for i, m in enumerate(_as_list(_need(obj, "generators", path), f"{path}.generators"))
    )
    polygon = None
    if obj.get("polygon") is not None:
        polygon = tuple(
            HPoint(_as_triple(p, f"{path}.polygon[{i}]"))
            for i, p in enumerate(_as_list(obj["polygon"], f"{path}.polygon"))
        )
    side_pairs = None
    if obj.get("side_pairs") is not None:
        side_pairs = tuple(
            tuple(_as_int(v, f"{path}.side_pairs[{i}][{j}]") for j, v in
                  enumerate(_as_list(sp, f"{path}.side_pairs[{i}]", 3)))
            for i, sp in enumerate(_as_list(obj["side_pairs"], f"{path}.side_pairs"))
        )
    relators = None
    if obj.get("relator_words") is not None:
        relators = tuple(
            _as_word(w, f"{path}.relator_words[{i}]")
            for i, w in enumerate(_as_list(obj["relator_words"], f"{path}.relator_words"))
        )
    return SurfaceModel(genus, gens, polygon, side_pairs, relators)


# --------------------------------------------------------------------------
# map schema


def map_to_json(m: MarkedMap, embed: bool = True) -> dict:
    g = m.graph
    out: dict[str, Any] = {}
    if embed:
        out["surface"] = surface_to_json(m.surface)
        out["graph"] = graph_to_json(g)
    out["vertex_lifts"] = m.lifts.tolist()
    out["edge_decks"] = [list(m.deck_words[e]) for (e, *_rest) in g.unoriented_edges()]
    if not m.gauge.is_identity(tol=0.0):
        out["gauge"] = m.gauge.matrix.tolist()
    return out


def map_from_json(
    obj: Any,
    surface: SurfaceModel | None = None,
    graph: WeightedGraph | None = None,
    path: str = "map",
) -> MarkedMap:
    """Rebuild a map; surface/graph may be embedded in the document or passed
    in (explicit arguments win)."""
    obj = _as_object(obj, path)
    if surface is None:
        if obj.get("surface") is None:
            raise SchemaError(f"{path}.surface", "no surface embedded and none provided")
        surface = surface_from_json(obj["surface"], f"{path}.surface")
    if graph is None:
        if obj.get("graph") is None:
            raise SchemaError(f"{path}.graph", "no graph embedded and none provided")
        graph = graph_from_json(obj["graph"], f"{path}.graph")
    # schema checks per row; the geometric checks run on the whole array in MarkedMap
    lifts = np.array([
        _as_triple(p, f"{path}.vertex_lifts[{i}]")
        for i, p in enumerate(_as_list(_need(obj, "vertex_lifts", path), f"{path}.vertex_lifts"))
    ])
    words = tuple(
        _as_word(w, f"{path}.edge_decks[{i}]")
        for i, w in enumerate(_as_list(_need(obj, "edge_decks", path), f"{path}.edge_decks"))
    )
    gauge = Isometry.identity()
    if obj.get("gauge") is not None:
        gauge = Isometry(_as_matrix(obj["gauge"], f"{path}.gauge"))
    return MarkedMap.from_unoriented_words(surface, graph, lifts, words, gauge)
