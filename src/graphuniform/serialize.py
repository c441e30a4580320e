"""JSON schemas and deterministic serialization.

Artifacts and traces are written by the standard library's JSON encoder:
floats by repr, the shortest text that reads back as the same double, and
keys in insertion order, so identical run manifests give identical files.
In an artifact each key of an object goes on its own line; every other
value, arrays of rows and of records included, goes on one line.  A nan or
an infinity raises ValueError.  Parsers check each array whole (lengths,
types, finiteness) and read it value by value only to locate an offender,
raising SchemaError with the path of the offending field.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import operator
import os
import stat
import sys
import time
from typing import Any

import numpy as np

from . import __version__
from .errors import GeometryError, SchemaError
from .graphs import WeightedGraph
from .hyperboloid import Isometry
from .maps import MarkedMap
from .solver import SolveTrace
from .surfaces import SurfaceModel


# --------------------------------------------------------------------------
# writer


_encode = json.JSONEncoder(allow_nan=False).encode


def dumps(obj: Any) -> str:
    """JSON text of obj: each key of an object on its own line, indented two
    spaces a level, in insertion order; every other value on one line, as
    the standard library's encoder writes it."""
    if not isinstance(obj, dict) or not obj:
        return _encode(obj)
    items = ",\n".join(f"{_encode(str(k))}: {dumps(v)}" for k, v in obj.items())
    return "{\n  " + items.replace("\n", "\n  ") + "\n}"


def trace_jsonl(trace: SolveTrace) -> str:
    """One JSON object a line per iterate: iteration, energy, residual, and
    from iterate 1 on the kind of step that reached it."""
    steps = [{}] + [{"step": step} for step in trace.steps]
    return "".join(_encode({"iteration": i, "energy": e, "residual": r, **step}) + "\n"
                   for i, (e, r, step) in enumerate(zip(trace.energies, trace.residuals, steps)))


def write_text(path: str, text: str) -> None:
    """UTF-8 text over the file at path, cut to length: truncating first makes ext4's close() flush."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def write_artifact(path: str, payload: dict) -> None:
    write_text(path, dumps(payload) + "\n")


def read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(path, f"not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}")
    except UnicodeDecodeError as exc:
        raise SchemaError(path, f"not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    except ValueError:  # int() refuses a literal of more than sys.get_int_max_str_digits() digits
        raise SchemaError(
            path, f"holds an integer of more than {sys.get_int_max_str_digits()} digits") from None


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


_FLOAT_MAX = sys.float_info.max  # a larger integer raises OverflowError in float()
_EDGE_FIELDS = operator.itemgetter("from", "to", "weight")


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
    try:
        value = float(x)
    except OverflowError:
        raise SchemaError(path, "expected a finite number, got an integer too large for a float") from None
    if not math.isfinite(value):
        raise SchemaError(path, f"expected a finite number, got {x!r}")
    return value


def _as_list(x: Any, path: str, length: int | None = None) -> list:
    if not isinstance(x, list):
        raise SchemaError(path, f"expected an array, got {type(x).__name__}")
    if length is not None and len(x) != length:
        raise SchemaError(path, f"expected {length} entries, got {len(x)}")
    return x


def _as_array(x: Any, path: str, shape: tuple) -> np.ndarray | float:
    """Float array of the shape (None: any length), checked whole: row lengths,
    then one type check that bools, strings and None fail, then one
    finiteness check.  Only when one fails (or the array is empty, or holds
    number types other than int and float) are the rows read one by one, so
    the first offender in reading order raises its SchemaError."""
    if not shape:
        return _as_float(x, path)
    rows = flat = _as_list(x, path, shape[0])
    for n in shape[1:]:
        if not (set(map(type, flat)) <= {list} and set(map(len, flat)) <= {n}):
            break
        flat = list(itertools.chain.from_iterable(flat))
    else:
        if flat and set(map(type, flat)) <= {int, float}:
            with contextlib.suppress(OverflowError):  # an integer too large for a float
                out = np.array(flat, dtype=float)
                if np.isfinite(out).all():
                    return out.reshape(-1, *shape[1:])
    return np.array([_as_array(v, f"{path}[{i}]", shape[1:]) for i, v in enumerate(rows)])


def _as_words(x: Any, path: str, length: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Integer tuples (of `length` entries each, if given), checked whole; the
    offender is looked for entry by entry only when the check fails."""
    words = _as_list(x, path)
    if (set(map(type, words)) <= {list} and (length is None or set(map(len, words)) <= {length})
            and set(map(type, itertools.chain.from_iterable(words))) <= {int}):
        return tuple(map(tuple, words))
    return tuple(tuple(_as_int(v, f"{path}[{i}][{j}]") for j, v in enumerate(_as_list(w, f"{path}[{i}]", length)))
                 for i, w in enumerate(words))


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
    columns = None
    if set(map(type, raw_edges)) <= {dict}:
        with contextlib.suppress(KeyError):  # an edge without from, to or weight
            columns = list(zip(*map(_EDGE_FIELDS, raw_edges))) or [()] * 3
    if columns:
        us, vs, weights = columns
        classes = [e.get("class", "edge") for e in raw_edges]
        ends = us + vs
        if (set(map(type, ends)) <= {int} and set(map(type, weights)) <= {int, float}
                and set(map(type, classes)) <= {str} and (not ends or 0 <= min(ends) and max(ends) < n)
                and all(0.0 < w <= _FLOAT_MAX for w in weights)):
            return WeightedGraph.from_edges(n, list(zip(us, vs, weights, classes)))
    edges = []  # a check failed: find the first offending edge
    for i, entry in enumerate(raw_edges):
        here = f"{path}.edges[{i}]"
        u = _as_int(_need(entry, "from", here), f"{here}.from")
        v = _as_int(_need(entry, "to", here), f"{here}.to")
        w = _as_float(_need(entry, "weight", here), f"{here}.weight")
        if not w > 0:
            raise SchemaError(f"{here}.weight", f"weight must be positive, got {w!r}")
        cls = entry.get("class", "edge")
        if not isinstance(cls, str):
            raise SchemaError(f"{here}.class", f"expected a string, got {cls!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise SchemaError(here, f"edge endpoints ({u},{v}) outside 0..{n - 1}")
        edges.append((u, v, w, cls))
    return WeightedGraph.from_edges(n, edges)


# --------------------------------------------------------------------------
# surface schema


def surface_to_json(s: SurfaceModel) -> dict:
    out: dict[str, Any] = {
        "genus": s.genus,
        "generators": s.matrices.tolist(),
    }
    if s.polygon is not None:
        out["polygon"] = s.polygon.tolist()
    if s.side_pairs is not None:
        out["side_pairs"] = [list(sp) for sp in s.side_pairs]
    if s.relator_words is not None:
        out["relator_words"] = [list(w) for w in s.relator_words]
    return out


def surface_from_json(obj: Any, path: str = "surface") -> SurfaceModel:
    genus = _as_int(_need(obj, "genus", path), f"{path}.genus")
    gens = _as_array(_need(obj, "generators", path), f"{path}.generators", (None, 3, 3)).reshape(-1, 3, 3)
    polygon = side_pairs = relators = None
    if obj.get("polygon") is not None:
        polygon = _as_array(obj["polygon"], f"{path}.polygon", (None, 3))
    if obj.get("side_pairs") is not None:
        side_pairs = _as_words(obj["side_pairs"], f"{path}.side_pairs", 3)
    if obj.get("relator_words") is not None:
        relators = _as_words(obj["relator_words"], f"{path}.relator_words")
    try:
        return SurfaceModel(genus, gens, polygon, side_pairs, relators)
    except GeometryError:
        for m in gens:
            Isometry(m)  # a bad generator's error, worded as for one matrix
        raise


# --------------------------------------------------------------------------
# map schema


def map_to_json(m: MarkedMap) -> dict:
    """The map with its surface and graph embedded."""
    return {
        "surface": surface_to_json(m.surface),
        "graph": graph_to_json(m.graph),
        "vertex_lifts": m.lifts.tolist(),
        "edge_decks": [list(m.deck_words[e]) for (e, *_rest) in m.graph.unoriented_edges()],
    }


def map_from_json(obj: Any, surface: SurfaceModel | None = None, graph: WeightedGraph | None = None) -> MarkedMap:
    """Rebuild a map; surface/graph may be embedded in the document or passed
    in (explicit arguments win).  An optional "gauge" isometry, which no
    document of this version carries, is the frame of the lifts: the map is
    read on the surface conjugated by it (`SurfaceModel.conjugated`)."""
    path = "map"
    obj = _as_object(obj, path)
    if surface is None:
        if obj.get("surface") is None:
            raise SchemaError(f"{path}.surface", "no surface embedded and none provided")
        surface = surface_from_json(obj["surface"], f"{path}.surface")
    if graph is None:
        if obj.get("graph") is None:
            raise SchemaError(f"{path}.graph", "no graph embedded and none provided")
        graph = graph_from_json(obj["graph"], f"{path}.graph")
    # schema checks on the whole array; the geometric checks run in MarkedMap
    lifts = _as_array(_need(obj, "vertex_lifts", path), f"{path}.vertex_lifts", (None, 3))
    words = _as_words(_need(obj, "edge_decks", path), f"{path}.edge_decks")
    if obj.get("gauge") is not None:
        surface = surface.conjugated(Isometry(_as_array(obj["gauge"], f"{path}.gauge", (3, 3))).matrix)
    return MarkedMap.from_unoriented_words(surface, graph, lifts, words)
