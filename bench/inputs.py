"""Input generation for the benchmark: subdivided maps and seeded starts.

A k-fold subdivision splits every edge of a marked map into k pieces of
weight k*w.  The deck word rides on the last piece and the new vertices sit
evenly spaced along the lifted geodesic, so the subdivision of a harmonic
map is harmonic with the same energy.  Maps are written as plain JSON that
`graphuniform solve --map` reads; floats go through `repr`, which
round-trips doubles exactly.
"""

from __future__ import annotations

import json
import math

import numpy as np

from oracle import mdot, word_matrix


def _geodesic_points(p: np.ndarray, q: np.ndarray, k: int) -> list[np.ndarray]:
    """The k-1 points dividing the geodesic p -> q into k equal pieces."""
    d = math.acosh(max(1.0, -float(mdot(p, q))))
    return [(math.sinh((1.0 - j / k) * d) * p + math.sinh(j / k * d) * q) / math.sinh(d)
            for j in range(1, k)]


def subdivide(doc: dict, k: int) -> dict:
    """k-fold subdivision of a map document (see module docstring).

    New vertices are numbered after the old ones, edge by edge.
    """
    if k == 1:
        return doc
    gens = [np.array(g) for g in doc["surface"]["generators"]]
    lifts = [np.array(p) for p in doc["vertex_lifts"]]
    n = len(lifts)
    edges, words = [], []
    for edge, word in zip(doc["graph"]["edges"], doc["edge_decks"]):
        u, v = edge["from"], edge["to"]
        far = word_matrix(gens, word) @ lifts[v]
        chain = [u]
        for point in _geodesic_points(lifts[u], far, k):
            lifts.append(point)
            chain.append(n)
            n += 1
        chain.append(v)
        for a, b in zip(chain, chain[1:]):
            edges.append({"from": a, "to": b, "weight": k * edge["weight"], "class": edge["class"]})
            words.append(list(word) if b == v else [])
    return {
        "surface": doc["surface"],
        "graph": {"vertices": n, "edges": edges},
        "vertex_lifts": [p.tolist() for p in lifts],
        "edge_decks": words,
    }


def perturb(doc: dict, radius: float, rng: np.random.Generator) -> dict:
    """Move every vertex lift by exactly `radius` along a random direction."""
    x = np.array(doc["vertex_lifts"])
    w = np.zeros_like(x)
    w[:, 1:] = rng.standard_normal((len(x), 2))
    w += mdot(w, x)[:, None] * x  # onto the tangent plane at x
    w /= np.sqrt(mdot(w, w))[:, None]
    moved = math.cosh(radius) * x + math.sinh(radius) * w
    moved /= np.sqrt(-mdot(moved, moved))[:, None]
    return dict(doc, vertex_lifts=moved.tolist())


def write_map(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
