"""Oracles for the benchmark, computed apart from the program.

Nothing here imports graphuniform.  The closed forms come from right-angled
hexagon trigonometry, the minimiser from a bisection of our own, and the
energy and balanced residual of a solved map are recomputed from the raw
numbers of its artifact (generator matrices, deck words, vertex lifts) in
long-double Minkowski arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

LD = np.longdouble
_J = np.diag(np.array([-1.0, 1.0, 1.0], dtype=LD))


def partner_length(s: float) -> float:
    """t(s) of the right-angled hexagon whose sides alternate s, t.

    Hexagon cosine rule with three sides s opposite three sides t:
    cosh t = (cosh^2 s + cosh s) / sinh^2 s = cosh s / (cosh s - 1).
    """
    if not s > 0.0:
        raise ValueError(f"seam length must be positive, got {s!r}")
    c = math.cosh(s)
    return math.acosh(c / (2.0 * math.sinh(0.5 * s) ** 2))  # cosh s - 1 = 2 sinh^2(s/2)


def hexagon_energy(s: float, m_c: float, m_d: float) -> float:
    """Energy of the harmonic genus-2 map at seam s: six d-edges of length s
    and six c-edges of length t(s)."""
    t = partner_length(s)
    return 6.0 * (m_d * s * s + m_c * t * t)


def minimiser(ratio: float) -> float:
    """Seam s* minimising hexagon_energy for m_c/m_d = ratio.

    Stationarity of m_d s^2 + m_c t^2 under sinh(s/2) sinh(t/2) = 1/2 reads
    s tanh(s/2) / (t tanh(t/2)) = m_c/m_d; the left side increases in s.
    """
    if not ratio > 0.0:
        raise ValueError(f"weight ratio must be positive, got {ratio!r}")

    def lhs(s: float) -> float:
        t = partner_length(s)
        return s * math.tanh(0.5 * s) / (t * math.tanh(0.5 * t))

    lo, hi = 1e-3, 20.0
    if not lhs(lo) < ratio < lhs(hi):
        raise ValueError(f"ratio {ratio!r} outside the bisection bracket")
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if lhs(mid) < ratio:
            lo = mid
        else:
            hi = mid


def mdot(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Minkowski product -u0 w0 + u1 w1 + u2 w2 over the last axis."""
    return -u[..., 0] * w[..., 0] + u[..., 1] * w[..., 1] + u[..., 2] * w[..., 2]


def word_matrix(gens: list[np.ndarray], word: list[int]) -> np.ndarray:
    """Product of generator matrices along a deck word (1-based; a negative
    index is the inverse J g^T J), in the generators' dtype."""
    j = np.diag(np.array([-1.0, 1.0, 1.0], dtype=gens[0].dtype))
    out = np.eye(3, dtype=gens[0].dtype)
    for k in word:
        g = gens[abs(k) - 1]
        out = out @ (g if k > 0 else j @ g.T @ j)
    return out


def recompute(doc: dict) -> tuple[float, float]:
    """(energy, max balanced-residual norm) of a map document.

    `doc` holds "surface.generators", "graph.edges" (from, to, weight),
    "vertex_lifts" and one deck word per edge in "edge_decks".  Edge u->v with
    word W runs from x_u to W x_v; its reverse runs from x_v to W^-1 x_u.
    """
    gens = [np.array(g, dtype=LD) for g in doc["surface"]["generators"]]
    x = np.array(doc["vertex_lifts"], dtype=LD)
    edges = doc["graph"]["edges"]
    origin = np.array([e["from"] for e in edges])
    target = np.array([e["to"] for e in edges])
    weight = np.array([e["weight"] for e in edges], dtype=LD)
    decks = np.array([word_matrix(gens, w) for w in doc["edge_decks"]])
    inverses = np.einsum("ij,ekj,kl->eil", _J, decks, _J)

    p = x[origin]
    q = np.einsum("eij,ej->ei", decks, x[target])
    residual = np.zeros_like(x)
    for base, far, at in ((p, q, origin), (x[target], np.einsum("eij,ej->ei", inverses, p), target)):
        cosh_d = np.maximum(-mdot(base, far), LD(1))
        d = np.arccosh(cosh_d)
        tangent = (d / np.sinh(d))[:, None] * (far - cosh_d[:, None] * base)  # log_base(far)
        np.add.at(residual, at, weight[:, None] * tangent)
    lengths = np.arccosh(np.maximum(-mdot(p, q), LD(1)))
    energy = float(np.sum(weight * lengths * lengths))
    norms = np.sqrt(np.maximum(mdot(residual, residual), LD(0)))
    return energy, float(np.max(norms))
