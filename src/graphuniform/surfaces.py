"""Closed hyperbolic surfaces as numeric side-pairing generators.

A surface is a fundamental polygon in the hyperboloid model together with
orientation-preserving isometries pairing its sides; vertex cycles, relator
words, Gauss-Bonnet area and the pairing conditions are all checkable
numerically.  Constructors cover the regular 4g-gon, the genus-2 surface
tiled by four right-angled hexagons, and the Klein 14-gon.

Generator matrices are built in extended precision (longdouble) and rounded
to float64 once, after conjugating the development to be centered at a
polygon corner; this keeps relator products near the identity instead of
letting round-off get amplified by the matrix norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, GeometryError
from .graphs import WeightedGraph, bouquet, cycle_with_doubled_edges
from .hyperboloid import (
    HPoint,
    Isometry,
    J_MATRIX,
    angle_between,
    log_map,
    polygon_area,
)

_LD = np.longdouble
_PI_LD = _LD("3.14159265358979323846264338327950288")


# --------------------------------------------------------------------------
# extended-precision mini-kernel (plain arrays; rounded to float64 at the end)


def _ld_mdot(u, w):
    return -u[0] * w[0] + u[1] * w[1] + u[2] * w[2]


def _ld_cross(u, w):
    # by components: np.cross costs over ten times as much on length-3 arrays
    return np.array([
        u[2] * w[1] - u[1] * w[2],
        u[2] * w[0] - u[0] * w[2],
        u[0] * w[1] - u[1] * w[0],
    ], dtype=_LD)


def _ld_unit_point(v):
    return v / np.sqrt(-_ld_mdot(v, v))


def _ld_unit_space(v):
    return v / np.sqrt(_ld_mdot(v, v))


def _ld_reflection(pole):
    j = np.diag(np.array([-1, 1, 1], dtype=_LD))
    return np.eye(3, dtype=_LD) - 2.0 * np.outer(pole, pole) @ j


def _ld_pole_through(p, q):
    return _ld_unit_space(_ld_cross(p, q))


def _ld_to_origin(c):
    """Isometry taking c to (1,0,0): inverse of the canonical frame at c."""
    j = np.diag(np.array([-1, 1, 1], dtype=_LD))
    a = np.array([_LD(0), _LD(1), _LD(0)])
    e1 = _ld_unit_space(a + _ld_mdot(a, c) * c)
    e2 = _ld_unit_space(_ld_cross(c, e1))
    f = np.column_stack([c, e1, e2])
    return j @ f.T @ j


def _ld_right_angled_walk(lengths):
    """Corners of the left-turning right-angled polygon traced from the origin."""
    p = np.array([_LD(1), _LD(0), _LD(0)])
    u = np.array([_LD(0), _LD(1), _LD(0)])
    corners = [p]
    for L in lengths:
        q = _ld_unit_point(np.cosh(L) * p + np.sinh(L) * u)
        d = _ld_unit_space(np.sinh(L) * p + np.cosh(L) * u)
        u = _ld_unit_space(_ld_cross(q, d))  # left turn by pi/2
        p = q
        corners.append(p)
    closure = float(np.max(np.abs(np.asarray(corners[-1] - corners[0], dtype=float))))
    scale = max(float(c[0]) for c in corners)
    if closure > 1e-4 * scale:
        raise GeometryError(f"polygon walk failed to close (defect {closure:.3e})")
    return corners[:-1]


def _ld_hexagon(s: float) -> list[np.ndarray]:
    """Long-double corners of the right-angled hexagon with sides t(s), s, ..."""
    if not s > 0.0:
        raise DomainError(f"hexagon seam length must be positive, got {s!r}")
    s_ld = _LD(s)
    t_ld = 2 * np.arcsinh(0.5 / np.sinh(s_ld / 2))
    return _ld_right_angled_walk([t_ld, s_ld] * 3)


# --------------------------------------------------------------------------
# surface values


@dataclass(frozen=True, eq=False)
class SurfaceModel:
    """Fuchsian generator data; polygon/side/relator fields optional."""

    genus: int
    generators: tuple[Isometry, ...]
    polygon: tuple[HPoint, ...] | None = None
    side_pairs: tuple[tuple[int, int, int], ...] | None = None
    relator_words: tuple[tuple[int, ...], ...] | None = None

    def generator_matrix(self, signed_index: int) -> np.ndarray:
        """Matrix of generator k (1-based); negative index means the inverse."""
        if signed_index == 0 or abs(signed_index) > len(self.generators):
            raise DomainError(f"no generator with signed index {signed_index}")
        m = self.generators[abs(signed_index) - 1].matrix
        return m if signed_index > 0 else J_MATRIX @ m.T @ J_MATRIX

    def word_matrix(self, word: tuple[int, ...]) -> np.ndarray:
        out = np.eye(3)
        for w in word:
            out = out @ self.generator_matrix(w)
        return out


@dataclass(frozen=True)
class VertexCycle:
    corners: tuple[int, ...]
    relator_word: tuple[int, ...]


def vertex_cycles(side_count: int, side_pairs: tuple[tuple[int, int, int], ...]) -> list[VertexCycle]:
    """Orbits of polygon corners under the side pairing, with relator words.

    Side k runs from corner k to corner k+1; the pairing entry (a, b, g)
    declares that generator g carries side a onto side b with reversed
    orientation (corner a -> corner b+1).  Walking corner k across its
    clockwise side yields the cycle and the word whose product must fix the
    polygon.
    """
    pairing: dict[int, tuple[int, int]] = {}
    for a, b, g in side_pairs:
        if a in pairing or b in pairing:
            raise DomainError(f"side pairing reuses a side: ({a},{b},{g})")
        pairing[a] = (b, g)
        pairing[b] = (a, -g)
    if len(pairing) != side_count:
        raise DomainError("side pairing does not cover every side exactly once")

    seen = [False] * side_count
    cycles = []
    for start in range(side_count):
        if seen[start]:
            continue
        k, corners, word = start, [], []
        while True:
            seen[k] = True
            corners.append(k)
            partner, gid = pairing[(k - 1) % side_count]
            word.append(-gid)
            k = partner
            if k == start:
                break
        cycles.append(VertexCycle(tuple(corners), tuple(word)))
    return cycles


@dataclass(frozen=True)
class SurfaceReport:
    issues: tuple[tuple[str, str], ...]
    relator_defects: tuple[float, ...]
    angle_sums: tuple[float, ...]
    area: float | None
    area_expected: float | None

    @property
    def ok(self) -> bool:
        return not self.issues


def validate_surface(
    surface: SurfaceModel,
    relator_tol: float = 1e-8,
    angle_tol: float = 1e-8,
    area_tol: float = 1e-7,
    pairing_tol: float = 1e-8,
) -> SurfaceReport:
    """Numeric checks: relators compose to identity, side pairings carry
    corners onto corners, vertex-cycle angle sums are 2*pi, and the polygon
    area matches Gauss-Bonnet for the genus.

    Reported relator defects are absolute, but the pass/fail gate scales
    relator_tol by the squared norm of the largest partial product: a float64
    product of long words cannot beat rounding amplified by those norms, and
    the square is the right power because a generator's inverse has entries
    as large as the generator itself."""
    issues: list[tuple[str, str]] = []

    relator_defects = []
    for i, word in enumerate(surface.relator_words or ()):
        out = np.eye(3)
        biggest = 1.0
        for w in word:
            out = out @ surface.generator_matrix(w)
            biggest = max(biggest, float(np.max(np.abs(out))))
        defect = float(np.max(np.abs(out - np.eye(3))))
        relator_defects.append(defect)
        if defect > relator_tol * (1.0 + biggest) ** 2:
            issues.append(("RELATOR", f"relator {i} has identity defect {defect:.3e}"))

    angle_sums: list[float] = []
    area = area_expected = None
    if surface.polygon is not None and surface.side_pairs is not None:
        corners = [p.coords for p in surface.polygon]
        n = len(corners)
        scale = 1.0 + max(float(np.max(np.abs(c))) for c in corners)
        for a, b, g in surface.side_pairs:
            m = surface.generator_matrix(g)
            d1 = float(np.max(np.abs(m @ corners[a] - corners[(b + 1) % n])))
            d2 = float(np.max(np.abs(m @ corners[(a + 1) % n] - corners[b])))
            if max(d1, d2) > pairing_tol * scale:
                issues.append(("PAIRING", f"generator {g} moves side {a} off side {b} by {max(d1, d2):.3e}"))
        for cyc in vertex_cycles(n, surface.side_pairs):
            total = 0.0
            for k in cyc.corners:
                here = surface.polygon[k]
                total += angle_between(
                    log_map(here, surface.polygon[(k - 1) % n]),
                    log_map(here, surface.polygon[(k + 1) % n]),
                )
            angle_sums.append(total)
            if abs(total - 2.0 * math.pi) > angle_tol:
                issues.append(("ANGLE_CYCLE", f"cycle at corner {cyc.corners[0]} has angle sum {total!r}"))
        area = polygon_area(list(surface.polygon))
        area_expected = 2.0 * math.pi * (2 * surface.genus - 2)
        if abs(area - area_expected) > area_tol:
            issues.append(("AREA", f"polygon area {area!r}, Gauss-Bonnet expects {area_expected!r}"))

    return SurfaceReport(tuple(issues), tuple(relator_defects), tuple(angle_sums), area, area_expected)


# --------------------------------------------------------------------------
# constructors


def build_regular_4g_surface(g: int) -> SurfaceModel:
    """Regular 4g-gon with interior angle pi/(2g), opposite sides identified.

    Generator k+1 is the hyperbolic translation through the midpoints of
    sides k and k+2g (length twice the inradius), carrying side k+2g onto
    side k.
    """
    if g < 2:
        raise DomainError(f"regular 4g-gon surface needs genus >= 2, got {g}")
    n = 4 * g
    half = _PI_LD / (4 * g)  # half the interior angle
    central = _PI_LD / n
    inr = np.arccosh(np.cos(half) / np.sin(central))
    circum = np.arccosh(1.0 / (np.tan(half) * np.tan(central)))

    corners = tuple(
        HPoint(np.asarray(np.array(
            [np.cosh(circum),
             np.sinh(circum) * np.cos(2 * _PI_LD * k / n),
             np.sinh(circum) * np.sin(2 * _PI_LD * k / n)], dtype=_LD), dtype=float))
        for k in range(n)
    )
    trans = np.eye(3, dtype=_LD)
    trans[0, 0] = trans[1, 1] = np.cosh(2 * inr)
    trans[0, 1] = trans[1, 0] = np.sinh(2 * inr)
    gens = []
    for k in range(2 * g):
        phi = 2 * _PI_LD * (k + _LD("0.5")) / n
        rot = np.eye(3, dtype=_LD)
        rot[1, 1] = rot[2, 2] = np.cos(phi)
        rot[1, 2], rot[2, 1] = -np.sin(phi), np.sin(phi)
        gens.append(Isometry(np.asarray(rot @ trans @ rot.T, dtype=float)))
    side_pairs = tuple((k + 2 * g, k, k + 1) for k in range(2 * g))
    relators = tuple(c.relator_word for c in vertex_cycles(n, side_pairs))
    return SurfaceModel(g, tuple(gens), corners, side_pairs, relators)


def build_klein_quartic() -> SurfaceModel:
    """Genus-3 surface from the regular 14-gon with interior angle 2*pi/7.

    Sides are paired by the rule side 2k -> side 2k+5 (mod 14); each pairing
    isometry is the product of the reflection across side 2k and the
    reflection across the diameter bisecting the skip.
    """
    n = 14
    half = _PI_LD / 7  # half the interior angle
    central = _PI_LD / n
    circum = np.arccosh(1.0 / (np.tan(half) * np.tan(central)))
    kw = []
    for k in range(n):
        th = 2 * _PI_LD * k / n
        kw.append(np.array([np.cosh(circum), np.sinh(circum) * np.cos(th), np.sinh(circum) * np.sin(th)], dtype=_LD))

    gens = []
    for k in range(7):
        a = 2 * k
        phi = _PI_LD * (2 * k + 3) / 7
        axis_pole = np.array([_LD(0), -np.sin(phi), np.cos(phi)], dtype=_LD)
        m = _ld_reflection(axis_pole) @ _ld_reflection(_ld_pole_through(kw[a], kw[(a + 1) % n]))
        gens.append(Isometry(np.asarray(m, dtype=float)))

    corners = tuple(HPoint(np.asarray(c, dtype=float)) for c in kw)
    side_pairs = tuple((2 * k, (2 * k + 5) % n, k + 1) for k in range(7))
    relators = tuple(c.relator_word for c in vertex_cycles(n, side_pairs))
    return SurfaceModel(3, tuple(gens), corners, side_pairs, relators)


# Genus-2 hexagon tiling: four right-angled hexagons with sides alternating
# t (class c) and s (class d) tile the surface.  The fundamental 16-gon is
# the union of the base hexagon A with its reflected neighbors B, C across
# sides 1, 0 and the double reflection D; the corner V1 shared by all four
# hexagons becomes an interior point and the development is centered there.
#
# Sides of the 16-gon in counterclockwise order, named by tile and the index
# of the hexagon side they came from:
#   A2 A3 A4 A5 C5 C4 C3 C2 D2 D3 D4 D5 B5 B4 B3 B2
# and the eight pairing words in the hexagon-side reflections r0..r5:
#   g1 = r0 r2        (A2 -> C2)      g5 = r1 r0 r2 r1  (B2 -> D2)
#   g2 = r1 r3        (A3 -> B3)      g6 = r1 r0 r4 r1  (B4 -> D4)
#   g3 = r0 r4        (A4 -> C4)      g7 = r1 r0 r3 r0  (C3 -> D3)
#   g4 = r1 r5        (A5 -> B5)      g8 = r1 r0 r5 r0  (C5 -> D5)
_GENUS2_SIDE_PAIRS = (
    (0, 7, 1), (1, 14, 2), (2, 5, 3), (3, 12, 4),
    (15, 8, 5), (13, 10, 6), (6, 9, 7), (4, 11, 8),
)

# Deck words (in g1..g8) for the twelve graph edges i -> i+1 of the doubled
# 6-cycle: the primary copy of each edge stays inside the base hexagon, the
# secondary copy crosses into the neighboring hexagons via r_{i-1} r_{i+1}.
_GENUS2_PRIMARY_WORDS = ((), (), (), (), (), ())
_GENUS2_SECONDARY_WORDS = ((-4,), (1,), (2,), (-1, 3), (-2, 4), (-3,))


def genus2_deck_words() -> tuple[tuple[int, ...], ...]:
    """Per-unoriented-edge deck words matching cycle_with_doubled_edges(6)."""
    return _GENUS2_PRIMARY_WORDS + _GENUS2_SECONDARY_WORDS


def build_genus2_hexagon_surface(
    s: float, weights: tuple[float, float] = (1.0, 1.0)
) -> tuple[SurfaceModel, WeightedGraph, "object"]:
    """Genus-2 surface tiled by four right-angled hexagons with seam length s.

    Returns the surface, the doubled-6-cycle graph carrying class weights
    (m_c, m_d), and the reference map sending graph vertices to the hexagon
    corners (the tiling 1-skeleton, which is balanced by symmetry).
    """
    v = _ld_hexagon(s)
    refl = [_ld_reflection(_ld_pole_through(v[i], v[(i + 1) % 6])) for i in range(6)]

    u = _ld_to_origin(v[1])
    u_inv = np.diag(np.array([-1, 1, 1], dtype=_LD)) @ u.T @ np.diag(np.array([-1, 1, 1], dtype=_LD))
    raw = [
        refl[0] @ refl[2], refl[1] @ refl[3], refl[0] @ refl[4], refl[1] @ refl[5],
        refl[1] @ refl[0] @ refl[2] @ refl[1], refl[1] @ refl[0] @ refl[4] @ refl[1],
        refl[1] @ refl[0] @ refl[3] @ refl[0], refl[1] @ refl[0] @ refl[5] @ refl[0],
    ]
    gens = tuple(Isometry(np.asarray(u @ g @ u_inv, dtype=float)) for g in raw)

    mirror_b, mirror_c = refl[1], refl[0]
    mirror_d = refl[1] @ refl[0]
    ident = np.eye(3, dtype=_LD)

    def corner(mirror, k):
        return HPoint(np.asarray(u @ (mirror @ v[k]), dtype=float))

    polygon = tuple(
        [corner(ident, k) for k in (2, 3, 4, 5, 0)]
        + [corner(mirror_c, k) for k in (5, 4, 3, 2)]
        + [corner(mirror_d, k) for k in (3, 4, 5, 0)]
        + [corner(mirror_b, k) for k in (5, 4, 3)]
    )
    relators = tuple(c.relator_word for c in vertex_cycles(16, _GENUS2_SIDE_PAIRS))
    surface = SurfaceModel(2, gens, polygon, _GENUS2_SIDE_PAIRS, relators)

    graph = cycle_with_doubled_edges(6, *weights)
    lifts = tuple(HPoint(np.asarray(u @ v[k], dtype=float)) for k in range(6))

    from .maps import MarkedMap  # deferred: maps depends on this module

    reference = MarkedMap.from_unoriented_words(surface, graph, lifts, genus2_deck_words())
    return surface, graph, reference


def hexagon_corners(s: float) -> list[HPoint]:
    """Corners of the right-angled hexagon with sides alternating t(s), s."""
    return [HPoint(np.asarray(c, dtype=float)) for c in _ld_hexagon(s)]


# --------------------------------------------------------------------------
# parametric families


@dataclass(frozen=True)
class MetricFamily:
    """One combinatorial gluing scheme swept over a metric parameter.

    `domain` is an open interval for one-parameter families and None for
    singletons (evaluate with theta=None).  `build` returns the surface, the
    weighted graph, and the family's reference map; the deck words of that
    map are the same at every parameter, which is what makes energies at
    different parameters comparable.
    """

    family_id: str
    domain: tuple[float, float] | None
    _builder: Callable = field(repr=False)

    def build(self, theta: float | None = None):
        if self.domain is None:
            if theta is not None:
                raise DomainError(f"family {self.family_id!r} has no metric parameter")
            return self._builder()
        if theta is None:
            raise DomainError(f"family {self.family_id!r} needs a parameter in {self.domain}")
        lo, hi = self.domain
        if not lo < theta < hi:
            raise DomainError(f"parameter {theta!r} outside family domain ({lo}, {hi})")
        return self._builder(theta)


def _center_bouquet(genus: int, weight: float):
    surface = build_regular_4g_surface(genus)
    graph = bouquet(2 * genus, weight)
    from .maps import MarkedMap

    lifts = tuple(HPoint.origin() for _ in range(1))
    words = tuple((k + 1,) for k in range(2 * genus))
    return surface, graph, MarkedMap.from_unoriented_words(surface, graph, lifts, words)


def family(kind: str, **fixed) -> MetricFamily:
    """Families: 'hexagon-genus2' (parameter = seam length s) and the
    singleton 'regular-4g'."""
    if kind == "hexagon-genus2":
        weights = fixed.pop("weights", (1.0, 1.0))
        if fixed:
            raise DomainError(f"unknown hexagon-genus2 options {sorted(fixed)}")
        # seams the float64 build serves: outside about (0.23, 9.5) it either
        # fails or returns generators whose relators no longer close
        return MetricFamily(kind, (0.25, 9.0), lambda s: build_genus2_hexagon_surface(s, weights))
    if kind == "regular-4g":
        genus = fixed.pop("genus", 2)
        weight = fixed.pop("weight", 1.0)
        if fixed:
            raise DomainError(f"unknown regular-4g options {sorted(fixed)}")
        if genus < 2:
            raise DomainError(f"regular-4g family needs genus >= 2, got {genus}")
        return MetricFamily(kind, None, lambda: _center_bouquet(genus, weight))
    raise DomainError(f"unknown family kind {kind!r}")
