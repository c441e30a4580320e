"""Closed hyperbolic surfaces as numeric side-pairing generators.

A surface is a fundamental polygon in the hyperboloid model together with
orientation-preserving isometries pairing its sides; vertex cycles, relator
words, Gauss-Bonnet area and the pairing conditions are all checkable
numerically.  Generators are one validated (n, 3, 3) array (`Isometry`
values only at the API edges), corners one (n, 3) array in counterclockwise
order.  Constructors cover the regular 4g-gon, the genus-2 surface tiled by
four right-angled hexagons, and the Klein 14-gon.

Generator matrices are built in extended precision (longdouble) from
reflections in polygon sides, the hexagon family's in a development centered
at a polygon corner; this keeps relator products near the identity instead
of letting round-off get amplified by the matrix norms.  The regular 4g-gons
and the Klein 14-gon share one rule (`_ld_regular_surface`): each pairing is
the reflection in its first side followed by the reflection in the diameter
halfway between the two sides, all of them one stacked product on the
polygon's corners.  `SurfaceModel` rounds them to float64 once and keeps the
long-double table beside the float64 one (generators given in float64, as
from JSON, are widened), so that `maps.energy` can evaluate on
the generators the solver's were rounded from.  A change of frame by an
isometry g is the conjugated surface (`SurfaceModel.conjugated`), its
generators g m g^-1 multiplied on that table.  The genus-2 hexagon
build is one lean long-double pass: the hexagon's corners and the frame at
one of them on long-double scalars, the six side reflections as one array,
the eight reflection words one letter position at a time and the 16-gon's
corners as one stacked product.  Every entry takes the arithmetic of an
array-at-a-time, matrix-at-a-time build in its order, so the bits are the
same.  The `hexagon-genus2` family builds its reference map once and moves
it to every later seam with `MarkedMap.with_surface`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DomainError, GeometryError
from .graphs import WeightedGraph, bouquet, cycle_with_doubled_edges
from .hyperboloid import (
    J_OUTER, Isometry, isometries_arr, minkowski_cross, minkowski_dot, points_arr,
    polygon_interior_angles)

_LD = np.longdouble
_PI_LD = _LD("3.14159265358979323846264338327950288")
_J_LD = np.array([-1, 1, 1], dtype=_LD)
_EYE_LD = np.eye(3, dtype=_LD)
_EYE_ROW = np.eye(3)[None]  # row 0 of a generator table, of either dtype
_NEXT_CORNER = np.array([1, 2, 3, 4, 5, 0])


# --------------------------------------------------------------------------
# extended-precision mini-kernel (plain arrays, points along the last axis;
# the walk and the frame run on scalars, where a numpy call on a 3-vector
# costs more than its arithmetic; rounded to float64 at the end)


def _ld_reflection(pole):
    """Reflection in the geodesic of a unit spacelike pole, or one per row of poles."""
    return _EYE_LD - 2.0 * (pole[..., :, None] * pole[..., None, :] * _J_LD)


def _ld_pole_through(p, q):
    """Unit pole of the geodesic through p and q, or one per row; the float64
    kernel's cross product keeps the dtype, each component one difference of
    two products, rounded as np.cross rounds it."""
    v = minkowski_cross(p, q)
    return v / np.sqrt(minkowski_dot(v, v))[..., None]


def _ld_regular_corners(n: int, half) -> np.ndarray:
    """(n, 3): the corners of the regular n-gon about the origin with
    interior angle 2 * half, corner k at polar angle 2 pi k / n."""
    circum = np.arccosh(1.0 / (np.tan(half) * np.tan(_PI_LD / n)))
    theta = 2 * _PI_LD * np.arange(n) / n
    return np.stack([np.full(n, np.cosh(circum)), np.sinh(circum) * np.cos(theta), np.sinh(circum) * np.sin(theta)],
                    axis=1)


def _ld_frame(c0, c1, c2) -> tuple[np.ndarray, np.ndarray]:
    """The canonical Minkowski frame at the point (c0, c1, c2), the
    isometry taking (1,0,0) there, and its inverse J frame^T J; the columns
    are c, e1 = the x1-axis projected to the tangent plane and normalized,
    and e2 = c x e1 normalized, by the arithmetic of the array formulas."""
    zero, one = _LD(0), _LD(1)
    ac = -zero * c0 + one * c1 + zero * c2  # <(0,1,0), c>
    a0, a1, a2 = zero + ac * c0, one + ac * c1, zero + ac * c2
    n = np.sqrt(-a0 * a0 + a1 * a1 + a2 * a2)
    e10, e11, e12 = a0 / n, a1 / n, a2 / n
    b0, b1, b2 = c2 * e11 - c1 * e12, c2 * e10 - c0 * e12, c0 * e11 - c1 * e10
    n = np.sqrt(-b0 * b0 + b1 * b1 + b2 * b2)
    e20, e21, e22 = b0 / n, b1 / n, b2 / n
    frame = np.array([[c0, e10, e20], [c1, e11, e21], [c2, e12, e22]])
    inverse = np.array([[c0, -c1, -c2], [-e10, e11, e12], [-e20, e21, e22]])
    return frame, inverse


def _ld_right_angled_walk(lengths) -> np.ndarray:
    """Corners (n, 3) of the left-turning right-angled polygon traced from
    the origin.  It runs on long-double scalars, one component at a time,
    with the arithmetic of the array formulas in their order: a step along
    length L to q = unit point of cosh L p + sinh L u, its direction there
    d = unit vector of sinh L p + cosh L u, then a left turn by pi/2 to
    u = unit vector of q x d.  cosh and sinh are taken once per length."""
    trig = {L: (np.cosh(L), np.sinh(L)) for L in set(lengths)}
    p0, p1, p2 = _LD(1), _LD(0), _LD(0)
    u0, u1, u2 = _LD(0), _LD(1), _LD(0)
    corners = [(p0, p1, p2)]
    for L in lengths:
        ch, sh = trig[L]
        a0, a1, a2 = ch * p0 + sh * u0, ch * p1 + sh * u1, ch * p2 + sh * u2
        n = np.sqrt(-(-a0 * a0 + a1 * a1 + a2 * a2))
        q0, q1, q2 = a0 / n, a1 / n, a2 / n
        a0, a1, a2 = sh * p0 + ch * u0, sh * p1 + ch * u1, sh * p2 + ch * u2
        n = np.sqrt(-a0 * a0 + a1 * a1 + a2 * a2)
        d0, d1, d2 = a0 / n, a1 / n, a2 / n
        a0, a1, a2 = q2 * d1 - q1 * d2, q2 * d0 - q0 * d2, q0 * d1 - q1 * d0  # left turn by pi/2
        n = np.sqrt(-a0 * a0 + a1 * a1 + a2 * a2)
        u0, u1, u2 = a0 / n, a1 / n, a2 / n
        p0, p1, p2 = q0, q1, q2
        corners.append((p0, p1, p2))
    closure = max(abs(float(a - b)) for a, b in zip(corners[-1], corners[0]))
    scale = max(float(c[0]) for c in corners)
    if not closure <= 1e-4 * scale:  # NaN fails too
        raise GeometryError(f"polygon walk failed to close (defect {closure:.3e})")
    return np.array(corners[:-1])


# Seams at which the genus-2 build holds: on a 3,000-point geometric grid
# from 0.15 to 9.0 both builders succeed; below about 0.149 and above about
# 9.46 the generators fail Isometry's checks, and far out the walk stops
# closing, divides by zero or overflows.
_HEXAGON_SEAMS = (0.2, 9.0)


def _ld_hexagon(s: float) -> np.ndarray:
    """Long-double corners (6, 3) of the right-angled hexagon with sides t(s), s, ..."""
    if not 0.0 < s < math.inf:
        raise DomainError(f"hexagon seam length must be positive and finite, got {s!r}")
    lo, hi = _HEXAGON_SEAMS
    if not lo <= s <= hi:
        raise DomainError(f"hexagon seam length {s!r} outside [{lo}, {hi}], where the genus-2 build holds")
    s_ld = _LD(s)
    t_ld = 2 * np.arcsinh(0.5 / np.sinh(s_ld / 2))
    return _ld_right_angled_walk([t_ld, s_ld] * 3)


# --------------------------------------------------------------------------
# surface values


def _generator_table(gens: np.ndarray) -> np.ndarray:
    """Read-only table of generators (n, 3, 3), in their dtype: row k is
    generator k and row -k its inverse J m^T J; row 0 is the identity."""
    table = np.concatenate([_EYE_ROW, gens, gens[::-1].transpose(0, 2, 1) * J_OUTER])
    table.flags.writeable = False
    return table


@dataclass(frozen=True, eq=False)
class SurfaceModel:
    """Fuchsian generator data; polygon/side/relator fields optional."""

    genus: int
    # (n, 3, 3), float64, read-only; given as an array, long double or
    # float64, rounded and checked by isometries_arr
    matrices: np.ndarray
    polygon: np.ndarray | None = None  # (n, 3) corners, normalized, read-only
    side_pairs: tuple[tuple[int, int, int], ...] | None = None
    relator_words: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        wide = np.asarray(self.matrices, dtype=_LD)  # float64 generators widen exactly
        stack = isometries_arr(wide)
        if stack.ndim != 3:
            raise GeometryError(f"generators need shape (n, 3, 3), got {stack.shape}")
        # `_table_ld` holds the generators as given, which `_table` rounds
        # (and cleans up where isometries_arr must); `maps.energy` evaluates on it
        object.__setattr__(self, "_table", _generator_table(stack))
        object.__setattr__(self, "_table_ld", _generator_table(wide))
        object.__setattr__(self, "matrices", self._table[1:len(stack) + 1])
        if self.polygon is not None:
            corners = np.asarray(self.polygon, dtype=float)
            if corners.ndim != 2:
                raise GeometryError(f"polygon needs rows of 3 coordinates, got shape {corners.shape}")
            object.__setattr__(self, "polygon", points_arr(corners))

    @cached_property
    def generators(self) -> tuple[Isometry, ...]:
        """The generators as Isometry values, built on first use."""
        return tuple(map(Isometry, self.matrices))

    def generator_matrix(self, signed_index: int) -> np.ndarray:
        """Matrix of generator k (1-based); negative index means the inverse."""
        if signed_index == 0 or abs(signed_index) > len(self.matrices):
            raise DomainError(f"no generator with signed index {signed_index}")
        return self._table[signed_index]

    def word_matrix(self, word: tuple[int, ...]) -> np.ndarray:
        """Product of the word's generator matrices (read-only for the empty word)."""
        out = self._table[0]
        for w in word:
            out = out @ self.generator_matrix(w)
        return out

    def conjugated(self, g: np.ndarray) -> "SurfaceModel":
        """The same gluing seen in the frame moved by the isometry matrix g:
        generators g m g^-1, multiplied in long double on `_table_ld`, and
        the polygon moved by g; side pairs and relators are kept."""
        wide = np.asarray(g, dtype=_LD)
        gens = wide @ self._table_ld[1:len(self.matrices) + 1] @ (wide.T * J_OUTER)  # g^-1 = J g^T J
        polygon = None if self.polygon is None else self.polygon @ g.T
        return SurfaceModel(self.genus, gens, polygon, self.side_pairs, self.relator_words)


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
    relator_gates: tuple[float, ...]  # each relator's pass/fail bound on its defect
    angle_sums: tuple[float, ...]
    area: float | None
    area_expected: float | None
    area_gate: float | None

    @property
    def ok(self) -> bool:
        return not self.issues


def validate_surface(surface: SurfaceModel) -> SurfaceReport:
    """Numeric checks: relators compose to identity, side pairings carry
    corners onto corners, vertex-cycle angle sums are 2*pi, and the polygon
    area matches Gauss-Bonnet for the genus.

    A vertex cycle's angle sum is gated at 1e-8, or at its float64 rounding
    where that is larger: 32 eps per corner of the cycle times (1 + c)^2 for
    the largest corner coordinate c.  Each angle pairs corner vectors of size
    c, so its rounding grows like eps c^2; the regular 4g-gons' cycle sums
    are off by up to 5.4 eps c^2 at genus 2-150 (3.4e-9 at genus 40, 5.4e-8
    at 80), so from genus 53 some need the rounding gate, which passes 1e-8
    first at genus 11; genus 2 and 3 keep 1e-8 itself.
    The area is (n - 2) pi minus the n angles, gated at 1e-7 per 4*pi of
    expected area: with the corner angles in atan2 form no surface built
    here needs a rounding term (the regular 4g-gons are off by up to 3.7%
    of the gate at genus 2-150, 3.1e-7 at genus 150).  A side pairing is
    gated at 1e-8 (1 + c), or at 8 eps (1 + c)^3 where that is larger
    (from genus 39): renormalizing a corner of size c rescales it by
    1 + O(eps c^2), moving it by eps c^3, as read polygons whose corners are
    off the sheet need.  The regular 4g-gons' corners stay as built, and
    their pairings are off by at most 0.3% of 1e-8 (1 + c) at genus 2-150
    (3.4e-8 at genus 70).
    Reported relator defects are absolute, but the pass/fail gate scales
    1e-8 by the squared norm of the largest partial product: a float64
    product of long words cannot beat rounding amplified by those norms, and
    the square is the right power because a generator's inverse has entries
    as large as the generator itself."""
    issues: list[tuple[str, str]] = []

    relator_defects, relator_gates = [], []
    for i, word in enumerate(surface.relator_words or ()):
        out = np.eye(3)
        biggest = 1.0
        for w in word:
            out = out @ surface.generator_matrix(w)
            biggest = max(biggest, float(np.max(np.abs(out))))
        defect = float(np.max(np.abs(out - np.eye(3))))
        relator_defects.append(defect)
        relator_gates.append(1e-8 * (1.0 + biggest) ** 2)
        if defect > relator_gates[-1]:
            issues.append(("RELATOR", f"relator {i} has identity defect {defect:.3e}"))

    angle_sums: list[float] = []
    area = area_expected = area_gate = None
    if surface.polygon is not None and surface.side_pairs is not None:
        corners = surface.polygon
        n = len(corners)
        scale = 1.0 + float(np.max(np.abs(corners)))
        angle_rounding = 32.0 * np.finfo(float).eps * scale * scale
        pairing_gate = max(1e-8 * scale, 8.0 * np.finfo(float).eps * scale ** 3)
        for a, b, g in surface.side_pairs:
            m = surface.generator_matrix(g)
            d1 = float(np.max(np.abs(m @ corners[a] - corners[(b + 1) % n])))
            d2 = float(np.max(np.abs(m @ corners[(a + 1) % n] - corners[b])))
            if max(d1, d2) > pairing_gate:
                issues.append(("PAIRING", f"generator {g} moves side {a} off side {b} by {max(d1, d2):.3e}"))
        angles = polygon_interior_angles(corners).tolist()
        for cyc in vertex_cycles(n, surface.side_pairs):
            total = sum(angles[k] for k in cyc.corners)
            angle_sums.append(total)
            if abs(total - 2.0 * math.pi) > max(1e-8, angle_rounding * len(cyc.corners)):
                issues.append(("ANGLE_CYCLE", f"cycle at corner {cyc.corners[0]} has angle sum {total!r}"))
        area = (n - 2) * math.pi - sum(angles)
        area_expected = 2.0 * math.pi * (2 * surface.genus - 2)
        area_gate = 1e-7 * area_expected / (4.0 * math.pi)
        if abs(area - area_expected) > area_gate:
            issues.append(("AREA", f"polygon area {area!r}, Gauss-Bonnet expects {area_expected!r}"))

    return SurfaceReport(tuple(issues), tuple(relator_defects), tuple(relator_gates), tuple(angle_sums),
                         area, area_expected, area_gate)


# --------------------------------------------------------------------------
# constructors


def _ld_regular_surface(genus: int, n: int, half, side_pairs) -> SurfaceModel:
    """The surface glued from the regular n-gon with interior angle 2 half
    by side_pairs, listed in generator order.  Generator k of the pair
    (a, b, k) is the reflection in side a followed by the reflection in the
    diameter at polar angle theta = pi (2a + ((b - a) mod n) + 1) / n,
    halfway between the midpoints of sides a and b: the product carries
    side a onto side b, reversed.  All generators are one stacked
    long-double product."""
    corners = _ld_regular_corners(n, half)
    a, b, _ = np.array(side_pairs).T
    theta = _PI_LD * (2 * a + (b - a) % n + 1) / n
    diameters = np.stack([np.zeros(len(a), dtype=_LD), -np.sin(theta), np.cos(theta)], axis=1)
    gens = _ld_reflection(diameters) @ _ld_reflection(_ld_pole_through(corners[a], corners[(a + 1) % n]))
    relators = tuple(c.relator_word for c in vertex_cycles(n, side_pairs))
    return SurfaceModel(genus, gens, np.asarray(corners, dtype=float), side_pairs, relators)


def build_regular_4g_surface(g: int) -> SurfaceModel:
    """Regular 4g-gon with interior angle pi/(2g), opposite sides identified:
    generator k+1 carries side k+2g onto side k, a translation by twice the
    inradius through their midpoints."""
    if g < 2:
        raise DomainError(f"regular 4g-gon surface needs genus >= 2, got {g}")
    return _ld_regular_surface(g, 4 * g, _PI_LD / (4 * g), tuple((k + 2 * g, k, k + 1) for k in range(2 * g)))


def build_klein_quartic() -> SurfaceModel:
    """Genus-3 surface from the regular 14-gon with interior angle 2*pi/7,
    side 2k paired with side 2k+5 (mod 14)."""
    return _ld_regular_surface(3, 14, _PI_LD / 7, tuple((2 * k, (2 * k + 5) % 14, k + 1) for k in range(7)))


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
_GENUS2_REFLECTION_WORDS = ((0, 2), (1, 3), (0, 4), (1, 5),
                            (1, 0, 2, 1), (1, 0, 4, 1), (1, 0, 3, 0), (1, 0, 5, 0))
# the same words as one array; the padding of the two-letter words is never read
_GENUS2_REFLECTION_LETTERS = np.array([word + (0,) * (4 - len(word)) for word in _GENUS2_REFLECTION_WORDS])

# the 16-gon's corners: hexagon corners 2 3 4 5 0 of A, 5 4 3 2 of C, 3 4 5 0
# of D and 5 4 3 of B, where tiles A, C, B and D are the images of the base
# hexagon under 1, r0, r1 and r1 r0
_GENUS2_TILE = np.repeat([0, 1, 3, 2], [5, 4, 4, 3])
_GENUS2_TILE_CORNER = np.array([2, 3, 4, 5, 0, 5, 4, 3, 2, 3, 4, 5, 0, 5, 4, 3])

# Deck words (in g1..g8) for the twelve graph edges i -> i+1 of the doubled
# 6-cycle: the primary copy of each edge stays inside the base hexagon, the
# secondary copy crosses into the neighboring hexagons via r_{i-1} r_{i+1}.
_GENUS2_DECK_WORDS = ((), (), (), (), (), ()) + ((-4,), (1,), (2,), (-1, 3), (-2, 4), (-3,))


def genus2_deck_words() -> tuple[tuple[int, ...], ...]:
    """Per-unoriented-edge deck words matching cycle_with_doubled_edges(6)."""
    return _GENUS2_DECK_WORDS


_GENUS2_RELATORS = tuple(c.relator_word for c in vertex_cycles(16, _GENUS2_SIDE_PAIRS))


def build_genus2_hexagon_surface(
    s: float, weights: tuple[float, float] = (1.0, 1.0)
) -> tuple[SurfaceModel, WeightedGraph, "object"]:
    """Genus-2 surface tiled by four right-angled hexagons with seam length s.

    Returns the surface, the doubled-6-cycle graph carrying class weights
    (m_c, m_d), and the reference map sending graph vertices to the hexagon
    corners (the tiling 1-skeleton, which is balanced by symmetry).
    """
    from .maps import MarkedMap  # deferred: maps depends on this module

    graph = cycle_with_doubled_edges(6, *weights)
    surface, lifts = _genus2_hexagon(s)
    return surface, graph, MarkedMap.from_unoriented_words(surface, graph, lifts, genus2_deck_words())


def _genus2_hexagon(s: float) -> tuple[SurfaceModel, np.ndarray]:
    """The surface at seam s and the lifts of its reference map, from one
    long-double pass: the six side reflections at once, the eight
    reflection words one letter position at a time, and the 16-gon's
    corners as one stacked product."""
    v = _ld_hexagon(s)
    refl = _ld_reflection(_ld_pole_through(v, v[_NEXT_CORNER]))  # side i: corners i, i + 1
    frame, u = _ld_frame(*v[1])  # u takes v[1] to the origin
    letters = _GENUS2_REFLECTION_LETTERS
    raw = refl[letters[:, 0]] @ refl[letters[:, 1]]
    raw[4:] = raw[4:] @ refl[letters[4:, 2]] @ refl[letters[4:, 3]]  # the words of four letters
    gens = u @ raw @ frame
    tiles = np.concatenate([_EYE_LD[None], refl[:2], refl[1:2] @ refl[:1]])
    corners = (tiles[_GENUS2_TILE] @ v[_GENUS2_TILE_CORNER, :, None])[..., 0]
    polygon = np.asarray(corners @ u.T, dtype=float)
    surface = SurfaceModel(2, gens, polygon, _GENUS2_SIDE_PAIRS, _GENUS2_RELATORS)
    lifts = np.asarray(v @ u.T, dtype=float)
    # normalized in float64, not kept as rounded: the family's energies rest on these bits
    return surface, lifts / np.sqrt(-minkowski_dot(lifts, lifts))[:, None]


def hexagon_corners(s: float) -> np.ndarray:
    """Corners (6, 3) of the right-angled hexagon with sides alternating t(s), s."""
    return points_arr(np.asarray(_ld_hexagon(s), dtype=float))


# --------------------------------------------------------------------------
# parametric families


@dataclass(frozen=True)
class MetricFamily:
    """One combinatorial gluing scheme swept over a metric parameter.

    `domain` is the open interval of parameters.  `build` returns the
    surface, the weighted graph, and the family's reference map; the deck
    words of that map are the same at every parameter, which is what makes
    energies at different parameters comparable, and lets a family re-target
    one map to each new surface.
    """

    family_id: str
    domain: tuple[float, float]
    _builder: Callable = field(repr=False)

    def build(self, theta: float):
        lo, hi = self.domain
        if not lo < theta < hi:
            raise DomainError(f"parameter {theta!r} outside family domain ({lo}, {hi})")
        return self._builder(theta)


def center_bouquet(surface: SurfaceModel):
    """The map of one unit-weight loop (k,) per generator k at one vertex
    lifted to the origin.  Harmonic when the surface's side pairings
    move the origin to its mirror images across the sides of a regular
    polygon centred there, each loop twice the inradius."""
    from .maps import MarkedMap

    count = len(surface.matrices)
    graph = bouquet(count)
    lifts = np.array([[1.0, 0.0, 0.0]])
    words = tuple((k + 1,) for k in range(count))
    return MarkedMap.from_unoriented_words(surface, graph, lifts, words)


def family(kind: str, weights: tuple[float, float] = (1.0, 1.0)) -> MetricFamily:
    """The family 'hexagon-genus2' (parameter = seam length s), with class
    weights (m_c, m_d); it is the one family, and any other kind is a
    DomainError."""
    if kind == "hexagon-genus2":
        # seams the float64 build serves: up to 4.0 the reference energy is
        # within 1.1e-7 of the closed form and the surface validates; rounding
        # grows with the deck norms (error 1.3e-6 at 4.51, 0.22 at 7; invalid from 8)
        first = []  # the first seam's reference map, re-targeted to every later seam

        def build(s):
            if not first:
                surface, graph, reference = build_genus2_hexagon_surface(s, weights)
                first.append(reference)
                return surface, graph, reference
            surface, lifts = _genus2_hexagon(s)
            return surface, first[0].graph, first[0].with_surface(surface, lifts)

        return MetricFamily(kind, (0.25, 4.0), build)
    raise DomainError(f"unknown family {kind!r}: the one family with a metric parameter is 'hexagon-genus2'")
