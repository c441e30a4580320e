import math

import numpy as np
import pytest

import oracles
from graphuniform.errors import DomainError, GeometryError
from graphuniform.families import hexagon_family_energy
from graphuniform.hyperboloid import J_MATRIX, dist_arr, polygon_area, polygon_interior_angles
from graphuniform.maps import energy
from graphuniform.surfaces import (
    SurfaceModel,
    build_genus2_hexagon_surface,
    build_regular_4g_surface,
    family,
    genus2_deck_words,
    hexagon_corners,
    validate_surface,
    vertex_cycles,
)


def test_genus2_surface_validates(genus2_bundle):
    surface, graph, ref = genus2_bundle
    report = validate_surface(surface)
    assert report.ok, report.issues
    assert abs(report.area - 4.0 * math.pi) < 1e-7
    assert max(report.relator_defects) < 1e-8


def test_ld_cross_matches_numpy_cross_exactly():
    # the long-double Minkowski cross product is J (u x w), written out by
    # components; every component must round exactly as np.cross does
    from graphuniform.surfaces import _ld_cross

    rng = np.random.default_rng(7)
    scales = np.longdouble(10.0) ** rng.integers(-3, 4, size=(500, 2))
    for su, sw in scales:
        u = rng.standard_normal(3).astype(np.longdouble) * su
        w = rng.standard_normal(3).astype(np.longdouble) * sw
        want = np.cross(u, w) * np.array([-1, 1, 1], dtype=np.longdouble)
        got = _ld_cross(u, w)
        assert got.dtype == np.longdouble
        assert np.array_equal(got, want)


def test_genus2_polygon_closes_with_right_angles():
    corners = hexagon_corners(1.3)
    angles = polygon_interior_angles(corners)
    assert np.max(np.abs(np.asarray(angles) - math.pi / 2)) < 1e-9
    assert abs(polygon_area(corners) - math.pi) < 1e-9
    assert abs(oracles.polygon_area_fan_oracle(corners) - math.pi) < 1e-9


def test_genus2_seam_lengths_alternate():
    s = 0.9
    surface, graph, ref = build_genus2_hexagon_surface(s)
    lengths = [dist_arr(*oracles.edge_segment(ref, e)) for e, *_ in ref.graph.unoriented_edges()]
    classes = [cls for *_, cls in ref.graph.unoriented_edges()]
    # class-d edges realize the seam s itself, class-c edges its partner t(s)
    for ln, cls in zip(lengths, classes):
        target = s if cls == "d" else 2.0 * math.asinh(0.5 / math.sinh(s / 2.0))
        assert abs(ln - target) < 1e-9


def test_genus2_deck_words_match_edge_order(genus2_bundle):
    surface, graph, ref = genus2_bundle
    words = genus2_deck_words()
    assert len(words) == len(graph.unoriented_edges())
    # primary seams stay inside the fundamental polygon, secondary copies
    # cross it through nontrivial deck words
    assert all(w == () for w in words[:6])
    assert all(w != () for w in words[6:])


def test_vertex_cycles_genus2_sixteen_gon(genus2_bundle):
    surface, _, _ = genus2_bundle
    cycles = vertex_cycles(16, surface.side_pairs)
    sizes = sorted(len(c.corners) for c in cycles)
    # twelve right-angle corners close up in fours; the four straight corners
    # (hexagon side midpoints promoted to 16-gon corners) close up in pairs
    assert sizes == [2, 2, 4, 4, 4]
    assert sum(sizes) == 16
    report = validate_surface(surface)
    for total in report.angle_sums:
        assert abs(total - 2.0 * math.pi) < 1e-9


def test_klein_quartic_validates(klein_surface):
    report = validate_surface(klein_surface)
    assert report.ok, report.issues
    assert abs(report.area - 8.0 * math.pi) < 1e-8
    assert len(report.angle_sums) == 2
    for total in report.angle_sums:
        assert abs(total - 2.0 * math.pi) < 1e-8
    assert abs(oracles.polygon_area_fan_oracle(klein_surface.polygon) - 8.0 * math.pi) < 1e-8


def test_regular_4g_surfaces_validate_for_small_genus():
    for g in (2, 3, 4):
        surface = build_regular_4g_surface(g)
        report = validate_surface(surface)
        assert report.ok, (g, report.issues)
        assert abs(report.area - 2.0 * math.pi * (2 * g - 2)) < 1e-7
        # single vertex cycle collecting all 4g corners
        assert len(report.angle_sums) == 1
        assert abs(report.angle_sums[0] - 2.0 * math.pi) < 1e-7


@pytest.mark.parametrize("genus", [25, 30, 40, 56, 70, 80])
def test_regular_4g_surfaces_validate_at_large_genus(genus):
    # rounding grows with the corner coordinates: the angle sum is off by
    # 3.9e-8 at genus 70 and 5.4e-8 at 80, over 1e-8; and a paired corner
    # lands 8.9e-5 and 1.6e-4 away at genus 70 and 80, over 1e-8 (1 + c)
    report = validate_surface(build_regular_4g_surface(genus))
    assert report.ok, report.issues


@pytest.mark.parametrize("genus", [2, 40, 80, 150])
def test_regular_4g_area_meets_the_gate_without_a_rounding_term(genus):
    # the AREA gate is 1e-7 (g - 1) alone; with the Kahan corner angles the
    # area is off by at most 3.7% of it over genus 2-150 (3.1e-7 at 150)
    report = validate_surface(build_regular_4g_surface(genus))
    assert report.ok, report.issues
    assert abs(report.area - report.area_expected) <= 1e-7 * (genus - 1)


def test_regular_4g_angle_sum_keeps_its_precision_at_genus_40():
    # the corner angles are 2 atan2(|u - w|, |u + w|) of the unit tangents;
    # the arccos of their cosine loses half the digits near pi, and its
    # cycle sum here is off by 5.6e-7
    report = validate_surface(build_regular_4g_surface(40))
    assert max(abs(a - 2.0 * math.pi) for a in report.angle_sums) < 1e-8


def test_area_or_pairing_gate_catches_a_moved_corner_at_genus_2():
    surface = build_regular_4g_surface(2)
    corners = surface.polygon.copy()
    # 1e-6 along the hyperboloid toward corner 1: the sides meeting at
    # corner 0 no longer pair, and the area moves
    tangent = corners[1] - corners[0]
    tangent = tangent + oracles.mdot(tangent, corners[0]) * corners[0]
    tangent = tangent / math.sqrt(oracles.mdot(tangent, tangent))
    corners[0] = math.cosh(1e-6) * corners[0] + math.sinh(1e-6) * tangent
    moved = SurfaceModel(surface.genus, surface.matrices, corners, surface.side_pairs, surface.relator_words)
    codes = {code for code, _ in validate_surface(moved).issues}
    assert codes & {"AREA", "PAIRING"}, codes


def test_angle_cycle_gate_catches_a_moved_corner_at_genus_2():
    surface = build_regular_4g_surface(2)
    corners = surface.polygon.copy()
    # 1e-6 straight away from the origin, along the tangent (sinh d, cosh d u)
    radial = corners[0, 1:] / np.linalg.norm(corners[0, 1:])
    corners[0] = oracles.point_at(math.acosh(corners[0, 0]) + 1e-6, math.atan2(radial[1], radial[0]))
    moved = SurfaceModel(surface.genus, surface.matrices, corners, surface.side_pairs, surface.relator_words)
    report = validate_surface(moved)
    assert "ANGLE_CYCLE" in {code for code, _ in report.issues}
    assert abs(report.angle_sums[0] - 2.0 * math.pi) < 1e-5


def test_octagon_generator_translation_length(octagon_surface):
    target = 2.0 * math.acosh(1.0 + math.sqrt(2.0))
    r_oracle = oracles.regular_polygon_inradius_oracle(8, math.pi / 4)
    assert abs(2.0 * r_oracle - target) < 1e-12
    from graphuniform.hyperboloid import Isometry

    for k in range(1, 5):
        g = Isometry(surface_matrix(octagon_surface, k))
        assert abs(g.translation_length() - target) < 1e-8


def surface_matrix(surface, k):
    return surface.generator_matrix(k)


def test_side_pairings_carry_sides(genus2_bundle, klein_surface, octagon_surface):
    for surface in (genus2_bundle[0], klein_surface, octagon_surface):
        n = len(surface.polygon)
        for src, dst, gid in surface.side_pairs:
            m = surface.generator_matrix(gid)
            a, b = surface.polygon[src], surface.polygon[(src + 1) % n]
            c, d = surface.polygon[dst], surface.polygon[(dst + 1) % n]
            # generator sends side src to side dst with reversed orientation
            assert np.max(np.abs(m @ a - d)) < 1e-7
            assert np.max(np.abs(m @ b - c)) < 1e-7


def test_relator_words_multiply_to_identity(genus2_bundle):
    surface = genus2_bundle[0]
    for word in surface.relator_words:
        m = surface.word_matrix(word)
        assert np.max(np.abs(m - np.eye(3))) < 1e-8


def test_word_matrix_inverse_convention(genus2_bundle):
    surface = genus2_bundle[0]
    m = surface.generator_matrix(3)
    minv = surface.generator_matrix(-3)
    assert np.max(np.abs(m @ minv - np.eye(3))) < 1e-12
    w = surface.word_matrix((1, -2, 3))
    expect = surface.generator_matrix(1) @ surface.generator_matrix(-2) @ surface.generator_matrix(3)
    assert np.max(np.abs(w - expect)) < 1e-12


def test_generator_table_matches_the_isometries(genus2_bundle, klein_surface, octagon_surface):
    for surface in (genus2_bundle[0], klein_surface, octagon_surface):
        stack = surface.matrices
        assert not stack.flags.writeable
        for k in range(1, len(stack) + 1):
            m = surface.generators[k - 1].matrix
            assert surface.generator_matrix(k).tobytes() == m.tobytes()
            assert np.array_equal(surface.generator_matrix(-k), J_MATRIX @ m.T @ J_MATRIX)
    with pytest.raises(GeometryError, match="in row 1"):
        SurfaceModel(2, np.stack([np.eye(3), np.diag([2.0, 1.0, 1.0])]))
    with pytest.raises(GeometryError, match=r"\(n, 3, 3\)"):
        SurfaceModel(2, np.eye(3))


def test_reference_map_multiplies_each_distinct_word_once(monkeypatch):
    # the 24 half-edges carry 13 distinct words: the empty word, 8 of one
    # letter and 4 of two; they are multiplied as one batch per letter
    # position, never one word at a time
    calls = []
    word_matrix = SurfaceModel.word_matrix
    monkeypatch.setattr(SurfaceModel, "word_matrix", lambda self, w: calls.append(w) or word_matrix(self, w))
    _, _, ref = build_genus2_hexagon_surface(1.3)
    assert not calls
    words = ref._word_index
    assert len(words.letters) == len(set(ref.deck_words)) == 13
    assert words.ahead == (12, 4)


def test_family_builds_bit_for_bit_as_one_word_at_a_time():
    # the batched long-double build and the re-targeted reference maps give
    # the bits of one reflection and one word_matrix product at a time, at
    # seams across the domain and at 8.5 outside it, fresh and through one
    # family object (its builder, past the domain check, for 8.5); so do the
    # long-double generators and the energy on them
    seams = [float(s) for s in np.geomspace(0.25, 4.0, 42)[1:-1]] + [8.5]
    for weights in ((1.0, 1.0), (4.0, 1.0)):
        fam = family("hexagon-genus2", weights=weights)
        for s in seams:
            want = oracles.reference_hexagon(s, weights)
            built = fam.build(s) if s < fam.domain[1] else fam._builder(s)
            for surface, _graph, ref in (build_genus2_hexagon_surface(s, weights), built):
                got = (surface.matrices, surface._table_ld[1:9], surface.polygon, ref.lifts, ref.edges.mats,
                       ref.edges.energy(ref.lifts), energy(ref))
                for a, b in zip(got, want):
                    assert np.array_equal(a, b), (s, weights)


def _same_bits(a, b):
    # long-double storage has padding bytes, so compare values and zero signs
    return a.dtype == b.dtype and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_scalar_walk_matches_the_array_walk_bit_for_bit():
    # the library walks on long-double scalars, the oracle on arrays, the way
    # the walk was first written
    from graphuniform.surfaces import _ld_hexagon, _ld_right_angled_walk

    for s in [float(s) for s in np.geomspace(0.25, 4.0, 42)[1:-1]] + [8.5]:
        assert _same_bits(_ld_hexagon(s), oracles.ld_hexagon_walk(s)), s
    # an asymmetric right-angled hexagon: alternate sides a, b, c, and by the
    # hexagon law the side opposite a has cosh a' = (cosh b cosh c + cosh a) / (sinh b sinh c)
    a, b, c = (np.longdouble(x) for x in (0.9, 1.3, 1.7))

    def opposite(x, y, z):
        return np.arccosh((np.cosh(y) * np.cosh(z) + np.cosh(x)) / (np.sinh(y) * np.sinh(z)))

    lengths = [a, opposite(c, a, b), b, opposite(a, b, c), c, opposite(b, c, a)]
    corners = _ld_right_angled_walk(lengths)
    assert _same_bits(corners, oracles.ld_right_angled_walk(lengths))
    sides = dist_arr(corners.astype(float), np.roll(corners, -1, axis=0).astype(float))
    assert np.max(np.abs(sides - np.array(lengths, dtype=float))) < 1e-12
    with pytest.raises(GeometryError, match="failed to close"):
        _ld_right_angled_walk(lengths[:-1] + [lengths[-1] + np.longdouble(0.1)])


def test_hexagon_walk_that_does_not_close_raises():
    # at seam 0.01 the partner side is about 10.6 long and the long-double
    # walk loses the closure; the builders reject that seam before walking
    from graphuniform.surfaces import _ld_right_angled_walk

    s = np.longdouble(0.01)
    t = 2 * np.arcsinh(0.5 / np.sinh(s / 2))
    with pytest.raises(GeometryError, match="polygon walk failed to close"):
        _ld_right_angled_walk([t, s] * 3)


@pytest.mark.parametrize("s", [20.0, 100.0, 1e4, 1e5, 1e-300, 5e-324, 0.05, 0.01])
def test_seam_outside_the_build_range_is_a_domain_error(s):
    # these seams used to end in a divide-by-zero or overflow RuntimeWarning
    # (an error under the suite's filter), in the walk's closure check or in
    # Isometry's checks
    for build in (hexagon_corners, build_genus2_hexagon_surface):
        with pytest.raises(DomainError, match=f"seam length {s!r} outside"):
            build(s)


def test_seams_at_the_ends_of_the_build_range_build():
    for s in (0.2, 9.0):
        assert hexagon_corners(s).shape == (6, 3)
        surface, _graph, ref = build_genus2_hexagon_surface(s)
        assert surface.matrices.shape == (8, 3, 3) and ref.lifts.shape == (6, 3)


@pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
def test_non_finite_seam_is_a_domain_error(s):
    for build in (hexagon_corners, build_genus2_hexagon_surface):
        with pytest.raises(DomainError, match=f"seam length must be positive and finite, got {s!r}"):
            build(s)


def test_family_domain_checks():
    fam = family("hexagon-genus2")
    with pytest.raises(DomainError):
        fam.build(0.0)
    with pytest.raises(DomainError):
        fam.build(100.0)
    surface, graph, ref = fam.build(1.0)
    assert validate_surface(surface).ok


def test_family_fixed_parameters():
    _surface, graph, _ref = family("hexagon-genus2", weights=(2.0, 3.0)).build(1.0)
    assert {(cls, w) for _e, _u, _v, w, cls in graph.unoriented_edges()} == {("c", 2.0), ("d", 3.0)}
    for kind in ("no-such-family", "regular-4g"):
        with pytest.raises(DomainError):
            family(kind)
    with pytest.raises(TypeError):
        family("hexagon-genus2", bogus=1)


def test_family_words_do_not_depend_on_parameter():
    fam = family("hexagon-genus2")
    maps = [fam.build(s)[2] for s in (0.5, 1.0, 2.0)]
    words = [tuple(m.deck_words) for m in maps]
    assert words[0] == words[1] == words[2]


def test_genus2_builder_rejects_bad_seam():
    with pytest.raises(DomainError):
        build_genus2_hexagon_surface(0.0)
    with pytest.raises(DomainError):
        build_regular_4g_surface(1)


def test_hexagon_family_builds_across_its_domain():
    # 60 seams on a geometric grid strictly inside the declared domain: every
    # one builds, validates, and its reference map has the closed-form energy
    fam = family("hexagon-genus2")
    lo, hi = fam.domain
    for s in np.geomspace(lo, hi, 62)[1:-1]:
        surface, _graph, ref = fam.build(float(s))
        report = validate_surface(surface)
        assert not [issue for issue in report.issues if issue[0] == "RELATOR"], (s, report.issues)
        assert report.ok, (s, report.issues)
        closed = hexagon_family_energy(float(s), 1.0, 1.0)
        assert abs(energy(ref) - closed) <= 1e-6 * closed, s
