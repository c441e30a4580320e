import math

import numpy as np
import pytest

import oracles
from graphuniform.errors import DomainError
from graphuniform.hyperboloid import polygon_area, polygon_interior_angles
from graphuniform.surfaces import (
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
    lengths = [ref.edge_length(e) for e, *_ in ref.graph.unoriented_edges()]
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
            a = np.asarray(surface.polygon[src].coords)
            b = np.asarray(surface.polygon[(src + 1) % n].coords)
            c = np.asarray(surface.polygon[dst].coords)
            d = np.asarray(surface.polygon[(dst + 1) % n].coords)
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


def test_family_domain_checks():
    fam = family("hexagon-genus2")
    with pytest.raises(DomainError):
        fam.build(0.0)
    with pytest.raises(DomainError):
        fam.build(100.0)
    surface, graph, ref = fam.build(1.0)
    assert validate_surface(surface).ok


def test_family_fixed_parameters():
    fam = family("regular-4g", genus=3)
    assert fam.domain is None
    surface, graph, ref = fam.build()
    assert surface.genus == 3
    with pytest.raises(DomainError):
        fam.build(1.0)  # singleton family takes no parameter
    with pytest.raises(DomainError):
        family("no-such-family")
    with pytest.raises(DomainError):
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
    # one builds and its relators close
    fam = family("hexagon-genus2")
    lo, hi = fam.domain
    for s in np.geomspace(lo, hi, 62)[1:-1]:
        surface, _graph, _ref = fam.build(float(s))
        report = validate_surface(surface)
        assert not [issue for issue in report.issues if issue[0] == "RELATOR"], (s, report.issues)
