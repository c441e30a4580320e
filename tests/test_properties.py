"""Property tests: kernel identities and map invariances over generated inputs.

Each tolerance sits about ten times above the worst error seen over
thousands of generated examples.  Where the coordinates involved vary
widely, it scales with their squared size, which is how rounding grows on
the hyperboloid.  Runs are derandomized so that the suite gives the same
verdict every time.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
from graphuniform.hyperboloid import (
    Isometry,
    dist_arr,
    exp_arr,
    log_arr,
    minkowski_dot,
    points_arr,
    tangent_basis_arr,
)
from graphuniform.maps import balanced_residual, energy
from graphuniform.surfaces import build_genus2_hexagon_surface

KERNEL = settings(max_examples=60, deadline=None, derandomize=True)
MAPS = settings(max_examples=20, deadline=None, derandomize=True)

radius = st.floats(0.0, 3.0)
angle = st.floats(-math.pi, math.pi)
component = st.floats(-2.0, 2.0)
isometries = st.builds(
    lambda t, phi: Isometry(oracles.x_translation(t) @ oracles.rot_z(phi)),
    st.floats(-1.5, 1.5), angle)

_SURFACE, _GRAPH, REFERENCE = build_genus2_hexagon_surface(1.0)


def point(r, phi):
    return np.array([math.cosh(r), math.sinh(r) * math.cos(phi), math.sinh(r) * math.sin(phi)])


def size(*arrays):
    return max(float(np.max(np.abs(a))) for a in arrays)


def perturbed(m, scale, seed):
    rng = np.random.default_rng(seed)
    lifts = m.lifts
    noise = rng.standard_normal(lifts.shape) * scale
    noise[..., 0] = 0.0
    noise += minkowski_dot(noise, lifts)[..., None] * lifts
    return m.with_lifts(exp_arr(lifts, noise))


def residual_norms(report):
    return np.sqrt(np.maximum(0.0, minkowski_dot(report.residuals, report.residuals)))


@KERNEL
@given(radius, angle, component, component)
def test_exp_log_round_trip(r, phi, a, b):
    p = point(r, phi)
    e1, e2 = tangent_basis_arr(p)
    v = a * e1 + b * e2
    q = exp_arr(p, v)
    tol = 1e-12 * size(p, q) ** 2
    assert np.max(np.abs(log_arr(p, q) - v)) <= tol
    assert np.max(np.abs(exp_arr(p, log_arr(p, q)) - q)) <= tol


@KERNEL
@given(radius, angle, radius, angle, isometries)
def test_dist_symmetric_and_isometry_invariant(r1, phi1, r2, phi2, g):
    p, q = point(r1, phi1), point(r2, phi2)
    assert dist_arr(p, q) == dist_arr(q, p)
    gp, gq = g.matrix @ p, g.matrix @ q
    assert abs(dist_arr(gp, gq) - dist_arr(p, q)) <= 1e-14 * size(p, q, gp, gq) ** 2


@KERNEL
@given(st.integers(0, 2**32 - 1))
def test_points_arr_is_idempotent(seed):
    # rows that points_arr and exp_arr hand out, with x0 from 1 to 1e6, are
    # on the sheet to their rounding, and normalizing them again keeps their
    # bits; a row off the sheet by more than rounding is rescaled
    rng = np.random.default_rng(seed)
    n = 500
    r, phi = np.arccosh(10.0 ** rng.uniform(0.0, 6.0, n)), rng.uniform(-math.pi, math.pi, n)
    direction = np.stack([np.zeros(n), np.cos(phi), np.sin(phi)], axis=1)
    raw = rng.uniform(0.5, 2.0, n)[:, None] * np.stack([np.cosh(r), np.sinh(r) * direction[:, 1],
                                                       np.sinh(r) * direction[:, 2]], axis=1)
    once = points_arr(raw)
    q = minkowski_dot(raw, raw)
    off = np.abs(q + 1.0) > 16.0 * np.finfo(float).eps * raw[:, 0] ** 2
    assert once[off].tobytes() == (raw[off] / np.sqrt(-q[off])[:, None]).tobytes()
    assert once[~off].tobytes() == raw[~off].tobytes()
    assert points_arr(np.concatenate([raw, once])).tobytes() == np.concatenate([once, once]).tobytes()
    near = points_arr(raw / raw[:, :1] * np.array([1.0, 0.99, 0.99]))  # within 2.7 of the origin
    e1, e2 = np.moveaxis(tangent_basis_arr(near), -2, 0)
    step = rng.uniform(0.0, 3.0, n)[:, None] * (np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2)
    for moved in (exp_arr(np.tile([1.0, 0.0, 0.0], (n, 1)), r[:, None] * direction), exp_arr(near, step)):
        assert points_arr(moved).tobytes() == moved.tobytes()


@MAPS
@given(st.floats(0.0, 0.3), st.integers(0, 2**32 - 1), isometries)
def test_energy_and_residual_invariant_under_gauge_transform(scale, seed, g):
    m = perturbed(REFERENCE, scale, seed)
    moved = oracles.moved(m, g.matrix)
    s2 = size(m.lifts, moved.lifts) ** 2
    e0 = energy(m)
    assert abs(energy(moved) - e0) <= 1e-11 * s2 * (1.0 + e0)
    # the residual is a tangent field, so it moves with the lifts
    r0, r1 = balanced_residual(m).residuals, balanced_residual(moved).residuals
    assert np.max(np.abs(r1 - r0 @ g.matrix.T)) <= 5e-10 * s2


generator = st.integers(1, len(_SURFACE.generators)).flatmap(lambda k: st.sampled_from([k, -k]))


@MAPS
@given(st.floats(0.0, 0.3), st.integers(0, 2**32 - 1),
       st.integers(0, _GRAPH.vertex_count - 1), st.lists(generator, min_size=1, max_size=2))
def test_energy_and_residual_invariant_under_rebase_vertex(scale, seed, v, word):
    m = perturbed(REFERENCE, scale, seed)
    moved = oracles.rebase_vertex(m, v, tuple(word))
    s2 = size(m.lifts, moved.lifts) ** 2
    e0 = energy(m)
    assert abs(energy(moved) - e0) <= 1e-11 * s2 * (1.0 + e0)
    n0, n1 = residual_norms(balanced_residual(m)), residual_norms(balanced_residual(moved))
    assert np.max(np.abs(n1 - n0)) <= 5e-10 * s2
