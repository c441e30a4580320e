import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from graphuniform.solver import SolverConfig, solve
from graphuniform.surfaces import (
    build_genus2_hexagon_surface,
    build_klein_quartic,
    build_regular_4g_surface,
)


@pytest.fixture(scope="session")
def genus2_bundle():
    """(surface, graph, reference map) for the hexagon-tiled genus-2 surface
    at seam length 1.0 with unit weights."""
    return build_genus2_hexagon_surface(1.0)


@pytest.fixture(scope="session")
def genus2_solved(genus2_bundle):
    """A harmonic map on the genus-2 example computed from a perturbed start,
    shared by the solver-dependent tests."""
    surface, graph, ref = genus2_bundle
    rng = np.random.default_rng(7)
    from graphuniform.hyperboloid import exp_arr

    lifts = ref.lifts
    noise = rng.standard_normal(lifts.shape) * 0.05
    noise[..., 0] = 0.0
    # project the noise onto each tangent space before exponentiating
    from graphuniform.hyperboloid import minkowski_dot

    noise += minkowski_dot(noise, lifts)[..., None] * lifts
    start = ref.with_lifts(exp_arr(lifts, noise))
    trace = solve(start, SolverConfig(residual_tol=1e-10, max_iters=2000))
    assert trace.converged
    return trace.final_map


@pytest.fixture(scope="session")
def klein_surface():
    return build_klein_quartic()


@pytest.fixture(scope="session")
def octagon_surface():
    return build_regular_4g_surface(2)
