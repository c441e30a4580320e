"""Discrete harmonic maps from weighted graphs into closed hyperbolic surfaces.

Vertices of a finite weighted graph are placed on a hyperbolic surface (given
by Fuchsian side-pairing generators), edges become geodesic segments in a
fixed homotopy class, and the energy sum(weight * length^2) is minimized --
first over vertex positions at a fixed metric, then over one-parameter
families of metrics.
"""

__version__ = "0.1.0"

from .errors import (
    BracketError,
    DegenerateEdgeError,
    DomainError,
    GeometryError,
    GraphValidationError,
    NonConvergenceError,
    NotHyperbolicError,
    SchemaError,
    TangencyError,
)
from .graphs import WeightedGraph, bouquet, cycle_with_doubled_edges
from .hyperboloid import HPoint, Isometry
from .maps import MarkedMap, balanced_residual, energy, initial_lifts
from .solver import SolverConfig, SolveTrace, gauge_fix, hessian_fd, solve, uniqueness_probe
from .surfaces import (
    MetricFamily,
    SurfaceModel,
    build_genus2_hexagon_surface,
    build_klein_quartic,
    build_regular_4g_surface,
    family,
    validate_surface,
)
from .families import (
    EnergyEvaluator,
    LagrangeSolution,
    hexagon_family_energy,
    lagrange_solve,
    minimize_1d,
)
from .variations import first_variation, hessian_consistency

__all__ = [
    "__version__",
    "BracketError", "DegenerateEdgeError", "DomainError", "GeometryError",
    "GraphValidationError", "NonConvergenceError", "NotHyperbolicError",
    "SchemaError", "TangencyError",
    "WeightedGraph", "bouquet", "cycle_with_doubled_edges",
    "HPoint", "Isometry",
    "MarkedMap", "balanced_residual", "energy", "initial_lifts",
    "SolverConfig", "SolveTrace", "gauge_fix", "hessian_fd", "solve", "uniqueness_probe",
    "MetricFamily", "SurfaceModel", "build_genus2_hexagon_surface", "build_klein_quartic",
    "build_regular_4g_surface", "family", "validate_surface",
    "EnergyEvaluator", "LagrangeSolution", "hexagon_family_energy", "lagrange_solve", "minimize_1d",
    "first_variation", "hessian_consistency",
]
