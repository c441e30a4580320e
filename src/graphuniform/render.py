"""Poincare-disk SVG figures: fundamental polygon, its translates up to
depth 2, and the graph image.

Hyperboloid points project to the disk by (x1, x2) / (1 + x0); geodesics are
drawn as sampled polylines of the true geodesic (no arc fitting), which keeps
the renderer dependency-free and exact at any zoom that matters here.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .hyperboloid import exp_arr, log_arr
from .maps import MarkedMap
from .surfaces import SurfaceModel


def disk_projection(coords: np.ndarray) -> np.ndarray:
    """(..., 3) hyperboloid coordinates -> (..., 2) unit-disk coordinates."""
    return coords[..., 1:] / (1.0 + coords[..., :1])


def _geodesic_points(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """25 points along the geodesic from p to q, ends included."""
    v = log_arr(p, q)
    ts = np.linspace(0.0, 1.0, 25)
    return exp_arr(p[None, :], ts[:, None] * v[None, :])


class _Svg:
    def __init__(self, size: int):
        self.size = size
        self.parts: list[str] = []

    def _xy(self, disk: np.ndarray) -> tuple[float, float]:
        half = self.size / 2.0
        return half + disk[0] * half * 0.95, half - disk[1] * half * 0.95

    def polyline(self, disk_pts: np.ndarray, color: str, width: float, closed: bool = False):
        pts = " ".join("%.5f,%.5f" % self._xy(d) for d in disk_pts)
        tag = "polygon" if closed else "polyline"
        self.parts.append(
            f'<{tag} points="{pts}" fill="none" stroke="{color}" stroke-width="{width}"/>')

    def circle(self, disk: np.ndarray, radius: float, color: str):
        x, y = self._xy(disk)
        self.parts.append(f'<circle cx="{x:.5f}" cy="{y:.5f}" r="{radius}" fill="{color}"/>')

    def text(self) -> str:
        half = self.size / 2.0
        header = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.size}" height="{self.size}" '
            f'viewBox="0 0 {self.size} {self.size}">\n'
            f'<rect width="{self.size}" height="{self.size}" fill="white"/>\n'
            f'<circle cx="{half}" cy="{half}" r="{half * 0.95}" fill="none" '
            f'stroke="#888888" stroke-width="1"/>\n'
        )
        return header + "\n".join(self.parts) + "\n</svg>\n"


def _polygon_outline(corners: np.ndarray) -> np.ndarray:
    pieces = []
    n = len(corners)
    for k in range(n):
        pieces.append(_geodesic_points(corners[k], corners[(k + 1) % n])[:-1])
    return disk_projection(np.concatenate(pieces))


def _surface_svg(surface: SurfaceModel, translate_depth: int, size: int) -> _Svg:
    """Canvas with the fundamental polygon (black), if the surface has one,
    and its translates by generator words of length 1..translate_depth (gray)."""
    if not 0 <= translate_depth <= 2:
        raise DomainError(f"translate depth must be 0, 1, or 2, got {translate_depth}")
    if size <= 0:
        raise DomainError(f"image size must be positive, got {size}")
    svg = _Svg(size)
    if surface.polygon is not None:
        corners = surface.polygon
        frontier = [np.eye(3)]
        for _ in range(translate_depth):
            frontier = [base @ surface.generator_matrix(sign * (k + 1))
                        for base in frontier
                        for k in range(len(surface.matrices))
                        for sign in (1, -1)]
            for mat in frontier:
                svg.polyline(_polygon_outline((mat @ corners.T).T), "#cccccc", 0.8, closed=True)
        svg.polyline(_polygon_outline(corners), "#000000", 1.6, closed=True)
    return svg


def render_map_svg(m: MarkedMap, translate_depth: int = 1, size: int = 640) -> str:
    """Figure of a marked map: polygon (black), its generator translates up to
    the given depth (gray), lifted graph edges (crimson) and vertices (dots)."""
    svg = _surface_svg(m.surface, translate_depth, size)
    edges = m.edges
    x = m.lifts
    for p, q in zip(x[edges.origins[edges.even]], edges.far_ends(x)[edges.even]):
        svg.polyline(disk_projection(_geodesic_points(p, q)), "crimson", 1.4)
    for point in x:
        svg.circle(disk_projection(point), 3.0, "crimson")
    return svg.text()


def render_surface_svg(surface: SurfaceModel, translate_depth: int = 1, size: int = 640) -> str:
    """Figure of just the fundamental polygon and its translates."""
    if surface.polygon is None:
        raise DomainError("surface has no polygon to draw")
    return _surface_svg(surface, translate_depth, size).text()
