"""Uniform triangulations of axis-aligned rectangles.

Every cell of the n-by-n grid is split along the diagonal from its
lower-left to its upper-right corner, which keeps the construction
deterministic and the triangles uniformly shape regular.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Mesh", "ConfigurationError", "build_uniform_mesh", "write_mesh_csv"]


class ConfigurationError(ValueError):
    """Invalid user-supplied configuration (domain, counts, degrees...)."""


@dataclass
class Mesh:
    """Immutable triangulation with vertex/element connectivity.

    Attributes
    ----------
    vertices : (V, 2) float array of vertex coordinates
    triangles : (T, 3) int array, counter-clockwise vertex indices
    boundary_vertex : (V,) bool, True for vertices on the rectangle boundary
    n : subdivisions per axis (0 for hand-built meshes)
    domain : (x0, x1, y0, y1)
    h : max triangle diameter
    areas : (T,) triangle areas
    grad_bary : (T, 3, 2) constant gradients of the three hat functions
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_vertex: np.ndarray
    n: int
    domain: tuple
    h: float = field(init=False)
    areas: np.ndarray = field(init=False)
    grad_bary: np.ndarray = field(init=False)

    def __post_init__(self):
        coords = self.vertices[self.triangles]          # (T, 3, 2)
        # gradient of hat i is the inward perpendicular of the opposite edge
        # / (2A); that edge's length enters h
        grads = np.empty((len(self.triangles), 3, 2))
        for i in range(3):
            pj = coords[:, (i + 1) % 3]
            pk = coords[:, (i + 2) % 3]
            grads[:, i, 0] = pj[:, 1] - pk[:, 1]
            grads[:, i, 1] = pk[:, 0] - pj[:, 0]
        # twice the signed area, the cross product of the edges at vertex 0
        det = grads[:, 2, 1] * grads[:, 1, 0] - grads[:, 2, 0] * grads[:, 1, 1]
        if np.any(det <= 0.0):
            raise ConfigurationError("mesh contains a non-positively oriented triangle")
        self.areas = 0.5 * det
        self.h = float(np.sqrt(max(
            (grads[:, i, 0] ** 2 + grads[:, i, 1] ** 2).max() for i in range(3))))
        grads /= det[:, None, None]
        self.grad_bary = grads
        for arr in (self.vertices, self.triangles, self.boundary_vertex,
                    self.areas, self.grad_bary):
            arr.setflags(write=False)

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    def barycentric(self, e, points):
        """Barycentric coordinates of physical points inside elements: one
        element e and points (n, 2) give (n, 3); parents (C,) and points
        (C, q, 2) give (C, q, 3).  Each coordinate is spelled out as a
        two-term dot product: a stacked (q, 2) @ (2, 2) matmul costs twice
        as much."""
        points = np.asarray(points, dtype=float)
        if np.ndim(e) == 0:
            points = np.atleast_2d(points)
        p0 = self.vertices[self.triangles[e, 0]][..., None, :]
        g = self.grad_bary[e][..., None, :, :]          # (..., 1, 3, 2)
        x = points[..., 0] - p0[..., 0]
        y = points[..., 1] - p0[..., 1]
        lam1 = x * g[..., 1, 0] + y * g[..., 1, 1]
        lam2 = x * g[..., 2, 0] + y * g[..., 2, 1]
        return np.stack([1.0 - (lam1 + lam2), lam1, lam2], axis=-1)


def build_uniform_mesh(domain, n):
    """Uniform n x n triangulation of the rectangle [x0,x1] x [y0,y1].

    Each cell is split along its lower-left/upper-right diagonal, giving
    2 n^2 triangles and (n+1)^2 vertices.
    """
    x0, x1, y0, y1 = domain
    if not (np.isfinite([x0, x1, y0, y1]).all() and x1 > x0 and y1 > y0):
        raise ConfigurationError(f"invalid rectangle {domain!r}")
    if n < 2:
        raise ConfigurationError(f"subdivision count must be >= 2, got {n}")

    xs = np.linspace(x0, x1, n + 1)
    ys = np.linspace(y0, y1, n + 1)
    X, Y = np.meshgrid(xs, ys)                 # row-major in y
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    # the cell at lower-left vertex v00 holds the lower triangle (v00,
    # v00 + 1, v00 + n + 2), then the upper one (v00, v00 + n + 2, v00 + n + 1)
    v00 = (np.arange(n) + (n + 1) * np.arange(n)[:, None]).ravel()
    triangles = np.empty((n * n, 2, 3), dtype=np.int64)
    triangles[:, :, 0] = v00[:, None]
    triangles[:, 0, 1] = v00 + 1
    triangles[:, :, 2] = v00[:, None] + [n + 2, n + 1]
    triangles[:, 1, 1] = v00 + n + 2
    triangles = triangles.reshape(-1, 3)

    gx, gy = np.meshgrid(np.arange(n + 1), np.arange(n + 1))
    boundary = ((gx == 0) | (gx == n) | (gy == 0) | (gy == n)).ravel()

    return Mesh(vertices, triangles, boundary, n, tuple(domain))


def write_mesh_csv(mesh, vertex_path, triangle_path):
    """Dump vertex and triangle tables for external plotting."""
    np.savetxt(vertex_path, np.column_stack([np.arange(mesh.num_vertices),
                                             mesh.vertices,
                                             mesh.boundary_vertex]),
               fmt=["%d", "%.17e", "%.17e", "%d"], delimiter=",",
               header="vertex,x,y,boundary", comments="")
    np.savetxt(triangle_path, np.column_stack([np.arange(mesh.num_triangles),
                                               mesh.triangles]),
               fmt="%d", delimiter=",", header="triangle,v0,v1,v2",
               comments="")
