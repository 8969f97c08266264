"""Uniform triangulations of axis-aligned rectangles.

Every cell of the n-by-n grid is split along the diagonal from its
lower-left to its upper-right corner, which keeps the construction
deterministic and the triangles uniformly shape regular.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Mesh", "ConfigurationError", "build_uniform_mesh", "write_mesh_csv"]


# elements per batch of the construction's orientation and diameter checks
BATCH = 4096


class ConfigurationError(ValueError):
    """Invalid user-supplied configuration (domain, counts, degrees...)."""


def _check_positive(name, value):
    """Raise ConfigurationError, naming the value, unless it is a real
    number (no string) that is positive and finite."""
    if not (isinstance(value, numbers.Real) and 0.0 < value < np.inf):
        raise ConfigurationError(
            f"{name} must be positive and finite, got {value}")


def cross(tris):
    """Twice the signed areas (...) of triangles (..., 3, 2): the cross
    product of the edges at vertex 0."""
    x, y = tris[..., 0], tris[..., 1]
    return ((x[..., 1] - x[..., 0]) * (y[..., 2] - y[..., 0])
            - (y[..., 1] - y[..., 0]) * (x[..., 2] - x[..., 0]))


@dataclass
class Mesh:
    """Immutable triangulation with vertex/element connectivity.  It keeps no
    per-element geometry: areas and hat gradients are computed from the
    vertex coordinates for the elements a caller asks for, a batch at a
    time (``areas``, ``geometry``, ``barycentric``).

    Attributes
    ----------
    vertices : (V, 2) float array of vertex coordinates
    triangles : (T, 3) int32 array, counter-clockwise vertex indices
    boundary_vertex : (V,) bool, True for vertices on the rectangle boundary
    n : subdivisions per axis (0 for hand-built meshes)
    domain : (x0, x1, y0, y1)
    h : max triangle diameter
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_vertex: np.ndarray
    n: int
    domain: tuple
    h: float = field(init=False)

    def __post_init__(self):
        self.triangles = np.asarray(self.triangles, dtype=np.int32)
        # orientation and longest edge, a bounded batch of elements at a
        # time, so construction keeps no (T, 3, 2) temporary either
        longest = 0.0
        for start in range(0, len(self.triangles), BATCH):
            coords = self.vertices[self.triangles[start:start + BATCH]]
            if np.any(cross(coords) <= 0.0):
                raise ConfigurationError(
                    "mesh contains a non-positively oriented triangle")
            edges = coords - np.roll(coords, 1, axis=1)
            longest = max(longest, (edges ** 2).sum(axis=2).max())
        self.h = float(np.sqrt(longest))
        for arr in (self.vertices, self.triangles, self.boundary_vertex):
            arr.setflags(write=False)

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    def coords(self, e):
        """Vertex coordinates (..., 3, 2) of the elements e."""
        # np.take gathers several times faster than fancy indexing here
        return np.take(self.vertices, np.take(self.triangles, e, axis=0),
                       axis=0)

    def areas(self, e):
        """Areas of the elements e."""
        return 0.5 * cross(self.coords(e))

    def geometry(self, e):
        """Areas (...) and constant hat gradients (..., 3, 2) of the
        elements e.  The gradient of hat i is the inward perpendicular of
        the opposite edge over twice the area."""
        coords = self.coords(e)
        grads = np.empty(coords.shape)
        for i in range(3):
            pj = coords[..., (i + 1) % 3, :]
            pk = coords[..., (i + 2) % 3, :]
            grads[..., i, 0] = pj[..., 1] - pk[..., 1]
            grads[..., i, 1] = pk[..., 0] - pj[..., 0]
        det = grads[..., 2, 1] * grads[..., 1, 0] \
            - grads[..., 2, 0] * grads[..., 1, 1]
        grads /= det[..., None, None]
        return 0.5 * det, grads

    def barycentric(self, e, points, grads=None):
        """Barycentric coordinates of physical points inside elements: one
        element e and points (n, 2) give (n, 3); parents (C,) and points
        (C, q, 2) give (C, q, 3).  ``grads`` are the hat gradients of e
        (``geometry``), if the caller has them already.  Each coordinate
        is spelled out as a two-term dot product: a stacked (q, 2) @
        (2, 2) matmul costs twice as much."""
        points = np.asarray(points, dtype=float)
        if np.ndim(e) == 0:
            points = np.atleast_2d(points)
        if grads is None:
            grads = self.geometry(e)[1]
        p0 = self.vertices[self.triangles[e, 0]][..., None, :]
        g = grads[..., None, :, :]                      # (..., 1, 3, 2)
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

    # vertices row-major in y
    vertices = np.empty(((n + 1) ** 2, 2))
    vertices[:, 0] = np.tile(np.linspace(x0, x1, n + 1), n + 1)
    vertices[:, 1] = np.repeat(np.linspace(y0, y1, n + 1), n + 1)

    # the cell at lower-left vertex v00 holds the lower triangle (v00,
    # v00 + 1, v00 + n + 2), then the upper one (v00, v00 + n + 2, v00 + n + 1)
    v00 = (np.arange(n, dtype=np.int32)
           + (n + 1) * np.arange(n, dtype=np.int32)[:, None]).ravel()
    triangles = np.empty((n * n, 2, 3), dtype=np.int32)
    triangles[:, :, 0] = v00[:, None]
    triangles[:, 0, 1] = v00 + 1
    triangles[:, 0, 2] = triangles[:, 1, 1] = v00 + n + 2
    triangles[:, 1, 2] = v00 + n + 1
    triangles = triangles.reshape(-1, 3)

    boundary = np.zeros((n + 1, n + 1), dtype=bool)
    boundary[[0, n]] = boundary[:, [0, n]] = True
    boundary = boundary.ravel()

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
