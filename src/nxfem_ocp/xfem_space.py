"""Extended P1 space: hat functions doubled on elements crossed by the
interface.

Every vertex incident to a cut element carries two degrees of freedom, one
active on each subdomain fragment (the side-restricted representation of
the enriched space).  All other vertices keep a single standard hat.  A
cut element thus carries six dofs (Hansbo & Hansbo 2002), held once, in
``cut_dofs``: the side-1 copies of its three hats, then the side-2
copies.  No side is stored per dof; ``on_side2`` derives it from the copy
and, for a single dof, from its vertex's snapped sign.

A field of the space on the uniform n-mesh is carried to the uniform
2n-mesh of the same rectangle by ``prolong``, from its values on each side
at every vertex (``vertex_sides``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .interface_geometry import VOLUME_DEGREE, triangle_rule

__all__ = ["ExtendedSpace", "prolong"]


class ExtendedSpace:
    """Degree-of-freedom map of the extended space on a classified mesh."""

    def __init__(self, mesh, cut_info):
        self.mesh = mesh
        self.classes = cut_info.classes
        self.vertex_sign = cut_info.vertex_sign

        cut = mesh.triangles[cut_info.cut_elements]
        doubled = np.zeros(mesh.num_vertices, dtype=bool)
        doubled[cut] = True
        self.doubled = doubled

        # vertex-major numbering, side-1 copy before side-2 copy
        copies = 1 + doubled.astype(np.int64)
        dof1 = np.cumsum(copies) - copies
        dof2 = dof1 + doubled
        self.dof1, self.dof2 = dof1, dof2
        self.n_dofs = int(copies.sum())

        self.dof_vertex = np.repeat(np.arange(mesh.num_vertices), copies)
        # per cut element, in chord order: side-1 copies, then side-2 copies
        self.cut_dofs = np.concatenate([dof1[cut], dof2[cut]], axis=1)

        bnd = np.flatnonzero(mesh.boundary_vertex)
        dirichlet = np.concatenate([dof1[bnd], dof2[bnd[doubled[bnd]]]])
        self.dirichlet_dofs = np.unique(dirichlet)
        self.pattern = self._pattern(mesh.triangles)

    def _pattern(self, tri):
        """The sparsity pattern (indptr, indices) shared by every matrix on
        the space, rows with sorted columns: that of E^T E, E the incidence
        of elements and their dofs, one row per element with the dofs
        active on it and one more per cut element with its ``cut_dofs``.
        E^T E is symmetric, so its CSC arrays are its CSR arrays."""
        rows = self.dof1[tri]
        # side-2 elements hold the side-2 copies of their doubled vertices
        rows += (self.classes == 2)[:, None] & self.doubled[tri]
        six = self.cut_dofs
        indptr = np.concatenate([np.arange(0, rows.size, 3),
                                 rows.size + np.arange(0, six.size + 1, 6)])
        E = sp.csr_matrix(
            (np.ones(indptr[-1], dtype=bool),
             np.concatenate([rows.ravel(), six.ravel()]), indptr),
            shape=(len(indptr) - 1, self.n_dofs))
        P = E.T @ E
        P.sort_indices()
        return P.indptr, P.indices

    # ------------------------------------------------------------------
    def cell_dofs(self, cells):
        """(C, 3) dofs of the hats active on the side of each cell."""
        tri = self.mesh.triangles[cells.parent]
        return np.where((cells.side == 1)[:, None], self.dof1[tri],
                        self.dof2[tri])

    def rule(self, cells):
        """Points (C, q, 2), weights (C, q), parent barycentrics (C, q, 3),
        dofs (C, 3) and parent hat gradients (C, 3, 2) of the
        degree-VOLUME_DEGREE triangle rule on a batch of cells (a
        CellTable): the one rule of every cell integral but the masses of
        hats, which are closed form (``assembly._cell_masses``)."""
        bary, w = triangle_rule(VOLUME_DEGREE)
        pts = bary @ cells.coords
        grads = self.mesh.geometry(cells.parent)[1]
        return (pts, cells.areas()[:, None] * w,
                self.mesh.barycentric(cells.parent, pts, grads),
                self.cell_dofs(cells), grads)

    def cell_sampler(self, cells):
        """The map from a dof vector to the values (C, 3) of its field at
        the vertices of every cell, on each cell's side.  The cells'
        barycentric coordinates are computed once, here."""
        lam = self.mesh.barycentric(cells.parent, cells.coords)
        dofs = self.cell_dofs(cells)
        # one matrix-vector product per cell, rounded as for a single one
        return lambda vec: (lam @ vec[dofs][..., None])[..., 0]

    def on_side2(self, dofs):
        """Whether each of the dofs reads a two-sided field on side 2: a
        copy of a doubled vertex its own side (the second copy is side 2),
        a single dof the side of its vertex's snapped sign."""
        v = self.dof_vertex[dofs]
        return np.where(self.doubled[v], dofs != self.dof1[v],
                        self.vertex_sign[v] > 0)

    def vertex_sides(self, x):
        """The values (2, V) of the dof vector x on side 1 and on side 2 at
        every vertex; a single dof gives both."""
        return x[np.stack([self.dof1, self.dof2])]

    def boundary_values(self, func):
        """(dirichlet dofs, interpolated values) for two-sided boundary
        data (a PiecewiseField): each copy of a doubled boundary vertex
        takes its own side's trace."""
        dofs = self.dirichlet_dofs
        v = self.dof_vertex[dofs]
        x, y = self.mesh.vertices[v, 0], self.mesh.vertices[v, 1]
        vals = np.empty(len(dofs))
        side1 = ~self.on_side2(dofs)
        vals[side1] = func.side(1)(x[side1], y[side1])
        vals[~side1] = func.side(2)(x[~side1], y[~side1])
        return dofs, vals


def prolong(sides, n, domain, space):
    """The field of the extended space on the uniform n-mesh of ``domain``
    whose values on each side at every vertex are ``sides`` (2, (n+1)^2)
    (``vertex_sides``), at every dof of ``space``, whose mesh must be the
    uniform 2n-mesh of the same domain: ValueError otherwise.

    Each fine vertex is found in its coarse cell by index arithmetic: it is
    a vertex of the cell or the midpoint of one of its edges, the diagonal
    shared by the lower and the upper triangle among them.  Every side's
    field is linear along that edge, so a dof takes the mean of its side's
    values at the edge's two ends (the same vertex twice at a coarse
    vertex), and a field linear on a coarse element is prolonged exactly
    at every fine vertex in it.  A dof of both sides reads the side of its
    vertex's snapped sign, as ``boundary_values`` does."""
    mesh = space.mesh
    if not (n >= 1 and mesh.n == 2 * n and tuple(domain) == mesh.domain
            and np.shape(sides) == (2, (n + 1) ** 2)):
        raise ValueError(
            f"no prolongation from the uniform {n}-mesh of {tuple(domain)} "
            f"to the {mesh.n}-mesh of {mesh.domain} (hand-built: 0): the "
            "fine mesh must be the uniform 2n-mesh of the same domain")
    row, col = np.divmod(space.dof_vertex, 2 * n + 1)
    lo = (row // 2) * (n + 1) + col // 2
    hi = ((row + 1) // 2) * (n + 1) + (col + 1) // 2
    side = space.on_side2(np.arange(space.n_dofs)).astype(np.intp)
    return 0.5 * (sides[side, lo] + sides[side, hi])
