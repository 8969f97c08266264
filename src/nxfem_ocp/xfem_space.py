"""Extended P1 space: hat functions doubled on elements crossed by the
interface.

Every vertex incident to a cut element carries two degrees of freedom, one
active on each subdomain fragment (the side-restricted representation of
the enriched space).  All other vertices keep a single standard hat.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ExtendedSpace"]

SIDE_BOTH = 3


class ExtendedSpace:
    """Degree-of-freedom map of the extended space on a classified mesh."""

    def __init__(self, mesh, cut_info):
        self.mesh = mesh
        self.classes = cut_info.classes
        self.vertex_sign = cut_info.vertex_sign

        doubled = np.zeros(mesh.num_vertices, dtype=bool)
        doubled[mesh.triangles[cut_info.cut_elements]] = True
        self.doubled = doubled

        # vertex-major numbering, side-1 copy before side-2 copy
        copies = 1 + doubled.astype(np.int64)
        dof1 = np.cumsum(copies) - copies
        dof2 = dof1 + doubled
        self.dof1, self.dof2 = dof1, dof2
        self.n_dofs = int(copies.sum())

        self.dof_vertex = np.repeat(np.arange(mesh.num_vertices), copies)
        self.dof_side = np.full(self.n_dofs, SIDE_BOTH, dtype=np.int8)
        self.dof_side[dof1[doubled]] = 1
        self.dof_side[dof2[doubled]] = 2

        bnd = np.flatnonzero(mesh.boundary_vertex)
        dirichlet = np.concatenate([dof1[bnd], dof2[bnd[doubled[bnd]]]])
        self.dirichlet_dofs = np.unique(dirichlet)

    # ------------------------------------------------------------------
    def cell_dofs(self, cells):
        """(C, 3) dofs of the hats active on the side of each cell."""
        tri = self.mesh.triangles[cells.parent]
        return np.where((cells.side == 1)[:, None], self.dof1[tri],
                        self.dof2[tri])

    def cell_sampler(self, cells):
        """The map from a dof vector to the values (C, 3) of its field at
        the vertices of every cell, on each cell's side.  The cells'
        barycentric coordinates are computed once, here."""
        lam = self.mesh.barycentric(cells.parent, cells.coords)
        dofs = self.cell_dofs(cells)
        # one matrix-vector product per cell, rounded as for a single one
        return lambda vec: (lam @ vec[dofs][..., None])[..., 0]

    def boundary_values(self, func):
        """(dirichlet dofs, interpolated values) for two-sided boundary
        data (a PiecewiseField): each copy of a doubled boundary vertex
        takes its own side's trace."""
        dofs = self.dirichlet_dofs
        v = self.dof_vertex[dofs]
        x, y = self.mesh.vertices[v, 0], self.mesh.vertices[v, 1]
        vals = np.empty(len(dofs))
        side = self.dof_side[dofs]
        side1 = (side == 1) | ((side == SIDE_BOTH) & (self.vertex_sign[v] < 0))
        vals[side1] = func.side(1)(x[side1], y[side1])
        vals[~side1] = func.side(2)(x[~side1], y[~side1])
        return dofs, vals
