"""Extended P1 space: hat functions doubled on elements crossed by the
interface.

Every vertex incident to a cut element carries two degrees of freedom, one
active on each subdomain fragment (the side-restricted representation of
the enriched space).  All other vertices keep a single standard hat.
"""

from __future__ import annotations

import numpy as np

from .interface_geometry import ElementClass, GeometryError

__all__ = ["ExtendedSpace"]

SIDE_BOTH = 3


class ExtendedSpace:
    """Degree-of-freedom map of the extended space on a classified mesh."""

    def __init__(self, mesh, cut_info):
        self.mesh = mesh
        self.classes = cut_info.classes
        self.vertex_sign = cut_info.vertex_sign

        doubled = np.zeros(mesh.num_vertices, dtype=bool)
        for e in cut_info.cut_elements:
            doubled[mesh.triangles[e]] = True
        self.doubled = doubled

        # vertex-major numbering, side-1 copy before side-2 copy
        dof1 = np.empty(mesh.num_vertices, dtype=np.int64)
        dof2 = np.empty(mesh.num_vertices, dtype=np.int64)
        next_dof = 0
        for v in range(mesh.num_vertices):
            dof1[v] = next_dof
            next_dof += 1
            if doubled[v]:
                dof2[v] = next_dof
                next_dof += 1
            else:
                dof2[v] = dof1[v]
        self.dof1 = dof1
        self.dof2 = dof2
        self.n_dofs = next_dof

        dof_vertex = np.empty(self.n_dofs, dtype=np.int64)
        dof_side = np.full(self.n_dofs, SIDE_BOTH, dtype=np.int8)
        dof_vertex[dof1] = np.arange(mesh.num_vertices)
        dof_vertex[dof2] = np.arange(mesh.num_vertices)
        dof_side[dof1[doubled]] = 1
        dof_side[dof2[doubled]] = 2
        self.dof_vertex = dof_vertex
        self.dof_side = dof_side

        bnd = np.flatnonzero(mesh.boundary_vertex)
        dirichlet = np.concatenate([dof1[bnd], dof2[bnd[doubled[bnd]]]])
        self.dirichlet_dofs = np.unique(dirichlet)

    # ------------------------------------------------------------------
    def element_side(self, element):
        """Subdomain of an uncut element (1 or 2)."""
        cls = self.classes[element]
        if cls == int(ElementClass.CUT):
            raise GeometryError(f"element {element} is cut; pick a side")
        return int(cls)

    def element_dofs(self, element, side=None):
        """Global dofs of the hats active on ``side`` of the element."""
        tri = self.mesh.triangles[element]
        if self.classes[element] != int(ElementClass.CUT):
            side = self.element_side(element)
        elif side not in (1, 2):
            raise GeometryError(
                f"element {element} is cut; side must be 1 or 2")
        return (self.dof1 if side == 1 else self.dof2)[tri]

    def cut_element_dofs(self, element):
        """All six dofs of a cut element: side-1 copies then side-2 copies."""
        tri = self.mesh.triangles[element]
        return np.concatenate([self.dof1[tri], self.dof2[tri]])

    def boundary_values(self, func):
        """(dirichlet dofs, interpolated values) for boundary data.

        Two-sided data (anything with a ``side`` accessor) gives each copy
        of a doubled boundary vertex its own side's trace; a plain callable
        is used for both copies.
        """
        two_sided = hasattr(func, "side")
        vals = np.empty(len(self.dirichlet_dofs))
        for i, dof in enumerate(self.dirichlet_dofs):
            v = self.dof_vertex[dof]
            x, y = self.mesh.vertices[v]
            if two_sided:
                side = self.dof_side[dof]
                if side == SIDE_BOTH:
                    side = 1 if self.vertex_sign[v] < 0 else 2
                vals[i] = func.side(side)(x, y)
            else:
                vals[i] = func(x, y)
        return self.dirichlet_dofs, vals


def interpolate_two_sided(space, vertex_signs, f1, f2):
    """Dof vector interpolating a two-sided field: doubled vertices take the
    matching side value on each copy, plain vertices the value of the side
    their (snapped) sign selects."""
    mesh = space.mesh
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    v1 = np.asarray(f1(x, y), dtype=float)
    v2 = np.asarray(f2(x, y), dtype=float)
    vals = np.empty(space.n_dofs)
    vertex = space.dof_vertex
    side = space.dof_side
    pick1 = (side == 1) | ((side == SIDE_BOTH) & (vertex_signs[vertex] < 0))
    vals[pick1] = v1[vertex[pick1]]
    vals[~pick1] = v2[vertex[~pick1]]
    return vals
