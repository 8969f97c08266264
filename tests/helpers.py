"""Helpers that only the tests use: a mesh from raw arrays, element
coordinates, areas and hat gradients, a triangle's area, one element's
dofs, a two-sided nodal interpolant, the total chord length, the subdomain
of a point and the exact state trace there, an interface-free control
problem and the pointwise projection of a co-state onto the control box."""

import numpy as np

from nxfem_ocp.interface_geometry import (ElementClass, GeometryError,
                                          circle_interface)
from nxfem_ocp.mesh import Mesh
from nxfem_ocp.problems import Jet, ManufacturedProblem, PiecewiseField
from nxfem_ocp.solver import _check_control
from nxfem_ocp.xfem_space import SIDE_BOTH


def mesh_from_arrays(vertices, triangles, domain=None):
    """A mesh from raw arrays; boundary vertices are taken from edges
    incident to a single triangle."""
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)
    counts = {}
    for tri in triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    boundary = np.zeros(len(vertices), dtype=bool)
    for (a, b), c in counts.items():
        if c == 1:
            boundary[a] = boundary[b] = True
    if domain is None:
        domain = (vertices[:, 0].min(), vertices[:, 0].max(),
                  vertices[:, 1].min(), vertices[:, 1].max())
    return Mesh(vertices, triangles, boundary, 0, tuple(domain))


def tri_coords(mesh, e):
    """Coordinates of element e, shape (3, 2)."""
    return mesh.vertices[mesh.triangles[e]]


def element_areas(mesh, e):
    """Areas of elements e, from their vertex coordinates."""
    return element_geometry(mesh, e)[0]


def hat_gradients(mesh, e):
    """Hat gradients (..., 3, 2) of elements e, from their vertex
    coordinates."""
    return element_geometry(mesh, e)[1]


def element_geometry(mesh, e):
    """Areas (...) and hat gradients (..., 3, 2) of elements e: those of
    hats 1 and 2 are the perpendiculars of the edges from vertex 0 over
    twice the area, that of hat 0 is minus their sum."""
    c = mesh.vertices[mesh.triangles[e]]
    d1 = c[..., 1, :] - c[..., 0, :]
    d2 = c[..., 2, :] - c[..., 0, :]
    det = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
    g1 = np.stack([d2[..., 1], -d2[..., 0]], axis=-1) / det[..., None]
    g2 = np.stack([-d1[..., 1], d1[..., 0]], axis=-1) / det[..., None]
    return 0.5 * det, np.stack([-g1 - g2, g1, g2], axis=-2)


def triangle_area(coords):
    """Area of a triangle from its (3, 2) vertex coordinates (shoelace)."""
    coords = np.asarray(coords, dtype=float)
    e0 = coords[1] - coords[0]
    e1 = coords[2] - coords[0]
    return 0.5 * abs(e0[0] * e1[1] - e0[1] * e1[0])


def element_dofs(space, element, side=None):
    """Global dofs of the hats active on ``side`` of the element (the
    element's own subdomain if it is uncut)."""
    tri = space.mesh.triangles[element]
    if space.classes[element] != int(ElementClass.CUT):
        side = int(space.classes[element])
    elif side not in (1, 2):
        raise GeometryError(f"element {element} is cut; side must be 1 or 2")
    return (space.dof1 if side == 1 else space.dof2)[tri]


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


def total_interface_length(cut_info):
    """Sum of chord lengths over all cut elements."""
    d = cut_info.chords.q2 - cut_info.chords.q1
    return float(np.sqrt((d ** 2).sum(axis=1)).sum())


def side_at(problem, x, y):
    """Subdomain of a point, with the near-interface tie going to 2."""
    return np.where(problem.levelset(x, y) < 0.0, 1, 2)


def boundary_value(problem, x, y):
    """Exact state trace of the problem at a point of the boundary."""
    return np.where(side_at(problem, x, y) == 1, problem.y.side(1)(x, y),
                    problem.y.side(2)(x, y))


def build_smooth_problem(a=1.0):
    """Interface-free control problem on the unit square (degradation guard):
    state and pre-clamp control are one sine bubble, the level set never
    enters the domain."""
    pi = np.pi

    def jet(x, y, lap=False):
        sx, sy, cx, cy = (np.sin(pi * x), np.sin(pi * y), np.cos(pi * x),
                          np.cos(pi * y))
        sig, grad = sx * sy, (pi * cx * sy, pi * sx * cy)
        lap_sig = -2.0 * pi ** 2 * sig if lap else None
        return Jet(sig, grad, sig, grad, lap_sig, lap_sig)

    return ManufacturedProblem(
        name="smooth", domain=(0.0, 1.0, 0.0, 1.0),
        levelset=circle_interface(1.0, center=(10.0, 10.0)), alpha1=1.0,
        alpha2=1.0, a=a, lambda_coef=100.0, bounds=None,
        jet=PiecewiseField(jet, jet), relative_errors=True)


def project_control(p_values, a, u_a, u_b):
    """Pointwise clamp of -p/a onto the admissible box."""
    _check_control(a, (u_a, u_b))
    return np.clip(-np.asarray(p_values, dtype=float) / a, u_a, u_b)
