"""Assembly of the penalized interface bilinear form, mass matrix and loads.

The bilinear form contains the broken diffusion term, the two consistency
terms coupling flux averages with jumps across the interface chord, and the
stabilizing jump penalty.  Volume contributions on cut elements are
integrated side by side over the sub-triangulation, interface contributions
with Gauss rules on the chords.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .interface_geometry import (ElementClass, map_rule_to_triangle,
                                 refined_triangle_quadrature, segment_quadrature,
                                 triangle_rule)

__all__ = ["NitscheParams", "RefineSpec", "AssemblyError",
           "assemble_stiffness", "assemble_mass", "assemble_load"]

# exact local P1 mass matrix, to be scaled by the area
_MASS_BARY = np.array([[2.0, 1.0, 1.0],
                       [1.0, 2.0, 1.0],
                       [1.0, 1.0, 2.0]]) / 12.0


class AssemblyError(RuntimeError):
    """Internal inconsistency between classification and cut geometry."""


@dataclass(frozen=True)
class NitscheParams:
    """Jump penalty lambda = c_tilde * max(alpha1, alpha2) / h."""

    c_tilde: float

    def __post_init__(self):
        if self.c_tilde <= 0.0:
            raise ValueError("penalty coefficient must be positive")

    def lam(self, h, alpha1, alpha2):
        return self.c_tilde * max(alpha1, alpha2) / h


@dataclass
class RefineSpec:
    """Adaptive volume quadrature: elements flagged in ``mask`` are split
    recursively while ``pred(tri_coords, side)`` holds, up to ``depth``."""

    mask: np.ndarray
    pred: callable
    depth: int = 3


def _side_funcs(f):
    """Normalize a load callable: plain callables act on both sides."""
    if f is None:
        return None, None
    if hasattr(f, "side"):
        return f.side(1), f.side(2)
    return f, f


def _uncut_elements_by_side(cut_info):
    cls = cut_info.classes
    return (np.flatnonzero(cls == int(ElementClass.INTERIOR_1)),
            np.flatnonzero(cls == int(ElementClass.INTERIOR_2)))


def _chord_hat_integrals(mesh, cg, seg_points):
    """(J_i, P_ij) = integrals of hats and hat products over the chord."""
    rule = segment_quadrature(cg.q1, cg.q2, seg_points)
    lam = mesh.barycentric(cg.element, rule.points)        # (nq, 3)
    J = rule.weights @ lam
    P = (lam * rule.weights[:, None]).T @ lam
    return J, P


def cut_element_matrices(mesh, cg, alpha1, alpha2, lam_penalty,
                         quad_degree=4, seg_points=3):
    """Local 6x6 stiffness and mass blocks of one cut element.

    Dof order: side-1 copies of the three hats, then side-2 copies.
    """
    e = cg.element
    grads = mesh.grad_bary[e]                  # (3, 2)
    gg = grads @ grads.T
    area = mesh.areas[e]

    A = np.zeros((6, 6))
    A[:3, :3] = alpha1 * cg.k1 * area * gg
    A[3:, 3:] = alpha2 * cg.k2 * area * gg

    # flux average against jump, both ways, plus the jump penalty
    n = cg.normal
    gn = grads @ n
    D = np.concatenate([cg.k1 * alpha1 * gn, cg.k2 * alpha2 * gn])
    Jhat, Phat = _chord_hat_integrals(mesh, cg, seg_points)
    sigma = np.array([1.0] * 3 + [-1.0] * 3)
    J = sigma * np.concatenate([Jhat, Jhat])
    P = np.outer(sigma, sigma) * np.tile(Phat, (2, 2))
    A += -np.outer(D, J) - np.outer(J, D) + lam_penalty * P

    bary, w = triangle_rule(quad_degree)
    M = np.zeros((6, 6))
    for sl, tris in ((slice(0, 3), cg.tris1), (slice(3, 6), cg.tris2)):
        block = np.zeros((3, 3))
        for t in tris:
            r = map_rule_to_triangle(t, bary, w)
            lamq = mesh.barycentric(e, r.points)
            block += (lamq * r.weights[:, None]).T @ lamq
        M[sl, sl] = block
    return A, M


def _accumulate_uncut(mesh, space, cut_info, local_of_element):
    """Vectorized assembly of per-element 3x3 blocks over uncut elements."""
    rows, cols, vals = [], [], []
    for side, els in zip((1, 2), _uncut_elements_by_side(cut_info)):
        if len(els) == 0:
            continue
        dofs = (space.dof1 if side == 1 else space.dof2)[mesh.triangles[els]]
        loc = local_of_element(side, els)                  # (E, 3, 3)
        rows.append(np.repeat(dofs, 3, axis=1).ravel())
        cols.append(np.tile(dofs, (1, 3)).ravel())
        vals.append(loc.reshape(len(els), 9).ravel())
    return rows, cols, vals


def assemble_stiffness(mesh, cut_info, space, alpha1, alpha2, params,
                       quad_degree=4, seg_points=3):
    """Global matrix of the penalized interface form."""
    lam_penalty = params.lam(mesh.h, alpha1, alpha2)

    def local(side, els):
        alpha = alpha1 if side == 1 else alpha2
        g = mesh.grad_bary[els]
        gg = np.einsum("eid,ejd->eij", g, g)
        return alpha * mesh.areas[els][:, None, None] * gg

    rows, cols, vals = _accumulate_uncut(mesh, space, cut_info, local)
    for e in cut_info.cut_elements:
        cg = cut_info.cuts.get(int(e))
        if cg is None:
            raise AssemblyError(f"missing cut geometry for element {e}")
        A_loc, _ = cut_element_matrices(mesh, cg, alpha1, alpha2, lam_penalty,
                                        quad_degree, seg_points)
        dofs = space.cut_element_dofs(int(e))
        rows.append(np.repeat(dofs, 6))
        cols.append(np.tile(dofs, 6))
        vals.append(A_loc.ravel())
    S = space.n_dofs
    A = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(S, S))
    return A.tocsr()


def assemble_mass(mesh, cut_info, space, quad_degree=4):
    """Global L2 mass matrix of the extended space."""

    def local(side, els):
        return mesh.areas[els][:, None, None] * _MASS_BARY[None, :, :]

    rows, cols, vals = _accumulate_uncut(mesh, space, cut_info, local)
    for e in cut_info.cut_elements:
        cg = cut_info.cuts[int(e)]
        _, M_loc = cut_element_matrices(mesh, cg, 1.0, 1.0, 0.0, quad_degree)
        dofs = space.cut_element_dofs(int(e))
        rows.append(np.repeat(dofs, 6))
        cols.append(np.tile(dofs, 6))
        vals.append(M_loc.ravel())
    S = space.n_dofs
    M = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(S, S))
    return M.tocsr()


def _volume_load(vec, mesh, cut_info, space, func, quad_degree, refine):
    """Add the volume inner product of ``func`` with every basis function."""
    f1, f2 = _side_funcs(func)
    bary, w = triangle_rule(quad_degree)
    mask = refine.mask if refine is not None else None

    for side, fs, els in zip((1, 2), (f1, f2),
                             _uncut_elements_by_side(cut_info)):
        if len(els) == 0:
            continue
        plain = els if mask is None else els[~mask[els]]
        if len(plain):
            coords = mesh.vertices[mesh.triangles[plain]]
            pts = np.einsum("qi,eik->eqk", bary, coords)
            fv = fs(pts[..., 0], pts[..., 1])
            loads = np.einsum("eq,q,qi->ei", fv, w, bary) \
                * mesh.areas[plain][:, None]
            dofs = (space.dof1 if side == 1 else space.dof2)[mesh.triangles[plain]]
            np.add.at(vec, dofs, loads)
        flagged = [] if mask is None else els[mask[els]]
        for e in flagged:
            pts, wts = refined_triangle_quadrature(
                mesh.tri_coords(e), bary, w,
                lambda c: refine.pred(c, side), refine.depth)
            lamq = mesh.barycentric(e, pts)
            fv = fs(pts[:, 0], pts[:, 1])
            dofs = (space.dof1 if side == 1 else space.dof2)[mesh.triangles[e]]
            np.add.at(vec, dofs, (wts * fv) @ lamq)

    for e in cut_info.cut_elements:
        e = int(e)
        cg = cut_info.cuts[e]
        tri = mesh.triangles[e]
        for side, fs, tris, dofs in ((1, f1, cg.tris1, space.dof1[tri]),
                                     (2, f2, cg.tris2, space.dof2[tri])):
            for t in tris:
                if refine is not None and refine.mask[e]:
                    pts, wts = refined_triangle_quadrature(
                        t, bary, w, lambda c, s=side: refine.pred(c, s),
                        refine.depth)
                else:
                    r = map_rule_to_triangle(t, bary, w)
                    pts, wts = r.points, r.weights
                lamq = mesh.barycentric(e, pts)
                fv = fs(pts[:, 0], pts[:, 1])
                np.add.at(vec, dofs, (wts * fv) @ lamq)


def _interface_load(vec, mesh, cut_info, space, g, seg_points):
    """Add the interface flux data with cross weights: side-1 traces are
    weighted by k2, side-2 traces by k1."""
    for e in cut_info.cut_elements:
        e = int(e)
        cg = cut_info.cuts[e]
        rule = segment_quadrature(cg.q1, cg.q2, seg_points)
        lamq = mesh.barycentric(e, rule.points)
        gv = np.asarray(g(rule.points[:, 0], rule.points[:, 1]), dtype=float)
        base = (rule.weights * gv) @ lamq
        tri = mesh.triangles[e]
        np.add.at(vec, space.dof1[tri], cg.k2 * base)
        np.add.at(vec, space.dof2[tri], cg.k1 * base)


def assemble_load(mesh, cut_info, space, f=None, g=None, u_field=None,
                  mass=None, quad_degree=4, seg_points=3, refine=None):
    """Right-hand side vector with volume source f, interface flux data g
    and control term u.

    ``u_field`` is either a dof vector (requires ``mass``) or a callable /
    two-sided field integrated by quadrature like ``f``.
    """
    vec = np.zeros(space.n_dofs)
    if f is not None:
        _volume_load(vec, mesh, cut_info, space, f, quad_degree, refine)
    if u_field is not None:
        if isinstance(u_field, np.ndarray):
            if mass is None:
                raise AssemblyError("dof-vector control term needs the mass matrix")
            vec += mass @ u_field
        else:
            _volume_load(vec, mesh, cut_info, space, u_field, quad_degree, refine)
    if g is not None:
        _interface_load(vec, mesh, cut_info, space, g, seg_points)
    return vec
