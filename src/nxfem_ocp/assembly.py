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

from .interface_geometry import VOLUME_DEGREE

__all__ = ["NitscheParams", "RefineSpec", "assemble_stiffness",
           "assemble_mass", "assemble_load"]

# exact local P1 mass matrix, to be scaled by the area
_MASS_BARY = np.array([[2.0, 1.0, 1.0],
                       [1.0, 2.0, 1.0],
                       [1.0, 1.0, 2.0]]) / 12.0


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
    """Adaptive volume quadrature: cells of elements flagged in ``mask``
    are split recursively while ``pred(coords, side)`` holds, up to
    KINK_DEPTH levels; ``pred`` maps (C, 3, 2) triangles to (C,) flags."""

    mask: np.ndarray
    pred: callable


def _csr(n, blocks):
    """Sum of local (B, m, m) matrices scattered to their (B, m) dofs."""
    rows = [np.repeat(dofs, dofs.shape[1], axis=1).ravel() for dofs, _ in blocks]
    cols = [np.tile(dofs, (1, dofs.shape[1])).ravel() for dofs, _ in blocks]
    vals = [loc.ravel() for _, loc in blocks]
    return sp.coo_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n)).tocsr()


def _uncut_blocks(mesh, cut_info, space, local_of_element):
    """(dofs, local matrices) of the uncut elements of each side."""
    blocks = []
    for side, dmap in ((1, space.dof1), (2, space.dof2)):
        els = np.flatnonzero(cut_info.classes == side)
        blocks.append((dmap[mesh.triangles[els]], local_of_element(side, els)))
    return blocks


def _hat_products(weights, lam):
    """Integrals of hat products, (C, 3, 3), from a batched rule."""
    return np.einsum("cq,cqi,cqj->cij", weights, lam, lam)


def assemble_stiffness(mesh, cut_info, space, alpha1, alpha2, params):
    """Global matrix of the penalized interface form.  Cut elements carry
    six dofs: the side-1 copies of their hats, then the side-2 copies."""
    lam_penalty = params.lam(mesh.h, alpha1, alpha2)

    def local(side, els):
        alpha = alpha1 if side == 1 else alpha2
        g = mesh.grad_bary[els]
        gg = np.einsum("eid,ejd->eij", g, g)
        return alpha * mesh.areas[els][:, None, None] * gg

    ch = cut_info.chords
    g = mesh.grad_bary[ch.element]                      # (K, 3, 2)
    vol = mesh.areas[ch.element][:, None, None] * np.einsum("kid,kjd->kij", g, g)
    gn = np.einsum("kid,kd->ki", g, ch.normal)
    _, w, lam = ch.quadrature(mesh)
    Jhat = np.einsum("kq,kqi->ki", w, lam)
    sigma = np.repeat([1.0, -1.0], 3)
    D = np.concatenate([(ch.k1 * alpha1)[:, None] * gn,
                        (ch.k2 * alpha2)[:, None] * gn], axis=1)
    J = sigma * np.concatenate([Jhat, Jhat], axis=1)
    A = (lam_penalty * np.outer(sigma, sigma)
         * np.tile(_hat_products(w, lam), (1, 2, 2))
         - D[:, :, None] * J[:, None, :] - J[:, :, None] * D[:, None, :])
    A[:, :3, :3] += (alpha1 * ch.k1)[:, None, None] * vol
    A[:, 3:, 3:] += (alpha2 * ch.k2)[:, None, None] * vol
    dofs = np.concatenate([space.dof1[mesh.triangles[ch.element]],
                           space.dof2[mesh.triangles[ch.element]]], axis=1)
    return _csr(space.n_dofs, _uncut_blocks(mesh, cut_info, space, local)
                + [(dofs, A)])


def assemble_mass(mesh, cut_info, space):
    """Global L2 mass matrix of the extended space."""

    def local(side, els):
        return mesh.areas[els][:, None, None] * _MASS_BARY[None, :, :]

    cells = cut_info.cells
    _, w, lam = cells.quadrature(mesh, VOLUME_DEGREE)
    return _csr(space.n_dofs, _uncut_blocks(mesh, cut_info, space, local)
                + [(space.cell_dofs(cells), _hat_products(w, lam))])


def _volume_load(vec, mesh, cut_info, space, func, refine):
    """Add the volume inner product of the two-sided ``func`` with every
    basis function."""
    for side in (1, 2):
        cells = cut_info.integration_cells(mesh, side)
        if refine is not None:
            cells = cells.refined(refine.mask[cells.parent],
                                  lambda c: refine.pred(c.coords, side))
        for part in cells.batches():
            pts, w, lam = part.quadrature(mesh, VOLUME_DEGREE)
            fv = func.side(side)(pts[..., 0], pts[..., 1])
            loads = np.einsum("cq,cqi->ci", w * fv, lam)
            vec += np.bincount(space.cell_dofs(part).ravel(),
                               loads.ravel(), minlength=len(vec))


def _interface_load(vec, mesh, cut_info, space, g):
    """Add the interface flux data with cross weights: side-1 traces are
    weighted by k2, side-2 traces by k1."""
    ch = cut_info.chords
    pts, w, lam = ch.quadrature(mesh)
    gv = np.asarray(g(pts[..., 0], pts[..., 1]), dtype=float)
    base = np.einsum("kq,kqi->ki", w * gv, lam)
    tri = mesh.triangles[ch.element]
    for dmap, k in ((space.dof1, ch.k2), (space.dof2, ch.k1)):
        vec += np.bincount(dmap[tri].ravel(), (k[:, None] * base).ravel(),
                           minlength=len(vec))


def assemble_load(mesh, cut_info, space, f=None, g=None, refine=None):
    """Right-hand side vector with the volume source f (a PiecewiseField)
    and the interface flux data g (a callable on the chords)."""
    vec = np.zeros(space.n_dofs)
    if f is not None:
        _volume_load(vec, mesh, cut_info, space, f, refine)
    if g is not None:
        _interface_load(vec, mesh, cut_info, space, g)
    return vec
