"""Assembly of the penalized interface bilinear form, mass matrix and loads.

The bilinear form contains the broken diffusion term, the two consistency
terms coupling flux averages with jumps across the interface chord, and the
stabilizing jump penalty.  Volume contributions on cut elements are
integrated side by side over the sub-triangulation, interface contributions
with Gauss rules on the chords.  All right-hand sides of a mesh come from
one pass over the integration cells: each batch builds its quadrature
rule once and every volume source is contracted against it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .interface_geometry import VOLUME_DEGREE, CellTable

__all__ = ["RefineSpec", "Load", "assemble_stiffness", "assemble_mass",
           "assemble_load"]

# exact local P1 mass matrix, to be scaled by the area
_MASS_BARY = np.array([[2.0, 1.0, 1.0],
                       [1.0, 2.0, 1.0],
                       [1.0, 1.0, 2.0]]) / 12.0


@dataclass
class RefineSpec:
    """Adaptive volume quadrature: cells of elements flagged in ``mask``
    are split recursively while ``pred(coords, side)`` holds, up to
    KINK_DEPTH levels; ``pred`` maps (C, 3, 2) triangles to (C,) flags."""

    mask: np.ndarray
    pred: callable


class Load(NamedTuple):
    """One right-hand side: ``sign`` (+1 or -1) times the inner products of
    the volume source f (a PiecewiseField or None) with every basis
    function, integrated adaptively where ``refine`` (a RefineSpec or None)
    says, plus the interface flux data g (a callable on the chords or
    None)."""

    f: object
    g: object
    refine: RefineSpec | None
    sign: float


def _assemble(space, blocks):
    """The sum of local matrices on the sparsity pattern of the space.
    ``blocks`` yields, a batch at a time, dofs (B, m) and local matrices
    (B, m, m); every entry is added at its place in the data array, found
    through a CSR map from (row, column) to that place.  The matrix shares
    the pattern's index arrays, so the sum of two such matrices is that of
    their data."""
    indptr, indices = space.pattern
    shape = (space.n_dofs, space.n_dofs)
    place = sp.csr_matrix((np.arange(len(indices)), indices, indptr),
                          shape=shape)
    data = np.zeros(len(indices))
    for dofs, local in blocks:
        if len(dofs) == 0:      # scipy answers an empty lookup with a matrix
            continue
        m = dofs.shape[1]
        at = place[np.repeat(dofs, m, axis=1).ravel(),
                   np.tile(dofs, (1, m)).ravel()]
        np.add.at(data, np.asarray(at).ravel(), local.ravel())
    return sp.csr_matrix((data, indices, indptr), shape=shape)


def _slices(count):
    """Consecutive slices of at most ``CellTable.BATCH`` items."""
    return (slice(i, i + CellTable.BATCH)
            for i in range(0, count, CellTable.BATCH))


def _uncut_blocks(mesh, cut_info, space, local_of_element):
    """(dofs, local matrices) of the uncut elements of each side, a batch
    at a time."""
    for side, dmap in ((1, space.dof1), (2, space.dof2)):
        els = np.flatnonzero(cut_info.classes == side)
        for part in _slices(len(els)):
            yield dmap[mesh.triangles[els[part]]], local_of_element(side,
                                                                    els[part])


def _grad_products(area, g):
    """``area`` times the products of hat gradients g g^T, (K, 3, 3); g g^T
    is spelled out, as einsum rounds it alike but takes 2.7x as long."""
    return area[:, None, None] * (g[:, :, None, 0] * g[:, None, :, 0]
                                  + g[:, :, None, 1] * g[:, None, :, 1])


def _hat_products(weights, lam):
    """Integrals of hat products, (C, 3, 3), from a batched rule, as one
    batched matrix product (einsum takes 3x as long)."""
    return (weights[..., None] * lam).transpose(0, 2, 1) @ lam


def _hat_blocks(dofs, weights, lam):
    """(dofs, integrals of hat products) of a batched rule, a batch of
    cells at a time."""
    for part in _slices(len(dofs)):
        yield dofs[part], _hat_products(weights[part], lam[part])


def assemble_stiffness(mesh, cut_info, space, alpha1, alpha2, lambda_coef):
    """Global matrix of the penalized interface form, with the jump penalty
    lambda = lambda_coef / h.  Cut elements carry six dofs: the side-1
    copies of their hats, then the side-2 copies."""
    if not lambda_coef > 0.0:
        raise ValueError(f"penalty coefficient must be positive, got "
                         f"{lambda_coef}")
    lam_penalty = lambda_coef / mesh.h

    def local(side, els):
        area, g = mesh.geometry(els)
        return _grad_products((alpha1 if side == 1 else alpha2) * area, g)

    ch = cut_info.chords
    area, g = mesh.geometry(ch.element)                 # (K,), (K, 3, 2)
    vol = _grad_products(area, g)
    gn = np.einsum("kid,kd->ki", g, ch.normal)
    _, w, lam = ch.quadrature(mesh, g)
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
    # the cut elements, O(n) of them, in one block
    return _assemble(space, itertools.chain(
        _uncut_blocks(mesh, cut_info, space, local), [(dofs, A)]))


def assemble_mass(mesh, cut_info, space):
    """Global L2 mass matrix of the extended space.  Its pattern is that
    of the stiffness matrix, so the entries that couple the two sides of a
    cut element are stored zeros."""

    def local(side, els):
        return mesh.areas(els)[:, None, None] * _MASS_BARY[None, :, :]

    _, w, lam, dofs, _ = space.rule(cut_info.cells, VOLUME_DEGREE)
    return _assemble(space, itertools.chain(
        _uncut_blocks(mesh, cut_info, space, local),
        _hat_blocks(dofs, w, lam)))


def _hat_load(n, dofs, w, lam, values):
    """Inner products (n,) with every hat of a field given by its
    ``values`` at the points of a batched rule (weights w, barycentrics lam
    of the cells with dofs ``dofs``)."""
    return np.bincount(dofs.ravel(),
                       np.einsum("cq,cqi->ci", w * values, lam).ravel(),
                       minlength=n)


def _batch_loads(live, space, side, part):
    """Add the inner products of every (vector, load) in ``live`` over a
    batch of one side's cells: the batch gets its rule once, and the
    sources that view one jet (see ``problems.PiecewiseField``) read it
    evaluated once, with Laplacians; a load with a RefineSpec skips the
    cells of the elements it flags.  Nothing of the batch outlives the
    call."""
    pts, w, lam, dofs, _ = space.rule(part, VOLUME_DEGREE)
    jets = {}
    for vec, load in live:
        f = load.f
        if f.jet is None:
            values = f.side(side)(pts[..., 0], pts[..., 1])
        else:
            if f.jet not in jets:
                jets[f.jet] = f.jet.side(side)(pts[..., 0], pts[..., 1], True)
            values = f.read(side, jets[f.jet])
        plain = slice(None) if load.refine is None \
            else ~load.refine.mask[part.parent]
        vec += _hat_load(len(vec), dofs[plain], w[plain], lam[plain],
                         values[plain])


def _volume_loads(vecs, mesh, cut_info, space, loads):
    """Add the volume inner products of every load's source with every
    basis function, a batch of integration cells at a time; a load with a
    RefineSpec integrates the leaves of the refinement of the elements it
    flags in an extra pass of its own."""
    live = [(vec, load) for vec, load in zip(vecs, loads)
            if load.f is not None]
    for side in (1, 2):
        cells = cut_info.integration_cells(mesh, side)
        for part in cells.batches():
            _batch_loads(live, space, side, part)
        for vec, load in live:
            spec = load.refine
            if spec is None:
                continue
            flagged = cells[spec.mask[cells.parent]]
            leaves = flagged.refined(lambda c: spec.pred(c.coords, side))
            for part in leaves.batches():
                _batch_loads([(vec, load._replace(refine=None))], space,
                             side, part)


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


def assemble_load(mesh, cut_info, space, *loads):
    """One right-hand side vector per Load, all from one pass over the
    integration cells.  The volume part is scaled by the load's sign before
    the interface part is added, so a sign of -1 gives the same vector as
    the negated source would."""
    vecs = [np.zeros(space.n_dofs) for _ in loads]
    _volume_loads(vecs, mesh, cut_info, space, loads)
    for vec, load in zip(vecs, loads):
        vec *= load.sign
        if load.g is not None:
            _interface_load(vec, mesh, cut_info, space, load.g)
    return vecs
