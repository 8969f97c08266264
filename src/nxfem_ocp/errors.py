"""Error norms of computed optimal triples against the exact fields.

All integrals are evaluated side by side: on cut elements the exact
per-subdomain formulas are integrated over the matching sub-triangles of
the chord-based geometry.  The mesh-dependent norm augments the broken H1
seminorm with the h-weighted interface terms (average normal derivative
scaled by h_T, jump scaled by 1/h_T).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interface_geometry import VOLUME_DEGREE, ElementClass

__all__ = ["FieldErrors", "ErrorReport", "compute_errors"]

FIELDS = ("u", "y", "p")
NORMS = ("l2", "h1", "triple")


@dataclass
class FieldErrors:
    l2: float
    h1: float
    triple: float
    exact_l2: float
    exact_h1: float
    exact_triple: float

    def value(self, norm, relative):
        err = getattr(self, norm)
        if not relative:
            return err
        ref = getattr(self, f"exact_{norm}")
        return err / ref if ref > 0.0 else err


@dataclass
class ErrorReport:
    fields: dict
    relative: bool

    def value(self, field, norm):
        return self.fields[field].value(norm, self.relative)


class _ClampedLinearField:
    """Discrete field representable as clip(C . lambda, lo, hi) per side."""

    def __init__(self, coeff_vec, scale, bounds):
        self.vec = coeff_vec
        self.scale = scale
        self.bounds = bounds
        self.lo, self.hi = (-np.inf, np.inf) if bounds is None else bounds

    def coeffs(self, dofs):
        return self.scale * self.vec[dofs]

    def evaluate(self, dofs, lam, grads):
        """Clamped values (C, q), unclamped mask (C, q) and unclamped
        gradients (C, 2) at barycentrics ``lam`` (C, q, 3) of cells with
        dofs (C, 3) and hat gradients (C, 3, 2); an unbounded field is
        unclamped everywhere, so it skips the clip and the mask."""
        C = self.coeffs(dofs)
        raw = np.einsum("cqi,ci->cq", lam, C)
        grad = np.einsum("ci,cid->cd", C, grads)
        if self.bounds is None:
            return raw, True, grad
        return (np.clip(raw, self.lo, self.hi),
                (raw > self.lo) & (raw < self.hi), grad)


def _volume_sums(exact, exact_grad, disc, rule):
    """Squared L2 and H1-seminorm integrals of the error and of the exact
    field over a rule."""
    pts, w, lam, dofs, grads = rule
    vals, active, dg = disc.evaluate(dofs, lam, grads)
    ev = exact(pts[..., 0], pts[..., 1])
    egx, egy = exact_grad(pts[..., 0], pts[..., 1])
    return np.array([
        np.sum(w * (ev - vals) ** 2),
        np.sum(w * ((egx - active * dg[:, None, 0]) ** 2
                    + (egy - active * dg[:, None, 1]) ** 2)),
        np.sum(w * ev ** 2),
        np.sum(w * (egx ** 2 + egy ** 2))])


def _kinked(disc, mesh, space, cells, exact_kinked, grads=None):
    """``exact_kinked``, or the discrete clamp switches inside the cell
    (judged from its vertex values); ``grads`` are the parents' hat
    gradients, if the caller has them."""
    lam = mesh.barycentric(cells.parent, cells.coords, grads)
    raw = np.einsum("cvi,ci->cv", lam, disc.coeffs(space.cell_dofs(cells)))
    rmin, rmax = raw.min(axis=1), raw.max(axis=1)
    return (exact_kinked | ((rmin < disc.lo) & (disc.lo < rmax))
            | ((rmin < disc.hi) & (disc.hi < rmax)))


def _kink_refined(rule, cells, disc, spec, mesh, cut_info, space, side):
    """The rule with the cells that a kink of the clamped control crosses
    replaced by the leaves of their refinement: exact kinks are those of
    the load refinement ``spec``, judged at the vertices on uncut
    elements; discrete kinks come from the cell's vertex values."""
    cut = cut_info.classes[cells.parent] == int(ElementClass.CUT)
    exact = spec.mask[cells.parent]
    exact[cut] = spec.pred(cells.coords[cut], side)
    flags = _kinked(disc, mesh, space, cells, exact, rule[4])
    leaves = cells[flags].refined(
        lambda c: _kinked(disc, mesh, space, c, spec.pred(c.coords, side)))
    return [np.concatenate([a[~flags], b])
            for a, b in zip(rule, space.rule(leaves, VOLUME_DEGREE))]


def _interface_sums(exact, exact_grad, disc, chords, rule):
    """h-weighted interface terms of the mesh-dependent norm (average
    normal derivative times h_T, jump over h_T) for the error and for the
    exact field; ``rule`` holds the chord points, weights, barycentrics,
    the dofs of each side and the hat gradients."""
    pts, w, lam, dofs, grads = rule
    n = chords.normal
    err, ex = {}, {}
    for side in (1, 2):
        vals, active, dg = disc.evaluate(dofs[side], lam, grads)
        ev = exact.side(side)(pts[..., 0], pts[..., 1])
        gx, gy = exact_grad.side(side)(pts[..., 0], pts[..., 1])
        eg = gx * n[:, None, 0] + gy * n[:, None, 1]
        dgn = active * np.einsum("kd,kd->k", dg, n)[:, None]
        err[side], ex[side] = (ev - vals, eg - dgn), (ev, eg)
    k1, k2 = chords.k1[:, None], chords.k2[:, None]
    terms = []
    for (v1, g1), (v2, g2) in ((err[1], err[2]), (ex[1], ex[2])):
        avg, jump = k1 * g1 + k2 * g2, v1 - v2
        terms.append(np.sum(chords.h * np.sum(w * avg ** 2, axis=1)
                            + np.sum(w * jump ** 2, axis=1) / chords.h))
    return terms


def compute_errors(problem, solution, mesh, cut_info, space):
    """L2, broken H1 and mesh-dependent norms of the control/state/co-state
    errors, plus the matching exact-field norms for relative reporting.

    Every side's integration cells are integrated once for all three
    fields, batch by batch; for box-constrained problems the control
    integrates the leaves of kink-adaptive refinement in place of the
    cells its kinks cross.
    """
    spec = problem.load_refine(mesh, cut_info)
    specs = {
        "u": _ClampedLinearField(solution.P, -1.0 / problem.a, problem.bounds),
        "y": _ClampedLinearField(solution.Y, 1.0, None),
        "p": _ClampedLinearField(solution.P, 1.0, None),
    }
    sums = {name: np.zeros(4) for name in FIELDS}
    for side in (1, 2):
        for cells in cut_info.integration_cells(mesh, side).batches():
            rule = space.rule(cells, VOLUME_DEGREE)
            for name, disc in specs.items():
                if name == "u" and spec is not None:
                    field_rule = _kink_refined(rule, cells, disc, spec, mesh,
                                               cut_info, space, side)
                else:
                    field_rule = rule
                sums[name] += _volume_sums(
                    getattr(problem, name).side(side),
                    getattr(problem, f"grad_{name}").side(side), disc,
                    field_rule)

    chords = cut_info.chords
    tri = mesh.triangles[chords.element]
    grads = mesh.geometry(chords.element)[1]
    rule = (*chords.quadrature(mesh, grads),
            {1: space.dof1[tri], 2: space.dof2[tri]}, grads)
    fields = {}
    for name, disc in specs.items():
        err_if, ex_if = _interface_sums(getattr(problem, name),
                                        getattr(problem, f"grad_{name}"),
                                        disc, chords, rule)
        err_l2, err_h1, ex_l2, ex_h1 = sums[name]
        fields[name] = FieldErrors(
            l2=np.sqrt(err_l2), h1=np.sqrt(err_h1),
            triple=np.sqrt(err_h1 + err_if), exact_l2=np.sqrt(ex_l2),
            exact_h1=np.sqrt(ex_h1), exact_triple=np.sqrt(ex_h1 + ex_if))
    return ErrorReport(fields=fields, relative=problem.relative_errors)
