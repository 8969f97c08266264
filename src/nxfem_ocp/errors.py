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
    field, given by its values and gradient at the points of a rule."""
    _, w, lam, dofs, grads = rule
    vals, active, dg = disc.evaluate(dofs, lam, grads)
    egx, egy = exact_grad
    return np.array([
        np.sum(w * (exact - vals) ** 2),
        np.sum(w * ((egx - active * dg[:, None, 0]) ** 2
                    + (egy - active * dg[:, None, 1]) ** 2)),
        np.sum(w * exact ** 2),
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


def _interface_sums(exact, disc, chords, rule):
    """h-weighted interface terms of the mesh-dependent norm (average
    normal derivative times h_T, jump over h_T) for the error and for the
    exact field, whose values and gradient on each side are ``exact[side]``;
    ``rule`` holds the chord points, weights, barycentrics, the dofs of
    each side and the hat gradients."""
    _, w, lam, dofs, grads = rule
    n = chords.normal
    err, ex = {}, {}
    for side in (1, 2):
        vals, active, dg = disc.evaluate(dofs[side], lam, grads)
        ev, (gx, gy) = exact[side]
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


def _exact(problem, side, pts, names):
    """{name: (values, gradient)} of the exact fields ``names`` at points
    (..., 2) of one side, read off one evaluation of the side's jet."""
    j = problem.jet.side(side)(pts[..., 0], pts[..., 1])
    return {name: (getattr(problem, name).read(side, j),
                   getattr(problem, f"grad_{name}").read(side, j))
            for name in names}


def compute_errors(problem, solution, mesh, cut_info, space):
    """L2, broken H1 and mesh-dependent norms of the control/state/co-state
    errors, plus the matching exact-field norms for relative reporting.

    Every side's integration cells are integrated once for all three
    fields, batch by batch, on one evaluation of the side's jet per batch;
    for box-constrained problems the control integrates the leaves of
    kink-adaptive refinement in place of the cells its kinks cross, on a
    jet of its own.  Without bounds u - u_h = -(p - p_h)/a, so the
    control's sums are the co-state's over a^2.
    """
    spec = problem.load_refine(mesh, cut_info)
    discs = {"y": _ClampedLinearField(solution.Y, 1.0, None),
             "p": _ClampedLinearField(solution.P, 1.0, None)}
    if spec is not None:
        discs["u"] = _ClampedLinearField(solution.P, -1.0 / problem.a,
                                         problem.bounds)
    # per field: the error's and the exact field's squared L2 norm, H1
    # seminorm and interface terms
    sums = {name: np.zeros(6) for name in discs}
    for side in (1, 2):
        for cells in cut_info.integration_cells(mesh, side).batches():
            rule = space.rule(cells, VOLUME_DEGREE)
            exact = _exact(problem, side, rule[0], ("y", "p"))
            for name, disc in discs.items():
                if name == "u":
                    field_rule = _kink_refined(rule, cells, disc, spec, mesh,
                                               cut_info, space, side)
                    exact["u"] = _exact(problem, side, field_rule[0],
                                        ("u",))["u"]
                else:
                    field_rule = rule
                sums[name][:4] += _volume_sums(*exact[name], disc, field_rule)

    chords = cut_info.chords
    tri = mesh.triangles[chords.element]
    grads = mesh.geometry(chords.element)[1]
    rule = (*chords.quadrature(mesh, grads),
            {1: space.dof1[tri], 2: space.dof2[tri]}, grads)
    on_chords = {side: _exact(problem, side, rule[0], discs)
                 for side in (1, 2)}
    for name, disc in discs.items():
        sums[name][4:] = _interface_sums(
            {side: on_chords[side][name] for side in (1, 2)}, disc, chords,
            rule)
    if spec is None:
        sums["u"] = sums["p"] / problem.a ** 2
    fields = {}
    for name in FIELDS:
        err_l2, err_h1, ex_l2, ex_h1, err_if, ex_if = sums[name]
        fields[name] = FieldErrors(
            l2=np.sqrt(err_l2), h1=np.sqrt(err_h1),
            triple=np.sqrt(err_h1 + err_if), exact_l2=np.sqrt(ex_l2),
            exact_h1=np.sqrt(ex_h1), exact_triple=np.sqrt(ex_h1 + ex_if))
    return ErrorReport(fields=fields, relative=problem.relative_errors)
