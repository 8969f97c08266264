"""Properties the computed solutions must have, evaluated by the benchmark
with its own quadrature and its own residuals, apart from the program's
error module and tables.

Every function takes the program's discrete data (mesh, element classes,
dof maps, matrices, loads, solution vectors) and the closed-form fields of
the manufactured problem, and returns plain numbers; the thresholds live in
``workloads.py``.
"""

from __future__ import annotations

import csv

import numpy as np
from scipy.sparse.linalg import splu
from scipy.spatial import cKDTree

CUT = 3                       # nxfem_ocp.interface_geometry.ElementClass.CUT

# Dunavant degree-4 rule on the reference triangle (barycentric, weights
# summing to one).
_A1, _B1, _W1 = 0.445948490915965, 0.108103018168070, 0.223381589678011
_A2, _B2, _W2 = 0.091576213509771, 0.816847572980459, 0.109951743655322
_RULE = np.array([[_A1, _A1, _B1], [_A1, _B1, _A1], [_B1, _A1, _A1],
                  [_A2, _A2, _B2], [_A2, _B2, _A2], [_B2, _A2, _A2]])
_RULE_W = np.array([_W1] * 3 + [_W2] * 3)


def _refined_rule():
    """Barycentric points/weights of the rule on the 4 midpoint children."""
    c = np.eye(3)
    m01, m12, m20 = (c[0] + c[1]) / 2, (c[1] + c[2]) / 2, (c[2] + c[0]) / 2
    children = [(c[0], m01, m20), (m01, c[1], m12), (m20, m12, c[2]),
                (m12, m20, m01)]
    pts = np.concatenate([_RULE @ np.array(ch) for ch in children])
    return pts, np.tile(_RULE_W, 4) / 4.0


def side_of(problem, x, y):
    """Exact subdomain (1 or 2) of points, from the level set."""
    return np.where(problem.levelset(x, y) < 0.0, 1, 2)


def _pick(field, side, x, y):
    """Evaluate a two-sided closed-form field with a per-point side."""
    v1, v2 = field.side(1)(x, y), field.side(2)(x, y)
    if isinstance(v1, tuple):
        return tuple(np.where(side == 1, a, b) for a, b in zip(v1, v2))
    return np.where(side == 1, v1, v2)


def grad_bary(coords):
    """Gradients of the barycentric coordinates, (E, 3, 2)."""
    d1 = coords[:, 1] - coords[:, 0]
    d2 = coords[:, 2] - coords[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    g1 = np.column_stack([d2[:, 1], -d2[:, 0]]) / det[:, None]
    g2 = np.column_stack([-d1[:, 1], d1[:, 0]]) / det[:, None]
    return np.stack([-g1 - g2, g1, g2], axis=1)


def field_errors(problem, mesh, classes, space, Y, P, chunk=8192):
    """Absolute L2 and H1-seminorm errors of u, y, p.

    A degree-4 rule is used on every element, and on the four midpoint
    children of each cut element.  A point takes its exact field from the
    side of the true interface it lies on; its discrete field is the
    element's own on uncut elements and the matching side's copy on cut
    elements.  The control is clamp(-p_h/a) pointwise, as the method
    defines it.
    """
    acc = {f: np.zeros(2) for f in ("u", "y", "p")}
    cut = classes == CUT
    for els, (lam, wts) in ((np.flatnonzero(~cut), (_RULE, _RULE_W)),
                            (np.flatnonzero(cut), _refined_rule())):
        for start in range(0, len(els), chunk):
            _accumulate_errors(acc, problem, mesh, classes, space, Y, P,
                               els[start:start + chunk], lam, wts)
    return {f: (float(np.sqrt(a[0])), float(np.sqrt(a[1])))
            for f, a in acc.items()}


def _accumulate_errors(acc, problem, mesh, classes, space, Y, P, els, lam,
                       wts):
    lo, hi = (-np.inf, np.inf) if problem.bounds is None else problem.bounds
    tri = mesh.triangles[els]
    coords = mesh.vertices[tri]
    d1 = coords[:, 1] - coords[:, 0]
    d2 = coords[:, 2] - coords[:, 0]
    area = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    G = grad_bary(coords)
    pts = np.einsum("qi,eid->eqd", lam, coords)
    x, y = pts[..., 0], pts[..., 1]
    exact_side = side_of(problem, x, y)
    cls = classes[els][:, None]
    dside = np.where(cls == CUT, exact_side, cls)
    dofs = np.where((dside == 1)[..., None], space.dof1[tri][:, None],
                    space.dof2[tri][:, None])                    # (E, Q, 3)
    w = area[:, None] * wts[None, :]
    for name, coef, clamp in (("y", Y, False), ("p", P, False),
                              ("u", -P / problem.a, True)):
        C = coef[dofs]
        vh = np.einsum("eqi,qi->eq", C, lam)
        gh = np.einsum("eqi,eid->eqd", C, G)
        if clamp:
            inside = (vh > lo) & (vh < hi)
            vh = np.clip(vh, lo, hi)
            gh = gh * inside[..., None]
        ve = _pick(getattr(problem, name), exact_side, x, y)
        gx, gy = _pick(getattr(problem, f"grad_{name}"), exact_side, x, y)
        acc[name][0] += np.sum(w * (ve - vh) ** 2)
        acc[name][1] += np.sum(w * ((gx - gh[..., 0]) ** 2
                                    + (gy - gh[..., 1]) ** 2))


def orders(errors):
    """log2 ratios of successive errors; entry 0 is None."""
    return [None] + [float(np.log2(e0 / e1)) if e1 > 0 else float("nan")
                     for e0, e1 in zip(errors, errors[1:])]


def nodal_state_error(problem, mesh, space, Y):
    """Max |Y - y| over vertices that carry a single dof."""
    single = ~space.doubled
    xv, yv = mesh.vertices[single, 0], mesh.vertices[single, 1]
    exact = _pick(problem.y, side_of(problem, xv, yv), xv, yv)
    return float(np.abs(Y[space.dof1[single]] - exact).max())


def relative_residual(terms, free):
    """||sum(terms)|| over free rows, relative to the largest term."""
    r = np.linalg.norm(sum(terms)[free])
    scale = max(max(np.linalg.norm(t[free]) for t in terms), 1e-300)
    return float(r / scale)


def optimality_residuals(A, M, F1, F2, Y, P, control_load, dirichlet, ybc):
    """State and co-state residuals of the discrete optimality system
    A y = F1 + (u, phi), A p = M y + F2 on the free rows, plus the largest
    deviation of y from its Dirichlet data."""
    free = np.ones(A.shape[0], dtype=bool)
    free[dirichlet] = False
    r_state = relative_residual([A @ Y, -control_load, -F1], free)
    r_costate = relative_residual([A @ P, -(M @ Y), -F2], free)
    bc = float(np.abs(Y[dirichlet] - ybc).max()) if len(dirichlet) else 0.0
    return r_state, r_costate, bc


# ---------------------------------------------------------------------------
# pointwise checks
# ---------------------------------------------------------------------------

def locate(mesh, pts, k=8):
    """Element containing each point (searched among the k elements with
    the nearest centroids) and its barycentric coordinates."""
    coords = mesh.vertices[mesh.triangles]
    _, cand = cKDTree(coords.mean(axis=1)).query(pts, k=k)
    c0 = coords[cand, 0]                                   # (n, k, 2)
    G = grad_bary(coords[cand.ravel()]).reshape(len(pts), k, 3, 2)
    lam12 = np.einsum("nkd,nkjd->nkj", pts[:, None] - c0, G[:, :, 1:])
    lam = np.concatenate([1.0 - lam12.sum(axis=2, keepdims=True), lam12], 2)
    best = np.argmax(lam.min(axis=2), axis=1)
    rows = np.arange(len(pts))
    if lam[rows, best].min() < -1e-9:
        raise ValueError("sample point outside every candidate element")
    return cand[rows, best], lam[rows, best]


def costate(A, M, F2, Y, dirichlet):
    """The benchmark's own discrete co-state of the state Y: A p = M Y + F2
    on the free rows, p = 0 on the Dirichlet dofs."""
    free = np.ones(A.shape[0], dtype=bool)
    free[dirichlet] = False
    A = A.tocsr()
    p = np.zeros(A.shape[0])
    p[free] = splu(A[free][:, free].tocsc()).solve((M @ Y + F2)[free])
    return p


def variational_inequality(problem, mesh, classes, space, P, costate_dofs,
                           rng, n=256):
    """Smallest value of (a u_h + p_h)(v - u_h) over seeded sample points x
    and seeded admissible values v, relative to max|p_h| (hi - lo).

    u_h = clamp(-P/a) is the control the program's solution carries, and
    p_h is the co-state the benchmark computes from the program's state
    (``costate``), so the inequality is that of the reduced discrete
    problem: it fails when the control is not the projection of the
    co-state of its own state.
    """
    x0, x1, y0, y1 = problem.domain
    lo, hi = problem.bounds
    pts = np.column_stack([rng.uniform(x0, x1, n), rng.uniform(y0, y1, n)])
    v = rng.uniform(lo, hi, n)
    els, lam = locate(mesh, pts)
    side = side_of(problem, pts[:, 0], pts[:, 1])
    side = np.where(classes[els] == CUT, side, classes[els])
    dofs = np.where((side == 1)[:, None], space.dof1[mesh.triangles[els]],
                    space.dof2[mesh.triangles[els]])
    u_h = np.clip(-(P[dofs] * lam).sum(axis=1) / problem.a, lo, hi)
    p_h = (costate_dofs[dofs] * lam).sum(axis=1)
    vi = (problem.a * u_h + p_h) * (v - u_h)
    scale = max(float(np.abs(costate_dofs).max()) * (hi - lo), 1e-300)
    return float(vi.min()) / scale


def read_polylines(path):
    curves = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            curves.setdefault(row["curve_id"], []).append(
                (float(row["x"]), float(row["y"])))
    return {k: np.array(v) for k, v in curves.items()}


def contour_distance(problem, curves):
    """Largest first-order distance |g|/|grad g| from the points of the
    'lower_*' / 'upper_*' polylines to the exact contour g = -p/a - bound
    = 0, and the number of points checked."""
    lo, hi = problem.bounds
    worst, count = 0.0, 0
    for cid, pts in curves.items():
        level = {"lower": lo, "upper": hi}.get(cid.split("_", 1)[0])
        if level is None:
            continue
        x, y = pts[:, 0], pts[:, 1]
        side = side_of(problem, x, y)
        g = -_pick(problem.p, side, x, y) / problem.a - level
        gx, gy = _pick(problem.grad_p, side, x, y)
        dist = np.abs(g) / (np.hypot(gx, gy) / problem.a)
        worst = max(worst, float(dist.max()))
        count += len(pts)
    return worst, count
