"""Per-element reference implementations of the cut geometry, the
assembly, error-norm and clamped-control integrals, and reference forms of
the solver's ordering, factor and saddle operator.

The geometry oracle cuts one element at a time with scalar secant and
bisection roots; ``test_interface_geometry.py`` compares the package's
batched ``build_cut_info`` against it.  The integrals walk every cut
element (and every kink-flagged element) in Python, one sub-triangle and
one chord at a time (read per element from the tables by
``element_cuts``), with recursive kink refinement.  ``test_cell_table.py``
compares the package's batched integration-cell tables against them, and
the clipped clamp integrals against both the refined loops and an exact
polygon clipping of each cell;
``test_solver.py`` compares the solver's one-sort nested dissection, its
matrix-free saddle operator and preconditioner, its saddle solve, its
factor and its Newton driver on the unbounded box against the per-box
recursion, the assembled block matrices, a direct solve, the COLAMD
factor and the one-solve unconstrained driver at the end of this
module.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dataclasses import dataclass

from nxfem_ocp.assembly import _MASS_BARY
from nxfem_ocp.errors import ErrorReport, FieldErrors
from nxfem_ocp.interface_geometry import (KINK_DEPTH, ROOT_TOL, CellTable,
                                          ChordTable, CutInfo, ElementClass,
                                          GeometryError, _classes_from_signs,
                                          gauss_segment, snapped_vertex_signs,
                                          triangle_rule)
from nxfem_ocp.solver import (ND_LEAF, OcpSolution, ReducedSolver,
                              _check_control, _free_pair, _solve_saddle)

from helpers import (element_areas, element_dofs, hat_gradients, tri_coords,
                     triangle_area)


# ---------------------------------------------------------------------------
# the cut geometry, one element at a time
# ---------------------------------------------------------------------------

class DegenerateCutError(GeometryError):
    """The chord of a sign-flagged element collapses (the interface only
    grazes a snapped vertex); the element is effectively interior."""

    def __init__(self, element, side, message):
        super().__init__(message)
        self.element = element
        self.side = side


def _edge_root(levelset, pa, pb, fa, fb):
    """Point on segment [pa, pb] where the level set vanishes.

    One secant step first, then bisection on the sign-preserving bracket
    until |phi| <= ROOT_TOL.
    """
    if abs(fa) <= ROOT_TOL:
        return np.array(pa, dtype=float)
    if abs(fb) <= ROOT_TOL:
        return np.array(pb, dtype=float)
    if (fa < 0.0) == (fb < 0.0):
        # no true sign change: one endpoint was snapped across the interface
        snap = np.array(pa, dtype=float) if abs(fa) < abs(fb) else \
            np.array(pb, dtype=float)
        if min(abs(fa), abs(fb)) > 1e-10:
            raise GeometryError("sign-flagged edge without a bracketable root")
        return snap
    ta, tb = 0.0, 1.0
    pa = np.asarray(pa, dtype=float)
    d = np.asarray(pb, dtype=float) - pa

    def eval_t(t):
        p = pa + t * d
        return float(levelset(p[0], p[1]))

    t = ta - fa * (tb - ta) / (fb - fa)      # secant step
    for _ in range(120):
        t = min(max(t, ta), tb)
        ft = eval_t(t)
        if abs(ft) <= ROOT_TOL or tb - ta < 1e-17:
            break
        if (ft < 0.0) == (fa < 0.0):
            ta = t
        else:
            tb = t
        t = 0.5 * (ta + tb)
    return pa + t * d


def _oriented(tri):
    """Return the triangle with positive orientation."""
    e0 = tri[1] - tri[0]
    e1 = tri[2] - tri[0]
    if e0[0] * e1[1] - e0[1] * e1[0] < 0.0:
        return np.array([tri[0], tri[2], tri[1]])
    return np.asarray(tri, dtype=float)


@dataclass
class CutGeometry:
    """Chord, area fractions and sub-triangulation of one cut element.

    ``normal`` is the unit chord normal pointing from subdomain 1 into
    subdomain 2; ``tris1``/``tris2`` are (m, 3, 2) coordinate arrays tiling
    the two element fragments.
    """

    element: int
    q1: np.ndarray
    q2: np.ndarray
    normal: np.ndarray
    k1: float
    k2: float
    tris1: np.ndarray
    tris2: np.ndarray

    @property
    def chord_length(self):
        return float(np.linalg.norm(self.q2 - self.q1))


def compute_cut_geometry(mesh, levelset, element, signs=None):
    """Intersection points, chord normal, area fractions and sub-triangles
    for a cut element."""
    if signs is None:
        _, signs = snapped_vertex_signs(mesh, levelset)
    tri = mesh.triangles[element]
    coords = mesh.vertices[tri]
    s = signs[tri]
    if (s == s[0]).all():
        raise GeometryError(f"element {element} is not cut")

    # minority-sign vertex; its two adjacent edges carry the intersections
    lone = 0 if s[1] == s[2] else (1 if s[0] == s[2] else 2)
    prev_l, next_l = (lone + 2) % 3, (lone + 1) % 3

    phi_at = lambda p: float(levelset(p[0], p[1]))
    roots = {}
    for other in (prev_l, next_l):
        va, vb = tri[lone], tri[other]
        pa, pb = coords[lone], coords[other]
        # canonical edge orientation so shared edges give identical points
        if va > vb:
            pa, pb = pb, pa
        try:
            roots[other] = _edge_root(levelset, pa, pb, phi_at(pa), phi_at(pb))
        except GeometryError as exc:
            raise GeometryError(f"element {element}: {exc}") from None
    q1, q2 = roots[prev_l], roots[next_l]
    if np.linalg.norm(q1 - q2) < 1e-12 * mesh.h:
        # the interface only grazes the minority vertex; the rest of the
        # element lies on the majority side
        majority = 1 if s[prev_l] == -1 else 2
        raise DegenerateCutError(
            element, majority,
            f"element {element}: coincident intersection points")

    lone_tri = _oriented(np.array([coords[lone], q1, q2]))
    quad = [coords[prev_l], coords[next_l], q2, q1]      # ccw cycle
    d_prev_q2 = np.linalg.norm(quad[0] - quad[2])
    d_next_q1 = np.linalg.norm(quad[1] - quad[3])
    if d_prev_q2 <= d_next_q1:
        quad_tris = [np.array([quad[0], quad[1], quad[2]]),
                     np.array([quad[0], quad[2], quad[3]])]
    else:
        quad_tris = [np.array([quad[0], quad[1], quad[3]]),
                     np.array([quad[1], quad[2], quad[3]])]
    area = triangle_area(coords)
    quad_tris = [_oriented(t) for t in quad_tris
                 if triangle_area(t) > 1e-14 * area]

    if s[lone] == -1:
        tris1, tris2 = np.array([lone_tri]), np.array(quad_tris)
    else:
        tris1, tris2 = np.array(quad_tris), np.array([lone_tri])
    k1 = sum(triangle_area(t) for t in tris1) / area
    k2 = sum(triangle_area(t) for t in tris2) / area
    if min(k1, k2) < 1e-12:
        raise DegenerateCutError(
            element, 1 if k1 > k2 else 2,
            f"element {element}: degenerate cut (fractions {k1:.3e}, {k2:.3e})")

    # chord normal pointing out of subdomain 1 (the negative level-set side);
    # this orientation makes the cross-weighted flux data consistent
    mid = 0.5 * (q1 + q2)
    gx, gy = levelset.grad(mid[0], mid[1])
    normal = np.array([float(gx), float(gy)])
    norm = np.linalg.norm(normal)
    if norm == 0.0:
        raise GeometryError(f"element {element}: vanishing level-set gradient")
    normal /= norm

    return CutGeometry(element=element, q1=q1, q2=q2, normal=normal,
                       k1=float(k1), k2=float(k2), tris1=tris1, tris2=tris2)


def loop_cut_info(mesh, levelset):
    """``build_cut_info`` one element at a time: the ``CutInfo`` stacked
    from ``compute_cut_geometry`` of every sign-flagged element (degenerate
    ones reclassified), and the per-element geometries by element."""
    _, signs = snapped_vertex_signs(mesh, levelset)
    classes = _classes_from_signs(mesh, signs)
    cuts = {}
    for e in np.flatnonzero(classes == int(ElementClass.CUT)):
        try:
            cuts[int(e)] = compute_cut_geometry(mesh, levelset, int(e), signs)
        except DegenerateCutError as exc:
            classes[e] = exc.side
    cut_elements = np.array(sorted(cuts), dtype=np.int64)
    geoms = [cuts[int(e)] for e in cut_elements]
    tris = [(cg.element, side, t) for cg in geoms
            for side, ts in ((1, cg.tris1), (2, cg.tris2)) for t in ts]
    cells = CellTable(np.array([e for e, _, _ in tris], dtype=np.int64),
                      np.array([s for _, s, _ in tris], dtype=np.int8),
                      np.array([t for _, _, t in tris]).reshape(-1, 3, 2))
    per_chord = lambda name: np.array([getattr(cg, name) for cg in geoms])
    edges = mesh.vertices[mesh.triangles[cut_elements]]
    edges -= np.roll(edges, 1, axis=1)
    chords = ChordTable(
        cut_elements, per_chord("q1").reshape(-1, 2),
        per_chord("q2").reshape(-1, 2), per_chord("normal").reshape(-1, 2),
        per_chord("k1"), per_chord("k2"),
        np.sqrt((edges ** 2).sum(axis=2)).max(axis=1, initial=0.0))
    return CutInfo(classes, signs, cut_elements, cells, chords), cuts


def element_cuts(cut_info):
    """The chord and cell tables read back as one ``CutGeometry`` per cut
    element, keyed by element."""
    ch, cells = cut_info.chords, cut_info.cells
    first = np.searchsorted(cells.parent, ch.element)
    last = np.searchsorted(cells.parent, ch.element, side="right")
    cuts = {}
    for i, e in enumerate(ch.element):
        own = cells[first[i]:last[i]]
        cuts[int(e)] = CutGeometry(
            int(e), ch.q1[i], ch.q2[i], ch.normal[i], float(ch.k1[i]),
            float(ch.k2[i]), own.coords[own.side == 1],
            own.coords[own.side == 2])
    return cuts


@dataclass
class QuadRule:
    """Physical quadrature points and weights; weights sum to the measure."""

    points: np.ndarray           # (n, 2)
    weights: np.ndarray          # (n,)


def map_rule_to_triangle(coords, bary, weights):
    """Map a barycentric rule onto a physical triangle."""
    coords = np.asarray(coords, dtype=float)
    pts = bary @ coords
    return QuadRule(points=pts, weights=weights * triangle_area(coords))


def refined_triangle_quadrature(coords, bary, weights, needs_refine,
                                max_depth, collect=None):
    """Composite rule obtained by recursive 4-way midpoint subdivision.

    ``needs_refine(coords)`` decides, per (sub-)triangle, whether to split
    again; leaves receive the base rule.  ``collect`` optionally gathers the
    leaf triangles.
    """
    coords = np.asarray(coords, dtype=float)
    if max_depth <= 0 or not needs_refine(coords):
        if collect is not None:
            collect.append(coords)
        r = map_rule_to_triangle(coords, bary, weights)
        return r.points, r.weights
    m01 = 0.5 * (coords[0] + coords[1])
    m12 = 0.5 * (coords[1] + coords[2])
    m20 = 0.5 * (coords[2] + coords[0])
    pts, wts = [], []
    for child in ([coords[0], m01, m20], [m01, coords[1], m12],
                  [m20, m12, coords[2]], [m01, m12, m20]):
        p, w = refined_triangle_quadrature(np.array(child), bary, weights,
                                           needs_refine, max_depth - 1, collect)
        pts.append(p)
        wts.append(w)
    return np.vstack(pts), np.hstack(wts)


def segment_quadrature(p0, p1, n_points):
    """Gauss-Legendre rule on the segment [p0, p1]; weights sum to its length."""
    t, w = gauss_segment(n_points)
    p0 = np.asarray(p0, dtype=float)
    d = np.asarray(p1, dtype=float) - p0
    return QuadRule(points=p0 + np.outer(t, d), weights=w * np.linalg.norm(d))


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
    grads = hat_gradients(mesh, e)             # (3, 2)
    gg = grads @ grads.T
    area = element_areas(mesh, e)

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


def _cut_element_dofs(mesh, space, e):
    tri = mesh.triangles[e]
    return np.concatenate([space.dof1[tri], space.dof2[tri]])


def loop_stiffness(mesh, cut_info, space, alpha1, alpha2, lambda_coef,
                   quad_degree=4, seg_points=3):
    """Global matrix of the penalized interface form."""
    lam_penalty = lambda_coef / mesh.h

    def local(side, els):
        alpha = alpha1 if side == 1 else alpha2
        g = hat_gradients(mesh, els)
        gg = np.einsum("eid,ejd->eij", g, g)
        return alpha * element_areas(mesh, els)[:, None, None] * gg

    rows, cols, vals = _accumulate_uncut(mesh, space, cut_info, local)
    for e, cg in element_cuts(cut_info).items():
        A_loc, _ = cut_element_matrices(mesh, cg, alpha1, alpha2, lam_penalty,
                                        quad_degree, seg_points)
        dofs = _cut_element_dofs(mesh, space, e)
        rows.append(np.repeat(dofs, 6))
        cols.append(np.tile(dofs, 6))
        vals.append(A_loc.ravel())
    S = space.n_dofs
    A = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(S, S))
    return A.tocsr()


def loop_mass(mesh, cut_info, space, quad_degree=4):
    """Global L2 mass matrix of the extended space."""

    def local(side, els):
        return (element_areas(mesh, els)[:, None, None]
                * _MASS_BARY[None, :, :])

    rows, cols, vals = _accumulate_uncut(mesh, space, cut_info, local)
    for e, cg in element_cuts(cut_info).items():
        _, M_loc = cut_element_matrices(mesh, cg, 1.0, 1.0, 0.0, quad_degree)
        dofs = _cut_element_dofs(mesh, space, e)
        rows.append(np.repeat(dofs, 6))
        cols.append(np.tile(dofs, 6))
        vals.append(M_loc.ravel())
    S = space.n_dofs
    M = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(S, S))
    return M.tocsr()


class KinkLoops:
    """The kink rule of a box-constrained problem (``ManufacturedProblem.
    kink_rule``) one element at a time: whether the status of z changes at
    the vertices of elements (``changes``), and whether a triangle of an
    element's side is split again (``split``)."""

    def __init__(self, problem, mesh):
        self.problem, self.mesh = problem, mesh

    def _varies(self, side, pts):
        """Whether z lies below, inside or above the box at some but not
        all of the points (..., k, 2)."""
        z = self.problem.z.side(side)(pts[..., 0], pts[..., 1])
        lo, hi = self.problem.bounds
        st = np.where(z <= lo, -1, np.where(z >= hi, 1, 0))
        return st.max(axis=-1) != st.min(axis=-1)

    def changes(self, side, elements):
        return self._varies(side,
                            self.mesh.vertices[self.mesh.triangles[elements]])

    def split(self, e, side, tc):
        """The status changes at element e's vertices and among the
        vertices, edge midpoints and centroid of its triangle tc (3, 2)."""
        pts = np.vstack([tc, 0.5 * (tc + np.roll(tc, 1, axis=0)),
                         tc.mean(axis=0)])
        return bool(self.changes(side, e) and self._varies(side, pts))


def _volume_load(vec, mesh, cut_info, space, func, quad_degree, kinks):
    """Add the volume inner product of ``func`` with every basis function,
    integrated over the leaves of the kink rule ``kinks`` (a KinkLoops or
    None)."""
    f1, f2 = _side_funcs(func)
    bary, w = triangle_rule(quad_degree)

    for side, fs, els in zip((1, 2), (f1, f2),
                             _uncut_elements_by_side(cut_info)):
        if len(els) == 0:
            continue
        changes = np.zeros(len(els), dtype=bool) if kinks is None \
            else kinks.changes(side, els)
        plain = els[~changes]
        if len(plain):
            coords = mesh.vertices[mesh.triangles[plain]]
            pts = np.einsum("qi,eik->eqk", bary, coords)
            fv = fs(pts[..., 0], pts[..., 1])
            loads = np.einsum("eq,q,qi->ei", fv, w, bary) \
                * element_areas(mesh, plain)[:, None]
            dofs = (space.dof1 if side == 1 else space.dof2)[mesh.triangles[plain]]
            np.add.at(vec, dofs, loads)
        for e in els[changes]:
            pts, wts = refined_triangle_quadrature(
                tri_coords(mesh, e), bary, w,
                lambda c: kinks.split(e, side, c), KINK_DEPTH)
            lamq = mesh.barycentric(e, pts)
            fv = fs(pts[:, 0], pts[:, 1])
            dofs = (space.dof1 if side == 1 else space.dof2)[mesh.triangles[e]]
            np.add.at(vec, dofs, (wts * fv) @ lamq)

    for e, cg in element_cuts(cut_info).items():
        tri = mesh.triangles[e]
        for side, fs, tris, dofs in ((1, f1, cg.tris1, space.dof1[tri]),
                                     (2, f2, cg.tris2, space.dof2[tri])):
            for t in tris:
                pts, wts = refined_triangle_quadrature(
                    t, bary, w, lambda c, s=side: (kinks is not None
                                                   and kinks.split(e, s, c)),
                    KINK_DEPTH)
                lamq = mesh.barycentric(e, pts)
                fv = fs(pts[:, 0], pts[:, 1])
                np.add.at(vec, dofs, (wts * fv) @ lamq)


def _interface_load(vec, mesh, cut_info, space, g, seg_points):
    """Add the interface flux data with cross weights: side-1 traces are
    weighted by k2, side-2 traces by k1."""
    for e, cg in element_cuts(cut_info).items():
        rule = segment_quadrature(cg.q1, cg.q2, seg_points)
        lamq = mesh.barycentric(e, rule.points)
        gv = np.asarray(g(rule.points[:, 0], rule.points[:, 1]), dtype=float)
        base = (rule.weights * gv) @ lamq
        tri = mesh.triangles[e]
        np.add.at(vec, space.dof1[tri], cg.k2 * base)
        np.add.at(vec, space.dof2[tri], cg.k1 * base)


def loop_load(mesh, cut_info, space, f=None, g=None, quad_degree=4,
              seg_points=3, kinks=None):
    """Right-hand side vector with volume source f, integrated over the
    leaves of the kink rule ``kinks`` (a KinkLoops or None), and interface
    flux data g."""
    vec = np.zeros(space.n_dofs)
    if f is not None:
        _volume_load(vec, mesh, cut_info, space, f, quad_degree, kinks)
    if g is not None:
        _interface_load(vec, mesh, cut_info, space, g, seg_points)
    return vec


class _ClampedLinearField:
    """Discrete field representable as clip(C . lambda, lo, hi) per side."""

    def __init__(self, space, coeff_vec, scale, bounds):
        self.space = space
        self.vec = coeff_vec
        self.scale = scale
        self.lo, self.hi = (-np.inf, np.inf) if bounds is None else bounds

    def coeffs(self, dofs):
        return self.scale * self.vec[dofs]

    def values_and_grads(self, mesh, e, side, lam_pts):
        """Values (n,) and gradients (n, 2) at points given in barycentric
        coordinates of element e."""
        C = self.coeffs(element_dofs(self.space, e, side))
        raw = lam_pts @ C
        vals = np.clip(raw, self.lo, self.hi)
        active = (raw > self.lo) & (raw < self.hi)
        g = C @ hat_gradients(mesh, e)
        return vals, active[:, None] * g[None, :]

    def status_varies(self, dofs_matrix):
        """Per-element flag: does the clamp switch inside the element?"""
        raw = self.scale * self.vec[dofs_matrix]
        vmin, vmax = raw.min(axis=1), raw.max(axis=1)
        return (((vmin < self.lo) & (self.lo < vmax))
                | ((vmin < self.hi) & (self.hi < vmax)))


def _element_diameters(mesh, elements):
    coords = mesh.vertices[mesh.triangles[elements]]
    edges = coords - np.roll(coords, 1, axis=1)
    return np.sqrt((edges ** 2).sum(axis=2)).max(axis=1)


def _accumulate(acc, w, err_vals, err_grads, exact_vals, exact_grads):
    acc[0] += np.sum(w * err_vals ** 2)
    acc[1] += np.sum(w * (err_grads ** 2).sum(axis=-1))
    acc[2] += np.sum(w * exact_vals ** 2)
    acc[3] += np.sum(w * (exact_grads ** 2).sum(axis=-1))


def _field_errors(problem, field, disc, control, mesh, cut_info, space,
                  quad_degree, seg_points):
    """The norms of one field; with a box, every field is integrated over
    the leaves of the kink rule, which also splits where the clamp of the
    discrete ``control`` switches."""
    exact = getattr(problem, field)
    exact_grad = getattr(problem, f"grad_{field}")
    bary, w = triangle_rule(quad_degree)
    acc = [0.0, 0.0, 0.0, 0.0]          # err_l2^2, err_h1^2, exact versions

    kinks = None if control is None else KinkLoops(problem, mesh)

    # --- volume terms, uncut elements -------------------------------------
    for side in (1, 2):
        els = np.flatnonzero(cut_info.classes == side)
        if len(els) == 0:
            continue
        dmap = space.dof1 if side == 1 else space.dof2
        varies = np.zeros(len(els), dtype=bool)
        if kinks is not None:
            varies = (control.status_varies(dmap[mesh.triangles[els]])
                      | kinks.changes(side, els))

        plain = els[~varies]
        if len(plain):
            C = disc.coeffs(dmap[mesh.triangles[plain]])
            coords = mesh.vertices[mesh.triangles[plain]]
            pts = np.einsum("qi,eik->eqk", bary, coords)
            ev = exact.side(side)(pts[..., 0], pts[..., 1])
            egx, egy = exact_grad.side(side)(pts[..., 0], pts[..., 1])
            raw = C @ bary.T
            dv = np.clip(raw, disc.lo, disc.hi)
            active = (raw > disc.lo) & (raw < disc.hi)
            dg = np.einsum("ei,eid->ed", C, hat_gradients(mesh, plain))
            wa = np.outer(element_areas(mesh, plain), w)
            acc[0] += np.sum(wa * (ev - dv) ** 2)
            acc[1] += np.sum(wa * ((egx - active * dg[:, None, 0]) ** 2
                                   + (egy - active * dg[:, None, 1]) ** 2))
            acc[2] += np.sum(wa * ev ** 2)
            acc[3] += np.sum(wa * (egx ** 2 + egy ** 2))
        for e in els[varies]:
            _element_volume(acc, exact, exact_grad, kinks, disc, control,
                            mesh, int(e), side, [tri_coords(mesh, int(e))],
                            bary, w)

    # --- volume terms, cut elements ----------------------------------------
    cuts = element_cuts(cut_info)
    for e, cg in cuts.items():
        for side, tris in ((1, cg.tris1), (2, cg.tris2)):
            _element_volume(acc, exact, exact_grad, kinks, disc, control,
                            mesh, int(e), side, tris, bary, w)

    # --- interface terms of the mesh-dependent norm ------------------------
    iface_err = 0.0
    iface_exact = 0.0
    if len(cut_info.cut_elements):
        h_T = _element_diameters(mesh, cut_info.cut_elements)
        for ht, e in zip(h_T, cut_info.cut_elements):
            cg = cuts[int(e)]
            rule = segment_quadrature(cg.q1, cg.q2, seg_points)
            lam = mesh.barycentric(int(e), rule.points)
            n = cg.normal
            ev, eg, dv, dg = {}, {}, {}, {}
            for side in (1, 2):
                ev[side] = exact.side(side)(rule.points[:, 0], rule.points[:, 1])
                gx, gy = exact_grad.side(side)(rule.points[:, 0],
                                               rule.points[:, 1])
                eg[side] = gx * n[0] + gy * n[1]
                vals, grads = disc.values_and_grads(mesh, int(e), side, lam)
                dv[side] = vals
                dg[side] = grads @ n
            jump_err = (ev[1] - dv[1]) - (ev[2] - dv[2])
            avg_err = cg.k1 * (eg[1] - dg[1]) + cg.k2 * (eg[2] - dg[2])
            jump_ex = ev[1] - ev[2]
            avg_ex = cg.k1 * eg[1] + cg.k2 * eg[2]
            iface_err += ht * np.sum(rule.weights * avg_err ** 2) \
                + np.sum(rule.weights * jump_err ** 2) / ht
            iface_exact += ht * np.sum(rule.weights * avg_ex ** 2) \
                + np.sum(rule.weights * jump_ex ** 2) / ht

    return FieldErrors(
        l2=np.sqrt(acc[0]), h1=np.sqrt(acc[1]),
        triple=np.sqrt(acc[1] + iface_err),
        exact_l2=np.sqrt(acc[2]), exact_h1=np.sqrt(acc[3]),
        exact_triple=np.sqrt(acc[3] + iface_exact))


def _element_volume(acc, exact, exact_grad, kinks, disc, control, mesh, e,
                    side, tris, bary, w):
    """Slow path: per-element integration of ``disc`` over the leaves of the
    kink rule ``kinks`` (a KinkLoops or None), which also splits where the
    clamp of the discrete ``control`` switches inside a triangle."""

    def needs_refine(tc):
        if kinks is None:
            return False
        raw = mesh.barycentric(e, tc) @ control.coeffs(
            element_dofs(control.space, e, side))
        if (raw.min() < control.lo < raw.max()) \
                or (raw.min() < control.hi < raw.max()):
            return True
        return kinks.split(e, side, tc)

    for t in tris:
        pts, wts = refined_triangle_quadrature(t, bary, w, needs_refine,
                                               KINK_DEPTH)
        lam = mesh.barycentric(e, pts)
        ev = exact.side(side)(pts[:, 0], pts[:, 1])
        egx, egy = exact_grad.side(side)(pts[:, 0], pts[:, 1])
        dv, dg = disc.values_and_grads(mesh, e, side, lam)
        err_g = np.column_stack([egx, egy]) - dg
        ex_g = np.column_stack([egx, egy])
        _accumulate(acc, wts, ev - dv, err_g, ev, ex_g)


def loop_errors(problem, solution, mesh, cut_info, space, quad_degree=4,
                seg_points=3):
    """L2, broken H1 and mesh-dependent norms of the control/state/co-state
    errors, plus the matching exact-field norms for relative reporting."""
    bounds = problem.bounds
    specs = {
        "u": _ClampedLinearField(space, solution.P, -1.0 / problem.a, bounds),
        "y": _ClampedLinearField(space, solution.Y, 1.0, None),
        "p": _ClampedLinearField(space, solution.P, 1.0, None),
    }
    control = specs["u"] if bounds is not None else None
    fields = {name: _field_errors(problem, name, disc, control, mesh,
                                  cut_info, space, quad_degree, seg_points)
              for name, disc in specs.items()}
    return ErrorReport(fields=fields, relative=problem.relative_errors)


def loop_integration_cells(mesh, cut_info):
    """(element, side, coords) of every integration cell, walking the
    elements in order: uncut elements whole, cut elements as their side-1
    then side-2 sub-triangles."""
    cuts = element_cuts(cut_info)
    cells = []
    for e in range(mesh.num_triangles):
        cls = cut_info.classes[e]
        if cls == int(ElementClass.CUT):
            cg = cuts[e]
            cells += [(e, 1, t) for t in cg.tris1]
            cells += [(e, 2, t) for t in cg.tris2]
        else:
            cells.append((e, int(cls), tri_coords(mesh, e)))
    return cells


def nested_dissection_splits(B, xy):
    """The solver's nested-dissection order by per-box recursion, and every
    split of a non-empty box as (lower half without its separator, upper
    half).  The boxes halve the bounding box of xy across the longer side,
    x on ties, to depth ceil(log2(n / ND_LEAF)); they are ranges of bins,
    for every coordinate is quantized once to the finest bins of its axis,
    a point on a halving line in the lower one."""
    coo = sp.coo_matrix(B)
    pattern = sp.csr_matrix((np.ones(coo.nnz), (coo.row, coo.col)),
                            shape=B.shape)
    pattern = pattern + pattern.T
    n = len(xy)
    if n == 0:
        return np.zeros(0, dtype=int), []
    levels = max(int(np.ceil(np.log2(n / ND_LEAF))), 0)
    width = np.ptp(xy, axis=0)
    axes, w = [], width.copy()
    for _ in range(levels):
        axes.append(0 if w[0] >= w[1] else 1)
        w[axes[-1]] /= 2
    bins = []
    for a in (0, 1):
        k = 2 ** axes.count(a)
        t = (xy[:, a] - xy[:, a].min()) / (width[a] if width[a] > 0 else 1.0)
        bins.append(np.clip(np.ceil(t * k) - 1, 0, k - 1).astype(int))
    x, y = xy[:, 0], xy[:, 1]
    splits = []

    def visit(dofs, depth, box):
        by_xy = dofs[np.lexsort((y[dofs], x[dofs]))]
        if depth == levels:
            return [by_xy]
        a = axes[depth]
        lo, hi = box[a]
        mid = (lo + hi) // 2
        upper = bins[a][dofs] >= mid
        low, up = dofs[~upper], dofs[upper]
        touches = np.asarray(pattern[low][:, up].sum(axis=1)).ravel() > 0
        sep = low[touches]
        if len(dofs):
            splits.append((low[~touches], up))
        halves = [list(box), list(box)]
        halves[0][a], halves[1][a] = (lo, mid), (mid, hi)
        return (visit(low[~touches], depth + 1, halves[0])
                + visit(up, depth + 1, halves[1])
                + [by_xy[np.isin(by_xy, sep)]])

    box = [(0, 2 ** axes.count(a)) for a in (0, 1)]
    return np.concatenate(visit(np.arange(n), 0, box)), splits


def free_block(red, B):
    """The free/free block of an assembled matrix B, in the order of the
    free dofs of ``red``."""
    return B[red.free][:, red.free].sorted_indices()


def dirichlet_free_block(B, space):
    """The block of an assembled matrix B on the dofs of ``space`` that are
    not Dirichlet dofs, in dof order."""
    free = np.setdiff1d(np.arange(space.n_dofs), space.dirichlet_dofs)
    return B[free][:, free]


def saddle_matrix(red, M_I, M, a):
    """The assembled block matrix [[M_I/a, A], [A, -M]] on the free dofs."""
    A_ff = free_block(red, red.A)
    return sp.bmat([[free_block(red, M_I) / a, A_ff],
                    [A_ff, -free_block(red, M)]], format="csr")


def scaled_saddle_matrices(red, M_I, M, a):
    """The assembled square-block matrix [[M, -sqrt(a) A], [sqrt(a) A,
    M_I]] in (y, q = p/sqrt(a)) on the free dofs, and its PRESB
    preconditioner, whose (2, 2) block is M + 2 sqrt(a) A."""
    sA, M_ff = np.sqrt(a) * free_block(red, red.A), free_block(red, M)
    return (sp.bmat([[M_ff, -sA], [sA, free_block(red, M_I)]], format="csr"),
            sp.bmat([[M_ff, -sA], [sA, M_ff + 2 * sA]], format="csc"))


def solve_unconstrained_ocp(A, M, F1, F2, a, space, ybc_values, start=None):
    """The optimality system without control bounds as one saddle solve
    with M_I = M, the control eliminated via u = -p/a: the package's
    unconstrained driver before the active-set Newton driver took the
    unbounded box over.  GMRES starts from the free y and p/sqrt(a) of
    ``start`` = (Y0, P0) if given, else from zero."""
    _check_control(a)
    red = ReducedSolver(A, space)
    x0 = None if start is None else _free_pair(red, *start, a)
    P, Y, its, res = _solve_saddle(red, M, M, F1, F2, a, ybc_values, x0)
    return OcpSolution(Y=Y, P=P, residual_state=res[0],
                       residual_costate=res[1], saddle_iterations=[its],
                       saddle_residuals=[res], factor_nnz=red.factor_nnz,
                       factor_s=red.factor_s, order_s=red.order_s)


def colamd_factor(red, B):
    """``ReducedSolver._factor`` as it was before nested dissection: SuperLU
    with its default COLAMD order and partial pivoting."""
    return spla.splu(sp.csc_matrix(B)).solve


# ---------------------------------------------------------------------------
# the clamped control: depth-3 refined loops and exact polygon clipping
# ---------------------------------------------------------------------------

def _clamp_crossing(vals, lo, hi):
    vmin, vmax = vals.min(), vals.max()
    return (vmin < lo < vmax) or (vmin < hi < vmax)


def loop_control_load(mesh, cut_info, space, P, a, bounds, quad_degree=4,
                      depth=3):
    """Inner products of clamp(-p/a) with all basis functions; cells a
    bound crossing runs through get the recursively refined rule."""
    lo, hi = bounds
    bary, w = triangle_rule(quad_degree)
    vec = np.zeros(space.n_dofs)
    classes = cut_info.classes
    for side, dmap in ((1, space.dof1), (2, space.dof2)):
        els = np.flatnonzero(classes == side)
        if len(els) == 0:
            continue
        dofs = dmap[mesh.triangles[els]]
        uv = -P[dofs] / a                                   # (E, 3) vertex values
        vmin, vmax = uv.min(axis=1), uv.max(axis=1)
        crossing = ((vmin < lo) & (lo < vmax)) | ((vmin < hi) & (hi < vmax))
        plain = els[~crossing]
        pdofs = dmap[mesh.triangles[plain]]
        vals = np.clip((-P[pdofs] / a) @ bary.T, lo, hi)    # (E, nq)
        loads = np.einsum("eq,q,qi->ei", vals, w, bary) \
            * element_areas(mesh, plain)[:, None]
        np.add.at(vec, pdofs, loads)
        for e in els[crossing]:
            _control_load_element(vec, mesh, space, int(e), side, P, a, lo, hi,
                                  bary, w, [tri_coords(mesh, e)], depth)

    for e, cg in element_cuts(cut_info).items():
        for side, tris in ((1, cg.tris1), (2, cg.tris2)):
            _control_load_element(vec, mesh, space, e, side, P, a, lo, hi,
                                  bary, w, tris, depth)
    return vec


def _control_load_element(vec, mesh, space, e, side, P, a, lo, hi, bary, w,
                          tris, depth):
    dofs = element_dofs(space, e, side)
    coeffs = -P[dofs] / a

    def needs_refine(tc):
        return _clamp_crossing(mesh.barycentric(e, tc) @ coeffs, lo, hi)

    for t in tris:
        pts, wts = refined_triangle_quadrature(t, bary, w, needs_refine, depth)
        lamq = mesh.barycentric(e, pts)
        vals = np.clip(lamq @ coeffs, lo, hi)
        np.add.at(vec, dofs, (wts * vals) @ lamq)


def loop_control_at_quadrature(mesh, cut_info, space, P, a, bounds):
    """Control values at the degree-4 points, uncut elements side by side,
    then the cut-element sub-triangles, together with the weights."""
    lo, hi = (-np.inf, np.inf) if bounds is None else bounds
    bary, w = triangle_rule(4)
    vals, wts = [], []
    classes = cut_info.classes
    for side, dmap in ((1, space.dof1), (2, space.dof2)):
        els = np.flatnonzero(classes == side)
        if len(els) == 0:
            continue
        dofs = dmap[mesh.triangles[els]]
        v = np.clip((-P[dofs] / a) @ bary.T, lo, hi)
        vals.append(v.ravel())
        wts.append((np.outer(element_areas(mesh, els), w)).ravel())
    for e, cg in element_cuts(cut_info).items():
        for side, tris in ((1, cg.tris1), (2, cg.tris2)):
            dofs = element_dofs(space, e, side)
            coeffs = -P[dofs] / a
            for t in tris:
                r = map_rule_to_triangle(t, bary, w)
                lamq = mesh.barycentric(e, r.points)
                vals.append(np.clip(lamq @ coeffs, lo, hi))
                wts.append(r.weights)
    return np.concatenate(vals), np.concatenate(wts)


def loop_control_update(mesh, cut_info, space, P, P_prev, a, bounds):
    """The fixed point's control update, by the degree-4 rule on every
    cell: the L2 norm, over sqrt(domain area), of the extended-space field
    whose dofs are d = clip(-P/a) - clip(-P_prev/a).  P_prev None is the
    zero control.  Uncut elements side by side, then the cut-element
    sub-triangles one at a time."""
    d = np.clip(-P / a, *bounds)
    if P_prev is not None:
        d = d - np.clip(-P_prev / a, *bounds)
    bary, w = triangle_rule(4)
    total = 0.0
    for side, dmap in ((1, space.dof1), (2, space.dof2)):
        els = np.flatnonzero(cut_info.classes == side)
        total += element_areas(mesh, els) @ (
            (d[dmap[mesh.triangles[els]]] @ bary.T) ** 2 @ w)
    for e, cg in element_cuts(cut_info).items():
        for side, tris in ((1, cg.tris1), (2, cg.tris2)):
            coeffs = d[element_dofs(space, e, side)]
            for t in tris:
                r = map_rule_to_triangle(t, bary, w)
                total += r.weights @ (mesh.barycentric(e, r.points)
                                      @ coeffs) ** 2
    x0, x1, y0, y1 = mesh.domain
    return float(np.sqrt(total / ((x1 - x0) * (y1 - y0))))


def loop_active_mass_and_load(mesh, cut_info, space, P, a, bounds,
                              quad_degree=4, depth=3):
    """Mass matrix restricted to the inactive set plus the load carried by
    the active region, from refined rules on the cells bounds cross."""
    lo, hi = bounds
    bary, w = triangle_rule(quad_degree)
    S = space.n_dofs
    rows, cols, vals = [], [], []
    b_act = np.zeros(S)

    def handle(e, side, tris):
        dofs = element_dofs(space, e, side)
        coeffs = -P[dofs] / a

        def needs_refine(tc):
            return _clamp_crossing(mesh.barycentric(e, tc) @ coeffs, lo, hi)

        for t in tris:
            pts, wts = refined_triangle_quadrature(t, bary, w, needs_refine,
                                                   depth)
            lamq = mesh.barycentric(e, pts)
            z = lamq @ coeffs
            inactive = (z > lo) & (z < hi)
            wi = wts * inactive
            loc = (lamq * wi[:, None]).T @ lamq
            rows.append(np.repeat(dofs, 3))
            cols.append(np.tile(dofs, 3))
            vals.append(loc.ravel())
            clamped = np.where(z <= lo, lo, np.where(z >= hi, hi, 0.0))
            clamped[inactive] = 0.0
            np.add.at(b_act, dofs, (wts * clamped) @ lamq)

    for e, side, tri in loop_integration_cells(mesh, cut_info):
        handle(e, side, [tri])
    M_inact = sp.coo_matrix((np.concatenate(vals),
                             (np.concatenate(rows), np.concatenate(cols))),
                            shape=(S, S)).tocsr()
    return M_inact, b_act


def _clip_polygon(poly, level, inside):
    """Sutherland-Hodgman: the part of a convex polygon, a list of (point,
    value of a linear function), where ``inside(value)`` holds, for a
    comparison of the value with ``level``."""
    out = []
    for (p, vp), (q, vq) in zip(poly, poly[1:] + poly[:1]):
        if inside(vp):
            out.append((p, vp))
        if inside(vp) != inside(vq):
            t = (level - vp) / (vq - vp)
            out.append((p + t * (q - p), level))
    return out


def _polygon_integrals(mesh, e, poly):
    """Integrals over a polygon of the hats of element e (3,), of their
    products (3, 3) and of the linear function times the hats (3,), by
    exact formulas on a fan of triangles."""
    hats, prods, lin = np.zeros(3), np.zeros((3, 3)), np.zeros(3)
    for k in range(1, len(poly) - 1):
        tri = [poly[0], poly[k], poly[k + 1]]
        pts = np.array([p for p, _ in tri])
        vals = np.array([v for _, v in tri])
        area = triangle_area(pts)
        lam = mesh.barycentric(e, pts)                      # (3 vertices, 3)
        # int_T f g = |T| / 12 (sum f_k g_k + sum f_k sum g_k), f, g linear
        hats += area / 3.0 * lam.sum(axis=0)
        prods += area / 12.0 * (lam.T @ lam + np.outer(lam.sum(axis=0),
                                                        lam.sum(axis=0)))
        lin += area / 12.0 * (lam.T @ vals + lam.sum(axis=0) * vals.sum())
    return hats, prods, lin


def clipped_cell_integrals(mesh, e, tri, coeffs, lo, hi):
    """Exact clamp integrals on one integration cell ``tri`` of element e,
    where -p/a has hat coefficients ``coeffs``: the control load (3,), the
    inactive mass (3, 3) and the active load (3,), by clipping the cell as
    a polygon at both bounds."""
    poly = [(np.asarray(p, dtype=float), float(v))
            for p, v in zip(tri, mesh.barycentric(e, tri) @ coeffs)]
    # a value at a bound counts as clamped, as in the Newton step's set
    inactive = _clip_polygon(_clip_polygon(poly, lo, lambda v: v > lo), hi,
                             lambda v: v < hi)
    _, M_inact, inner = _polygon_integrals(mesh, e, inactive)
    b_act = sum(bound * _polygon_integrals(
        mesh, e, _clip_polygon(poly, bound, clamped))[0]
        for bound, clamped in ((lo, lambda v: v <= lo),
                               (hi, lambda v: v >= hi)))
    return inner + b_act, M_inact, b_act


def clipped_control_integrals(mesh, cut_info, space, P, a, bounds):
    """``clipped_cell_integrals`` over every integration cell: the control
    load, the inactive mass matrix and the active load."""
    lo, hi = bounds
    S = space.n_dofs
    load, b_act = np.zeros(S), np.zeros(S)
    rows, cols, vals = [], [], []
    for e, side, tri in loop_integration_cells(mesh, cut_info):
        dofs = element_dofs(space, e, side)
        cell_load, cell_mass, cell_act = clipped_cell_integrals(
            mesh, e, tri, -P[dofs] / a, lo, hi)
        np.add.at(load, dofs, cell_load)
        np.add.at(b_act, dofs, cell_act)
        rows.append(np.repeat(dofs, 3))
        cols.append(np.tile(dofs, 3))
        vals.append(cell_mass.ravel())
    M_inact = sp.coo_matrix((np.concatenate(vals),
                             (np.concatenate(rows), np.concatenate(cols))),
                            shape=(S, S)).tocsr()
    return load, M_inact, b_act
