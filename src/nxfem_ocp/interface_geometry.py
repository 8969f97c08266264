"""Level-set interface representation, cut-element geometry and quadrature.

The interface is described by a scalar level-set function, negative on
subdomain 1 and positive on subdomain 2.  Inside every cut element it is
replaced by the straight chord between the two edge intersection points;
all interface integrals and normals refer to that chord.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .mesh import ConfigurationError, triangle_area

__all__ = ["LevelSet", "line_interface", "circle_interface", "ElementClass",
           "CutGeometry", "CutInfo", "GeometryError", "compute_cut_geometry",
           "build_cut_info", "triangle_rule", "CellTable", "ChordTable",
           "write_integration_mesh_csv"]

# vertices closer to the zero set than SNAP_REL * h count as subdomain-2
# vertices, so chords never pass through mesh nodes
SNAP_REL = 1e-12
ROOT_TOL = 1e-14


class GeometryError(RuntimeError):
    """Interface geometry violates the two-intersection-points assumption."""


class DegenerateCutError(GeometryError):
    """The chord of a sign-flagged element collapses (the interface only
    grazes a snapped vertex); the element is effectively interior."""

    def __init__(self, element, side, message):
        super().__init__(message)
        self.element = element
        self.side = side


@dataclass(frozen=True)
class LevelSet:
    """Signed interface description: f < 0 on subdomain 1, f > 0 on 2.

    Both callables must accept numpy arrays; ``grad`` returns a pair
    (df/dx1, df/dx2).
    """

    f: callable
    grad: callable

    def __call__(self, x, y):
        return self.f(x, y)


def line_interface(k, b):
    """Line x2 = k*x1 + b with subdomain 1 below the line."""
    return LevelSet(
        f=lambda x, y: y - k * x - b,
        grad=lambda x, y: (np.full_like(np.asarray(x, dtype=float), -k),
                           np.ones_like(np.asarray(y, dtype=float))),
    )


def circle_interface(r, center=(0.0, 0.0)):
    """Circle of radius r with subdomain 1 inside."""
    cx, cy = center
    return LevelSet(
        f=lambda x, y: (x - cx) ** 2 + (y - cy) ** 2 - r * r,
        grad=lambda x, y: (2.0 * (x - cx), 2.0 * (y - cy)),
    )


class ElementClass(IntEnum):
    INTERIOR_1 = 1
    INTERIOR_2 = 2
    CUT = 3


def snapped_vertex_signs(mesh, levelset):
    """Level-set values and snapped signs (+1 / -1) at all vertices."""
    phi = np.asarray(levelset(mesh.vertices[:, 0], mesh.vertices[:, 1]),
                     dtype=float)
    signs = np.where(phi < 0.0, -1, 1).astype(np.int8)
    signs[np.abs(phi) < SNAP_REL * mesh.h] = 1
    return phi, signs


def _classes_from_signs(mesh, signs):
    s = signs[mesh.triangles]
    classes = np.full(mesh.num_triangles, int(ElementClass.CUT), dtype=np.int8)
    classes[(s == -1).all(axis=1)] = int(ElementClass.INTERIOR_1)
    classes[(s == 1).all(axis=1)] = int(ElementClass.INTERIOR_2)
    return classes


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


@dataclass
class CellTable:
    """Integration triangles: parent element (C,), side 1 or 2 (C,) and
    vertex coordinates (C, 3, 2)."""

    parent: np.ndarray
    side: np.ndarray
    coords: np.ndarray
    BATCH = 16384     # cells per batch: bounds the per-point temporaries

    def __len__(self):
        return len(self.parent)

    def __getitem__(self, rows):
        return CellTable(self.parent[rows], self.side[rows], self.coords[rows])

    def batches(self):
        """The table in consecutive pieces of at most ``BATCH`` cells."""
        return (self[i:i + self.BATCH] for i in range(0, len(self), self.BATCH))

    @staticmethod
    def concat(*tables):
        return CellTable(*(np.concatenate([getattr(t, name) for t in tables])
                           for name in ("parent", "side", "coords")))

    def quadrature(self, mesh, degree):
        """Points (C, q, 2), weights (C, q) and parent barycentric
        coordinates (C, q, 3) of the degree-``degree`` rule on every cell."""
        bary, w = triangle_rule(degree)
        pts = bary @ self.coords
        return (pts, self.areas()[:, None] * w,
                mesh.barycentric(self.parent, pts))

    def areas(self):
        """Area of every cell (C,)."""
        c = self.coords
        e0, e1 = c[:, 1] - c[:, 0], c[:, 2] - c[:, 0]
        return 0.5 * np.abs(e0[:, 0] * e1[:, 1] - e0[:, 1] * e1[:, 0])

    def refined(self, flags, needs_refine, depth):
        """The table with every flagged cell replaced by the leaves of its
        4-way midpoint subdivision, split level by level: at each level
        ``needs_refine(cells)`` picks, for all current triangles at once,
        the ones to split; after ``depth`` levels the rest are leaves.
        This resolves the curved kinks of exact fields; the straight kinks
        of the discrete clamp are cut exactly by ``clip``."""
        done, todo = [self[~flags]], self[flags]
        for _ in range(depth):
            split = needs_refine(todo)
            done.append(todo[~split])
            todo = CellTable(np.repeat(todo.parent[split], 4),
                             np.repeat(todo.side[split], 4),
                             _children(todo.coords[split]))
        return CellTable.concat(*done, todo)

    def clip(self, values, level):
        """Split every cell along the zero line of the linear function with
        vertex values ``values - level`` (C, 3).

        A cell whose values straddle the level is cut at the two edges at
        its lone vertex (the one on its side of the line alone) into the
        triangle at that vertex and two triangles for the rest.  Any other
        cell stays whole, above the level if one of its values is, so a
        vertex at the level counts as below.  Returns the pieces in cell
        order, their vertex values (the level at the new vertices), whether
        each lies above the level, the cell each comes from, and the chords
        (K, 2, 2), end points in edge order, of the cut cells without a
        vertex at the level, in cell order.
        """
        v = values - level
        split = (v.min(axis=1) < 0.0) & (v.max(axis=1) > 0.0)
        rows = np.flatnonzero(split)
        up = v[rows] > 0.0
        lone_up = up.sum(axis=1) == 1
        lone = (up == lone_up[:, None]).argmax(axis=1)
        turn = (rows[:, None], (lone[:, None] + np.arange(3)) % 3)
        a, b, d = np.moveaxis(self.coords[turn], 1, 0)    # lone vertex a
        va, vb, vd = v[turn].T
        # the crossings of the edges a -> b and d -> a, in the cell's order
        qab = a + (va / (va - vb))[:, None] * (b - a)
        qda = d + (vd / (vd - va))[:, None] * (a - d)
        parts = np.stack([np.stack(t, axis=1) for t in
                          ((a, qab, qda), (qab, b, d), (qab, d, qda))], 1)
        wa, wb, wd = values[turn].T
        lvl = np.full(len(rows), level)
        vals = np.stack([np.stack(t, axis=1) for t in
                         ((wa, lvl, lvl), (lvl, wb, wd), (lvl, wd, lvl))], 1)
        whole = np.flatnonzero(~split)
        source = np.concatenate([whole, np.repeat(rows, 3)])
        order = np.argsort(source, kind="stable")
        pieces = CellTable(self.parent[source], self.side[source],
                           np.concatenate([self.coords[whole],
                                           parts.reshape(-1, 3, 2)]))[order]
        above = np.concatenate([v[whole].max(axis=1) > 0.0,
                                np.stack([lone_up, ~lone_up, ~lone_up],
                                         1).ravel()])[order]
        vals = np.concatenate([values[whole], vals.reshape(-1, 3)])[order]
        crossed = (v[rows] * v[rows][:, [1, 2, 0]] < 0.0).sum(axis=1) == 2
        chords = np.where((lone == 0)[:, None, None], np.stack([qab, qda], 1),
                          np.stack([qda, qab], 1))[crossed]
        return pieces, vals, above, source[order], chords


def _children(coords):
    """The four midpoint children (4C, 3, 2) of triangles (C, 3, 2): the
    three corner triangles, then the middle one."""
    c0, c1, c2 = coords[:, 0], coords[:, 1], coords[:, 2]
    m01, m12, m20 = 0.5 * (c0 + c1), 0.5 * (c1 + c2), 0.5 * (c2 + c0)
    kids = ((c0, m01, m20), (m01, c1, m12), (m20, m12, c2), (m01, m12, m20))
    return np.stack([np.stack(k, axis=1) for k in kids], 1).reshape(-1, 3, 2)


@dataclass
class ChordTable:
    """The interface chords of the cut elements, stacked in element order:
    end points q1, q2 (K, 2), unit normals (K, 2), area fractions k1, k2
    (K,) and element diameters h (K,)."""

    element: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    normal: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    h: np.ndarray

    def quadrature(self, mesh, n_points):
        """Gauss-Legendre points (K, n, 2), weights (K, n) and element
        barycentric coordinates (K, n, 3) on every chord."""
        if n_points < 2:
            raise ConfigurationError("segment quadrature needs at least 2 points")
        t, w = gauss_segment(n_points)
        d = self.q2 - self.q1
        pts = self.q1[:, None, :] + t[None, :, None] * d[:, None, :]
        weights = np.sqrt((d ** 2).sum(axis=1))[:, None] * w
        return pts, weights, mesh.barycentric(self.element, pts)


@dataclass
class CutInfo:
    """Classification of all elements plus geometry of the cut ones: their
    sub-triangles (``cells``, side 1 first) and chords (``chords``)."""

    classes: np.ndarray          # (T,) ElementClass values
    vertex_phi: np.ndarray       # (V,) raw level-set values
    vertex_sign: np.ndarray      # (V,) snapped signs
    cut_elements: np.ndarray     # indices of cut elements, increasing
    cuts: dict                   # element -> CutGeometry
    cells: CellTable
    chords: ChordTable

    def integration_cells(self, mesh, side=None):
        """Every integration cell (of ``side`` only, if given) in element
        order: uncut elements whole, cut elements as their sub-triangles."""
        uncut = np.flatnonzero(self.classes != int(ElementClass.CUT)
                               if side is None else self.classes == side)
        cut = self.cells if side is None else self.cells[self.cells.side == side]
        cells = CellTable.concat(
            CellTable(uncut, self.classes[uncut],
                      mesh.vertices[mesh.triangles[uncut]]), cut)
        return cells[np.argsort(cells.parent, kind="stable")]


def build_cut_info(mesh, levelset):
    """Classify every element and compute geometry of all cut elements.

    Elements whose chord degenerates (interface grazing a snapped vertex)
    are reclassified as interior.
    """
    phi, signs = snapped_vertex_signs(mesh, levelset)
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
    return CutInfo(classes, phi, signs, cut_elements, cuts, cells, chords)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def triangle_rule(degree):
    """Symmetric reference rule in barycentric coordinates.

    Returns (bary (n,3), weights (n,)); weights sum to one and are scaled
    by the physical area on mapping.
    """
    if degree == 2:
        bary = np.array([[0.5, 0.5, 0.0],
                         [0.0, 0.5, 0.5],
                         [0.5, 0.0, 0.5]])
        w = np.full(3, 1.0 / 3.0)
    elif degree == 4:
        a, b = 0.445948490915965, 0.091576213509771
        wa, wb = 0.223381589678011, 0.109951743655322
        bary = np.array([[1 - 2 * a, a, a], [a, 1 - 2 * a, a], [a, a, 1 - 2 * a],
                         [1 - 2 * b, b, b], [b, 1 - 2 * b, b], [b, b, 1 - 2 * b]])
        w = np.array([wa, wa, wa, wb, wb, wb])
    else:
        raise ConfigurationError(f"unsupported triangle quadrature degree {degree}")
    return bary, w


_GAUSS_CACHE = {}


def gauss_segment(n_points):
    if n_points not in _GAUSS_CACHE:
        x, w = np.polynomial.legendre.leggauss(n_points)
        _GAUSS_CACHE[n_points] = (0.5 * (x + 1.0), 0.5 * w)
    return _GAUSS_CACHE[n_points]


def write_integration_mesh_csv(path, mesh, cut_info, extra=None):
    """Dump the integration cells in element order (whole uncut elements,
    the cut-element sub-triangles), then the cells of the table ``extra``."""
    cells = cut_info.integration_cells(mesh)
    if extra is not None:
        cells = CellTable.concat(cells, extra)
    with open(path, "w") as fh:
        fh.write("element,side,x0,y0,x1,y1,x2,y2\n")
        for e, side, t in zip(cells.parent, cells.side, cells.coords):
            vals = ",".join(f"{v:.17e}" for v in t.ravel())
            fh.write(f"{e},{side},{vals}\n")
