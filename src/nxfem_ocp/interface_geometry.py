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

from .mesh import ConfigurationError, cross

__all__ = ["LevelSet", "line_interface", "circle_interface", "ElementClass",
           "CutInfo", "GeometryError", "build_cut_info", "triangle_rule",
           "CellTable", "ChordTable", "box_status",
           "write_integration_mesh_csv"]

# vertices closer to the zero set than SNAP_REL * h count as subdomain-2
# vertices, so chords never pass through mesh nodes
SNAP_REL = 1e-12
ROOT_TOL = 1e-14

# The quadrature of every volume and interface integral: the degree of the
# triangle rule, the Gauss points per chord, and the levels of midpoint
# refinement of the cells that a curved kink of an exact field crosses.
VOLUME_DEGREE = 4
CHORD_POINTS = 3
KINK_DEPTH = 3


class GeometryError(RuntimeError):
    """Interface geometry violates the two-intersection-points assumption."""


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


def _roots_on_edges(levelset, pa, pb, fa, fb):
    """Points (R, 2) where the level set vanishes on the segments [pa, pb]
    with end values fa, fb (R,), all at once, and the rows without a
    bracketable root.

    An end value within ROOT_TOL gives that end; an edge without a sign
    change (one end was snapped across the interface) gives the end nearer
    the zero set.  Every other root takes one secant step, then bisection
    on the sign-preserving bracket until |phi| <= ROOT_TOL.
    """
    at_a = np.abs(fa) <= ROOT_TOL
    at_b = ~at_a & (np.abs(fb) <= ROOT_TOL)
    same = ~(at_a | at_b) & ((fa < 0.0) == (fb < 0.0))
    end_a = at_a | (same & (np.abs(fa) < np.abs(fb)))
    end_b = at_b | (same & ~end_a)
    live = np.flatnonzero(~(end_a | end_b))
    d = pb - pa
    ta, tb, t = np.zeros(len(fa)), np.ones(len(fa)), np.zeros(len(fa))
    t[live] = -fa[live] / (fb[live] - fa[live])      # secant step
    for _ in range(120):
        if not len(live):
            break
        t[live] = np.minimum(np.maximum(t[live], ta[live]), tb[live])
        p = pa[live] + t[live, None] * d[live]
        ft = levelset(p[:, 0], p[:, 1])
        go = ~((np.abs(ft) <= ROOT_TOL) | (tb[live] - ta[live] < 1e-17))
        live, ft = live[go], ft[go]
        like_a = (ft < 0.0) == (fa[live] < 0.0)
        ta[live[like_a]] = t[live[like_a]]
        tb[live[~like_a]] = t[live[~like_a]]
        t[live] = 0.5 * (ta[live] + tb[live])
    roots = np.where(end_a[:, None], pa, np.where(end_b[:, None], pb,
                                                  pa + t[:, None] * d))
    return roots, same & (np.minimum(np.abs(fa), np.abs(fb)) > 1e-10)


def _norms(v):
    """Euclidean norms of the rows of v (R, 2), one dot product per row, so
    they round as ``np.linalg.norm`` of each row does."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


@dataclass
class CellTable:
    """Integration triangles: parent element (C,), side 1 or 2 (C,) and
    vertex coordinates (C, 3, 2)."""

    parent: np.ndarray
    side: np.ndarray
    coords: np.ndarray
    # cells per batch: bounds the per-point temporaries, of which an exact
    # data jet holds about twenty at once
    BATCH = 8192

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

    def areas(self):
        """Area of every cell (C,)."""
        return 0.5 * np.abs(cross(self.coords))

    def refined(self, needs_refine):
        """The leaves of the 4-way midpoint subdivision of every cell, split
        level by level: at each level ``needs_refine(cells)`` picks, for all
        current triangles at once, the ones to split; after KINK_DEPTH
        levels the rest are leaves.  A table of which nothing is split is
        returned as it is, not copied.  This resolves the curved kinks
        of exact fields; the straight kinks of the discrete clamp are cut
        exactly by ``clip``."""
        done, todo = [], self
        for _ in range(KINK_DEPTH):
            split = needs_refine(todo)
            if not split.any():
                break
            done.append(todo[~split])
            todo = CellTable(np.repeat(todo.parent[split], 4),
                             np.repeat(todo.side[split], 4),
                             _children(todo.coords[split]))
        return CellTable.concat(*done, todo) if done else self

    def clip(self, values, level):
        """Split every cell along the zero line of the linear function with
        vertex values ``values - level`` (C, 3).

        A cell whose values straddle the level is cut at the two edges at
        its lone vertex (the one on its side of the line alone) into the
        triangle at that vertex and two triangles for the rest.  Any other
        cell stays whole, above the level if one of its values is, so a
        vertex at the level counts as below.  Returns the pieces in cell
        order, whether each lies above the level, the cell each comes from,
        and the chords (K, 2, 2) of the cut cells, end points in edge order,
        in cell order; a vertex at the level is a chord's end point.
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
        whole = np.flatnonzero(~split)
        source = np.concatenate([whole, np.repeat(rows, 3)])
        order = np.argsort(source, kind="stable")
        pieces = CellTable(self.parent[source], self.side[source],
                           np.concatenate([self.coords[whole],
                                           parts.reshape(-1, 3, 2)]))[order]
        above = np.concatenate([v[whole].max(axis=1) > 0.0,
                                np.stack([lone_up, ~lone_up, ~lone_up],
                                         1).ravel()])[order]
        chords = np.where((lone == 0)[:, None, None], np.stack([qab, qda], 1),
                          np.stack([qda, qab], 1))
        return pieces, above, source[order], chords


def box_status(values, lo, hi):
    """The status (int8) of every value against the box [lo, hi]: -1 at or
    below lo (tested first), 1 at or above hi, 0 between: the one
    classification of a control, exact or discrete, against its box."""
    status = (values >= hi).astype(np.int8)
    status[values <= lo] = -1
    return status


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

    def quadrature(self, mesh, grads=None):
        """Gauss-Legendre points (K, n, 2), weights (K, n) and element
        barycentric coordinates (K, n, 3) on every chord, n = CHORD_POINTS;
        ``grads`` are the elements' hat gradients, if the caller has them."""
        t, w = gauss_segment(CHORD_POINTS)
        d = self.q2 - self.q1
        pts = self.q1[:, None, :] + t[None, :, None] * d[:, None, :]
        weights = np.sqrt((d ** 2).sum(axis=1))[:, None] * w
        return pts, weights, mesh.barycentric(self.element, pts, grads)


@dataclass
class CutInfo:
    """Classification of all elements plus geometry of the cut ones: their
    sub-triangles (``cells``, side 1 first) and chords (``chords``)."""

    classes: np.ndarray          # (T,) ElementClass values
    vertex_sign: np.ndarray      # (V,) snapped signs
    cut_elements: np.ndarray     # indices of cut elements, increasing
    cells: CellTable
    chords: ChordTable

    def integration_cells(self, mesh, side=None, near=None):
        """Every integration cell (of ``side`` only, if given; of the
        elements of the mask ``near`` (T,) only, if given) in element
        order: uncut elements whole, cut elements as their sub-triangles."""
        uncut = (self.classes != int(ElementClass.CUT) if side is None
                 else self.classes == side)
        cut = self.cells if side is None else self.cells[self.cells.side == side]
        if near is not None:
            uncut, cut = uncut & near, cut[near[cut.parent]]
        uncut = np.flatnonzero(uncut)
        cells = CellTable.concat(
            CellTable(uncut, self.classes[uncut], mesh.coords(uncut)), cut)
        return cells[np.argsort(cells.parent, kind="stable")]

    def batches(self, mesh, side, split=None):
        """One side's integration cells in batches of at most
        ``CellTable.BATCH`` cells; with a kink predicate ``split(cells,
        side)`` (``ManufacturedProblem.kink_rule``), the leaves that
        ``CellTable.refined`` makes of each batch where it flags, cut again
        to that bound: the one walk of the loads and of the error norms."""
        for cells in self.integration_cells(mesh, side).batches():
            if split is not None:
                cells = cells.refined(lambda c: split(c, side))
            yield from cells.batches()


def build_cut_info(mesh, levelset):
    """Classify every element and compute the geometry of all cut elements
    at once.

    Each cut element is split by the chord between the roots on the two
    edges at its lone (minority-sign) vertex into the triangle at that
    vertex and the rest, a quad cut along its shorter diagonal; quad
    triangles of area <= 1e-14 times the element's are dropped.  Elements
    whose chord degenerates (the interface grazes a snapped vertex, or a
    side keeps a fraction below 1e-12) are reclassified as interior, on
    their majority (larger) side.
    """
    phi, signs = snapped_vertex_signs(mesh, levelset)
    classes = _classes_from_signs(mesh, signs)
    flagged = np.flatnonzero(classes == int(ElementClass.CUT))
    tri = mesh.triangles[flagged]
    s = signs[tri]
    lone = np.where(s[:, 1] == s[:, 2], 0, np.where(s[:, 0] == s[:, 2], 1, 2))
    lone_side = np.where(s[np.arange(len(s)), lone] == -1, 1, 2)
    # the lone vertex, then the one before and the one after it
    tri = np.take_along_axis(tri, (lone[:, None] + [0, 2, 1]) % 3, axis=1)
    corner = mesh.vertices[tri]
    # one root per edge at the lone vertex, in canonical (lower vertex
    # first) orientation so shared edges give identical points
    va, vb = np.repeat(tri[:, :1], 2, axis=1).ravel(), tri[:, 1:].ravel()
    lo, hi = np.minimum(va, vb), np.maximum(va, vb)
    roots, bad = _roots_on_edges(levelset, mesh.vertices[lo],
                                 mesh.vertices[hi], phi[lo], phi[hi])
    if bad.any():
        raise GeometryError(f"element {flagged[bad.argmax() // 2]}: "
                            "sign-flagged edge without a bracketable root")
    q1, q2 = roots[0::2], roots[1::2]

    # the lone triangle, then the quad (ccw) cut along its shorter diagonal
    quad = np.stack([corner[:, 1], corner[:, 2], q2, q1], axis=1)
    short = _norms(corner[:, 1] - q2) <= _norms(corner[:, 2] - q1)
    split = np.where(short[:, None, None], [[0, 1, 2], [0, 2, 3]],
                     [[0, 1, 3], [1, 2, 3]])
    parts = np.concatenate([np.stack([corner[:, 0], q1, q2], axis=1)[:, None],
                            np.take_along_axis(quad[:, None], split[..., None],
                                               axis=2)], axis=1)  # (K, 3, 3, 2)
    twice = cross(parts)
    parts = np.where((twice < 0.0)[..., None, None], parts[:, :, [0, 2, 1]],
                     parts)                            # positive orientation
    areas = np.abs(0.5 * twice)
    whole = mesh.areas(flagged)
    kept = areas > 1e-14 * whole[:, None]
    kept[:, 0] = True
    k_lone = areas[:, 0] / whole
    k_quad = np.where(kept, areas, 0.0)[:, 1:].sum(axis=1) / whole
    k1 = np.where(lone_side == 1, k_lone, k_quad)
    k2 = np.where(lone_side == 1, k_quad, k_lone)
    grazing = _norms(q1 - q2) < 1e-12 * mesh.h
    degenerate = grazing | (np.minimum(k1, k2) < 1e-12)
    larger = np.where(grazing, 3 - lone_side, np.where(k1 > k2, 1, 2))
    classes[flagged[degenerate]] = larger[degenerate]
    ok = ~degenerate
    cut_elements = flagged[ok]

    # chord normal pointing out of subdomain 1 (the negative level-set side);
    # this orientation makes the cross-weighted flux data consistent
    mid = 0.5 * (q1[ok] + q2[ok])
    normal = np.empty_like(mid)
    normal[:, 0], normal[:, 1] = levelset.grad(mid[:, 0], mid[:, 1])
    norm = _norms(normal)
    if (norm == 0.0).any():
        raise GeometryError(f"element {cut_elements[(norm == 0.0).argmax()]}: "
                            "vanishing level-set gradient")
    normal /= norm[:, None]

    # per element the cells of side 1 first
    lone_side = lone_side[ok, None]
    order = np.where(lone_side == 1, [0, 1, 2], [1, 2, 0])
    kept = np.take_along_axis(kept[ok], order, axis=1)
    side = np.where(order == 0, lone_side, 3 - lone_side)
    cells = CellTable(
        np.repeat(cut_elements, kept.sum(axis=1)), side[kept].astype(np.int8),
        np.take_along_axis(parts[ok], order[..., None, None], axis=1)[kept])
    edges = mesh.coords(cut_elements)
    edges -= np.roll(edges, 1, axis=1)
    chords = ChordTable(cut_elements, q1[ok], q2[ok], normal, k1[ok], k2[ok],
                        np.sqrt((edges ** 2).sum(axis=2)).max(axis=1,
                                                              initial=0.0))
    return CutInfo(classes, signs, cut_elements, cells, chords)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def triangle_rule(degree):
    """Symmetric reference rule in barycentric coordinates, of degree 4
    (``VOLUME_DEGREE``), the one degree of the cell integrals.

    Returns (bary (n,3), weights (n,)); weights sum to one and are scaled
    by the physical area on mapping.
    """
    if degree != 4:
        raise ConfigurationError(f"unsupported triangle quadrature degree {degree}")
    a, b = 0.445948490915965, 0.091576213509771
    wa, wb = 0.223381589678011, 0.109951743655322
    bary = np.array([[1 - 2 * a, a, a], [a, 1 - 2 * a, a], [a, a, 1 - 2 * a],
                     [1 - 2 * b, b, b], [b, 1 - 2 * b, b], [b, b, 1 - 2 * b]])
    w = np.array([wa, wa, wa, wb, wb, wb])
    return bary, w


def gauss_segment(n_points):
    """Gauss-Legendre points and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n_points)
    return 0.5 * (x + 1.0), 0.5 * w


def write_integration_mesh_csv(path, mesh, cut_info, *extra):
    """Dump the integration cells in element order (whole uncut elements,
    the cut-element sub-triangles), then the cells of the tables ``extra``."""
    cells = CellTable.concat(cut_info.integration_cells(mesh), *extra)
    rows = np.column_stack([cells.parent, cells.side,
                            cells.coords.reshape(-1, 6)])
    np.savetxt(path, rows, fmt=["%d", "%d"] + ["%.17e"] * 6, delimiter=",",
               header="element,side,x0,y0,x1,y1,x2,y2", comments="")
