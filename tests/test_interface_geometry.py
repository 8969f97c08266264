"""The cut geometry: classification, chords, fractions and sub-triangles
of the batched ``build_cut_info``, checked for their own properties and
against the per-element oracle (``oracles.compute_cut_geometry``)."""

import numpy as np
import pytest

from nxfem_ocp.interface_geometry import (CHORD_POINTS, ElementClass,
                                          GeometryError, LevelSet,
                                          build_cut_info, circle_interface,
                                          line_interface,
                                          snapped_vertex_signs, triangle_rule)
from nxfem_ocp.mesh import ConfigurationError, build_uniform_mesh
from nxfem_ocp.problems import build_example

from helpers import (element_areas, mesh_from_arrays, total_interface_length,
                     triangle_area)
from oracles import (DegenerateCutError, QuadRule, compute_cut_geometry,
                     element_cuts, loop_cut_info, map_rule_to_triangle,
                     refined_triangle_quadrature)

# the reference-triangle cut used throughout: phi = x - y - 1/2
FIG_LS = LevelSet(f=lambda x, y: x - y - 0.5,
                  grad=lambda x, y: (np.ones_like(np.asarray(x, dtype=float)),
                                     -np.ones_like(np.asarray(y, dtype=float))))


def reference_cut_mesh():
    return mesh_from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])


def test_classify_trivial_signs():
    mesh = build_uniform_mesh((0, 1, 0, 1), 4)
    below = LevelSet(f=lambda x, y: -np.ones_like(np.asarray(x, dtype=float)),
                     grad=lambda x, y: (np.ones_like(np.asarray(x, dtype=float)),
                                        np.zeros_like(np.asarray(y, dtype=float))))
    assert build_cut_info(mesh, below).classes[0] == ElementClass.INTERIOR_1
    mesh0 = reference_cut_mesh()
    assert build_cut_info(mesh0, FIG_LS).classes[0] == ElementClass.CUT


def test_cut_count_matches_sign_scan():
    # circle of radius 1/2 on a 16x16 mesh of [-1,1]^2
    mesh = build_uniform_mesh((-1, 1, -1, 1), 16)
    ls = circle_interface(0.5)
    _, signs = snapped_vertex_signs(mesh, ls)
    scan = sum(1 for tri in mesh.triangles if len(set(signs[tri].tolist())) > 1)
    assert scan == 50
    # four sign-flagged elements only graze the circle at a snapped vertex
    # and are reclassified as interior; every other element follows its signs
    info = build_cut_info(mesh, ls)
    assert len(info.cut_elements) == 46
    assert (info.classes == ElementClass.CUT).sum() == 46
    for e in range(mesh.num_triangles):
        s = signs[mesh.triangles[e]]
        if (s == -1).all():
            assert info.classes[e] == ElementClass.INTERIOR_1
        elif (s == 1).all():
            assert info.classes[e] == ElementClass.INTERIOR_2
        else:
            assert (info.classes[e] == ElementClass.CUT) == \
                (e in info.cut_elements)


def test_reference_cut_geometry():
    mesh = reference_cut_mesh()
    cg = element_cuts(build_cut_info(mesh, FIG_LS))[0]
    qs = sorted([tuple(cg.q1), tuple(cg.q2)])
    assert np.allclose(qs[0], (0.5, 0.0), atol=1e-12)
    assert np.allclose(qs[1], (0.75, 0.25), atol=1e-12)
    # side containing (1,0) is the positive side (side 2)
    assert cg.k2 == pytest.approx(0.125, abs=1e-12)
    assert cg.k1 == pytest.approx(0.875, abs=1e-12)
    assert cg.q1 @ np.array([1.0, 1.0]) <= cg.q2 @ np.array([1.0, 1.0]) + 1


def test_partition_identities():
    for domain, ls, n in (((0, 1, 0, 1),
                           line_interface(-np.sqrt(3) / 3,
                                          (6 + np.sqrt(6) - 2 * np.sqrt(3)) / 6), 16),
                          ((-1, 1, -1, 1), circle_interface(np.sqrt(3) / 4), 16)):
        mesh = build_uniform_mesh(domain, n)
        info = build_cut_info(mesh, ls)
        assert len(info.cut_elements) > 0
        for e, cg in element_cuts(info).items():
            area = element_areas(mesh, e)
            assert cg.k1 + cg.k2 == pytest.approx(1.0, abs=1e-12)
            assert 0.0 < cg.k1 < 1.0 and 0.0 < cg.k2 < 1.0
            a1 = sum(triangle_area(t) for t in cg.tris1)
            a2 = sum(triangle_area(t) for t in cg.tris2)
            assert a1 == pytest.approx(cg.k1 * area, rel=1e-12)
            assert a2 == pytest.approx(cg.k2 * area, rel=1e-12)
            assert a1 + a2 == pytest.approx(area, rel=1e-12)


def test_sliver_cut_keeps_partition():
    # clip the corner vertex (1, 0.5) with a fraction of 4*delta^2 = 1e-6
    delta = 5e-4
    mesh = build_uniform_mesh((0, 1, 0, 1), 2)
    ls = LevelSet(f=lambda x, y: x + y - (1.5 - delta),
                  grad=lambda x, y: (np.ones_like(np.asarray(x, dtype=float)),
                                     np.ones_like(np.asarray(y, dtype=float))))
    info = build_cut_info(mesh, ls)
    fractions = []
    for k1, k2 in zip(info.chords.k1, info.chords.k2):
        assert k1 + k2 == pytest.approx(1.0, abs=1e-12)
        fractions.append(min(k1, k2))
    # the clipped corner spreads over the two elements meeting at the vertex
    assert min(fractions) == pytest.approx(5e-7, rel=1e-6)


def test_chord_root_residuals():
    mesh = build_uniform_mesh((-1, 1, -1, 1), 16)
    ls = circle_interface(np.sqrt(3) / 4)
    info = build_cut_info(mesh, ls)
    ch = info.chords
    for e, q1, q2 in zip(ch.element, ch.q1, ch.q2):
        for q in (q1, q2):
            assert abs(ls(q[0], q[1])) <= 1e-12
            lam = mesh.barycentric(e, q)[0]
            assert lam.min() >= -1e-10
            # intersection points sit on an edge: one coordinate vanishes
            assert lam.min() <= 1e-10


def test_normal_orientation_and_unit_length():
    # normal points out of subdomain 1, along the level-set gradient
    for ls, domain in ((circle_interface(np.sqrt(3) / 4), (-1, 1, -1, 1)),
                       (line_interface(-np.sqrt(3) / 3,
                                       (6 + np.sqrt(6) - 2 * np.sqrt(3)) / 6),
                        (0, 1, 0, 1))):
        mesh = build_uniform_mesh(domain, 16)
        info = build_cut_info(mesh, ls)
        ch = info.chords
        gx, gy = ls.grad(*(0.5 * (ch.q1 + ch.q2)).T)
        assert (ch.normal[:, 0] * gx + ch.normal[:, 1] * gy > 0.0).all()
        assert np.allclose(np.linalg.norm(ch.normal, axis=1), 1.0, rtol=0.0,
                           atol=1e-13)


def test_degenerate_grazing_cut_reclassified():
    # vertices ( +-1/2, 0), (0, +-1/2) lie exactly on the circle; elements
    # touching it only there must be reclassified interior (the oracle finds
    # them one element at a time)
    mesh = build_uniform_mesh((-1, 1, -1, 1), 16)
    ls = circle_interface(0.5)
    _, signs = snapped_vertex_signs(mesh, ls)
    degenerate = []
    for e in range(mesh.num_triangles):
        s = signs[mesh.triangles[e]]
        if len(set(s.tolist())) > 1:
            try:
                compute_cut_geometry(mesh, ls, e, signs)
            except DegenerateCutError as exc:
                degenerate.append((e, exc.side))
    assert len(degenerate) == 4
    info = build_cut_info(mesh, ls)
    for e, side in degenerate:
        assert info.classes[e] == side
        assert e not in info.cut_elements


def test_subtriangle_quadrature_partition_and_monomials():
    mesh = reference_cut_mesh()
    cells = build_cut_info(mesh, FIG_LS).cells
    bary, w = triangle_rule(4)
    # one physical rule per element side, mapped over its sub-triangles
    rules = []
    for tris in (cells.coords[cells.side == 1], cells.coords[cells.side == 2]):
        mapped = [map_rule_to_triangle(t, bary, w) for t in tris]
        rules.append((np.vstack([r.points for r in mapped]),
                      np.hstack([r.weights for r in mapped])))
    (p1, w1), (p2, w2) = rules
    assert np.all(w1 > 0) and np.all(w2 > 0)
    assert w1.sum() + w2.sum() == pytest.approx(0.5, rel=1e-13)
    # integral of x over the whole reference triangle via the two sides
    ix = (w1 @ p1[:, 0]) + (w2 @ p2[:, 0])
    assert ix == pytest.approx(1.0 / 6.0, rel=1e-13)
    # degree-4 rule integrates x^2 y^2 exactly on a sub-triangle
    # (side-2 fragment [(1,0),(0.5,0),(0.75,0.25)]; reference value 17/46080
    # computed symbolically)
    mono = w2 @ (p2[:, 0] ** 2 * p2[:, 1] ** 2)
    assert mono == pytest.approx(17.0 / 46080.0, rel=1e-14)
    with pytest.raises(ConfigurationError):
        triangle_rule(3)


def test_triangle_rules_exactness():
    bary, w = triangle_rule(4)
    assert w.sum() == pytest.approx(1.0, rel=1e-14)
    rule = map_rule_to_triangle([(0, 0), (1, 0), (0, 1)], bary, w)
    # exact integrals of x^a y^b over the reference triangle
    exact = {(0, 0): 0.5, (1, 0): 1 / 6, (0, 1): 1 / 6, (1, 1): 1 / 24,
             (2, 0): 1 / 12, (0, 2): 1 / 12, (2, 2): 1 / 180,
             (3, 1): 1 / 120, (4, 0): 1 / 30}
    for (a, bb), val in exact.items():
        q = rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** bb)
        assert q == pytest.approx(val, rel=1e-13)
    with pytest.raises(ConfigurationError):
        triangle_rule(2)


def test_segment_quadrature():
    # the chord rule of the reference cut, through the stacked chord table
    mesh = reference_cut_mesh()
    chords = build_cut_info(mesh, FIG_LS).chords
    p0, p1 = np.array([0.5, 0.0]), np.array([0.75, 0.25])
    assert np.allclose(chords.q1[0], p0) and np.allclose(chords.q2[0], p1)
    pts, weights, lam = chords.quadrature(mesh)
    assert weights.shape == (1, CHORD_POINTS) and CHORD_POINTS == 3
    rule = QuadRule(points=pts[0], weights=weights[0])
    assert np.allclose(lam[0], mesh.barycentric(0, pts[0]), rtol=0, atol=1e-15)
    length = np.sqrt(0.125)
    assert rule.weights.sum() == pytest.approx(length, rel=1e-14)
    const = rule.weights @ np.ones(len(rule.weights))
    assert const == pytest.approx(0.35355339059327373, rel=1e-10)
    # odd polynomial about the midpoint integrates to zero
    mid = 0.5 * (p0 + p1)
    s = (rule.points - mid) @ (p1 - p0)
    assert rule.weights @ (s ** 3) == pytest.approx(0.0, abs=1e-14)
    # linear function x on the chord
    assert rule.weights @ rule.points[:, 0] == pytest.approx(0.625 * length,
                                                             rel=1e-13)
    # Gauss rule with n points is exact to degree 2n-1
    t = (rule.points[:, 0] - 0.5) / 0.25
    assert rule.weights @ (t ** 5) == pytest.approx(length / 6.0, rel=1e-12)


def test_interface_length_second_order():
    r = np.sqrt(3) / 4
    errs = []
    for n in (16, 32, 64, 128):
        mesh = build_uniform_mesh((-1, 1, -1, 1), n)
        info = build_cut_info(mesh, circle_interface(r))
        errs.append(abs(total_interface_length(info) - 2 * np.pi * r))
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    for rat in ratios:
        assert 3.2 < rat < 4.8


def test_refined_quadrature_partition():
    bary, w = triangle_rule(4)
    coords = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    pts, wts = refined_triangle_quadrature(coords, bary, w,
                                           lambda c: True, 3)
    assert len(wts) == 6 * 4 ** 3
    assert wts.sum() == pytest.approx(0.5, rel=1e-13)
    pts0, wts0 = refined_triangle_quadrature(coords, bary, w,
                                             lambda c: False, 3)
    base = map_rule_to_triangle(coords, bary, w)
    assert np.allclose(pts0, base.points) and np.allclose(wts0, base.weights)


def test_endpoint_roots_at_snapped_vertices():
    # circle through the mesh vertex (0.5, 0): adjacent genuinely-cut
    # elements get a chord endpoint exactly at that vertex
    mesh = build_uniform_mesh((-1, 1, -1, 1), 8)
    ls = circle_interface(0.5)
    info = build_cut_info(mesh, ls)
    ends = np.concatenate([info.chords.q1, info.chords.q2])
    assert (np.abs(ends - (0.5, 0.0)).max(axis=1) <= 1e-13).any()
    assert ((0.0 < info.chords.k1) & (info.chords.k1 < 1.0)).all()


def test_cut_geometry_error_on_uncut_element():
    # the per-element oracle refuses an element the interface misses
    mesh = build_uniform_mesh((0, 1, 0, 1), 4)
    far = circle_interface(1.0, center=(10.0, 10.0))
    with pytest.raises(GeometryError):
        compute_cut_geometry(mesh, far, 0)


def random_interfaces():
    """30 randomized lines and circles on small meshes of [-1, 1]^2,
    including near-vertex crossings."""
    rng = np.random.default_rng(17)
    for trial in range(30):
        n = int(rng.integers(4, 13))
        mesh = build_uniform_mesh((-1, 1, -1, 1), n)
        if trial % 2 == 0:
            k = rng.normal() * 2.0
            b = rng.uniform(-0.9, 0.9)
            ls = line_interface(k, b)
        else:
            r = rng.uniform(0.2, 0.8)
            cx, cy = rng.uniform(-0.3, 0.3, size=2)
            # occasionally place the center exactly on a grid vertex
            if trial % 4 == 1:
                cx, cy = round(cx * n) / n, round(cy * n) / n
            ls = circle_interface(r, center=(cx, cy))
        yield mesh, ls


def test_random_interfaces_keep_invariants():
    for mesh, ls in random_interfaces():
        info = build_cut_info(mesh, ls)
        for e, cg in element_cuts(info).items():
            assert cg.k1 + cg.k2 == pytest.approx(1.0, abs=1e-12)
            assert 0.0 < cg.k1 < 1.0
            a1 = sum(triangle_area(t) for t in cg.tris1)
            a2 = sum(triangle_area(t) for t in cg.tris2)
            assert a1 + a2 == pytest.approx(element_areas(mesh, e),
                                            rel=1e-12)
            for q in (cg.q1, cg.q2):
                assert abs(ls(q[0], q[1])) <= 1e-10 * mesh.h
            assert np.linalg.norm(cg.normal) == pytest.approx(1.0, abs=1e-12)


def assert_same_geometry(new, old, bitwise):
    assert np.array_equal(new.classes, old.classes)
    assert np.array_equal(new.cut_elements, old.cut_elements)
    assert np.array_equal(new.vertex_sign, old.vertex_sign)
    assert np.array_equal(new.cells.parent, old.cells.parent)
    assert np.array_equal(new.cells.side, old.cells.side)
    h = old.chords.h
    if bitwise:
        assert np.array_equal(new.cells.coords, old.cells.coords)
        for name in ("element", "q1", "q2", "normal", "k1", "k2", "h"):
            assert np.array_equal(getattr(new.chords, name),
                                  getattr(old.chords, name)), name
        return
    for name in ("q1", "q2"):
        gap = np.abs(getattr(new.chords, name) - getattr(old.chords, name))
        assert (gap.max(axis=1, initial=0.0) <= 1e-14 * h).all(), name
    for name in ("k1", "k2"):
        gap = np.abs(getattr(new.chords, name) - getattr(old.chords, name))
        assert gap.max(initial=0.0) <= 1e-14, name
    gap = np.abs(new.cells.coords - old.cells.coords).max(axis=(1, 2),
                                                          initial=0.0)
    cell_h = h[np.searchsorted(old.chords.element, old.cells.parent)]
    assert (gap <= 1e-14 * cell_h).all()


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
@pytest.mark.parametrize("example", [1, 2, 3])
def test_batched_geometry_is_the_element_oracle_bitwise(example, n):
    problem = build_example(example)
    mesh = build_uniform_mesh(problem.domain, n)
    old, _ = loop_cut_info(mesh, problem.levelset)
    assert_same_geometry(build_cut_info(mesh, problem.levelset), old,
                         bitwise=True)


def awkward_geometries():
    yield from random_interfaces()
    # slivers: the circle passes 3e-4 from the vertex (1/2, 0), and a line
    # clips a corner of a 2 x 2 mesh with fraction 5e-7
    yield (build_uniform_mesh((-1, 1, -1, 1), 16),
           circle_interface(0.5, center=(3e-4, 0.0)))
    yield (build_uniform_mesh((0, 1, 0, 1), 2),
           LevelSet(f=lambda x, y: x + y - (1.5 - 5e-4),
                    grad=lambda x, y: (np.ones_like(np.asarray(x, dtype=float)),
                                       np.ones_like(np.asarray(y, dtype=float)))))
    # grazing: the line y = x runs along mesh edges, and circles through
    # mesh vertices touch elements only there
    yield build_uniform_mesh((0, 1, 0, 1), 16), line_interface(1.0, 0.0)
    for n in (8, 16):
        yield build_uniform_mesh((-1, 1, -1, 1), n), circle_interface(0.5)


def test_batched_geometry_matches_the_element_oracle_on_awkward_cuts():
    for mesh, ls in awkward_geometries():
        old, _ = loop_cut_info(mesh, ls)
        assert_same_geometry(build_cut_info(mesh, ls), old, bitwise=False)


def test_edge_without_a_bracketable_root_names_the_element():
    # on a mesh this coarse the snap distance (1e-12 h) exceeds the 1e-10
    # root tolerance: the vertex at x = 500 is snapped to side 2 although
    # phi is -5e-10 there, so its edges to x = 0 carry no sign change
    mesh = build_uniform_mesh((0, 1000, 0, 1000), 2)
    ls = LevelSet(f=lambda x, y: (x - 500.0) - 5e-10,
                  grad=lambda x, y: (np.ones_like(np.asarray(x, dtype=float)),
                                     np.zeros_like(np.asarray(y, dtype=float))))
    with pytest.raises(GeometryError, match="bracketable") as oracle:
        loop_cut_info(mesh, ls)
    with pytest.raises(GeometryError) as batched:
        build_cut_info(mesh, ls)
    assert str(batched.value) == str(oracle.value)
    assert str(batched.value).startswith("element ")


def test_vanishing_gradient_at_a_chord_names_the_element():
    flat = LevelSet(f=lambda x, y: x - y - 0.3,
                    grad=lambda x, y: (np.zeros_like(np.asarray(x, dtype=float)),
                                       np.zeros_like(np.asarray(y, dtype=float))))
    mesh = build_uniform_mesh((0, 1, 0, 1), 4)
    with pytest.raises(GeometryError, match="vanishing") as oracle:
        loop_cut_info(mesh, flat)
    with pytest.raises(GeometryError) as batched:
        build_cut_info(mesh, flat)
    assert str(batched.value) == str(oracle.value)
    assert str(batched.value).startswith("element ")


def test_level_set_evaluations_do_not_grow_with_the_mesh():
    # all roots advance together: one level-set call per root iteration
    # (at most 120), plus the vertex values and the chord normals
    problem = build_example(3)
    counts = []
    for n in (32, 256):
        calls = []
        counted = LevelSet(
            f=lambda x, y: calls.append(1) or problem.levelset(x, y),
            grad=lambda x, y: calls.append(1) or problem.levelset.grad(x, y))
        info = build_cut_info(build_uniform_mesh(problem.domain, n), counted)
        assert len(info.cut_elements) > 0
        counts.append(len(calls))
    assert counts[1] <= counts[0] <= 120 + 2
