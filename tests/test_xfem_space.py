import numpy as np
import pytest

from nxfem_ocp.interface_geometry import (ElementClass, LevelSet,
                                          build_cut_info, circle_interface,
                                          line_interface)
from nxfem_ocp.mesh import build_uniform_mesh
from nxfem_ocp.problems import build_example
from nxfem_ocp.xfem_space import ExtendedSpace, prolong

from helpers import (element_dofs, hat_gradients, interpolate_two_sided,
                     mesh_from_arrays, stored_on_side2, tri_coords)

FAR_AWAY = circle_interface(1.0, center=(10.0, 10.0))


def eval_basis(space, element, side, point):
    """(dofs, values, gradients) of the local basis at a physical point of
    one element side.  On cut elements all six dofs are reported; the ones
    restricted to the other side evaluate to zero."""
    mesh = space.mesh
    lam = mesh.barycentric(element, np.asarray(point, dtype=float))[0]
    grads = hat_gradients(mesh, element)
    if space.classes[element] != int(ElementClass.CUT):
        return element_dofs(space, element), lam, grads
    values = np.zeros(6)
    g = np.zeros((6, 2))
    sl = slice(0, 3) if side == 1 else slice(3, 6)
    values[sl] = lam
    g[sl] = grads
    tri = mesh.triangles[element]
    return np.concatenate([space.dof1[tri], space.dof2[tri]]), values, g


def test_plain_space_without_cuts():
    mesh = build_uniform_mesh((0, 1, 0, 1), 8)
    info = build_cut_info(mesh, FAR_AWAY)
    space = ExtendedSpace(mesh, info)
    assert space.n_dofs == mesh.num_vertices
    assert not space.doubled.any()
    assert len(space.dirichlet_dofs) == mesh.boundary_vertex.sum()


def test_single_cut_element_doubles_three_vertices():
    # the line y = x - 0.75 clips exactly one triangle of the 2x2 mesh
    mesh = build_uniform_mesh((0, 1, 0, 1), 2)
    ls = LevelSet(f=lambda x, y: y - x + 0.75,
                  grad=lambda x, y: (-np.ones_like(np.asarray(x, dtype=float)),
                                     np.ones_like(np.asarray(y, dtype=float))))
    info = build_cut_info(mesh, ls)
    assert len(info.cut_elements) == 1
    space = ExtendedSpace(mesh, info)
    assert space.n_dofs == mesh.num_vertices + 3
    assert space.doubled.sum() == 3
    assert set(np.flatnonzero(space.doubled)) == \
        set(mesh.triangles[info.cut_elements[0]])


def test_dimension_formula_circle():
    mesh = build_uniform_mesh((-1, 1, -1, 1), 32)
    info = build_cut_info(mesh, circle_interface(0.5))
    space = ExtendedSpace(mesh, info)
    enriched = set()
    for e in info.cut_elements:
        enriched.update(mesh.triangles[e].tolist())
    assert len(enriched) == 106
    assert space.n_dofs == mesh.num_vertices + len(enriched) == 1195
    # numbering is vertex-major with the side-1 copy first
    assert np.all(space.dof1[space.doubled] + 1
                  == space.dof2[space.doubled])
    assert np.all(np.diff(np.sort(np.concatenate(
        [space.dof1, space.dof2[space.doubled]]))) == 1)


def test_lagrange_property_uncut():
    mesh = build_uniform_mesh((0, 1, 0, 1), 4)
    info = build_cut_info(mesh, FAR_AWAY)
    space = ExtendedSpace(mesh, info)
    e = 7
    for i, v in enumerate(mesh.triangles[e]):
        dofs, values, _ = eval_basis(space, e, None, mesh.vertices[v])
        expected = np.zeros(3)
        expected[i] = 1.0
        assert np.array_equal(dofs, mesh.triangles[e])
        assert np.allclose(values, expected, atol=1e-13)


def test_cut_element_side_restriction_and_unity():
    k = -np.sqrt(3) / 3
    b = (6 + np.sqrt(6) - 2 * np.sqrt(3)) / 6
    mesh = build_uniform_mesh((0, 1, 0, 1), 8)
    info = build_cut_info(mesh, line_interface(k, b))
    space = ExtendedSpace(mesh, info)
    rng = np.random.default_rng(11)
    e = int(info.cut_elements[2])
    coords = tri_coords(mesh, e)
    for _ in range(100):
        lam = rng.dirichlet(np.ones(3))
        pt = lam @ coords
        for side, sl_active, sl_zero in ((1, slice(0, 3), slice(3, 6)),
                                         (2, slice(3, 6), slice(0, 3))):
            dofs, values, grads = eval_basis(space, e, side, pt)
            assert np.array_equal(dofs[sl_active],
                                  element_dofs(space, e, side))
            assert np.allclose(values[sl_zero], 0.0)
            assert np.allclose(grads[sl_zero], 0.0)
            assert values[sl_active].sum() == pytest.approx(1.0, abs=1e-13)
            assert np.allclose(grads[sl_active].sum(axis=0), 0.0,
                               atol=1e-10)


def test_doubled_boundary_vertices_fully_constrained():
    # the segment interface exits the domain, so some boundary vertices
    # carry two dofs; both must be Dirichlet-constrained
    k = -np.sqrt(3) / 3
    b = (6 + np.sqrt(6) - 2 * np.sqrt(3)) / 6
    mesh = build_uniform_mesh((0, 1, 0, 1), 16)
    info = build_cut_info(mesh, line_interface(k, b))
    space = ExtendedSpace(mesh, info)
    doubled_bnd = np.flatnonzero(space.doubled & mesh.boundary_vertex)
    assert len(doubled_bnd) > 0
    dset = set(space.dirichlet_dofs.tolist())
    for v in doubled_bnd:
        assert space.dof1[v] in dset and space.dof2[v] in dset
    n_expected = mesh.boundary_vertex.sum() + len(doubled_bnd)
    assert len(space.dirichlet_dofs) == n_expected


def test_interpolation_dispatches_sides():
    k = -np.sqrt(3) / 3
    b = (6 + np.sqrt(6) - 2 * np.sqrt(3)) / 6
    mesh = build_uniform_mesh((0, 1, 0, 1), 8)
    info = build_cut_info(mesh, line_interface(k, b))
    space = ExtendedSpace(mesh, info)
    f1 = lambda x, y: x + 10.0
    f2 = lambda x, y: x - 10.0
    vals = interpolate_two_sided(space, info.vertex_sign, f1, f2)
    for dof in range(space.n_dofs):
        v = space.dof_vertex[dof]
        x, y = mesh.vertices[v]
        if space.doubled[v]:
            side = 1 if dof == space.dof1[v] else 2
        else:
            side = 1 if info.vertex_sign[v] < 0 else 2
        expected = f1(x, y) if side == 1 else f2(x, y)
        assert vals[dof] == pytest.approx(expected, rel=1e-14)


def test_condition_number_logged():
    # no assertion on magnitude: tiny cut fractions are allowed to degrade
    # conditioning, the penalty formulation is used as published
    from nxfem_ocp.assembly import assemble_stiffness
    mesh = build_uniform_mesh((-1, 1, -1, 1), 16)
    info = build_cut_info(mesh, circle_interface(np.sqrt(3) / 4))
    space = ExtendedSpace(mesh, info)
    A = assemble_stiffness(mesh, info, space, 1.0, 1000.0, 5000.0)
    mask = np.ones(space.n_dofs, dtype=bool)
    mask[space.dirichlet_dofs] = False
    A_ff = A[mask][:, mask].toarray()
    cond = np.linalg.cond(A_ff)
    print(f"\nreduced stiffness condition estimate (N=16, circle): {cond:.3e}")
    assert np.isfinite(cond)


@pytest.mark.parametrize("example", [1, 3])
def test_dof_numbering_matches_vertex_loop(example):
    problem = build_example(example)
    mesh = build_uniform_mesh(problem.domain, 16)
    info = build_cut_info(mesh, problem.levelset)
    space = ExtendedSpace(mesh, info)
    # vertex-major numbering, side-1 copy before side-2 copy
    doubled = np.zeros(mesh.num_vertices, dtype=bool)
    for e in info.cut_elements:
        doubled[mesh.triangles[e]] = True
    dof1 = np.empty(mesh.num_vertices, dtype=np.int64)
    dof2 = np.empty(mesh.num_vertices, dtype=np.int64)
    next_dof = 0
    for v in range(mesh.num_vertices):
        dof1[v] = next_dof
        next_dof += 1
        dof2[v] = next_dof if doubled[v] else dof1[v]
        next_dof += int(doubled[v])
    bnd = np.flatnonzero(mesh.boundary_vertex)
    dirichlet = sorted(set(dof1[bnd].tolist()) | set(dof2[bnd].tolist()))
    assert np.array_equal(space.doubled, doubled)
    assert np.array_equal(space.dof1, dof1)
    assert np.array_equal(space.dof2, dof2)
    assert space.n_dofs == next_dof
    assert space.dirichlet_dofs.tolist() == dirichlet
    # a copy reads its own side, a single dof its vertex's snapped sign
    side = np.empty(space.n_dofs, dtype=np.int64)
    for dof in range(space.n_dofs):
        v = space.dof_vertex[dof]
        assert dof in (dof1[v], dof2[v])
        if doubled[v]:
            side[dof] = 1 if dof == dof1[v] else 2
        else:
            side[dof] = 1 if info.vertex_sign[v] < 0 else 2
    assert np.array_equal(space.on_side2(np.arange(space.n_dofs)), side == 2)
    # boundary data: each dof takes its side's trace
    dofs, vals = space.boundary_values(problem.y)
    for dof, val in zip(dofs, vals):
        v = space.dof_vertex[dof]
        x, y = mesh.vertices[v]
        assert val == pytest.approx(problem.y.side(side[dof])(x, y),
                                    rel=1e-14, abs=0.0)


@pytest.mark.parametrize("case", [(1, 16), (1, 32), (2, 16), (2, 32),
                                  (3, 16), (3, 32), "hand"])
def test_cut_dofs_and_derived_sides_match_the_stored_table(case):
    if case == "hand":
        # one triangle, cut by the line y = x - 1/2
        mesh = mesh_from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
        info = build_cut_info(mesh, line_interface(1.0, -0.5))
    else:
        problem = build_example(case[0])
        mesh = build_uniform_mesh(problem.domain, case[1])
        info = build_cut_info(mesh, problem.levelset)
    space = ExtendedSpace(mesh, info)
    assert len(info.cut_elements) > 0 and not hasattr(space, "dof_side")
    dofs = np.arange(space.n_dofs)
    assert np.array_equal(space.on_side2(dofs), stored_on_side2(space, dofs))
    # one row per chord: the side-1 copies of the element's vertices, then
    # the side-2 copies
    assert np.array_equal(info.chords.element, info.cut_elements)
    tri = mesh.triangles[info.cut_elements]
    assert np.array_equal(space.cut_dofs, np.concatenate(
        [space.dof1[tri], space.dof2[tri]], axis=1))
    side2 = space.on_side2(space.cut_dofs)
    assert not side2[:, :3].any() and side2[:, 3:].all()


def _space(problem, n):
    mesh = build_uniform_mesh(problem.domain, n)
    info = build_cut_info(mesh, problem.levelset)
    return ExtendedSpace(mesh, info), info


LINEAR = (lambda x, y: 0.3 + 1.7 * x - 0.6 * y,
          lambda x, y: -2.1 + 0.4 * x + 1.3 * y)


@pytest.mark.parametrize("n", [8, 9])
@pytest.mark.parametrize("example", [1, 3])
def test_prolong_is_exact_for_linear_fields(example, n):
    problem = build_example(example)
    coarse, coarse_info = _space(problem, n)
    fine, fine_info = _space(problem, 2 * n)
    xc, yc = coarse.mesh.vertices.T
    xf, yf = fine.mesh.vertices[fine.dof_vertex].T
    # one linear function on both copies of every vertex, cut elements too
    f = LINEAR[0]
    X = f(xc, yc)[coarse.dof_vertex]
    got = prolong(coarse.vertex_sides(X), n, problem.domain, fine)
    want = f(xf, yf)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.any(fine.doubled)
    # a different linear function per side: exact wherever the coarse
    # elements holding the fine vertex include a cut one, for all three of
    # its vertices carry both sides' values there
    # (a dof shared by both sides reads its vertex's snapped sign)
    X = interpolate_two_sided(coarse, coarse_info.vertex_sign, *LINEAR)
    got = prolong(coarse.vertex_sides(X), n, problem.domain, fine)
    want = interpolate_two_sided(fine, fine_info.vertex_sign, *LINEAR)
    lam = np.stack([coarse.mesh.barycentric(e, fine.mesh.vertices)
                    for e in range(coarse.mesh.num_triangles)])
    holds = (lam >= -1e-12).all(axis=2)         # (elements, fine vertices)
    near = holds[coarse_info.cut_elements].any(axis=0)[fine.dof_vertex]
    assert np.any(near & fine.doubled[fine.dof_vertex])
    assert np.abs(got - want)[near].max() <= 1e-13 * np.abs(want).max()


def test_prolong_refuses_meshes_that_are_not_nested():
    problem = build_example(1)
    coarse, _ = _space(problem, 8)
    sides = coarse.vertex_sides(np.zeros(coarse.n_dofs))
    fine, _ = _space(problem, 16)
    other, _ = _space(problem, 18)
    mesh = mesh_from_arrays(fine.mesh.vertices, fine.mesh.triangles)
    hand = ExtendedSpace(mesh, build_cut_info(mesh, problem.levelset))
    assert prolong(sides, 8, problem.domain, fine).shape == (fine.n_dofs,)
    for args in ((sides, 8, problem.domain, hand),          # hand-built
                 (sides, 0, problem.domain, hand),
                 (sides, 8, (0.0, 1.0, 0.0, 2.0), fine),    # other domain
                 (sides, 8, problem.domain, other),         # 18 != 2 * 8
                 (sides, 9, problem.domain, other),         # sides of n = 8
                 (sides[:1], 8, problem.domain, fine)):
        with pytest.raises(ValueError, match="no prolongation"):
            prolong(*args)
