import itertools
import tracemalloc

import numpy as np
import pytest

from nxfem_ocp.assembly import (Load, assemble_load, assemble_mass,
                                assemble_stiffness)
from nxfem_ocp.interface_geometry import (CellTable, LevelSet,
                                          build_cut_info, circle_interface,
                                          line_interface)
from nxfem_ocp.mesh import ConfigurationError, build_uniform_mesh
from nxfem_ocp.problems import PiecewiseField, build_example
from nxfem_ocp.solver import ReducedSolver
from nxfem_ocp.xfem_space import ExtendedSpace

from helpers import (boundary_value, boxed_control_problem,
                     interpolate_two_sided, mesh_from_arrays,
                     total_interface_length)
from oracles import cut_element_matrices, element_cuts

FAR_AWAY = circle_interface(1.0, center=(10.0, 10.0))
SEG_LS = line_interface(-np.sqrt(3) / 3, (6 + np.sqrt(6) - 2 * np.sqrt(3)) / 6)


def plain_p1_matrices(mesh, alpha):
    """Independent dense P1 assembly with explicit edge-vector formulas."""
    V = mesh.num_vertices
    A = np.zeros((V, V))
    M = np.zeros((V, V))
    for tri in mesh.triangles:
        x = mesh.vertices[tri, 0]
        y = mesh.vertices[tri, 1]
        bvec = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
        cvec = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
        area = 0.5 * abs(bvec[0] * cvec[1] - bvec[1] * cvec[0]) / 1.0
        area = 0.5 * abs((x[1] - x[0]) * (y[2] - y[0])
                         - (x[2] - x[0]) * (y[1] - y[0]))
        K = alpha * (np.outer(bvec, bvec) + np.outer(cvec, cvec)) / (4 * area)
        Mloc = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
        for i in range(3):
            for j in range(3):
                A[tri[i], tri[j]] += K[i, j]
                M[tri[i], tri[j]] += Mloc[i, j]
    return A, M


def setup(problem, n):
    mesh = build_uniform_mesh(problem.domain, n)
    info = build_cut_info(mesh, problem.levelset)
    space = ExtendedSpace(mesh, info)
    A = assemble_stiffness(mesh, info, space, problem.alpha1, problem.alpha2,
                           problem.lambda_coef)
    return mesh, info, space, A


def test_no_interface_matches_plain_p1():
    mesh = build_uniform_mesh((0, 1, 0, 1), 8)
    info = build_cut_info(mesh, FAR_AWAY)
    space = ExtendedSpace(mesh, info)
    alpha = 2.3
    A = assemble_stiffness(mesh, info, space, alpha, alpha, 10.0 * alpha)
    M = assemble_mass(mesh, info, space)
    A_ref, M_ref = plain_p1_matrices(mesh, alpha)
    assert np.abs(A.toarray() - A_ref).max() <= 1e-12 * np.abs(A_ref).max()
    assert np.abs(M.toarray() - M_ref).max() <= 1e-12 * np.abs(M_ref).max()


def test_single_cut_element_against_symbolic_assembly():
    import sympy

    mesh = mesh_from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    ls = LevelSet(f=lambda x, y: x - y - 0.5,
                  grad=lambda x, y: (np.ones_like(np.asarray(x, dtype=float)),
                                     -np.ones_like(np.asarray(y, dtype=float))))
    info = build_cut_info(mesh, ls)
    cg = element_cuts(info)[0]
    alpha1, alpha2, lam_pen = 1.0, 100.0, 37.0
    A_loc, M_loc = cut_element_matrices(mesh, cg, alpha1, alpha2, lam_pen)
    # the package's batched assembly gives the same blocks on this element
    space = ExtendedSpace(mesh, info)
    dofs = np.concatenate([space.dof1[mesh.triangles[0]],
                           space.dof2[mesh.triangles[0]]])
    A = assemble_stiffness(mesh, info, space, alpha1, alpha2,
                           lam_pen * mesh.h)
    M = assemble_mass(mesh, info, space)
    assert np.allclose(A.toarray()[np.ix_(dofs, dofs)], A_loc, rtol=0,
                       atol=1e-12 * np.abs(A_loc).max())
    assert np.allclose(M.toarray()[np.ix_(dofs, dofs)], M_loc, rtol=0,
                       atol=1e-12 * np.abs(M_loc).max())

    c1 = np.array([1.0, 2.0, 3.0])
    c2 = np.array([4.0, 5.0, 6.0])
    c = np.concatenate([c1, c2])
    quad_form = c @ A_loc @ c

    # independent symbolic evaluation of the four terms
    t = sympy.symbols("t")
    k1, k2 = sympy.Rational(7, 8), sympy.Rational(1, 8)
    area = sympy.Rational(1, 2)
    grads = sympy.Matrix([[-1, -1], [1, 0], [0, 1]])
    g1 = grads.T * sympy.Matrix(c1)
    g2 = grads.T * sympy.Matrix(c2)
    vol = alpha1 * k1 * area * (g1.dot(g1)) + alpha2 * k2 * area * (g2.dot(g2))
    # chord from (1/2, 0) to (3/4, 1/4); normal (1,-1)/sqrt(2)
    px = sympy.Rational(1, 2) + t * sympy.Rational(1, 4)
    py = t * sympy.Rational(1, 4)
    ds = sympy.sqrt(2) / 4
    n = sympy.Matrix([1, -1]) / sympy.sqrt(2)
    lam = sympy.Matrix([1 - px - py, px, py])
    jump = (sympy.Matrix(c1) - sympy.Matrix(c2)).dot(lam)
    avg = k1 * alpha1 * g1.dot(n) + k2 * alpha2 * g2.dot(n)
    int_jump = sympy.integrate(jump * ds, (t, 0, 1))
    int_jump2 = sympy.integrate(jump ** 2 * ds, (t, 0, 1))
    expected = vol - 2 * avg * int_jump + lam_pen * int_jump2
    assert quad_form == pytest.approx(float(expected), rel=1e-12)

    # mass: block-diagonal quadratic form against symbolic side integrals
    xx, yy = sympy.symbols("x y")
    lam_xy = sympy.Matrix([1 - xx - yy, xx, yy])
    v2 = sympy.Matrix(c2).dot(lam_xy)
    # side 2 is the corner triangle (1/2,0)-(1,0)-(3/4,1/4)
    m2 = sympy.integrate(
        sympy.integrate(v2 ** 2, (yy, 0, xx - sympy.Rational(1, 2))),
        (xx, sympy.Rational(1, 2), 1))
    # the integration region is bounded above by the chord y = x - 1/2 and
    # below by y = 0 only up to x = 3/4; split at the chord apex
    m2 = sympy.integrate(sympy.integrate(
        v2 ** 2, (yy, 0, xx - sympy.Rational(1, 2))),
        (xx, sympy.Rational(1, 2), sympy.Rational(3, 4)))
    m2 += sympy.integrate(sympy.integrate(
        v2 ** 2, (yy, 0, -(xx - 1))), (xx, sympy.Rational(3, 4), 1))
    mass2 = c2 @ M_loc[3:, 3:] @ c2
    assert mass2 == pytest.approx(float(m2), rel=1e-12)
    # the two sides tile the element
    ones = np.ones(3)
    assert (ones @ M_loc[:3, :3] @ ones + ones @ M_loc[3:, 3:] @ ones) \
        == pytest.approx(0.5, rel=1e-12)
    assert np.allclose(M_loc[:3, 3:], 0.0)


@pytest.mark.parametrize("example_id", [1, 2, 3])
def test_symmetry_and_spd(example_id):
    problem = build_example(example_id)
    mesh, info, space, A = setup(problem, 16)
    M = assemble_mass(mesh, info, space)
    for mat in (A, M):
        diff = (mat - mat.T).tocoo()
        denom = np.abs(mat.data).max()
        assert (np.abs(diff.data).max() if diff.nnz else 0.0) <= 1e-12 * denom
    mask = np.ones(space.n_dofs, dtype=bool)
    mask[space.dirichlet_dofs] = False
    np.linalg.cholesky(A[mask][:, mask].toarray())
    np.linalg.cholesky(M.toarray())


def test_coercivity_proxy_random_vectors():
    problem = build_example(1)
    mesh, info, space, A = setup(problem, 16)
    rng = np.random.default_rng(5)
    mask = np.ones(space.n_dofs, dtype=bool)
    mask[space.dirichlet_dofs] = False
    for _ in range(100):
        v = rng.standard_normal(space.n_dofs) * mask
        assert v @ (A @ v) > 0.0


def test_discrete_poincare_proxy():
    problem = build_example(1)
    rng = np.random.default_rng(7)
    cmins = []
    for n in (16, 32, 64):
        mesh, info, space, A = setup(problem, n)
        M = assemble_mass(mesh, info, space)
        mask = np.ones(space.n_dofs, dtype=bool)
        mask[space.dirichlet_dofs] = False
        ratios = []
        for _ in range(100):
            v = rng.standard_normal(space.n_dofs) * mask
            ratios.append((v @ (A @ v)) / (v @ (M @ v)))
        cmins.append(min(ratios))
    print(f"\nempirical poincare constants over N=16,32,64: "
          + ", ".join(f"{c:.4f}" for c in cmins))
    assert all(c > 0.0 for c in cmins)


def test_mass_row_sums_give_area():
    problem = build_example(2)
    mesh, info, space, _ = setup(problem, 16)
    M = assemble_mass(mesh, info, space)
    ones = np.ones(space.n_dofs)
    assert ones @ (M @ ones) == pytest.approx(4.0, abs=1e-10)


def test_penalty_scaling():
    """The jump penalty is lambda = lambda_coef / h, whatever the alphas:
    the field that is 1 on side 1 and 0 on side 2 jumps by 1 on every
    chord, so raising lambda_coef by c adds c / h times the chord length
    to its energy.  Checked at every example's own coefficients."""
    for example, n in itertools.product((1, 2, 3), (8, 16)):
        problem = build_example(example)
        mesh, info, space, A = setup(problem, n)
        A2 = assemble_stiffness(mesh, info, space, problem.alpha1,
                                problem.alpha2, 2.0 * problem.lambda_coef)
        v = interpolate_two_sided(space, info.vertex_sign,
                                  lambda x, y: np.ones_like(x),
                                  lambda x, y: np.zeros_like(x))
        assert v @ (A2 - A) @ v == pytest.approx(
            problem.lambda_coef / mesh.h * total_interface_length(info),
            rel=1e-10)
    for bad in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="penalty coefficient"):
            assemble_stiffness(mesh, info, space, 1.0, 1.0, bad)


def test_a_penalty_that_is_no_real_number_is_named():
    # a string penalty died in np.isfinite with a bare TypeError
    mesh, info, space, _ = setup(build_example(1), 8)
    with pytest.raises(ConfigurationError,
                       match="penalty coefficient must be positive and "
                             "finite, got 2"):
        assemble_stiffness(mesh, info, space, 1.0, 1.0, "2")


def test_zero_load():
    problem = build_example(1)
    mesh, info, space, _ = setup(problem, 8)
    F, = assemble_load(mesh, info, space, Load(None, None, 1.0))
    assert np.all(F == 0.0)


def test_interface_load_cross_weights():
    mesh = mesh_from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    ls = LevelSet(f=lambda x, y: x - y - 0.5,
                  grad=lambda x, y: (np.ones_like(np.asarray(x, dtype=float)),
                                     -np.ones_like(np.asarray(y, dtype=float))))
    info = build_cut_info(mesh, ls)
    space = ExtendedSpace(mesh, info)
    one = lambda x, y: np.ones_like(np.asarray(x, dtype=float))
    F, = assemble_load(mesh, info, space, Load(None, one, 1.0))
    cg = element_cuts(info)[0]
    # a side-1 constant test function sums the side-1 entries: k2 * |chord|
    tri = mesh.triangles[0]
    side1 = F[space.dof1[tri]].sum()
    side2 = F[space.dof2[tri]].sum()
    assert side1 == pytest.approx(cg.k2 * cg.chord_length, rel=1e-13)
    assert side2 == pytest.approx(cg.k1 * cg.chord_length, rel=1e-13)


def test_load_dof_vector_and_function_paths_agree():
    problem = build_example(1)
    mesh, info, space, _ = setup(problem, 8)
    M = assemble_mass(mesh, info, space)
    smooth = lambda x, y: np.sin(x) * np.cos(y)
    smooth_load = Load(PiecewiseField(smooth, smooth), None, 1.0)
    F_fun, = assemble_load(mesh, info, space, smooth_load)
    UI = interpolate_two_sided(space, info.vertex_sign, smooth, smooth)
    # quadrature vs the mass matrix on the interpolant differ by the
    # interpolation error only
    assert np.abs(F_fun - M @ UI).max() <= 1e-2 * np.abs(F_fun).max()


def test_adaptive_load_quadrature_resolves_kinks():
    # u = clip(10(x-0.3), -1, 1): its integral over the unit square is
    # exactly 0.4 (by partition of unity the load entries sum to the
    # integral); the kink rule refines where it kinks, at x = 0.2 and 0.4
    problem = boxed_control_problem(
        lambda x, y: 10.0 * (x - 0.3),
        lambda x, y: (np.full_like(x, 10.0), np.zeros_like(y)), (-1.0, 1.0))
    mesh = build_uniform_mesh(problem.domain, 8)
    info = build_cut_info(mesh, problem.levelset)
    space = ExtendedSpace(mesh, info)
    load = Load(problem.u, None, 1.0)
    plain, = assemble_load(mesh, info, space, load)
    refined, = assemble_load(mesh, info, space, load,
                             kinks=problem.kink_rule(mesh))
    err_plain = abs(plain.sum() - 0.4)
    err_refined = abs(refined.sum() - 0.4)
    assert err_refined < 2e-5
    assert err_refined < err_plain / 30.0


def test_dirichlet_zero_and_constant_consistency():
    # zero load: zero boundary data gives zero, constant boundary data
    # reproduces the constant (the form annihilates constants)
    problem = build_example(1)
    mesh, info, space, A = setup(problem, 8)
    red = ReducedSolver(A, space)
    zero = np.zeros(space.n_dofs)
    for cval, tol in ((0.0, 1e-12), (0.7, 1e-10)):
        x = red.solve(zero, np.full(len(space.dirichlet_dofs), cval))
        assert np.abs(x - cval).max() <= tol
        assert np.abs(x[space.dirichlet_dofs] - cval).max() == 0.0


def test_dirichlet_boundary_interpolation_matches_exact():
    problem = build_example(3)
    mesh = build_uniform_mesh(problem.domain, 16)
    info = build_cut_info(mesh, problem.levelset)
    space = ExtendedSpace(mesh, info)
    dofs, vals = space.boundary_values(problem.y)
    for dof, val in zip(dofs, vals):
        x, y = mesh.vertices[space.dof_vertex[dof]]
        assert val == pytest.approx(float(boundary_value(problem, x, y)),
                                    rel=1e-14)


def test_modified_system_keeps_symmetry():
    problem = build_example(2)
    mesh, info, space, A = setup(problem, 8)
    free = ReducedSolver(A, space).free
    A_ff = A[free][:, free]
    diff = (A_ff - A_ff.T).tocoo()
    assert (np.abs(diff.data).max() if diff.nnz else 0.0) \
        <= 1e-12 * np.abs(A_ff.data).max()


def test_galerkin_residual_of_state_solve():
    problem = build_example(1)
    mesh, info, space, A = setup(problem, 16)
    f_plus_u = PiecewiseField(*(
        lambda x, y, s=s: problem.f.side(s)(x, y) + problem.u.side(s)(x, y)
        for s in (1, 2)))
    F, = assemble_load(mesh, info, space, Load(f_plus_u, problem.g, 1.0))
    _, ybc = space.boundary_values(problem.y)
    Y = ReducedSolver(A, space).solve(F, ybc)
    mask = np.ones(space.n_dofs, dtype=bool)
    mask[space.dirichlet_dofs] = False
    # apply the boundary coupling before measuring the residual
    full = np.zeros(space.n_dofs)
    full[space.dirichlet_dofs] = ybc
    resid = (A @ Y - F)[mask]
    assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(F[mask] - (A @ full)[mask])



def _traced_peak(call):
    """What ``call()`` returns, and the peak of the memory it allocated
    while it ran, in bytes."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _nbytes(*arrays):
    return sum(arr.nbytes for arr in arrays)


# The work arrays of one batch of CellTable.BATCH elements: at most 64
# eight-byte numbers per element (its local matrix, and the rows, columns
# and places in the pattern of that matrix's entries, among others).
ONE_BATCH = CellTable.BATCH * 64 * 8


def test_discretization_transients_stay_within_one_batch():
    # the mesh builds no (T, 3, 2) temporary besides what it keeps, and the
    # matrices build no whole-mesh local-matrix or COO arrays (a whole-mesh
    # COO sum peaks at about 12 times the matrix here)
    problem = build_example(1)
    n = 128
    mesh, peak = _traced_peak(lambda: build_uniform_mesh(problem.domain, n))
    kept = _nbytes(mesh.vertices, mesh.triangles, mesh.boundary_vertex)
    assert peak <= 2.5 * kept
    info = build_cut_info(mesh, problem.levelset)
    space = ExtendedSpace(mesh, info)
    assert len(mesh.triangles) > CellTable.BATCH     # more than one batch
    for assemble in (
            lambda: assemble_stiffness(mesh, info, space, problem.alpha1,
                                       problem.alpha2, problem.lambda_coef),
            lambda: assemble_mass(mesh, info, space)):
        matrix, peak = _traced_peak(assemble)
        size = _nbytes(matrix.data, matrix.indices, matrix.indptr)
        assert peak <= 2 * size + ONE_BATCH
