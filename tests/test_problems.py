import numpy as np
import pytest

from nxfem_ocp.interface_geometry import build_cut_info
from nxfem_ocp.mesh import ConfigurationError, build_uniform_mesh
from nxfem_ocp.problems import build_example
from nxfem_ocp.study import RunConfig

from helpers import (boundary_value, boxed_control_problem, build_smooth_problem,
                     side_at)

FD_STEP = 1e-6


def interior_points(problem, count, seed=0, margin=0.02):
    x0, x1, y0, y1 = problem.domain
    rng = np.random.default_rng(seed)
    x = rng.uniform(x0 + margin, x1 - margin, count)
    y = rng.uniform(y0 + margin, y1 - margin, count)
    return x, y


def rel(a, b):
    return np.abs(a - b) / (1.0 + np.abs(a) + np.abs(b))


def fd_gradient(f, x, y, h=FD_STEP):
    return ((f(x + h, y) - f(x - h, y)) / (2 * h),
            (f(x, y + h) - f(x, y - h)) / (2 * h))


def fd_divergence(grad, x, y, h=FD_STEP):
    gxp, _ = grad(x + h, y)
    gxm, _ = grad(x - h, y)
    _, gyp = grad(x, y + h)
    _, gym = grad(x, y - h)
    return (gxp - gxm) / (2 * h) + (gyp - gym) / (2 * h)


@pytest.mark.parametrize("example_id", [1, 2, 3])
def test_jet_derivatives_match_finite_differences(example_id):
    """Every side's jet: the gradients of y and z against central
    differences of the values, the Laplacians against central differences
    of the gradients; the values and gradients do not depend on whether
    the Laplacians were asked for."""
    problem = build_example(example_id)
    x, y = interior_points(problem, 400, seed=example_id)
    for side in (1, 2):
        jet = problem.jet.side(side)
        plain, full = jet(x, y), jet(x, y, True)
        assert plain.lap_y is None and plain.lap_z is None
        for name in ("y", "z"):
            value = lambda px, py, name=name: getattr(jet(px, py), name)
            grad = lambda px, py, name=name: getattr(jet(px, py),
                                                     f"grad_{name}")
            assert np.array_equal(getattr(plain, name), getattr(full, name))
            for got, other, want in zip(grad(x, y),
                                        getattr(full, f"grad_{name}"),
                                        fd_gradient(value, x, y)):
                assert np.array_equal(got, other)
                assert rel(got, want).max() < 1e-5
            lap = getattr(full, f"lap_{name}")
            assert rel(lap, fd_divergence(grad, x, y)).max() < 1e-5


@pytest.mark.parametrize("example_id", [1, 2, 3])
def test_control_gradient_away_from_kinks(example_id):
    problem = build_example(example_id)
    x, y = interior_points(problem, 400, seed=10 + example_id)
    for side in (1, 2):
        gx, gy = problem.grad_u.side(side)(x, y)
        if problem.bounds is not None:
            # keep clear of the clamp kink where the gradient jumps
            z = problem.z.side(side)(x, y)
            lo, hi = problem.bounds
            mask = (np.abs(z - lo) > 1e-3) & (np.abs(z - hi) > 1e-3)
        else:
            mask = np.ones_like(x, dtype=bool)
        fx, fy = fd_gradient(problem.u.side(side), x, y)
        assert rel(gx[mask], fx[mask]).max() < 1e-5
        assert rel(gy[mask], fy[mask]).max() < 1e-5


@pytest.mark.parametrize("example_id, override", [
    pytest.param(1, {}, id="1"), pytest.param(2, {}, id="2"),
    pytest.param(3, {}, id="3"),
    pytest.param(1, {"a": 1e-4}, id="1-a=1e-4"),
    pytest.param(2, {"bounds": (-0.3, 0.3)}, id="2-bounds=0.3"),
    pytest.param(2, {"bounds": None}, id="2-bounds=none"),
    pytest.param(3, {"bounds": (-0.1, 0.1)}, id="3-bounds=0.1"),
])
def test_optimality_relations_pointwise(example_id, override):
    """State and co-state equations plus the projection identity at random
    points, with the divergence taken by finite differences of the
    hand-coded gradients; an override of a or of the box yields the
    optimum of the overridden problem."""
    problem = RunConfig(example_id, (16,), **override).build_problem()
    x, y = interior_points(problem, 10000, seed=example_id)
    alphas = (problem.alpha1, problem.alpha2)
    for side in (1, 2):
        al = alphas[side - 1]
        # -alpha * lap(y) = u + f
        lap_y = fd_divergence(problem.grad_y.side(side), x, y)
        lhs = -al * lap_y
        rhs = problem.u.side(side)(x, y) + problem.f.side(side)(x, y)
        assert rel(lhs, rhs).max() < 1e-8
        # -alpha * lap(p) = y - y_d
        lap_p = fd_divergence(problem.grad_p.side(side), x, y)
        rhs_p = problem.y.side(side)(x, y) - problem.y_d.side(side)(x, y)
        assert rel(-al * lap_p, rhs_p).max() < 1e-8
        # projection identity u = clamp(-p/a)
        up = -problem.p.side(side)(x, y) / problem.a
        if problem.bounds is not None:
            up = np.clip(up, *problem.bounds)
        assert np.abs(up - problem.u.side(side)(x, y)).max() < 1e-12


def gamma_sample_points(problem, n):
    """Chord endpoints: they sit on the true interface to root tolerance
    (interior chord points are O(h^2) off a curved interface)."""
    mesh = build_uniform_mesh(problem.domain, n)
    info = build_cut_info(mesh, problem.levelset)
    return np.concatenate([info.chords.q1, info.chords.q2])


@pytest.mark.parametrize("example_id", [1, 2, 3])
def test_state_and_costate_continuous_across_interface(example_id):
    problem = build_example(example_id)
    pts = gamma_sample_points(problem, 32)
    x, y = pts[:, 0], pts[:, 1]
    for pf in (problem.y, problem.p, problem.u):
        jump = pf.side(1)(x, y) - pf.side(2)(x, y)
        assert np.abs(jump).max() < 1e-10


def test_example1_flux_jump_formula():
    problem = build_example(1)
    pts = gamma_sample_points(problem, 16)
    x, y = pts[:, 0], pts[:, 1]
    k = -np.sqrt(3) / 3
    # alpha1 grad_n y1 - alpha2 grad_n y2 on the line:
    # (cos(xy)/200 - 100 cos(xy)/2) * grad(ell) . n with n = grad(ell)/|.|
    norm = np.sqrt(k * k + 1)
    manual = (np.cos(x * y) / 200.0 - 100.0 * np.cos(x * y) / 2.0) * norm
    assert np.abs(problem.g(x, y) - manual).max() < 1e-10
    # co-state flux jump is nonzero for this benchmark and must be supplied
    assert np.abs(problem.g_adj(x, y)).max() > 1e-3


def test_example3_flux_jumps_vanish():
    problem = build_example(3)
    pts = gamma_sample_points(problem, 16)
    x, y = pts[:, 0], pts[:, 1]
    assert np.abs(problem.g(x, y)).max() <= 1e-12
    assert np.abs(problem.g_adj(x, y)).max() <= 1e-12


def test_example2_clamp_structure():
    problem = build_example(2)
    x, y = interior_points(problem, 2000, seed=4)
    for side in (1, 2):
        z = problem.z.side(side)(x, y)
        u = problem.u.side(side)(x, y)
        assert np.all(u[z >= 0.5] == 0.5)
        assert np.all(u[z <= -0.5] == -0.5)
        inside = (np.abs(z) < 0.5)
        assert np.allclose(u[inside], z[inside])
        # co-state is -a * (pre-clamp control)
        p = problem.p.side(side)(x, y)
        assert np.allclose(p, -problem.a * z, rtol=1e-13)
    # the lower bound is active near the origin
    assert problem.z.side(1)(0.0, 0.0) < -0.5


def test_example_parameters():
    lam = {1: 1000.0, 2: 5000.0, 3: 10000.0}
    alphas = {1: (1.0, 100.0), 2: (1.0, 1000.0), 3: (1.0, 10.0)}
    a = {1: 0.01, 2: 1.0, 3: 0.01}
    for i in (1, 2, 3):
        problem = build_example(i)
        assert problem.lambda_coef == lam[i]
        assert (problem.alpha1, problem.alpha2) == alphas[i]
        assert problem.a == a[i]
    assert build_example(2).bounds == (-0.5, 0.5)
    assert build_example(1).bounds is None
    assert build_example(3).bounds is None
    assert build_example(1).relative_errors
    assert not build_example(3).relative_errors


def test_unknown_example_rejected():
    with pytest.raises(ConfigurationError):
        build_example(4)
    with pytest.raises(ConfigurationError):
        build_example("x")


def test_costate_is_scaled_control_where_unconstrained():
    for i in (1, 3):
        problem = build_example(i)
        x, y = interior_points(problem, 500, seed=6)
        for side in (1, 2):
            p = problem.p.side(side)(x, y)
            u = problem.u.side(side)(x, y)
            assert np.allclose(p, -problem.a * u, rtol=1e-13)


def test_boundary_value_dispatches_sides():
    problem = build_example(1)
    xs = np.linspace(0, 1, 33)
    for x, y in [(x, 0.0) for x in xs] + [(x, 1.0) for x in xs]:
        side = int(side_at(problem, x, y))
        expected = problem.y.side(side)(x, y)
        assert float(boundary_value(problem, x, y)) == pytest.approx(expected)


def test_smooth_problem_consistency():
    problem = build_smooth_problem()
    x, y = interior_points(problem, 1000, seed=9)
    lap_y = fd_divergence(problem.grad_y.side(1), x, y)
    rhs = problem.u.side(1)(x, y) + problem.f.side(1)(x, y)
    assert rel(-lap_y, rhs).max() < 1e-8
    assert np.abs(problem.g(x, y)).max() == 0.0


def _status_varies(problem, side, pts):
    """Whether z lies below, inside or above the box at some but not all
    of the points (..., k, 2)."""
    z = problem.z.side(side)(pts[..., 0], pts[..., 1])
    lo, hi = problem.bounds
    st = np.where(z <= lo, -1, np.where(z >= hi, 1, 0))
    return st.max(axis=-1) != st.min(axis=-1)


def _bump_setup():
    """A disc of active set, radius 0.02, about the centroid of one element
    of the 8 x 8 unit-square mesh: it holds none of the element's vertices
    and edge midpoints, so only the centroid sees the kink."""
    mesh = build_uniform_mesh((0.0, 1.0, 0.0, 1.0), 8)
    c = mesh.vertices[mesh.triangles[77]].mean(axis=0)
    problem = boxed_control_problem(
        lambda x, y: 1.0 - ((x - c[0]) ** 2 + (y - c[1]) ** 2) / 0.02 ** 2,
        lambda x, y: (-2.0 * (x - c[0]) / 0.02 ** 2,
                      -2.0 * (y - c[1]) / 0.02 ** 2), (-1e6, 0.0))
    return problem, mesh


def _boxed_ex2_setup(bounds):
    problem = build_example(2)
    problem.bounds = bounds
    return problem, build_uniform_mesh(problem.domain, 32)


@pytest.mark.parametrize("case", ["ex2", "ex2-narrow-box", "bump"])
def test_kink_rule_splits_where_the_element_vertices_see_the_kink(case):
    """The kink rule splits a cell at the first level exactly when the
    clamp status of z on its side changes at its element's vertices (the
    prefilter) and among the cell's vertices, edge midpoints and centroid;
    a batch of which nothing is split comes back as itself."""
    problem, mesh = {"ex2": lambda: _boxed_ex2_setup((-0.5, 0.5)),
                     "ex2-narrow-box": lambda: _boxed_ex2_setup((-0.3, 0.3)),
                     "bump": _bump_setup}[case]()
    info = build_cut_info(mesh, problem.levelset)
    rule = problem.kink_rule(mesh)
    sampled = 0
    for side in (1, 2):
        cells = info.integration_cells(mesh, side)
        tc = cells.coords
        seven = _status_varies(problem, side, np.concatenate(
            [tc, 0.5 * (tc + np.roll(tc, 1, axis=1)),
             tc.mean(axis=1, keepdims=True)], axis=1))
        corners = _status_varies(problem, side,
                                 mesh.vertices[mesh.triangles])[cells.parent]
        sampled += np.count_nonzero(seven & ~corners)
        assert np.array_equal(rule(cells, side), seven & corners)
        leaves = cells.refined(lambda c: rule(c, side))
        n = mesh.num_triangles
        split = np.bincount(leaves.parent, minlength=n) \
            > np.bincount(cells.parent, minlength=n)
        expected = np.bincount(cells.parent[seven & corners], minlength=n) > 0
        assert np.array_equal(split, expected)
        assert (leaves is cells) == (not expected.any())
    # the bump's element is kept whole by the prefilter alone
    assert (sampled > 0) == (case == "bump")
