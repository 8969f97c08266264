import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from nxfem_ocp.assembly import Load, assemble_load
from nxfem_ocp.interface_geometry import build_cut_info, line_interface
from nxfem_ocp.mesh import ConfigurationError, build_uniform_mesh
from nxfem_ocp.problems import PiecewiseField, build_example
from nxfem_ocp.solver import (OcpSolution, ReducedSolver, SolverError,
                              solve_constrained_fixed_point,
                              solve_constrained_ssn, _nested_dissection,
                              _presb, _saddle_operator, _solve_saddle)
import nxfem_ocp
from nxfem_ocp import solver, study
from nxfem_ocp.study import (RunConfig, discretize,
                             extract_active_set_boundary,
                             run_convergence_study, solve_discretized)
from nxfem_ocp.xfem_space import ExtendedSpace, prolong

import oracles
from helpers import (MALFORMED_BOXES, build_smooth_problem,
                     interpolate_two_sided, mesh_from_arrays, project_control)


# the box of a problem without control bounds
UNBOUNDED = (-np.inf, np.inf)


def full_control_system(A, M, F1, F2, a, dirichlet_dofs, ybc_values):
    """Independent oracle: the unsymmetric 3x3 block system that keeps the
    control as unknowns.  Unknowns (U, Y_f, P_f); rows: the projection
    -aMU - MP = 0, then the eliminated co-state and state equations."""
    S = A.shape[0]
    free = np.setdiff1d(np.arange(S), dirichlet_dofs)
    yb = np.asarray(ybc_values, dtype=float)
    A_ff = A[free][:, free]
    K = sp.bmat([
        [-a * M, None, -M[:, free]],
        [None, -M[free][:, free], A_ff],
        [-M[free, :], A_ff, None]], format="csc")
    rhs = np.concatenate([np.zeros(S),
                          F2[free] + M[free][:, dirichlet_dofs] @ yb,
                          F1[free] - A[free][:, dirichlet_dofs] @ yb])
    x = spla.spsolve(K, rhs)
    nf = len(free)
    Y = np.zeros(S)
    P = np.zeros(S)
    Y[free] = x[S:S + nf]
    P[free] = x[S + nf:]
    Y[dirichlet_dofs] = yb
    return Y, P


def test_zero_rhs_gives_zero():
    problem = build_example(1)
    disc = discretize(problem, 8)
    x = ReducedSolver(disc.A, disc.space).solve(
        np.zeros(disc.space.n_dofs))
    assert np.all(x == 0.0)


def test_piecewise_linear_exactness():
    # kinked linear across the straight interface is in the discrete space
    k = -np.sqrt(3) / 3
    b = (6 + np.sqrt(6) - 2 * np.sqrt(3)) / 6
    ls = line_interface(k, b)
    alpha1, alpha2 = 1.0, 100.0
    c1, c2, d = 2.0, -0.7, 0.3
    ell = lambda x, y: y - k * x - b
    y1 = lambda x, y: c1 * ell(x, y) + d
    y2 = lambda x, y: c2 * ell(x, y) + d
    gval = (alpha1 * c1 - alpha2 * c2) * np.sqrt(k * k + 1)
    g = lambda x, y: np.full_like(np.asarray(x, dtype=float), gval)

    from nxfem_ocp.assembly import assemble_stiffness
    mesh = build_uniform_mesh((0, 1, 0, 1), 16)
    info = build_cut_info(mesh, ls)
    space = ExtendedSpace(mesh, info)
    A = assemble_stiffness(mesh, info, space, alpha1, alpha2,
                           10.0 * max(alpha1, alpha2))
    F, = assemble_load(mesh, info, space, Load(None, g, 1.0))
    _, ybc = space.boundary_values(PiecewiseField(y1, y2))
    Y = ReducedSolver(A, space).solve(F, ybc)
    exact = interpolate_two_sided(space, info.vertex_sign, y1, y2)
    assert np.abs(Y - exact).max() <= 1e-10


def test_unconstrained_decoupled_limit():
    # target chosen as the plain state solution: co-state and control vanish
    problem = build_smooth_problem()
    disc = discretize(problem, 8)
    Y0 = ReducedSolver(disc.A, disc.space).solve(
        disc.F1, disc.ybc_values)
    F2 = -(disc.M @ Y0)
    sol = solve_constrained_ssn(disc.mesh, disc.cut_info, disc.space, disc.A,
                                disc.M, disc.F1, F2, problem.a, UNBOUNDED,
                                disc.ybc_values)
    assert np.abs(sol.P).max() <= 1e-10 * max(1.0, np.abs(Y0).max())
    assert np.abs(-sol.P / problem.a).max() <= 1e-8
    assert np.abs(sol.Y - Y0).max() <= 1e-9 * max(1.0, np.abs(Y0).max())


def test_unconstrained_residuals_and_identity():
    problem = build_example(1)
    disc = discretize(problem, 16)
    sol = solve_discretized(problem, disc)
    assert sol.residual_state <= 1e-9
    assert sol.residual_costate <= 1e-9
    # the state equation holds with the control u = -p/a
    free = np.ones(disc.space.n_dofs, dtype=bool)
    free[disc.space.dirichlet_dofs] = False
    load = disc.M @ (-sol.P / problem.a) + disc.F1
    assert np.linalg.norm((disc.A @ sol.Y - load)[free]) \
        <= 1e-9 * np.linalg.norm(load[free])


def test_full_and_reduced_block_forms_agree():
    problem = build_example(1)
    disc = discretize(problem, 8)
    red = solve_discretized(problem, disc)
    Y, P = full_control_system(disc.A, disc.M, disc.F1, disc.F2, problem.a,
                               disc.space.dirichlet_dofs, disc.ybc_values)
    scale = np.abs(red.Y).max()
    assert np.abs(red.Y - Y).max() <= 1e-9 * scale
    assert np.abs(red.P - P).max() <= 1e-9 * scale


def test_project_control_values():
    assert project_control(np.array([0.3]), 1.0, -0.5, 0.5)[0] == \
        pytest.approx(-0.3)
    assert project_control(np.array([-2.0]), 1.0, -0.5, 0.5)[0] == 0.5
    p = np.linspace(-3, 3, 17)
    unbounded = project_control(p, 2.0, -np.inf, np.inf)
    assert np.allclose(unbounded, -p / 2.0)
    once = project_control(p, 1.0, -0.5, 0.5)
    twice = project_control(-once, 1.0, -0.5, 0.5)
    assert np.array_equal(once, twice)
    with pytest.raises(ConfigurationError):
        project_control(p, 1.0, 0.5, -0.5)
    for a in (-1.0, 0.0, np.inf, np.nan):
        with pytest.raises(ConfigurationError):
            project_control(p, a, -0.5, 0.5)


def test_fixed_point_with_inactive_bounds_matches_unconstrained():
    problem = build_example(2)
    disc = discretize(problem, 16)
    unc = oracles.solve_unconstrained_ocp(disc.A, disc.M, disc.F1, disc.F2,
                                          problem.a, disc.space,
                                          disc.ybc_values)
    sol = solve_constrained_fixed_point(
        disc.mesh, disc.cut_info, disc.space, disc.A, disc.M, disc.F1,
        disc.F2, problem.a, (-1e6, 1e6), disc.ybc_values)
    assert sol.converged
    scale = np.abs(unc.P).max()
    assert np.abs(sol.P - unc.P).max() <= 1e-7 * scale
    assert np.abs(sol.Y - unc.Y).max() <= 1e-7 * max(1.0, np.abs(unc.Y).max())


def test_fixed_point_starts_from_the_control_of_a_start():
    # the start's control clamp(-P0/a) is the first sweep's, and the first
    # update is measured from it: the prolonged N=16 solution saves the N=32
    # solve a sweep and leaves its answer where the stop puts it
    problem = build_example(2)
    coarse = discretize(problem, 16)
    sol16 = solve_discretized(problem, coarse)
    disc = discretize(problem, 32)
    start = tuple(prolong(coarse.space.vertex_sides(v), 16, problem.domain,
                          disc.space) for v in (sol16.Y, sol16.P))
    cold = solve_discretized(problem, disc)
    warm = solve_discretized(problem, disc, start=start)
    assert cold.converged and warm.converged
    assert warm.iterations < cold.iterations
    assert np.abs(warm.P - cold.P).max() <= 1e-12 * np.abs(cold.P).max()
    # a solution's own co-state is a fixed point: one sweep confirms it
    again = solve_discretized(problem, disc, start=(cold.Y, cold.P))
    assert again.iterations == 1 and again.control_diffs[0] < 1e-10


def test_fixed_point_contraction_and_logging():
    problem = build_example(2)
    disc = discretize(problem, 16)
    sol = solve_constrained_fixed_point(
        disc.mesh, disc.cut_info, disc.space, disc.A, disc.M, disc.F1,
        disc.F2, problem.a, problem.bounds, disc.ybc_values)
    assert sol.converged
    assert sol.iterations == len(sol.history)
    assert [row[:2] for row in sol.history] == \
        list(enumerate(sol.control_diffs, 1))
    # the last row's residuals are the solution's
    assert sol.history[-1][2:] == (sol.residual_state, sol.residual_costate)
    diffs = sol.control_diffs
    for i in range(1, len(diffs) - 1):
        assert diffs[i + 1] < diffs[i]
    assert diffs[-1] < 1e-10


def test_fixed_point_max_iter_flag():
    problem = build_example(2)
    disc = discretize(problem, 8)
    sol = solve_constrained_fixed_point(
        disc.mesh, disc.cut_info, disc.space, disc.A, disc.M, disc.F1,
        disc.F2, problem.a, problem.bounds, disc.ybc_values, max_iter=2)
    assert not sol.converged
    assert sol.iterations == 2


def test_ssn_inactive_bounds_reproduce_unconstrained():
    problem = build_example(2)
    disc = discretize(problem, 8)
    unc = oracles.solve_unconstrained_ocp(disc.A, disc.M, disc.F1, disc.F2,
                                          problem.a, disc.space,
                                          disc.ybc_values)
    sol = solve_constrained_ssn(disc.mesh, disc.cut_info, disc.space, disc.A,
                                disc.M, disc.F1, disc.F2, problem.a,
                                (-1e6, 1e6), disc.ybc_values)
    # nothing is active, so the first step's system is the optimality
    # system itself: its solve passes the stop
    assert sol.converged and sol.iterations == 1
    assert np.abs(sol.P - unc.P).max() <= 1e-9 * max(1.0, np.abs(unc.P).max())


@pytest.mark.parametrize("started", [False, True], ids=["zero", "coarse"])
@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("example", [1, 3])
def test_unbounded_newton_is_the_unconstrained_solve(example, n, started):
    # on the box (-inf, inf) nothing is clipped: Newton's one step is the
    # saddle solve with M_I = M, its stop repeats the residuals that GMRES
    # accepted, and the study's solve returns the one-solve driver's
    # fields bit for bit, from zero and from the prolonged coarse solution
    problem = build_example(example)
    disc = discretize(problem, n)
    start = None
    if started:
        coarse = discretize(problem, n // 2)
        sol = solve_discretized(problem, coarse)
        start = tuple(prolong(coarse.space.vertex_sides(v), n // 2,
                              problem.domain, disc.space)
                      for v in (sol.Y, sol.P))
    got = solve_discretized(problem, disc, start=start)
    want = oracles.solve_unconstrained_ocp(
        disc.A, disc.M, disc.F1, disc.F2, problem.a, disc.space,
        disc.ybc_values, start=start)
    assert got.converged and got.iterations == 1
    assert got.saddle_iterations == want.saddle_iterations
    assert np.array_equal(got.Y, want.Y) and np.array_equal(got.P, want.P)
    assert (got.residual_state, got.residual_costate) == (
        want.residual_state, want.residual_costate)


@pytest.mark.parametrize("example", [1, 2], ids=["1-unbounded", "2"])
def test_newton_restarted_at_its_solution_takes_no_krylov_iteration(
        example):
    # a start gives the first step's co-state and its GMRES start: at
    # Newton's own solution that step iterates no more and passes the stop
    problem = build_example(example)
    disc = discretize(problem, 16)
    box = UNBOUNDED if problem.bounds is None else problem.bounds
    args = (disc.mesh, disc.cut_info, disc.space, disc.A, disc.M, disc.F1,
            disc.F2, problem.a, box, disc.ybc_values)
    sol = solve_constrained_ssn(*args)
    again = solve_constrained_ssn(*args, start=(sol.Y, sol.P))
    assert sol.converged and min(sol.saddle_iterations) > 0
    assert again.converged and again.saddle_iterations == [0]
    assert np.array_equal(again.Y, sol.Y)
    assert np.abs(again.P - sol.P).max() <= 4e-16 * np.abs(sol.P).max()


def test_newton_terms_hand_back_m_itself_when_nothing_is_clipped():
    # no copy of M sits under the solve's peak: the unbounded box and a box
    # wider than the control clip nothing, and M_I is M; a box that clips
    # gets a matrix of its own
    problem = build_example(2)
    disc = discretize(problem, 16)
    z = np.random.default_rng(7).standard_normal(disc.space.n_dofs)
    wide = np.abs(z).max() + 1.0
    for box in (UNBOUNDED, (-wide, wide)):
        M_I, b = solver._newton_terms(disc.cut_info, disc.space, z, box,
                                      disc.M)
        assert M_I is disc.M and not b.any()
    M_I, b = solver._newton_terms(disc.cut_info, disc.space, z,
                                  problem.bounds, disc.M)
    assert M_I is not disc.M and b.any()


@pytest.mark.parametrize("n", [16, 32])
def test_converged_newton_meets_the_saddle_tolerance(n):
    # a converged Newton solve holds both rows of the optimality system,
    # with the exact clamp's load, to the tolerance of every linear solve;
    # a stop on the status at quadrature points left 5.7e-10 and 8.7e-10
    problem = build_example(2)
    disc = discretize(problem, n)
    sol = solve_constrained_ssn(disc.mesh, disc.cut_info, disc.space, disc.A,
                                disc.M, disc.F1, disc.F2, problem.a,
                                problem.bounds, disc.ybc_values)
    assert sol.converged
    assert max(sol.residual_state, sol.residual_costate) <= solver.SADDLE_TOL
    assert [row[0] for row in sol.history] == list(range(1, sol.iterations
                                                          + 1))
    assert sol.history[-1][1:] == (sol.residual_state, sol.residual_costate)
    # the stop's load is the clamp's own
    load = solver._clamp_load(disc.cut_info, disc.space, -sol.P / problem.a,
                              problem.bounds, disc.M)
    rows = solver._block_rows(disc.A, disc.M, disc.F1, disc.F2, sol.Y, sol.P,
                              load, ReducedSolver(disc.A, disc.space).free)
    assert max(solver._relative_residuals(rows)) <= solver.SADDLE_TOL


def test_fixed_point_updates_of_the_default_study(monkeypatch):
    # the default example-2 study with nested starts takes 4/3/3/3 sweeps,
    # and every update is the L2 norm of the cellwise-linear interpolant of
    # the clamped update, as the element loop integrates it
    controls = []
    load = solver._clamp_load

    def recorded(cut_info, space, z, bounds, M):
        controls.append((space, z))
        return load(cut_info, space, z, bounds, M)
    monkeypatch.setattr(solver, "_clamp_load", recorded)
    problem = build_example(2)
    result = run_convergence_study(RunConfig(example=2,
                                             n_values=(16, 32, 64, 128)))
    assert [sol.iterations for sol in result.solutions] == [4, 3, 3, 3]
    by_mesh = {}
    for space, z in controls:
        by_mesh.setdefault(space, []).append(z)
    assert len(by_mesh) == 4
    for i, (space, zs) in enumerate(by_mesh.items()):
        sol = result.solutions[i]
        mesh = space.mesh
        info = build_cut_info(mesh, problem.levelset)
        # the nested meshes load their start's co-state first; the first
        # mesh starts from the zero control.  -z is a co-state whose -p/1
        # is z, bit for bit
        Ps = [-z for z in zs]
        if i == 0:
            Ps = [None] + Ps
        updates = [oracles.loop_control_update(
            mesh, info, space, P, P_prev, 1.0, problem.bounds)
            for P_prev, P in zip(Ps, Ps[1:])]
        assert np.allclose(sol.control_diffs, updates, rtol=1e-10,
                           atol=1e-14)


@pytest.mark.parametrize("n", [16, 32])
def test_ssn_agrees_with_fixed_point(n):
    problem = build_example(2)
    disc = discretize(problem, n)
    fp = solve_constrained_fixed_point(
        disc.mesh, disc.cut_info, disc.space, disc.A, disc.M, disc.F1,
        disc.F2, problem.a, problem.bounds, disc.ybc_values)
    ssn = solve_constrained_ssn(disc.mesh, disc.cut_info, disc.space, disc.A,
                                disc.M, disc.F1, disc.F2, problem.a,
                                problem.bounds, disc.ybc_values)
    assert fp.converged and ssn.converged
    assert np.abs(fp.Y - ssn.Y).max() <= 1e-8
    assert np.abs(fp.P - ssn.P).max() <= 1e-8


def test_kkt_variational_inequality_proxy():
    problem = build_example(2)
    disc = discretize(problem, 16)
    sol = solve_discretized(problem, disc)
    args = (disc.mesh, disc.cut_info, disc.space)
    u_vals, _ = oracles.loop_control_at_quadrature(*args, sol.P, problem.a,
                                                   problem.bounds)
    # the co-state itself: the unbounded clamp of -(-P)/1
    p_vals, _ = oracles.loop_control_at_quadrature(*args, -sol.P, 1.0, None)
    rng = np.random.default_rng(23)
    lo, hi = problem.bounds
    idx = rng.integers(0, len(u_vals), size=1000)
    v = rng.uniform(lo, hi, size=1000)
    residual = (p_vals[idx] + problem.a * u_vals[idx]) * (v - u_vals[idx])
    assert residual.min() >= -1e-8
    assert sol.residual_state <= 1e-8 and sol.residual_costate <= 1e-8


def test_fixed_point_kkt_against_exact_clipping():
    # the control load of the converged fixed point is the exactly clipped
    # one: the state row holds against an independent polygon clipping
    problem = build_example(2)
    disc = discretize(problem, 16)
    sol = solve_discretized(problem, disc)
    assert sol.converged
    load, _, _ = oracles.clipped_control_integrals(
        disc.mesh, disc.cut_info, disc.space, sol.P, problem.a,
        problem.bounds)
    free = ReducedSolver(disc.A, disc.space).free
    r = (disc.A @ sol.Y - load - disc.F1)[free]
    assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm((load + disc.F1)[free])


def test_fixed_point_rejects_no_sweeps():
    problem = build_example(2)
    disc = discretize(problem, 8)
    for max_iter in (0, -3):
        with pytest.raises(ConfigurationError, match="max_iter"):
            solve_constrained_fixed_point(
                disc.mesh, disc.cut_info, disc.space, disc.A, disc.M,
                disc.F1, disc.F2, problem.a, problem.bounds, disc.ybc_values,
                max_iter=max_iter)


# the public entries that take a control box
BOX_ENTRIES = ["ssn", "fixed-point", "active-set", "control-load"]


def _call_entry(entry, problem, disc, bounds):
    """Call one public entry on ``disc`` with the box ``bounds``: a driver
    (the study's solve of a problem without bounds takes no box), or the
    active-set extraction or the control load of the zero co-state."""
    geometry = (disc.mesh, disc.cut_info, disc.space)
    P = np.zeros(disc.space.n_dofs)
    if entry == "unconstrained":
        return solve_discretized(problem, disc)
    if entry == "active-set":
        return extract_active_set_boundary(OcpSolution(Y=P, P=P), problem.a,
                                           bounds, *geometry)
    if entry == "control-load":
        return solver._control_load(*geometry, P, problem.a, bounds)
    solve = (solve_constrained_ssn if entry == "ssn"
             else solve_constrained_fixed_point)
    return solve(*geometry, disc.A, disc.M, disc.F1, disc.F2, problem.a,
                 bounds, disc.ybc_values)


@pytest.mark.parametrize("entry", BOX_ENTRIES)
def test_a_missing_box_is_named(entry):
    # example 3 has no box; bounds=None used to fail in unpacking it, with
    # a TypeError that did not say what was missing
    problem = build_example(3)
    assert problem.bounds is None
    with pytest.raises(ConfigurationError, match="control box"):
        _call_entry(entry, problem, discretize(problem, 8), problem.bounds)


@pytest.mark.parametrize("box", sorted(MALFORMED_BOXES))
@pytest.mark.parametrize("entry", BOX_ENTRIES)
def test_a_malformed_box_is_named(entry, box):
    bounds = MALFORMED_BOXES[box]
    problem = build_example(2)
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"control box must be a pair (lo, hi) "
                                       f"of real numbers, got {bounds!r}")):
        _call_entry(entry, problem, discretize(problem, 8), bounds)


@pytest.mark.parametrize("entry", ["unconstrained", *BOX_ENTRIES])
def test_each_entry_checks_its_input_once(entry, monkeypatch):
    # each public entry owns the check of its input; nothing it calls
    # checks again.  The unconstrained solve is the study's on example 1,
    # which runs Newton on the unbounded box
    problem = build_example(1 if entry == "unconstrained" else 2)
    disc = discretize(problem, 8)
    calls = []
    check = solver._check_control

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)
    for module in (solver, study):
        monkeypatch.setattr(module, "_check_control", counted)
    _call_entry(entry, problem, disc, problem.bounds)
    assert len(calls) == 1


# each of these returned a wrong answer (a converged Newton solve on an
# empty box, all-zero fields without a step, fixed-point sweeps that
# "converge" for a < 0 or run on NaN for a = 0) or a misleading error (a
# failed factorization for a < 0)
BAD_INPUT = {
    "ssn-empty-box": ("ssn", {"bounds": (0.5, -0.5)}, "empty control box"),
    "ssn-no-steps": ("ssn", {"max_iter": 0}, "max_iter must be at least 1"),
    # a fractional count passed every check and died in range() after the
    # discretization
    "ssn-fractional-steps": ("ssn", {"max_iter": 2.5},
                             "max_iter must be .* an integer, got 2.5"),
    "fixed-point-fractional-sweeps": ("fixed-point", {"max_iter": 2.5},
                                      "max_iter must be .* an integer, got "
                                      "2.5"),
    "fixed-point-negative-a": ("fixed-point", {"a": -1.0},
                               "regularization weight"),
    "fixed-point-zero-a": ("fixed-point", {"a": 0.0},
                           "regularization weight"),
    "unconstrained-negative-a": ("unconstrained", {"a": -1.0},
                                 "regularization weight"),
    # a string weight died in np.isfinite with a bare TypeError
    "ssn-string-a": ("ssn", {"a": "1"}, "regularization weight must be "
                     "positive and finite, got 1"),
    "unconstrained-string-a": ("unconstrained", {"a": "1"},
                               "regularization weight must be positive "
                               "and finite, got 1"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_drivers_reject_bad_input(case):
    driver, change, message = BAD_INPUT[case]
    problem = build_example(1 if driver == "unconstrained" else 2)
    disc = discretize(problem, 8)
    a = change.get("a", problem.a)
    with pytest.raises(ConfigurationError, match=message):
        if driver == "unconstrained":
            problem.a = a
            solve_discretized(problem, disc)
        else:
            solve = (solve_constrained_ssn if driver == "ssn"
                     else solve_constrained_fixed_point)
            solve(disc.mesh, disc.cut_info, disc.space, disc.A, disc.M,
                  disc.F1, disc.F2, a, change.get("bounds", problem.bounds),
                  disc.ybc_values, max_iter=change.get("max_iter", 1))


def _record_samples(monkeypatch):
    """Patch ``solver._clips`` and ``ExtendedSpace.cell_sampler`` to
    record, for every sampler call inside a clip, the pre-clamp control z
    clipped and the cells sampled."""
    samples, current = [], []
    clips, sampler = solver._clips, ExtendedSpace.cell_sampler

    def recorded_clips(cut_info, space, z, bounds):
        current[:] = [z]
        yield from clips(cut_info, space, z, bounds)

    def recorded_sampler(self, cells):
        samples.append((current[0], cells))
        return sampler(self, cells)
    monkeypatch.setattr(solver, "_clips", recorded_clips)
    monkeypatch.setattr(ExtendedSpace, "cell_sampler", recorded_sampler)
    return samples


@pytest.mark.parametrize("driver", [solve_constrained_ssn,
                                    solve_constrained_fixed_point],
                         ids=["ssn", "fixed-point"])
def test_constrained_drivers_sample_only_the_cells_near_a_bound(
        driver, monkeypatch):
    # the clamp holds no cells: each clip samples the whole elements with
    # a dof of -P/a at or past a bound, never the whole table
    problem = build_example(2)
    disc = discretize(problem, 32)
    mesh, info, space = disc.mesh, disc.cut_info, disc.space
    whole = info.integration_cells(mesh)
    lo, hi = problem.bounds
    samples = _record_samples(monkeypatch)
    sol = driver(mesh, info, space, disc.A, disc.M, disc.F1, disc.F2,
                 problem.a, problem.bounds, disc.ybc_values)
    assert sol.converged and sol.iterations >= 2
    assert samples and any(len(cells) for _, cells in samples)
    for z, cells in samples:
        z = space.vertex_sides(z)
        past = ((z <= lo) | (z >= hi)).any(axis=0)[mesh.triangles].any(axis=1)
        assert past[cells.parent].all()
        # every cell of each element sampled, as the whole table has them
        mine = np.isin(whole.parent, cells.parent)
        assert np.array_equal(cells.coords, whole.coords[mine])
        assert len(cells) < len(whole)


def test_clamp_memory_follows_the_active_region(monkeypatch):
    # one Newton step's terms at the solution sample a small share of the
    # integration cells, those near the active set
    problem = build_example(2)
    disc = discretize(problem, 64)
    sol = solve_constrained_ssn(disc.mesh, disc.cut_info, disc.space, disc.A,
                                disc.M, disc.F1, disc.F2, problem.a,
                                problem.bounds, disc.ybc_values)
    assert sol.converged
    samples = _record_samples(monkeypatch)
    solver._newton_terms(disc.cut_info, disc.space, -sol.P / problem.a,
                         problem.bounds, disc.M)
    sampled = sum(len(cells) for _, cells in samples)
    assert 0 < sampled < 0.15 * len(disc.cut_info.integration_cells(
        disc.mesh))


def test_solver_error_reports_residual():
    problem = build_example(1)
    disc = discretize(problem, 8)
    space, S = disc.space, disc.space.n_dofs
    # a matrix definite on the cut elements (the identity on their dofs) but
    # singular elsewhere passes the stiffness guard and stops the
    # factorization
    on_cut = np.zeros(S)
    on_cut[space.cut_dofs] = 1.0
    assert 0.0 < on_cut.sum() < S
    with pytest.raises(SolverError, match="factorization failed"):
        ReducedSolver(sp.diags(on_cut, format="csr"), space).solve(np.ones(S))
    # a solve whose residual is not small is reported, a NaN one included
    red = ReducedSolver(disc.A, disc.space)
    b = np.ones(S)
    b[red.free[0]] = np.nan
    with pytest.raises(SolverError, match="linear solve residual nan"):
        red.solve(b)


@pytest.mark.parametrize("example, meshes, bound", [
    (1, (16, 32, 64), 12), (3, (16, 32, 64), 12),
    # Newton steps on the inactive-set mass at N = 16, 32: 6 iterations,
    # then 4 from the first step's solution
    (2, (16, 32), 8)], ids=["1", "3", "2-newton"])
def test_saddle_iterations_do_not_grow_with_the_mesh(example, meshes, bound):
    # PRESB-preconditioned GMRES: 8 iterations at every N on ex1, 10 on ex3
    problem = build_example(example)
    for n in meshes:
        disc = discretize(problem, n)
        if example == 2:
            sol = solve_constrained_ssn(
                disc.mesh, disc.cut_info, disc.space, disc.A, disc.M,
                disc.F1, disc.F2, problem.a, problem.bounds, disc.ybc_values)
            assert sol.converged and len(sol.saddle_iterations) >= 2
        else:
            sol = solve_discretized(problem, disc)
            assert len(sol.saddle_iterations) == 1
        assert 0 < max(sol.saddle_iterations) <= bound
        assert max(map(max, sol.saddle_residuals)) <= 1e-10


def _newton_or_unconstrained(problem, disc):
    if problem.bounds is None:
        return solve_discretized(problem, disc)
    return solve_constrained_ssn(
        disc.mesh, disc.cut_info, disc.space, disc.A, disc.M, disc.F1,
        disc.F2, problem.a, problem.bounds, disc.ybc_values)


@pytest.mark.parametrize("example", [1, 3, 2], ids=["1", "3", "2-newton"])
def test_every_iteration_applies_presb_once(example, monkeypatch):
    # GMRES applies PRESB to each new Arnoldi vector and to nothing else
    # (not to b, not to the result), so a saddle solve of k iterations
    # makes 2k triangular solves with the factor of S
    problem = build_example(example)
    disc = discretize(problem, 32)
    splu, saddle = spla.splu, solver._solve_saddle
    solves, counts = [0], []

    class CountedLU:
        def __init__(self, lu):
            self._lu = lu

        def solve(self, *args, **kwargs):
            solves[0] += 1
            return self._lu.solve(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self._lu, name)

    def counted_saddle(*args):
        before = solves[0]
        P, Y, its, res = saddle(*args)
        counts.append((solves[0] - before, its))
        return P, Y, its, res

    monkeypatch.setattr(spla, "splu",
                        lambda *args, **kw: CountedLU(splu(*args, **kw)))
    monkeypatch.setattr(solver, "_solve_saddle", counted_saddle)
    sol = _newton_or_unconstrained(problem, disc)
    assert [its for _, its in counts] == sol.saddle_iterations
    assert len(counts) >= (2 if example == 2 else 1)
    assert all(calls == 2 * its > 0 for calls, its in counts)


@pytest.mark.parametrize("example, a", [
    (1, None), (1, 1e-4), (1, 1e-6), (3, None), (3, 1e-4), (3, 1e-6),
    (2, None), (2, 1e-4)], ids=lambda v: "default" if v is None else str(v))
def test_saddle_solves_converge_across_a(example, a):
    # N=32, examples 1 and 3 unconstrained, example 2 by Newton.  Iterations
    # per saddle solve: ex1 8 / 11 / 12 and ex3 10 / 12 / 13 for a =
    # default / 1e-4 / 1e-6; ex2 6, 4 (default) and 12, 11, 11, 10, 7
    # (1e-4).  Ex2 Newton and ex3 with box +-0.1 at a = 1e-6 are left out:
    # PRESB(M) is not robust in a on the active set
    override = {} if a is None else {"a": a}
    problem = RunConfig(example, (32,), **override).build_problem()
    sol = _newton_or_unconstrained(problem, discretize(problem, 32))
    assert sol.converged
    assert 0 < max(sol.saddle_iterations) <= 16
    assert max(map(max, sol.saddle_residuals)) <= 1e-10


def _saddle_case(example, n=16):
    """The arguments of ``_solve_saddle`` for the unconstrained system of
    examples 1 and 3 (M_I = M), or for the second Newton step of example 2
    (M_I the mass on the inactive set of the first step's co-state)."""
    problem = build_example(example)
    disc = discretize(problem, n)
    red = ReducedSolver(disc.A, disc.space)
    M_I, load = disc.M, disc.F1
    if example == 2:
        first = solve_constrained_ssn(
            disc.mesh, disc.cut_info, disc.space, disc.A, disc.M, disc.F1,
            disc.F2, problem.a, problem.bounds, disc.ybc_values, max_iter=1)
        M_inact, b_act = solver._newton_terms(
            disc.cut_info, disc.space, -first.P / problem.a, problem.bounds,
            disc.M)
        M_I, load = M_inact, disc.F1 + b_act
        # all three share one pattern; M_I has fewer nonzeros than M
        for B in (M_I, disc.M):
            assert np.shares_memory(B.indices, disc.A.indices)
            assert np.shares_memory(B.indptr, disc.A.indptr)
        assert 0 < M_I.count_nonzero() < disc.M.count_nonzero()
    return red, M_I, disc.M, load, disc.F2, problem.a, disc.ybc_values


def _started_case(example, n):
    """The free (y, q) of the unconstrained solution of example 1 or 3 on
    the n/2-mesh prolonged to the n-mesh, and the arguments of
    ``_solve_saddle`` for the unconstrained system there."""
    problem = build_example(example)
    coarse = discretize(problem, n // 2)
    sol = solve_discretized(problem, coarse)
    disc = discretize(problem, n)
    red = ReducedSolver(disc.A, disc.space)
    Y0, P0 = (prolong(coarse.space.vertex_sides(v), n // 2, problem.domain,
                      disc.space) for v in (sol.Y, sol.P))
    return solver._free_pair(red, Y0, P0, problem.a), (
        red, disc.M, disc.M, disc.F1, disc.F2, problem.a, disc.ybc_values)


@pytest.mark.parametrize("example, started", [
    (1, False), (3, False), (2, False), (1, True), (3, True)],
    ids=["ex1", "ex3", "ex2-newton-step-2", "ex1-started", "ex3-started"])
def test_saddle_solve_matches_a_direct_solve(example, started):
    # the assembled (p, y) system [[M_I/a, A], [A, -M]] solved directly
    # pins the substitution q = p/sqrt(a) and the signs of the right side;
    # a start (N=32 from the prolonged N=16 solution) is held to the same
    # bound, for the stop is the same
    x0, case = _started_case(example, 32) if started else (
        None, _saddle_case(example))
    red, M_I, M, load, F2, a, yb = case
    K = oracles.saddle_matrix(red, M_I, M, a)
    free, fixed = red.free, red.constrained
    rhs = np.concatenate([load[free] - red.A[free][:, fixed] @ yb,
                          F2[free] + M[free][:, fixed] @ yb])
    x = spla.spsolve(K.tocsc(), rhs)
    nf = len(red.free)
    P, Y, its, res = _solve_saddle(red, M_I, M, load, F2, a, yb, x0)
    if started:
        # the start is closer than zero: fewer iterations than from zero
        assert its < _solve_saddle(red, M_I, M, load, F2, a, yb)[2]
    assert max(res) <= 1e-10
    for got, want in ((P[red.free], x[:nf]), (Y[red.free], x[nf:])):
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
    assert np.array_equal(Y[red.constrained], yb)
    assert np.all(P[red.constrained] == 0.0)


def test_saddle_solve_starts_from_x0():
    # x0 is the start of GMRES: its own solution passes the stop at once
    red, M_I, M, load, F2, a, yb = _saddle_case(1)
    P, Y, its, res = _solve_saddle(red, M_I, M, load, F2, a, yb)
    x0 = np.concatenate([Y[red.free], P[red.free] / np.sqrt(a)])
    P0, Y0, its0, res0 = _solve_saddle(red, M_I, M, load, F2, a, yb, x0)
    assert its > 0 and its0 == 0 and max(res0) <= 1e-10
    assert np.array_equal(Y0, Y)
    assert np.abs(P0 - P).max() <= 4e-16 * np.abs(P).max()
    # a NaN start is not judged converged
    x0[0] = np.nan
    with pytest.raises(SolverError, match="singular saddle system"):
        _solve_saddle(red, M_I, M, load, F2, a, yb, x0)


def _traced_peak(run):
    """What ``run()`` returns, and the most numpy and Python memory it held
    at once above what was held when it started (SuperLU's own buffers,
    the factor among them, are not traced)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = run()
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


FOOTPRINT_SLACK = 20      # full-length float64 vectors


@pytest.mark.parametrize("example", [1, 2], ids=["1", "2-newton"])
def test_solve_footprint_is_the_basis_and_S(example):
    # a solve holds, above its inputs, the Krylov basis of its longest
    # saddle solve (k + 1 float64 and k float32 vectors of length 2 n_f),
    # S's float32 data and int32 index arrays, for Newton what the clamp
    # takes on its own on the first step (the sampled cells near the
    # bounds, their pieces and M_I), and a slack of
    # FOOTPRINT_SLACK full-length float64 vectors.  Measured at N=128, in
    # full-length vectors above the bound's other terms: 12.4 (ex1) and 6.4
    # (ex2 Newton); with split copies of A and M on the free dofs beside
    # them, 35.8 and 31.8
    problem = build_example(example)
    disc = discretize(problem, 128)
    n = disc.space.n_dofs
    red = ReducedSolver(disc.A, disc.space)
    nf, nnz = len(red.free), oracles.free_block(red, disc.A).nnz
    clamp = 0
    if example == 1:
        sol, peak = _traced_peak(lambda: solve_discretized(problem, disc))
    else:
        geometry = (disc.mesh, disc.cut_info, disc.space)
        _, clamp = _traced_peak(lambda: solver._newton_terms(
            disc.cut_info, disc.space, -np.zeros(n) / problem.a,
            problem.bounds, disc.M))
        sol, peak = _traced_peak(lambda: solve_constrained_ssn(
            *geometry, disc.A, disc.M, disc.F1, disc.F2, problem.a,
            problem.bounds, disc.ybc_values))
    assert sol.converged
    k = max(sol.saddle_iterations)
    basis = 2 * nf * ((k + 1) * 8 + k * 4)
    S = 8 * nnz + 4 * (nf + 1)
    assert peak <= basis + S + clamp + FOOTPRINT_SLACK * 8 * n


def test_unconstrained_solve_bitwise_repeatable():
    problem = build_example(1)
    sols = [solve_discretized(problem, discretize(problem, 16))
            for _ in range(2)]
    assert np.array_equal(sols[0].Y, sols[1].Y)
    assert np.array_equal(sols[0].P, sols[1].P)


def test_non_finite_load_raises():
    problem = build_example(1)
    disc = discretize(problem, 8)
    F1 = disc.F1.copy()
    F1[disc.space.n_dofs // 2] = np.nan
    with pytest.raises(SolverError):
        solve_constrained_ssn(disc.mesh, disc.cut_info, disc.space, disc.A,
                              disc.M, F1, disc.F2, problem.a, UNBOUNDED,
                              disc.ybc_values)


def _perturbed_mesh(n, seed):
    """A ``mesh_from_arrays`` mesh: the uniform triangulation with every
    interior vertex moved by up to 0.3 h, so no two share a coordinate."""
    mesh = build_uniform_mesh((0.0, 1.0, 0.0, 1.0), n)
    rng = np.random.default_rng(seed)
    shift = rng.uniform(-0.3, 0.3, mesh.vertices.shape) / n
    shift[mesh.boundary_vertex] = 0.0
    return mesh_from_arrays(mesh.vertices + shift, mesh.triangles)


def _vertex_pattern(mesh):
    """Vertex adjacency of a mesh, the pattern of its P1 matrices."""
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)),
                         shape=(mesh.num_vertices,) * 2)


def _nd_cases():
    mesh = _perturbed_mesh(24, 5)
    yield "from_arrays", _vertex_pattern(mesh), mesh.vertices
    # non-square boxes, whose halving axes do not alternate, and a square
    # whose halving lines fall between grid lines
    for name, domain, n in (("4x1", (0.0, 4.0, 0.0, 1.0), 24),
                            ("2x3", (-1.0, 1.0, 0.0, 3.0), 20),
                            ("unit37", (0.0, 1.0, 0.0, 1.0), 37)):
        mesh = build_uniform_mesh(domain, n)
        yield name, _vertex_pattern(mesh), mesh.vertices
    for example in (1, 3):
        # the free/free block of A and the dof positions in dof order, as
        # the solver orders them
        disc = discretize(build_example(example), 32)
        space = disc.space
        free = np.setdiff1d(np.arange(space.n_dofs), space.dirichlet_dofs)
        yield (f"ex{example}", disc.A[free][:, free],
               space.mesh.vertices[space.dof_vertex[free]])
    for k in (0, 1, 5):
        yield f"coincident{k}", sp.csr_matrix(np.ones((k, k))), \
            np.full((k, 2), 0.25)


@pytest.mark.parametrize("case", list(_nd_cases()), ids=lambda c: c[0])
def test_nested_dissection_separates_every_split(case):
    _, B, xy = case
    upper = sp.triu(B, k=1, format="coo")
    order = _nested_dissection(upper.row, upper.col, xy)
    assert np.array_equal(np.sort(order), np.arange(B.shape[0]))
    assert np.array_equal(order, _nested_dissection(upper.row, upper.col, xy))
    ref, splits = oracles.nested_dissection_splits(B, xy)
    assert np.array_equal(order, ref)
    assert len(splits) > 20 or B.shape[0] <= solver.ND_LEAF
    for low, up in splits:
        # no stored entry, not even an explicit zero, couples the halves
        assert B[low][:, up].nnz == 0


@pytest.mark.parametrize("example", [1, 3])
def test_nested_dissection_fill_at_most_mmd(example):
    problem = build_example(example)
    for n in (64, 128):
        disc = discretize(problem, n)
        red = ReducedSolver(disc.A, disc.space)
        S = oracles.free_block(red, disc.M + np.sqrt(problem.a) * disc.A)
        red._factor(S)
        mmd = spla.splu(S.tocsc(), permc_spec="MMD_AT_PLUS_A",
                        diag_pivot_thresh=0.0,
                        options={"SymmetricMode": True})
        assert 0 < red.factor_nnz <= mmd.nnz


@pytest.mark.parametrize("example", [1, 2], ids=["block-S", "fixed-point-A"])
def test_the_factored_matrix_is_the_block_itself(example, monkeypatch):
    # S = M + sqrt(a) A (and A, for the fixed point) reach SuperLU as their
    # free/free blocks on the space's pattern, in elimination order, and as
    # the CSC view of the block's own arrays: no permuted copy.  S is held
    # in single precision, its data rounded once from the double sum; A's
    # block is factored in double precision as it is.  Both are factored
    # in one-column panels, whose SuperLU workspace is the smallest
    problem = build_example(example)
    disc = discretize(problem, 16)
    factored, handed = [], []
    factor, splu = ReducedSolver._factor, spla.splu

    def spy_factor(red, B):
        factored.append((red, B))
        return factor(red, B)

    def spy_splu(matrix, **kwargs):
        handed.append((matrix, kwargs))
        return splu(matrix, **kwargs)

    monkeypatch.setattr(ReducedSolver, "_factor", spy_factor)
    monkeypatch.setattr(spla, "splu", spy_splu)
    solve_discretized(problem, disc)
    assert len(factored) == len(handed) == 1
    (red, B), ((F, options),) = factored[0], handed
    assert options["panel_size"] == 1
    assert F.format == "csc" and F.shape == B.shape
    for name in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(F, name), getattr(B, name))
    A_ff = oracles.free_block(red, disc.A)
    assert np.array_equal(B.indices, A_ff.indices)
    assert np.array_equal(B.indptr, A_ff.indptr)
    if example == 2:
        assert B.dtype == np.float64 and np.array_equal(B.data, A_ff.data)
    else:
        M_ff = oracles.free_block(red, disc.M)
        S = M_ff.data + np.sqrt(problem.a) * A_ff.data
        assert B.dtype == np.float32
        assert np.array_equal(B.data, S.astype(np.float32))


def test_presb_refuses_a_mass_off_the_pattern():
    # S's data are gathered from M's and A's data at the same places, so M
    # on another pattern would give a wrong S silently
    disc = discretize(build_example(1), 8)
    red = ReducedSolver(disc.A, disc.space)
    dropped = sp.csr_matrix(disc.M.toarray())      # without M's stored zeros
    assert dropped.nnz < disc.M.nnz
    with pytest.raises(ValueError, match="not on the sparsity pattern"):
        _presb(red, dropped, 0.01)


def test_saddle_operator_matches_assembled_blocks():
    problem = build_example(2)
    disc = discretize(problem, 16)
    red, M = ReducedSolver(disc.A, disc.space), disc.M
    rng = np.random.default_rng(3)
    x = rng.standard_normal(2 * len(red.free))
    # all of M (unconstrained), and M without a random half of the dofs as
    # on an inactive set (Newton)
    keep = sp.diags((rng.uniform(size=M.shape[0]) < 0.5).astype(float))
    for M_I in (M, keep @ M @ keep):
        K, _ = oracles.scaled_saddle_matrices(red, M_I, M, problem.a)
        want = K @ x
        got = _saddle_operator(red, M_I, M, problem.a) @ x
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("example", [1, 3])
def test_presb_inverts_the_assembled_preconditioner(example):
    # the inverse runs on the single-precision factor of S, so it returns
    # float32 vectors whose normwise backward error (Rigal & Gaches) is
    # within float32's unit roundoff: z solves (P + E) z = r with
    # ||E|| <= eps32 ||P||.  Measured at N=16: 2.2e-10 to 6.8e-10 (ex1) and
    # 2.6e-9 to 3.6e-9 (ex3) over three right-hand sides.  To first order
    # z is then off the double-precision oracle's by at most kappa(P) eps32
    # (0.03 on ex1, 0.015 on ex3); measured: 1.2e-7 (ex1), 2.0e-5 (ex3)
    problem = build_example(example)
    disc = discretize(problem, 16)
    red = ReducedSolver(disc.A, disc.space)
    _, pre = oracles.scaled_saddle_matrices(red, disc.M, disc.M, problem.a)
    sigma = np.linalg.svd(pre.toarray(), compute_uv=False)
    eps32 = np.finfo(np.float32).eps
    r = np.random.default_rng(5).standard_normal(2 * len(red.free))
    z = _presb(red, disc.M, problem.a) @ r
    assert z.dtype == np.float32
    eta = np.linalg.norm(pre @ z - r) \
        / (sigma[0] * np.linalg.norm(z) + np.linalg.norm(r))
    assert eta <= eps32
    want = spla.spsolve(pre, r)
    assert np.linalg.norm(z - want) \
        <= sigma[0] / sigma[-1] * eps32 * np.linalg.norm(want)


def test_fixed_point_matches_the_colamd_factor(monkeypatch):
    problem = build_example(2)
    disc = discretize(problem, 32)
    sol = solve_discretized(problem, disc)
    assert sol.factor_nnz > 0
    monkeypatch.setattr(ReducedSolver, "_factor", oracles.colamd_factor)
    ref = solve_discretized(problem, disc)
    assert sol.iterations == ref.iterations
    for got, want in ((sol.Y, ref.Y), (sol.P, ref.P)):
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


_DIGEST = """
import hashlib
from nxfem_ocp.study import RunConfig, run_convergence_study
sol = run_convergence_study(RunConfig(example=1, n_values=(64, 128))
                            ).solutions[-1]
print(hashlib.sha256(sol.Y.tobytes() + sol.P.tobytes()).hexdigest(),
      sol.saddle_iterations)
"""


def test_solution_does_not_depend_on_the_blas_thread_count():
    # OpenBLAS threads level-1 calls on vectors this long, and its threaded
    # sums round differently; the Krylov loop and its judge take their
    # inner products and norms with numpy's own reductions; the N=128 solve
    # starts from the N=64 solution, prolonged
    src = str(Path(nxfem_ocp.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _DIGEST], env=env,
                             capture_output=True, text=True, timeout=300,
                             check=True)
        out.append(run.stdout)
    assert out[0] == out[1]
    assert out[0].split(maxsplit=1)[1].strip() == "[6]"


GUARD = ("stiffness matrix is not positive definite on the cut elements: "
         "the interface penalty lambda_coef / h is too small")


@pytest.mark.parametrize("example, lambda_coef, definite", [
    (1, 10.0, False), (1, 15.0, False), (1, None, True),
    (2, 10.0, False), (2, 15.0, False), (2, None, True),
    (3, 10.0, False), (3, 15.0, True), (3, None, True)])
def test_stiffness_guard_reads_a_on_the_cut_elements(example, lambda_coef,
                                                     definite):
    # the one guard, Cholesky on A's blocks on the cut elements, accepts
    # exactly when A's free block is positive definite
    problem = build_example(example)
    if lambda_coef is not None:
        problem.lambda_coef = lambda_coef
    for n in (16, 32):
        disc = discretize(problem, n)
        A_ff = oracles.dirichlet_free_block(disc.A, disc.space)
        assert (np.linalg.eigvalsh(A_ff.toarray()).min() > 0.0) == definite
        if definite:
            ReducedSolver(disc.A, disc.space)
        else:
            with pytest.raises(SolverError, match=GUARD):
                ReducedSolver(disc.A, disc.space)


def test_every_driver_rejects_an_indefinite_stiffness_before_any_factor(
        monkeypatch):
    # a penalty far below the example's makes the interface form indefinite;
    # every driver reports it with the one message, whatever it factors
    problem = build_example(3)
    problem.lambda_coef = 10.0
    disc = discretize(problem, 16)
    calls = []
    monkeypatch.setattr(spla, "splu", lambda *args, **kw: calls.append(args))
    box = (disc.mesh, disc.cut_info, disc.space, disc.A, disc.M, disc.F1,
           disc.F2, problem.a, (-1e6, 1e6), disc.ybc_values)
    for solve in (lambda: solve_discretized(problem, disc),
                  lambda: solve_constrained_fixed_point(*box),
                  lambda: solve_constrained_ssn(*box)):
        with pytest.raises(SolverError) as exc:
            solve()
        assert str(exc.value) == GUARD
    assert calls == []
