"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

Criterion 2 compares against externally tabulated reference magnitudes.
The check is implemented literally and is expected to stay red, for two
separate reasons:

- The control and co-state H1 columns are inconsistent with the
  benchmark's closed-form fields: they lie ~4x below the H1 error of the
  two-sided P1 interpolant of those fields, which no conforming method can
  beat by that much.  The test prints that floor next to its FAIL line
  (``interpolant_errors`` measures it through the same ``compute_errors``;
  at N=256 the interpolant's u H1 error is 2.67e-2 against 6.85e-3 in the
  table).
- The four u and p L2 order cells at N=64 (1.76 against 2.01) and N=128
  (2.23 against 2.04) follow where this mesh sequence cuts the circle, not
  the rate.  ``test_example3_l2_orders_follow_the_cut_position`` runs
  example 3 on the six sequences that start at N0 = 16, 18, 20, 22, 24 and
  28, each doubled while N <= 128.  Over their 13 steps the u L2 order has
  mean 1.962 and range 1.759-2.230, the y L2 order mean 1.918 and range
  1.790-2.168, and the default sequence's steps to N=64 and to N=128 are
  the lowest and the highest u order of all.  So the L2 rate is 2, and
  those two steps measure where the default sequence cuts the circle.
"""

import time

import numpy as np
import pytest

from nxfem_ocp.assembly import assemble_mass, assemble_stiffness
from nxfem_ocp.errors import compute_errors
from nxfem_ocp.interface_geometry import build_cut_info, circle_interface
from nxfem_ocp.mesh import build_uniform_mesh
from nxfem_ocp.problems import build_example
from nxfem_ocp.solver import (OcpSolution, solve_constrained_fixed_point,
                              solve_constrained_ssn)
from nxfem_ocp.study import RunConfig, discretize, run_convergence_study, \
    solve_discretized
from nxfem_ocp.xfem_space import ExtendedSpace

from helpers import (build_smooth_problem, element_areas,
                     interpolate_two_sided, project_control,
                     total_interface_length, tri_coords, triangle_area)
from oracles import element_cuts, loop_control_at_quadrature

FULL_SWEEP = (16, 32, 64, 128, 256)

# tabulated reference values for the unconstrained circle benchmark
# (absolute errors; rows N=16..256, columns u, y, p)
TABLE_L2 = {
    16: (1.1316e-02, 4.4535e-03, 1.1316e-04),
    32: (3.0688e-03, 1.1883e-03, 3.0688e-05),
    64: (7.5979e-04, 3.1686e-04, 7.5979e-06),
    128: (1.8516e-04, 7.6393e-05, 1.8516e-06),
    256: (4.2966e-05, 1.8584e-05, 4.2966e-07),
}
TABLE_H1 = {
    16: (1.1407e-01, 1.1311e-01, 1.1401e-03),
    32: (5.7015e-02, 5.8796e-02, 5.6926e-04),
    64: (2.7869e-02, 2.9448e-02, 2.7932e-04),
    128: (1.3830e-02, 1.4800e-02, 1.3852e-04),
    256: (6.8465e-03, 7.3659e-03, 6.8465e-05),
}
TABLE_EOC_L2 = {"u": (1.88, 2.01, 2.04, 2.11), "y": (1.91, 1.91, 2.05, 2.04),
                "p": (1.88, 2.01, 2.04, 2.11)}
TABLE_EOC_H1 = {"u": (1.00, 1.03, 1.01, 1.01), "y": (0.94, 1.00, 0.99, 1.00),
                "p": (1.00, 1.03, 1.01, 1.01)}

# constrained circle benchmark, control L2 reference at the finest mesh
TABLE3_CONTROL_256 = 1.2751e-04


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion} [{'PASS' if ok else 'FAIL'}]: {detail}")


@pytest.fixture(scope="module")
def ex1_sweep():
    t0 = time.time()
    result = run_convergence_study(RunConfig(example=1, n_values=FULL_SWEEP))
    result.runtime = time.time() - t0
    return result


@pytest.fixture(scope="module")
def ex2_sweep():
    result = run_convergence_study(RunConfig(example=2, n_values=FULL_SWEEP))
    return result


@pytest.fixture(scope="module")
def ex3_sweep():
    return run_convergence_study(RunConfig(example=3, n_values=FULL_SWEEP))


def test_criterion_1_segment_benchmark_orders(ex1_sweep):
    """L2 orders ~2 and H1 orders ~1 for control, state and co-state from
    N=64 on, full sweep in under five minutes."""
    failures = []
    rows = [i for i, n in enumerate(FULL_SWEEP) if n >= 64]
    for fld in ("u", "y", "p"):
        for i in rows:
            el2 = ex1_sweep.eoc[(fld, "l2")][i]
            eh1 = ex1_sweep.eoc[(fld, "h1")][i]
            if not 1.85 <= el2 <= 2.15:
                failures.append(f"{fld} L2 EOC at N={FULL_SWEEP[i]}: {el2:.3f}")
            if not 0.9 <= eh1 <= 1.1:
                failures.append(f"{fld} H1 EOC at N={FULL_SWEEP[i]}: {eh1:.3f}")
    if ex1_sweep.runtime > 300.0:
        failures.append(f"sweep took {ex1_sweep.runtime:.0f}s > 300s")
    detail = (f"runtime {ex1_sweep.runtime:.0f}s; "
              + "; ".join(f"{fld}: L2 "
                          + "/".join(f"{ex1_sweep.eoc[(fld, 'l2')][i]:.2f}"
                                     for i in rows)
                          + " H1 "
                          + "/".join(f"{ex1_sweep.eoc[(fld, 'h1')][i]:.2f}"
                                     for i in rows)
                          for fld in ("u", "y", "p")))
    report(1, not failures, detail)
    assert not failures, "; ".join(failures)


def interpolant_errors(problem, n):
    """Errors of the two-sided P1 interpolants of the exact state and
    co-state (the control is -p/a), measured by ``compute_errors``."""
    mesh = build_uniform_mesh(problem.domain, n)
    info = build_cut_info(mesh, problem.levelset)
    space = ExtendedSpace(mesh, info)
    Y, P = (interpolate_two_sided(space, info.vertex_sign, f.side(1),
                                  f.side(2)) for f in (problem.y, problem.p))
    sol = OcpSolution(Y=Y, P=P)
    return compute_errors(problem, sol, mesh, info, space)


def test_criterion_2_circle_benchmark_magnitudes(ex3_sweep):
    """Absolute errors within a factor of two of the reference table at
    every mesh, refinement orders within 0.15 of the printed ones.

    Expected red: the reference control/co-state H1 columns sit ~4x below
    the best-approximation floor of the benchmark's closed-form fields, and
    the u/p L2 orders at N=64 and N=128 follow where the mesh sequence cuts
    the circle (see the module docstring)."""
    failures = []
    for norm, table in (("l2", TABLE_L2), ("h1", TABLE_H1)):
        for i, n in enumerate(FULL_SWEEP):
            for j, fld in enumerate(("u", "y", "p")):
                ours = ex3_sweep.error(i, fld, norm)
                ref = table[n][j]
                ratio = ours / ref
                if not 0.5 <= ratio <= 2.0:
                    failures.append(
                        f"{fld}.{norm} at N={n}: {ours:.4e} vs {ref:.4e} "
                        f"(x{ratio:.2f})")
    for norm, table in (("l2", TABLE_EOC_L2), ("h1", TABLE_EOC_H1)):
        for fld in ("u", "y", "p"):
            for i in range(1, len(FULL_SWEEP)):
                ours = ex3_sweep.eoc[(fld, norm)][i]
                ref = table[fld][i - 1]
                if abs(ours - ref) > 0.15:
                    failures.append(
                        f"{fld}.{norm} EOC at N={FULL_SWEEP[i]}: "
                        f"{ours:.2f} vs {ref:.2f}")
    detail = ("all cells within factor 2 and EOC within 0.15" if not failures
              else f"{len(failures)} cell(s) out of tolerance, for two "
                   "reasons: the reference u/p H1 magnitudes are "
                   "inconsistent with the benchmark fields, and the u/p "
                   "L2 orders at N=64 and N=128 depend on where the mesh "
                   "sequence cuts the circle (see the module docstring "
                   "and test_example3_l2_orders_follow_the_cut_position)")
    report(2, not failures, detail)
    print("criterion 2 floor: H1 errors u/y/p of the two-sided P1 "
          "interpolant, computed, reference")
    for i, n in enumerate(FULL_SWEEP):
        floor = interpolant_errors(ex3_sweep.problem, n)
        print(f"  N={n:>3}: " + "  ".join(
            "/".join(f"{v:.3e}" for v in row) for row in (
                [floor.value(f, "h1") for f in ("u", "y", "p")],
                [ex3_sweep.error(i, f, "h1") for f in ("u", "y", "p")],
                TABLE_H1[n])))
    assert not failures, detail + ": " + "; ".join(failures)


def test_example3_l2_orders_follow_the_cut_position():
    """Example 3's L2 orders scatter about 2 with the position of the cut,
    and the default sequence's steps to N=64 and N=128, criterion 2's L2
    order cells, are the extremes of the scatter (module docstring)."""
    orders = {"u": [], "y": []}
    for n0 in (16, 18, 20, 22, 24, 28):
        ns = [n0]
        while 2 * ns[-1] <= 128:
            ns.append(2 * ns[-1])
        result = run_convergence_study(RunConfig(example=3,
                                                 n_values=tuple(ns)))
        for fld, eoc in orders.items():
            eoc += result.eoc[(fld, "l2")][1:]
    print("\nexample 3 L2 orders over 13 steps: " + "; ".join(
        f"{fld} mean {np.mean(eoc):.3f}, range {min(eoc):.3f}-{max(eoc):.3f}"
        for fld, eoc in orders.items()))
    u = orders["u"]
    assert len(u) == 13
    for fld, eoc in orders.items():
        assert abs(np.mean(eoc) - 2.0) <= 0.1, (fld, eoc)
        assert all(1.7 <= e <= 2.3 for e in eoc), (fld, eoc)
    # the default sequence 16, 32, 64, 128 comes first
    assert u[1] == min(u) and u[2] == max(u)


def test_criterion_3_constrained_convergence(ex2_sweep):
    """Fixed point converges below 1e-10 within 200 sweeps at every mesh;
    the control error reaches second order and the reference magnitude on
    the finest mesh."""
    failures = []
    for n, sol in zip(FULL_SWEEP, ex2_sweep.solutions):
        if not sol.converged or sol.iterations > 200:
            failures.append(f"no convergence at N={n} "
                            f"({sol.iterations} sweeps)")
        elif sol.control_diffs[-1] >= 1e-10:
            failures.append(f"final update {sol.control_diffs[-1]:.2e} at N={n}")
    eoc_final = ex2_sweep.eoc[("u", "l2")][len(FULL_SWEEP) - 1]
    if eoc_final < 2.0:
        failures.append(f"control L2 EOC 128->256 = {eoc_final:.2f} < 2.0")
    err_final = ex2_sweep.error(len(FULL_SWEEP) - 1, "u", "l2")
    if err_final > 2.0 * TABLE3_CONTROL_256:
        failures.append(f"control error at N=256 {err_final:.4e} "
                        f"> 2 x {TABLE3_CONTROL_256:.4e}")
    iters = [s.iterations for s in ex2_sweep.solutions]
    detail = (f"iterations {iters}, control L2 EOC(128->256) = "
              f"{eoc_final:.2f}, error(256) = {err_final:.4e} "
              f"(reference {TABLE3_CONTROL_256:.4e})")
    report(3, not failures, detail)
    assert not failures, "; ".join(failures)


def test_criterion_4_newton_cross_check():
    """Active-set Newton and fixed point agree to 1e-8 in the dof maximum
    norm on the constrained benchmark."""
    problem = build_example(2)
    failures = []
    gaps = []
    for n in (16, 32):
        disc = discretize(problem, n)
        fp = solve_constrained_fixed_point(
            disc.mesh, disc.cut_info, disc.space, disc.A, disc.M, disc.F1,
            disc.F2, problem.a, problem.bounds, disc.ybc_values)
        ssn = solve_constrained_ssn(
            disc.mesh, disc.cut_info, disc.space, disc.A, disc.M, disc.F1,
            disc.F2, problem.a, problem.bounds, disc.ybc_values)
        gap = max(np.abs(fp.Y - ssn.Y).max(), np.abs(fp.P - ssn.P).max())
        gaps.append(gap)
        if not (fp.converged and ssn.converged):
            failures.append(f"non-convergence at N={n}")
        if gap > 1e-8:
            failures.append(f"dof gap {gap:.2e} at N={n}")
    detail = "max dof gaps: " + ", ".join(f"{g:.2e}" for g in gaps)
    report(4, not failures, detail)
    assert not failures, "; ".join(failures)


def test_criterion_5_property_bundle():
    """Structural properties at fixed mesh size, all within 30 seconds."""
    t0 = time.time()
    failures = []
    rng = np.random.default_rng(1)

    discs = {}
    for ex in (1, 2, 3):
        problem = build_example(ex)
        discs[ex] = (problem, discretize(problem, 16))

    # symmetry and definiteness
    for ex, (problem, disc) in discs.items():
        for name, mat in (("A", disc.A), ("M", disc.M)):
            diff = (mat - mat.T).tocoo()
            rel = (np.abs(diff.data).max() if diff.nnz else 0.0) \
                / np.abs(mat.data).max()
            if rel > 1e-12:
                failures.append(f"ex{ex} {name} asymmetry {rel:.2e}")
        mask = np.ones(disc.space.n_dofs, dtype=bool)
        mask[disc.space.dirichlet_dofs] = False
        try:
            np.linalg.cholesky(disc.A[mask][:, mask].toarray())
        except np.linalg.LinAlgError:
            failures.append(f"ex{ex} reduced stiffness not SPD")

    # partition of unity and area fractions on cut elements
    from test_xfem_space import eval_basis
    problem2, disc2 = discs[2]
    cuts = element_cuts(disc2.cut_info)
    for e in disc2.cut_info.cut_elements[:20]:
        cg = cuts[int(e)]
        if abs(cg.k1 + cg.k2 - 1.0) > 1e-12:
            failures.append(f"k1+k2 != 1 on element {e}")
        area = element_areas(disc2.mesh, e)
        tiled = sum(triangle_area(t) for t in cg.tris1) \
            + sum(triangle_area(t) for t in cg.tris2)
        if abs(tiled - area) > 1e-12 * area:
            failures.append(f"cut tiling off on element {e}")
        coords = tri_coords(disc2.mesh, int(e))
        for side in (1, 2):
            pts = rng.dirichlet(np.ones(3), size=5) @ coords
            for pt in pts:
                _, values, _ = eval_basis(disc2.space, int(e), side, pt)
                if abs(values.sum() - 1.0) > 1e-13:
                    failures.append(f"partition of unity broken on {e}")

    # projection idempotence
    p = rng.standard_normal(1000)
    once = project_control(p, 1.0, -0.5, 0.5)
    if not np.array_equal(project_control(-once, 1.0, -0.5, 0.5), once):
        failures.append("projection not idempotent")
    problem1, disc1 = discs[1]
    sol1 = solve_discretized(problem1, disc1)

    # KKT residuals of the constrained solve
    sol2 = solve_discretized(problem2, disc2)
    if max(sol2.residual_state, sol2.residual_costate) > 1e-8:
        failures.append("discrete KKT residuals exceed 1e-8")
    args = (disc2.mesh, disc2.cut_info, disc2.space)
    u_vals, _ = loop_control_at_quadrature(*args, sol2.P, problem2.a,
                                           problem2.bounds)
    # the co-state itself: the unbounded clamp of -(-P)/1
    p_vals, _ = loop_control_at_quadrature(*args, -sol2.P, 1.0, None)
    idx = rng.integers(0, len(u_vals), size=1000)
    v = rng.uniform(*problem2.bounds, size=1000)
    vi = ((p_vals[idx] + problem2.a * u_vals[idx]) * (v - u_vals[idx])).min()
    if vi < -1e-8:
        failures.append(f"variational inequality violated: {vi:.2e}")

    # manufactured-data self-consistency via finite differences of the
    # hand-coded gradients
    step = 1e-6
    for ex, (problem, _) in discs.items():
        x0, x1, y0, y1 = problem.domain
        xs = rng.uniform(x0 + 0.02, x1 - 0.02, 2000)
        ys = rng.uniform(y0 + 0.02, y1 - 0.02, 2000)
        alphas = (problem.alpha1, problem.alpha2)
        for side in (1, 2):
            grad_y = problem.grad_y.side(side)
            gxp, _ = grad_y(xs + step, ys)
            gxm, _ = grad_y(xs - step, ys)
            _, gyp = grad_y(xs, ys + step)
            _, gym = grad_y(xs, ys - step)
            lap = (gxp - gxm + gyp - gym) / (2 * step)
            lhs = -alphas[side - 1] * lap
            rhs = problem.u.side(side)(xs, ys) + problem.f.side(side)(xs, ys)
            res = np.abs(lhs - rhs) / (1.0 + np.abs(lhs) + np.abs(rhs))
            if res.max() > 1e-8:
                failures.append(f"ex{ex} side {side} state residual "
                                f"{res.max():.2e}")

    # consistency of the linear solve (residual against the load), with
    # the unconstrained control u = -p/a
    F1 = disc1.F1
    Y = sol1.Y
    mask = np.ones(disc1.space.n_dofs, dtype=bool)
    mask[disc1.space.dirichlet_dofs] = False
    control_term = disc1.M @ (-sol1.P / problem1.a)
    resid = np.linalg.norm((disc1.A @ Y - control_term - F1)[mask])
    scale = np.linalg.norm((control_term + F1)[mask])
    if resid > 1e-9 * scale:
        failures.append(f"state solve residual {resid / scale:.2e}")

    # interface length converges at second order
    errs = []
    r = np.sqrt(3) / 4
    for n in (16, 32, 64):
        mesh = build_uniform_mesh((-1, 1, -1, 1), n)
        info = build_cut_info(mesh, circle_interface(r))
        errs.append(abs(total_interface_length(info) - 2 * np.pi * r))
    for ratio in (errs[0] / errs[1], errs[1] / errs[2]):
        if not 3.2 < ratio < 4.8:
            failures.append(f"interface length ratio {ratio:.2f} not ~4")

    elapsed = time.time() - t0
    if elapsed > 30.0:
        failures.append(f"property bundle took {elapsed:.1f}s > 30s")
    report(5, not failures, f"{elapsed:.1f}s, "
           f"{len(failures) or 'no'} violations")
    assert not failures, "; ".join(failures)


def test_criterion_6_degradation_guard():
    """Interface-free configurations collapse to plain P1: matrices match
    entrywise and the pipeline shows textbook orders on a smooth problem."""
    failures = []
    problem = build_smooth_problem()
    mesh = build_uniform_mesh(problem.domain, 8)
    info = build_cut_info(mesh, problem.levelset)
    space = ExtendedSpace(mesh, info)
    A = assemble_stiffness(mesh, info, space, 1.0, 1.0, 10.0)
    M = assemble_mass(mesh, info, space)

    from test_assembly import plain_p1_matrices
    A_ref, M_ref = plain_p1_matrices(mesh, 1.0)
    gap_A = np.abs(A.toarray() - A_ref).max() / np.abs(A_ref).max()
    gap_M = np.abs(M.toarray() - M_ref).max() / np.abs(M_ref).max()
    if gap_A > 1e-12:
        failures.append(f"stiffness deviates from plain P1 by {gap_A:.2e}")
    if gap_M > 1e-12:
        failures.append(f"mass deviates from plain P1 by {gap_M:.2e}")

    reports = []
    for n in (16, 32, 64):
        disc = discretize(problem, n)
        sol = solve_discretized(problem, disc)
        reports.append(compute_errors(problem, sol, disc.mesh, disc.cut_info,
                                      disc.space))
    eocs = {}
    for fld in ("u", "y", "p"):
        for norm, window in (("l2", (1.85, 2.15)), ("h1", (0.9, 1.1))):
            e0 = reports[-2].value(fld, norm)
            e1 = reports[-1].value(fld, norm)
            eoc = np.log2(e0 / e1)
            eocs[(fld, norm)] = eoc
            if not window[0] <= eoc <= window[1]:
                failures.append(f"smooth-problem {fld}.{norm} EOC {eoc:.2f}")
    detail = (f"P1 gaps {gap_A:.1e}/{gap_M:.1e}; smooth EOCs "
              + " ".join(f"{k[0]}.{k[1]}={v:.2f}" for k, v in eocs.items()))
    report(6, not failures, detail)
    assert not failures, "; ".join(failures)
