"""The workloads: what each one runs (timed) and what its outputs
must satisfy (checked after the timed region).

Each workload is a closed loop: one process runs one convergence sweep at a
time, mesh after mesh, and every mesh solve is one operation.  A solve
fails if it raises, does not converge or fails one of its checks.  Layer
functions are always reached through their module (``study.discretize``,
not a name bound at import) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

import checks

@dataclass(frozen=True)
class Workload:
    example: int
    meshes: tuple
    smoke_meshes: tuple
    solver: str               # "block", "fixed-point" (both via the CLI
                              # path) or "ssn" (library loop)
    order_gates: tuple        # (field, 0 = L2 / 1 = H1, lowest, highest)
    # Orders are checked on refinements whose finer mesh has at least this
    # many cells per side: the asymptotic range of the example.
    asymptotic_n: int = 64
    nodal_order: bool = False  # max nodal state error falls at order 2


_BLOCK_ORDERS = tuple((fld, k, lo, hi) for fld in ("u", "y", "p")
                      for k, lo, hi in ((0, 1.85, 2.15), (1, 0.9, 1.1)))

# Why each workload exists, and why these meshes: BENCHMARK.json, README.md.
WORKLOADS = {
    "unconstrained-line": Workload(
        example=1, meshes=(16, 32, 64, 128, 256), smoke_meshes=(16, 32),
        solver="block", order_gates=_BLOCK_ORDERS, nodal_order=True),
    # The curved interface is resolved only from N=128 on: orders between
    # N=32 and 128 read 1.76-2.23 (L2) before settling at 2.05 on the last
    # refinement.
    "unconstrained-circle": Workload(
        example=3, meshes=(16, 32, 64, 128, 256), smoke_meshes=(16, 32),
        solver="block", order_gates=_BLOCK_ORDERS, asymptotic_n=256),
    "constrained-fixed-point": Workload(
        example=2, meshes=(16, 32, 64, 128), smoke_meshes=(16, 32),
        solver="fixed-point", order_gates=(("u", 0, 1.85, np.inf),)),
    "constrained-ssn": Workload(
        example=2, meshes=(16, 32, 64), smoke_meshes=(16, 32),
        solver="ssn", order_gates=()),
}


# ---------------------------------------------------------------------------
# timed sweeps
# ---------------------------------------------------------------------------

def _study_sweep(workload, meshes, out_dir, starts):
    """``nxfem-ocp solve --example k --n-list ... --out DIR``, minus the
    argument parsing and the table echo."""
    from nxfem_ocp import study
    discretize = study.discretize

    def mark(*args, **kwargs):
        starts.append(time.perf_counter())
        return discretize(*args, **kwargs)

    study.discretize = mark
    try:
        config = study.RunConfig(example=workload.example, n_values=meshes,
                                 out_dir=out_dir)
        result = study.run_convergence_study(config)
    finally:
        study.discretize = discretize
    return result.problem, result.solutions


def _ssn_sweep(workload, meshes, out_dir, starts):
    """The CLI's per-mesh pipeline with the semismooth Newton solver, which
    the CLI does not offer: discretize, solve, errors, then the same
    outputs (errors.csv, table.txt, activeset_n*.csv)."""
    from nxfem_ocp import errors, problems, solver, study
    problem = problems.build_example(workload.example)
    result = study.StudyResult(problem=problem, n_values=meshes, reports=[],
                               solutions=[])
    os.makedirs(out_dir, exist_ok=True)
    for n in meshes:
        starts.append(time.perf_counter())
        disc = study.discretize(problem, n)
        sol = solver.solve_constrained_ssn(
            disc.mesh, disc.cut_info, disc.space, disc.A, disc.M, disc.F1,
            disc.F2, problem.a, problem.bounds, disc.ybc_values)
        result.reports.append(errors.compute_errors(
            problem, sol, disc.mesh, disc.cut_info, disc.space))
        result.solutions.append(sol)
        result.compute_eoc()
        study.write_errors_csv(os.path.join(out_dir, "errors.csv"), result)
        with open(os.path.join(out_dir, "table.txt"), "w") as fh:
            fh.write(study.format_table(result))
        curves = study.extract_active_set_boundary(
            sol, problem.a, problem.bounds, disc.mesh, disc.cut_info,
            disc.space)
        curves["interface"] = study.interface_polylines(disc.cut_info)
        study.write_activeset_csv(
            os.path.join(out_dir, f"activeset_n{n}.csv"), curves)
    return problem, result.solutions


def run_sweep(workload, meshes, out_dir, starts):
    sweep = _ssn_sweep if workload.solver == "ssn" else _study_sweep
    return sweep(workload, meshes, out_dir, starts)


# ---------------------------------------------------------------------------
# checks (untimed)
# ---------------------------------------------------------------------------

def check_sweep(workload, problem, meshes, solutions, out_dir, rng):
    """Failures per mesh: a list (one entry per mesh) of lists of strings.
    Each mesh is discretized again, deterministically, so that the timed
    sweep holds no extra references to its matrices."""
    from nxfem_ocp import solver, study
    fails = [[] for _ in meshes]
    field_errs = []
    nodal = []
    for i, (n, sol) in enumerate(zip(meshes, solutions)):
        f = fails[i]
        disc = study.discretize(problem, n)
        dirichlet = disc.space.dirichlet_dofs
        classes = disc.cut_info.classes
        if workload.order_gates:
            field_errs.append(checks.field_errors(
                problem, disc.mesh, classes, disc.space, sol.Y, sol.P))
        if not sol.converged:
            f.append(f"not converged after {sol.iterations} iterations")

        if workload.solver == "block":
            rs, rc, bc = checks.optimality_residuals(
                disc.A, disc.M, disc.F1, disc.F2, sol.Y, sol.P,
                disc.M @ (-sol.P / problem.a), dirichlet, disc.ybc_values)
            if max(rs, rc) > 1e-9 or bc > 1e-12:
                f.append(f"block residuals {rs:.2e}/{rc:.2e}, bc {bc:.1e}")
            if workload.nodal_order:
                nodal.append(checks.nodal_state_error(problem, disc.mesh,
                                                      disc.space, sol.Y))
        elif workload.solver == "fixed-point":
            if not sol.control_diffs or sol.control_diffs[-1] >= 1e-10:
                f.append("final control update not below 1e-10")
            # the control term as the solver integrates it defines the
            # discrete problem whose KKT system is checked
            load = solver._control_load(disc.mesh, disc.cut_info, disc.space,
                                        sol.P, problem.a, problem.bounds)
            rs, rc, bc = checks.optimality_residuals(
                disc.A, disc.M, disc.F1, disc.F2, sol.Y, sol.P, load,
                dirichlet, disc.ybc_values)
            if max(rs, rc) > 1e-8 or bc > 1e-12:
                f.append(f"KKT residuals {rs:.2e}/{rc:.2e}, bc {bc:.1e}")
            vi = checks.variational_inequality(
                problem, disc.mesh, classes, disc.space, sol.P,
                checks.costate(disc.A, disc.M, disc.F2, sol.Y, dirichlet),
                rng)
            if vi < -1e-9:
                f.append(f"variational inequality {vi:.2e}")
            curves = checks.read_polylines(
                os.path.join(out_dir, f"activeset_n{n}.csv"))
            dist, count = checks.contour_distance(problem, curves)
            h = (problem.domain[1] - problem.domain[0]) / n
            if count == 0 or dist > 0.25 * h:
                f.append(f"active-set polylines: {count} points, "
                         f"max distance {dist / h:.3f} h")
        else:
            ref = solver.solve_constrained_fixed_point(
                disc.mesh, disc.cut_info, disc.space, disc.A, disc.M, disc.F1,
                disc.F2, problem.a, problem.bounds, disc.ybc_values)
            gap = max(np.abs(sol.Y - ref.Y).max(), np.abs(sol.P - ref.P).max())
            if not ref.converged or gap > 1e-8:
                f.append(f"Newton vs fixed point: gap {gap:.2e}")

    for fld, k, lo, hi in workload.order_gates:
        eoc = checks.orders([e[fld][k] for e in field_errs])
        for i, n in enumerate(meshes):
            if i and n >= workload.asymptotic_n and not lo <= eoc[i] <= hi:
                norm = ("L2", "H1")[k]
                fails[i].append(f"{fld} {norm} order {eoc[i]:.3f}")
    if nodal:
        eoc = checks.orders(nodal)
        for i, n in enumerate(meshes):
            if i and n >= workload.asymptotic_n and not 1.85 <= eoc[i] <= 2.15:
                fails[i].append(f"nodal state order {eoc[i]:.3f}")
    return fails
