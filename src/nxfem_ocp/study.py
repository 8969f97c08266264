"""End-to-end pipeline: discretize a benchmark, solve, measure errors,
tabulate refinement orders, extract active-set boundaries.
"""

from __future__ import annotations

import os
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import Load, assemble_load, assemble_mass, assemble_stiffness
from .errors import compute_errors, FIELDS, NORMS
from .interface_geometry import build_cut_info, write_integration_mesh_csv
from .mesh import ConfigurationError, build_uniform_mesh, write_mesh_csv
from .problems import build_example
from .solver import (ControlClamp, SolverError, _check_control,
                     solve_constrained_fixed_point, solve_unconstrained_ocp)
from .xfem_space import ExtendedSpace

__all__ = ["RunConfig", "Discretization", "discretize", "solve_discretized",
           "run_convergence_study", "StudyResult", "extract_active_set_boundary",
           "interface_polylines", "write_errors_csv", "write_activeset_csv",
           "format_table"]


@dataclass
class RunConfig:
    example: int
    n_values: tuple
    lambda_coef: float | None = None
    a: float | None = None
    bounds: object = "default"            # "default", None, or (lo, hi)
    max_iter: int = 200
    out_dir: str | None = None
    dump_geometry: bool = False
    verbose: bool = False

    def __post_init__(self):
        ns = tuple(int(n) for n in self.n_values)
        if ns != tuple(self.n_values):
            raise ConfigurationError(
                f"mesh sizes must be integers, got {tuple(self.n_values)}")
        if len(ns) == 0 or any(n < 4 for n in ns):
            raise ConfigurationError("mesh sizes must be >= 4")
        if any(b >= a for a, b in zip(ns[1:], ns)):
            raise ConfigurationError("mesh sizes must be strictly increasing")
        for name in ("a", "lambda_coef"):
            value = getattr(self, name)
            if value is not None and not (np.isfinite(value) and value > 0.0):
                raise ConfigurationError(
                    f"{name} must be positive and finite, got {value}")
        if self.max_iter < 1:
            raise ConfigurationError(
                f"max_iter must be at least 1, got {self.max_iter}")
        self.n_values = ns

    def build_problem(self):
        problem = build_example(self.example)
        if self.lambda_coef is not None:
            problem.lambda_coef = float(self.lambda_coef)
        if self.a is not None:
            problem.a = float(self.a)
        if self.bounds != "default":
            problem.bounds = self.bounds
        return problem


@dataclass
class Discretization:
    mesh: object
    cut_info: object
    space: object
    A: object
    M: object
    F1: np.ndarray
    F2: np.ndarray
    ybc_values: np.ndarray


def discretize(problem, n):
    """Mesh, cut geometry, extended space, matrices and base loads."""
    mesh = build_uniform_mesh(problem.domain, n)
    cut_info = build_cut_info(mesh, problem.levelset)
    space = ExtendedSpace(mesh, cut_info)
    A = assemble_stiffness(mesh, cut_info, space, problem.alpha1,
                           problem.alpha2, problem.lambda_coef)
    M = assemble_mass(mesh, cut_info, space)
    F1, F2 = assemble_load(
        mesh, cut_info, space,
        Load(problem.f, problem.g, problem.load_refine(mesh, cut_info), 1.0),
        Load(problem.y_d, problem.g_adj, None, -1.0))
    _, ybc = space.boundary_values(problem.y)
    return Discretization(mesh=mesh, cut_info=cut_info, space=space, A=A,
                          M=M, F1=F1, F2=F2, ybc_values=ybc)


def solve_discretized(problem, disc, max_iter=200):
    """Dispatch to the block solve by PRESB-preconditioned GMRES (no
    bounds) or to the projected fixed-point iteration (box constraints),
    whose inner solves share one factor of A."""
    if problem.bounds is None:
        return solve_unconstrained_ocp(disc.A, disc.M, disc.F1, disc.F2,
                                       problem.a, disc.space, disc.ybc_values)
    return solve_constrained_fixed_point(
        disc.mesh, disc.cut_info, disc.space, disc.A, disc.M, disc.F1,
        disc.F2, problem.a, problem.bounds, disc.ybc_values, max_iter=max_iter)


@dataclass
class StudyResult:
    problem: object
    n_values: tuple
    reports: list
    solutions: list
    eoc: dict = field(default_factory=dict)

    def error(self, i, fld, norm):
        return self.reports[i].value(fld, norm)

    def order(self, i, fld, norm, fmt):
        """The refinement order from mesh i-1 to mesh i in ``fmt``, or ''
        on the first mesh and where it is not finite."""
        eoc = self.eoc[(fld, norm)][i] if i > 0 else None
        return "" if eoc is None or not np.isfinite(eoc) else fmt.format(eoc)

    def compute_eoc(self):
        for fld in FIELDS:
            for norm in NORMS:
                vals = [None]
                for i in range(1, len(self.reports)):
                    e0 = self.error(i - 1, fld, norm)
                    e1 = self.error(i, fld, norm)
                    vals.append(np.log2(e0 / e1) if e1 > 0 else np.nan)
                self.eoc[(fld, norm)] = vals
        return self


def run_convergence_study(config):
    """Solve the configured benchmark on every mesh in the sweep and collect
    errors and refinement orders.  Output files are flushed row by row, so
    a failing fine-mesh solve leaves the coarse rows on disk; the sweep
    stops after the first mesh whose iteration did not converge.  With
    ``config.verbose`` one progress line per mesh goes to stderr."""
    problem = config.build_problem()
    result = StudyResult(problem=problem, n_values=config.n_values,
                         reports=[], solutions=[])
    if problem.bounds is not None:
        # a box the drivers reject is rejected before any output or work
        _check_control(problem.a, problem.bounds, config.max_iter)
    out = config.out_dir
    if out:
        os.makedirs(out, exist_ok=True)
    try:
        for n in config.n_values:
            clock = [time.perf_counter()]
            disc = discretize(problem, n)
            clock.append(time.perf_counter())
            try:
                sol = solve_discretized(problem, disc,
                                        max_iter=config.max_iter)
            except SolverError as exc:
                raise SolverError(f"N={n}, lambda_coef={problem.lambda_coef:g}"
                                  f": {exc}") from exc
            clock.append(time.perf_counter())
            report = compute_errors(problem, sol, disc.mesh, disc.cut_info,
                                    disc.space)
            clock.append(time.perf_counter())
            if config.verbose:
                print(_progress_line(n, disc, sol, np.diff(clock)),
                      file=sys.stderr, flush=True)
            result.reports.append(report)
            result.solutions.append(sol)
            result.compute_eoc()
            if out:
                _write_outputs(config, problem, result, disc, sol, n)
            if not sol.converged:
                break
    except Exception:
        if out and result.reports:
            write_errors_csv(os.path.join(out, "errors.csv"), result)
        raise
    return result


def _progress_line(n, disc, sol, stages):
    """N, free dofs, cut elements, integration cells, smallest cut fraction
    min(k1, k2), the wall times of the ``stages`` (discretize, solve,
    errors) and the parts of the solve spent in the elimination order and
    in the sparse factorization, L+U nonzeros of the sparse factor, the
    GMRES iterations of each saddle solve or the fixed-point sweeps, and
    the process's resident-set high-water mark so far."""
    space, info = disc.space, disc.cut_info
    free = space.n_dofs - len(space.dirichlet_dofs)
    cut = len(info.cut_elements)
    cells = disc.mesh.num_triangles - cut + len(info.cells)
    frac = np.minimum(info.chords.k1, info.chords.k2).min(initial=np.inf)
    # the process's high-water mark, which Linux reports in KiB
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if sol.saddle_iterations:
        work = "krylov_iterations=" + ",".join(map(str,
                                                   sol.saddle_iterations))
    else:
        work = f"fixed_point_sweeps={sol.iterations}"
    discretize_s, solve_s, errors_s = stages
    return (f"N={n} free_dofs={free} cut_elements={cut} cells={cells} "
            f"min_cut_fraction={frac:.3e} discretize_s={discretize_s:.3f} "
            f"solve_s={solve_s:.3f} order_s={sol.order_s:.3f} "
            f"factor_s={sol.factor_s:.3f} errors_s={errors_s:.3f} "
            f"factor_nnz={sol.factor_nnz} {work} "
            f"peak_rss_mb={rss:.1f}")


def _write_outputs(config, problem, result, disc, sol, n):
    out = config.out_dir
    write_errors_csv(os.path.join(out, "errors.csv"), result)
    with open(os.path.join(out, "table.txt"), "w") as fh:
        fh.write(format_table(result))
    if problem.bounds is not None:
        clamp = ControlClamp(disc.mesh, disc.cut_info, disc.space, problem.a,
                             problem.bounds)
        curves = _active_set_curves(clamp, sol.P)
        curves["interface"] = interface_polylines(disc.cut_info)
        # the plain name holds a byte copy of the last mesh's table
        path = os.path.join(out, f"activeset_n{n}.csv")
        write_activeset_csv(path, curves)
        shutil.copyfile(path, os.path.join(out, "activeset.csv"))
    if config.dump_geometry:
        write_mesh_csv(disc.mesh,
                       os.path.join(out, f"mesh_vertices_n{n}.csv"),
                       os.path.join(out, f"mesh_triangles_n{n}.csv"))
        extra = None
        if problem.bounds is not None:
            # the pieces of every cell that a kink of the control crosses
            pieces, source, _ = clamp.pieces(sol.P)
            crossed = np.flatnonzero(np.bincount(source)[source] > 1)
            extra = pieces[crossed[np.argsort(source[crossed],
                                              kind="stable")]]
        path = os.path.join(out, f"integration_mesh_n{n}.csv")
        write_integration_mesh_csv(path, disc.mesh, disc.cut_info, extra)
        shutil.copyfile(path, os.path.join(out, "integration_mesh.csv"))
    if config.verbose:
        with open(os.path.join(out, f"iterations_n{n}.csv"), "w") as fh:
            fh.write("iteration,control_diff,residual_state,residual_costate\n")
            for it, diff, r1, r2 in sol.history:
                fh.write(f"{it},{diff:.17e},{r1:.17e},{r2:.17e}\n")


def write_errors_csv(path, result):
    with open(path, "w") as fh:
        fh.write("N,field,norm,error,eoc\n")
        for i, n in enumerate(result.n_values[:len(result.reports)]):
            for fld in FIELDS:
                for norm in NORMS:
                    err = result.error(i, fld, norm)
                    eoc_s = result.order(i, fld, norm, "{:.4f}")
                    fh.write(f"{n},{fld},{norm},{err:.17e},{eoc_s}\n")


def format_table(result):
    """Aligned text table, one section per norm, matching the benchmark
    table layout (error and order per field)."""
    lines = []
    rel = "relative" if result.problem.relative_errors else "absolute"
    for norm, title in (("l2", "L2 errors"), ("h1", "H1 seminorm errors"),
                        ("triple", "mesh-dependent norm errors")):
        lines.append(f"{result.problem.name}: {title} ({rel})")
        header = f"{'N':>5}"
        for fld in FIELDS:
            header += f" {fld + '-error':>13} {'order':>6}"
        lines.append(header)
        for i, n in enumerate(result.n_values[:len(result.reports)]):
            row = f"{n:>5}"
            for fld in FIELDS:
                err = result.error(i, fld, norm)
                eoc_s = result.order(i, fld, norm, "{:.2f}")
                row += f" {err:13.4e} {eoc_s:>6}"
            lines.append(row)
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# active-set boundary extraction
# ---------------------------------------------------------------------------

def _chain_segments(segments, decimals=9):
    """Greedily join segments sharing endpoints into polylines."""
    if not segments:
        return []
    key = lambda p: (round(p[0], decimals), round(p[1], decimals))
    adj = {}
    for si, seg in enumerate(segments):
        for end in (0, 1):
            adj.setdefault(key(seg[end]), []).append((si, end))
    used = [False] * len(segments)
    polylines = []
    for si in range(len(segments)):
        if used[si]:
            continue
        used[si] = True
        chain = [segments[si][0], segments[si][1]]
        for grow_end in (1, 0):
            while True:
                k = key(chain[-1] if grow_end else chain[0])
                nxt = [(sj, e) for sj, e in adj.get(k, []) if not used[sj]]
                if not nxt:
                    break
                sj, e = nxt[0]
                used[sj] = True
                new_pt = segments[sj][1 - e]
                if grow_end:
                    chain.append(new_pt)
                else:
                    chain.insert(0, new_pt)
        polylines.append(np.array(chain))
    return polylines


# Contour points closer than this are one point: where a vertex value of
# -p/a differs from a bound by rounding only, the clip leaves chords of
# rounding length there.
CONTOUR_GAP = 1e-12


def _drop_repeats(poly):
    """The polyline without the points closer than CONTOUR_GAP to the last
    point kept before them."""
    keep = [0]
    for i in range(1, len(poly)):
        if np.linalg.norm(poly[i] - poly[keep[-1]]) >= CONTOUR_GAP:
            keep.append(i)
    return poly[keep]


def extract_active_set_boundary(solution, a, bounds, mesh, cut_info, space):
    """Contours where the clamped control hits each finite bound, as chained
    polylines keyed 'lower' / 'upper': the chords of the integration cells
    clipped at each bound, without repeated points; a polyline that
    shrinks to one point is dropped."""
    return _active_set_curves(ControlClamp(mesh, cut_info, space, a, bounds),
                              solution.P)


def _active_set_curves(clamp, P):
    curves = {}
    for name, level in zip(("lower", "upper"), clamp.bounds):
        chords = clamp.cells.clip(clamp.vertex_values(P), level)[-1]
        polys = map(_drop_repeats, _chain_segments(list(chords)))
        curves[name] = [poly for poly in polys if len(poly) > 1]
    return curves


def interface_polylines(cut_info):
    """The chord train of the discretized interface as polylines."""
    ch = cut_info.chords
    return _chain_segments([np.array(seg) for seg in zip(ch.q1, ch.q2)])


def write_activeset_csv(path, curves):
    with open(path, "w") as fh:
        fh.write("curve_id,x,y\n")
        for name in sorted(curves):
            for i, poly in enumerate(curves[name]):
                for x, y in poly:
                    fh.write(f"{name}_{i},{x:.17e},{y:.17e}\n")
