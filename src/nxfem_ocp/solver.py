"""Linear solves and optimal-control drivers.

The unconstrained problem is solved as one symmetric 2x2 block system in
(co-state, state); the box-constrained problem by the projected fixed-point
iteration (state solve, co-state solve, clamp update) or, alternatively, by
a primal-dual active-set / semismooth Newton loop.  The control never gets
its own unknowns: it is the pointwise clamp of -p/a.

Every block system is solved by MINRES, preconditioned with
blkdiag(a S^-1, S^-1), S = M + sqrt(a) A (Zulehner 2011; Pearson & Wathen
2012).  The iteration count is bounded independently of h and a, and the
one sparse factorization is that of S, the size of a single block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .interface_geometry import (map_rule_to_triangle,
                                 refined_triangle_quadrature, triangle_rule)
from .mesh import ConfigurationError

__all__ = ["SolverError", "LinearSolverConfig", "OcpSolution", "ReducedSolver",
           "solve_unconstrained_ocp", "project_control",
           "solve_constrained_fixed_point", "solve_constrained_ssn"]


class SolverError(RuntimeError):
    """Factorization failure or iterative non-convergence."""


@dataclass(frozen=True)
class LinearSolverConfig:
    method: str = "direct"            # "direct" or "cg"
    cg_tol: float = 1e-12
    cg_max_iter: int = 20000

    def __post_init__(self):
        if self.method not in ("direct", "cg"):
            raise ConfigurationError(f"unknown linear solver {self.method!r}")
        if self.cg_tol <= 0.0:
            raise ConfigurationError("cg tolerance must be positive")


@dataclass
class OcpSolution:
    """State/co-state dof vectors; the control is clamp(-p/a)."""

    Y: np.ndarray
    P: np.ndarray
    a: float
    bounds: tuple | None
    U: np.ndarray | None = None       # explicit dofs, unconstrained case only
    iterations: int = 1
    converged: bool = True
    residual_state: float = 0.0
    residual_costate: float = 0.0
    control_diffs: list = field(default_factory=list)
    # one entry per saddle solve (the unconstrained solve or a Newton step):
    # MINRES iterations and the relative true residuals of both block rows
    saddle_iterations: list = field(default_factory=list)
    saddle_residuals: list = field(default_factory=list)


class ReducedSolver:
    """Dirichlet reduction: the one split of the dofs into free and
    constrained ones, with a lazily built factorization for SPD solves."""

    def __init__(self, A, dirichlet_dofs, config=LinearSolverConfig()):
        self.A = A
        self.config = config
        mask = np.zeros(A.shape[0], dtype=bool)
        mask[dirichlet_dofs] = True
        self.constrained = np.asarray(dirichlet_dofs, dtype=np.int64)
        self.free = np.flatnonzero(~mask)
        A_ff, self.A_fc = self._split(A)
        self.A_ff = A_ff.tocsc()
        self._lu = None
        self._saddle_lu = None

    def _split(self, B):
        """Free/free and free/constrained blocks of a matrix on the dofs."""
        rows = B[self.free]
        return rows[:, self.free], rows[:, self.constrained]

    def solve(self, b, bc_values=None):
        """Solve with full-length right-hand side; ``bc_values`` holds the
        prescribed entries at the constrained dofs (zero if omitted)."""
        vals = (np.zeros(len(self.constrained)) if bc_values is None
                else np.asarray(bc_values, dtype=float))
        b_f = b[self.free] - self.A_fc @ vals
        direct = self.config.method == "direct"
        if direct:
            if self._lu is None:
                try:
                    self._lu = spla.splu(self.A_ff)
                except RuntimeError as exc:
                    raise SolverError(f"factorization failed: {exc}") from exc
            x_f = self._lu.solve(b_f)
        else:
            diag = self.A_ff.diagonal()
            diag = np.where(diag > 0.0, diag, 1.0)
            pre = spla.LinearOperator(self.A_ff.shape,
                                      matvec=lambda v: v / diag)
            x_f, info = spla.cg(self.A_ff, b_f, rtol=self.config.cg_tol,
                                atol=0.0, maxiter=self.config.cg_max_iter,
                                M=pre)
            if info != 0:
                res = np.linalg.norm(self.A_ff @ x_f - b_f)
                raise SolverError(
                    f"cg failed to converge (info={info}, residual={res:.3e})")
        scale = max(np.linalg.norm(b_f), 1e-300)
        res = np.linalg.norm(self.A_ff @ x_f - b_f) / scale
        tol = 1e-10 if direct else 10.0 * self.config.cg_tol
        if res > max(tol, 1e-14):
            raise SolverError(f"linear solve residual {res:.3e} exceeds {tol:.1e}")
        return self._expand(x_f, vals)

    def _saddle_preconditioner(self, M_ff, a):
        """blkdiag(a S^-1, S^-1) on the free (p, y) dofs, S = M_ff + sqrt(a)
        A_ff.  S is factored on first use and kept: M and a are fixed for
        the optimality system this solver serves, and S does not depend on
        the active set."""
        if self._saddle_lu is None:
            S = (M_ff + np.sqrt(a) * self.A_ff).tocsc()
            try:
                self._saddle_lu = spla.splu(
                    S, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True})
            except RuntimeError as exc:
                raise SolverError(f"factorization failed: {exc}") from exc
        lu = self._saddle_lu
        nf = len(self.free)

        def apply(v):
            z = lu.solve(v.reshape(2, nf).T)        # p and y as two columns
            z[:, 0] *= a
            return z.T.ravel()

        return spla.LinearOperator((2 * nf, 2 * nf), matvec=apply,
                                   dtype=float)

    def _expand(self, x_f, bc_values=0.0):
        x = np.zeros(self.A.shape[0])
        x[self.free] = x_f
        x[self.constrained] = bc_values
        return x


SADDLE_TOL = 1e-10        # true block residuals, relative, free rows
SADDLE_RESTARTS = 3
# scipy's MINRES tests its own estimate ||r|| / (||A|| ||x||), which is not
# the block residual: the first pass runs to rounding level, and a
# correction pass only has to shrink an already small defect.
_MINRES_RTOL = 1e-13
_CORRECTION_RTOL = 1e-6
_MINRES_MAXITER = 500


def _solve_saddle(red, MI_ff, M_ff, M_fc, load, F2, a, ybc_values):
    """Solve [[M_I/a, A], [A, -M]] (p, y) = (load, F2) on the free dofs of
    ``red``, with y prescribed on the Dirichlet dofs.

    M_I is the mass on the inactive set (all of M without bounds); the
    control u = -p/a has no unknowns of its own.  MINRES with the
    preconditioner of ``red._saddle_preconditioner`` runs until both block
    rows have a true relative residual <= SADDLE_TOL; short of that, it is
    restarted on the defect of its last iterate (defect correction) at most
    SADDLE_RESTARTS times, then SolverError is raised.  Returns full-length
    P, Y, the total MINRES iteration count and the two residuals.
    """
    yb = np.asarray(ybc_values, dtype=float)
    free = red.free
    nf = len(free)
    K = sp.bmat([[MI_ff / a, red.A_ff], [red.A_ff, -M_ff]], format="csr")
    rhs = np.concatenate([load[free] - red.A_fc @ yb,
                          F2[free] + M_fc @ yb])
    if not np.isfinite(rhs).all():
        raise SolverError("non-finite right-hand side in the saddle system")
    pre = red._saddle_preconditioner(M_ff, a)

    def block_residuals(x):
        # state row A y + M_I p/a = load and co-state row A p - M y = F2,
        # y with its Dirichlet values, each relative to its largest term
        p, y = x[:nf], x[nf:]
        rows = ((red.A_ff @ y + red.A_fc @ yb, MI_ff @ p / a, -load[free]),
                (red.A_ff @ p, -(M_ff @ y + M_fc @ yb), -F2[free]))
        return tuple(float(np.linalg.norm(sum(terms))
                           / max(*map(np.linalg.norm, terms), 1e-300))
                     for terms in rows)

    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    x = np.zeros(2 * nf)
    defect = rhs
    for _ in range(1 + SADDLE_RESTARTS):
        rtol = _MINRES_RTOL if defect is rhs else _CORRECTION_RTOL
        dx, _ = spla.minres(K, defect, rtol=rtol, maxiter=_MINRES_MAXITER,
                            M=pre, callback=count)
        x = x + dx
        if not np.isfinite(x).all():
            raise SolverError("singular saddle system")
        residuals = block_residuals(x)
        if max(residuals) <= SADDLE_TOL:
            break
        defect = rhs - K @ x
    else:
        raise SolverError(
            "MINRES block residuals {:.3e}/{:.3e} exceed {:.0e} after {} "
            "iterations".format(*residuals, SADDLE_TOL, iterations))
    return red._expand(x[:nf]), red._expand(x[nf:], yb), iterations, residuals


def _block_residuals(A, M, F1, F2, sol, control_term, free):
    r1 = A @ sol.Y - control_term - F1
    r2 = A @ sol.P - M @ sol.Y - F2
    s1 = max(np.linalg.norm(F1[free]), 1e-300)
    s2 = max(np.linalg.norm((M @ sol.Y + F2)[free]), 1e-300)
    return (np.linalg.norm(r1[free]) / s1, np.linalg.norm(r2[free]) / s2)


def solve_unconstrained_ocp(A, M, F1, F2, a, dirichlet_dofs, ybc_values):
    """Coupled optimality system without control bounds: the control is
    eliminated via u = -p/a and the symmetric saddle system with M_I = M
    is solved by preconditioned MINRES."""
    red = ReducedSolver(A, dirichlet_dofs)
    M_ff, M_fc = red._split(M)
    P, Y, its, res = _solve_saddle(red, M_ff, M_ff, M_fc, F1, F2, a,
                                   ybc_values)
    U = -P / a
    sol = OcpSolution(Y=Y, P=P, a=a, bounds=None, U=U,
                      saddle_iterations=[its], saddle_residuals=[res])
    sol.residual_state, sol.residual_costate = _block_residuals(
        A, M, F1, F2, sol, M @ U, red.free)
    return sol


def project_control(p_values, a, u_a, u_b):
    """Pointwise clamp of -p/a onto the admissible box."""
    if a <= 0.0:
        raise ConfigurationError("regularization weight must be positive")
    if u_a > u_b:
        raise ConfigurationError(f"empty control box [{u_a}, {u_b}]")
    return np.clip(-np.asarray(p_values, dtype=float) / a, u_a, u_b)


# ---------------------------------------------------------------------------
# box-constrained drivers
# ---------------------------------------------------------------------------

def _clamp_crossing(vals, lo, hi):
    vmin, vmax = vals.min(), vals.max()
    return (vmin < lo < vmax) or (vmin < hi < vmax)


def _control_load(mesh, cut_info, space, P, a, bounds, quad_degree=4,
                  depth=3, collect=None):
    """Inner products of clamp(-p/a) with all basis functions.

    The clamped field is linear on every element side, so bound crossings
    are detected exactly from the vertex values; crossing cells get the
    recursively refined rule.
    """
    lo, hi = bounds
    bary, w = triangle_rule(quad_degree)
    vec = np.zeros(space.n_dofs)
    classes = cut_info.classes
    for side, dmap in ((1, space.dof1), (2, space.dof2)):
        els = np.flatnonzero(classes == side)
        if len(els) == 0:
            continue
        dofs = dmap[mesh.triangles[els]]
        uv = -P[dofs] / a                                   # (E, 3) vertex values
        vmin, vmax = uv.min(axis=1), uv.max(axis=1)
        crossing = ((vmin < lo) & (lo < vmax)) | ((vmin < hi) & (hi < vmax))
        plain = els[~crossing]
        pdofs = dmap[mesh.triangles[plain]]
        vals = np.clip((-P[pdofs] / a) @ bary.T, lo, hi)    # (E, nq)
        loads = np.einsum("eq,q,qi->ei", vals, w, bary) \
            * mesh.areas[plain][:, None]
        np.add.at(vec, pdofs, loads)
        for e in els[crossing]:
            _control_load_element(vec, mesh, space, int(e), side, P, a, lo, hi,
                                  bary, w, [mesh.tri_coords(e)], depth, collect)

    for e in cut_info.cut_elements:
        e = int(e)
        cg = cut_info.cuts[e]
        for side, tris in ((1, cg.tris1), (2, cg.tris2)):
            _control_load_element(vec, mesh, space, e, side, P, a, lo, hi,
                                  bary, w, tris, depth, collect)
    return vec


def _control_load_element(vec, mesh, space, e, side, P, a, lo, hi, bary, w,
                          tris, depth, collect=None):
    dofs = space.element_dofs(e, side)
    coeffs = -P[dofs] / a

    def linear_on(pts):
        return mesh.barycentric(e, pts) @ coeffs

    def needs_refine(tc):
        return _clamp_crossing(linear_on(tc), lo, hi)

    leaves = None if collect is None else []
    for t in tris:
        pts, wts = refined_triangle_quadrature(t, bary, w, needs_refine, depth,
                                               collect=leaves)
        lamq = mesh.barycentric(e, pts)
        vals = np.clip(lamq @ coeffs, lo, hi)
        np.add.at(vec, dofs, (wts * vals) @ lamq)
    if collect is not None:
        collect.extend((e, side, t) for t in leaves)


def _control_at_quadrature(mesh, cut_info, space, P, a, bounds, bary):
    """Control values at the standard volume quadrature points, together
    with the quadrature weights (used for the stopping measure)."""
    lo, hi = (-np.inf, np.inf) if bounds is None else bounds
    vals, wts = [], []
    _, w = triangle_rule(4)
    classes = cut_info.classes
    for side, dmap in ((1, space.dof1), (2, space.dof2)):
        els = np.flatnonzero(classes == side)
        if len(els) == 0:
            continue
        dofs = dmap[mesh.triangles[els]]
        v = np.clip((-P[dofs] / a) @ bary.T, lo, hi)
        vals.append(v.ravel())
        wts.append((np.outer(mesh.areas[els], w)).ravel())
    for e in cut_info.cut_elements:
        e = int(e)
        cg = cut_info.cuts[e]
        for side, tris in ((1, cg.tris1), (2, cg.tris2)):
            dofs = space.element_dofs(e, side)
            coeffs = -P[dofs] / a
            for t in tris:
                r = map_rule_to_triangle(t, bary, w)
                lamq = mesh.barycentric(e, r.points)
                vals.append(np.clip(lamq @ coeffs, lo, hi))
                wts.append(r.weights)
    return np.concatenate(vals), np.concatenate(wts)


def solve_constrained_fixed_point(mesh, cut_info, space, A, M, F1_base,
                                  F2_base, a, bounds, ybc_values, tol=1e-10,
                                  max_iter=200, u0=None,
                                  config=LinearSolverConfig(), log=None):
    """Projected fixed-point iteration for box-constrained control.

    Per sweep: state solve with the current control, co-state solve, clamp
    update.  Stops when the quadrature-sampled L2 norm of the control
    update, normalized by sqrt(domain area), drops below ``tol``.  Returns
    a flagged (not raised) result when ``max_iter`` is exhausted.
    """
    lo, hi = bounds
    if lo > hi:
        raise ConfigurationError(f"empty control box [{lo}, {hi}]")
    solver = ReducedSolver(A, space.dirichlet_dofs, config)
    bary, _ = triangle_rule(4)
    x0, x1, y0, y1 = mesh.domain
    sqrt_area = np.sqrt((x1 - x0) * (y1 - y0))

    if u0 is None:
        load = np.zeros(space.n_dofs)
        u_prev = 0.0
    else:
        load = M @ u0
        u_prev = None               # sampled after the first co-state solve
    diffs = []
    converged = False
    iterations = 0
    for it in range(max_iter):
        iterations = it + 1
        Y = solver.solve(F1_base + load, ybc_values)
        P = solver.solve(F2_base + M @ Y)
        # the load induced by the updated control doubles as the residual
        # probe and as next sweep's state load
        new_load = _control_load(mesh, cut_info, space, P, a, bounds)
        u_now, w = _control_at_quadrature(mesh, cut_info, space, P, a,
                                          bounds, bary)
        if u_prev is None:
            diff = np.inf
        else:
            diff = np.sqrt(np.sum(w * (u_now - u_prev) ** 2)) / sqrt_area
        diffs.append(diff)
        if log is not None:
            free = solver.free
            r1 = np.linalg.norm((A @ Y - new_load - F1_base)[free]) \
                / max(np.linalg.norm((new_load + F1_base)[free]), 1e-300)
            r2 = np.linalg.norm((A @ P - M @ Y - F2_base)[free]) \
                / max(np.linalg.norm((M @ Y + F2_base)[free]), 1e-300)
            log.append((iterations, diff, r1, r2))
        if diff < tol:
            converged = True
            break
        u_prev = u_now
        load = new_load

    sol = OcpSolution(Y=Y, P=P, a=a, bounds=bounds, iterations=iterations,
                      converged=converged, control_diffs=diffs)
    sol.residual_state, sol.residual_costate = _block_residuals(
        A, M, F1_base, F2_base, sol, new_load, solver.free)
    return sol


def _active_mass_and_load(mesh, cut_info, space, P, a, bounds, quad_degree=4,
                          depth=3):
    """Mass matrix restricted to the inactive set plus the load carried by
    the active (clamped) region, classified from the current co-state."""
    lo, hi = bounds
    bary, w = triangle_rule(quad_degree)
    S = space.n_dofs
    rows, cols, vals = [], [], []
    b_act = np.zeros(S)

    def handle(e, side, tris):
        dofs = space.element_dofs(e, side)
        coeffs = -P[dofs] / a

        def needs_refine(tc):
            return _clamp_crossing(mesh.barycentric(e, tc) @ coeffs, lo, hi)

        for t in tris:
            pts, wts = refined_triangle_quadrature(t, bary, w, needs_refine,
                                                   depth)
            lamq = mesh.barycentric(e, pts)
            z = lamq @ coeffs
            inactive = (z > lo) & (z < hi)
            wi = wts * inactive
            loc = (lamq * wi[:, None]).T @ lamq
            rows.append(np.repeat(dofs, 3))
            cols.append(np.tile(dofs, 3))
            vals.append(loc.ravel())
            clamped = np.where(z <= lo, lo, np.where(z >= hi, hi, 0.0))
            clamped[inactive] = 0.0
            np.add.at(b_act, dofs, (wts * clamped) @ lamq)

    classes = cut_info.classes
    for side in (1, 2):
        for e in np.flatnonzero(classes == side):
            handle(int(e), side, [mesh.tri_coords(int(e))])
    for e in cut_info.cut_elements:
        cg = cut_info.cuts[int(e)]
        handle(int(e), 1, cg.tris1)
        handle(int(e), 2, cg.tris2)

    M_inact = sp.coo_matrix((np.concatenate(vals),
                             (np.concatenate(rows), np.concatenate(cols))),
                            shape=(S, S)).tocsr()
    return M_inact, b_act


def solve_constrained_ssn(mesh, cut_info, space, A, M, F1_base, F2_base, a,
                          bounds, ybc_values, max_iter=30, log=None):
    """Primal-dual active-set (semismooth Newton) solve of the clamped
    optimality system.

    Each step freezes the active set induced by the current co-state and
    solves the resulting linear saddle system to SADDLE_TOL; convergence is
    declared when the active set stops changing.
    """
    lo, hi = bounds
    red = ReducedSolver(A, space.dirichlet_dofs)
    M_ff, M_fc = red._split(M)
    bary, _ = triangle_rule(4)

    P = np.zeros(A.shape[0])
    status_prev = None
    converged = False
    iterations = 0
    Y = np.zeros(A.shape[0])
    saddle_its, saddle_res = [], []
    for it in range(max_iter):
        iterations = it + 1
        M_inact, b_act = _active_mass_and_load(mesh, cut_info, space, P, a,
                                               bounds)
        P, Y, its, res = _solve_saddle(red, M_inact[red.free][:, red.free],
                                       M_ff, M_fc, F1_base + b_act, F2_base,
                                       a, ybc_values)
        saddle_its.append(its)
        saddle_res.append(res)

        z, _ = _control_at_quadrature(mesh, cut_info, space, P, a, None, bary)
        status = np.where(z <= lo, -1, np.where(z >= hi, 1, 0))
        if log is not None:
            changed = (-1 if status_prev is None
                       else int(np.count_nonzero(status != status_prev)))
            log.append((iterations, changed))
        if status_prev is not None and np.array_equal(status, status_prev):
            converged = True
            break
        status_prev = status

    sol = OcpSolution(Y=Y, P=P, a=a, bounds=bounds, iterations=iterations,
                      converged=converged, saddle_iterations=saddle_its,
                      saddle_residuals=saddle_res)
    control_term = _control_load(mesh, cut_info, space, P, a, bounds)
    sol.residual_state, sol.residual_costate = _block_residuals(
        A, M, F1_base, F2_base, sol, control_term, red.free)
    return sol
