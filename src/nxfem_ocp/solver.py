"""Linear solves and optimal-control drivers.

The box-constrained problem is solved by the projected fixed-point
iteration (state solve, co-state solve, clamp update) or by a primal-dual
active-set / semismooth Newton loop, which also solves the problem without
bounds: on the box (-inf, inf) its one step is one 2x2 block system in
(state, co-state).  The control never gets its own unknowns: it is the
pointwise clamp of -p/a (Hinze's variational discretization).  For P1
co-states -p/a is linear on every integration cell, so every integral of
the control is the closed-form mass of a linear function on a cell or on a
piece of one: Newton's inactive mass M_I is M less the mass on the pieces
beyond each bound, which one clip per bound cuts from the cells that reach
past it (``CellTable.clip``), and the control's load is M_I(-P/a) plus each
bound's load on its pieces.  The fixed point stops on the M-norm of its
clamped control update at the dofs, Newton on the residuals of both rows of
the optimality system.  The box-constrained solvers and the active-set
output read the control as a function of z = -P/a (``_clips``), which holds
no cells: per bound it builds and samples only those of the elements with a
dof at or past the bound.  The error norms clamp -p_h/a themselves
(``errors._ClampedLinearField``), at their quadrature points and, for the
straddle test they add to the kink predicate, at the cells' vertices.

Every block system is solved in q = p/sqrt(a), where it has the square
form [[M, -sqrt(a) A], [sqrt(a) A, M_I]], by flexible GMRES preconditioned
by PRESB (Axelsson, Farouq & Neytcheva 2016): per iteration, two solves
with S = M + sqrt(a) A.  The iteration count is bounded independently of
h and a, and the one sparse factor is that of S, the size of a single
block.  The block operator is never assembled: A, M and M_I act as they
were assembled, on free vectors scattered to full length.  S is factored
in single precision: flexible GMRES keeps the preconditioned vectors, so
the true residual still falls to the double-precision stop.
GMRES stops on the judged block residuals, and each Newton step starts
from the last one's solution.

Both drivers take a start (Y0, P0), full-length dof vectors on the space
of the system, in a convergence sweep the last mesh's solution prolonged
to the next (``xfem_space.prolong``): Newton's first step linearizes at
P0 and starts GMRES from it, the fixed point's first control is
clamp(-P0/a).  Without one, both start from zero.

Every sparse factorization (S, or A, whose one factor every inner solve
of the fixed point shares) takes one path: a geometric nested-dissection
order of the free dofs (George 1973) on fixed halving boxes, computed by
one sort once per Dirichlet reduction from A's own pattern, the matrix's
free/free block (the one block ever split), and a symmetric factor
without pivoting.  Before the order, the Dirichlet reduction checks A's
blocks on the cut elements, where a too small interface penalty shows.
"""

from __future__ import annotations

import numbers
import operator
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import _assemble, _cell_masses, assemble_mass
from .mesh import ConfigurationError, _check_positive

__all__ = ["SolverError", "OcpSolution", "ReducedSolver",
           "solve_constrained_fixed_point", "solve_constrained_ssn"]


class SolverError(RuntimeError):
    """Factorization failure or iterative non-convergence."""


@dataclass
class OcpSolution:
    """State/co-state dof vectors; the control is clamp(-p/a)."""

    Y: np.ndarray
    P: np.ndarray
    iterations: int = 1
    converged: bool = True
    residual_state: float = 0.0
    residual_costate: float = 0.0
    control_diffs: list = field(default_factory=list)
    # one row per iteration: (sweep, control_diff, residual_state,
    # residual_costate), or for Newton (step, residual_state,
    # residual_costate)
    history: list = field(default_factory=list)
    # one entry per Newton step's saddle solve: GMRES iterations and the
    # relative true residuals of both block rows
    saddle_iterations: list = field(default_factory=list)
    saddle_residuals: list = field(default_factory=list)
    factor_nnz: int = 0               # L+U nonzeros of the sparse factor
    factor_s: float = 0.0             # wall time of the sparse factorization
    order_s: float = 0.0              # wall time of its elimination order


ND_LEAF = 8     # boxes are halved until n / 2^depth <= ND_LEAF


def _nested_dissection(r, c, xy):
    """Geometric nested-dissection order (George 1973) of the dofs at points
    xy of a symmetric matrix with off-diagonal entries at (r, c) and (c, r):
    ``order[k]`` is the dof eliminated k-th.

    The bounding box of xy is halved across its longer side (x on ties),
    and so are both halves, to the depth ceil(log2(n / ND_LEAF)).  A dof
    on a halving line is in the lower half.  Each dof's path is the bit
    string of the boxes it falls in, and an entry is first split at the
    depth where its ends' paths part.  Depth by depth, the lower end of
    every entry split there whose ends are both unplaced joins that box's
    separator.  Separators follow both halves of their box (post-order),
    so no entry couples the halves of any split; within a separator or a
    leaf box the dofs keep their (x, y) order.
    """
    n = len(xy)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    levels = ((n - 1) // ND_LEAF).bit_length()
    width = np.ptp(xy, axis=0)
    axes, w = [], width.copy()      # the axis halved at each depth
    for _ in range(levels):
        axes.append(int(w[1] > w[0]))
        w[axes[-1]] /= 2
    k = np.bincount(axes, minlength=2)
    # each coordinate's bin among the 2^k of its axis, quantized once
    t = (xy - xy.min(axis=0)) / np.where(width > 0, width, 1.0)
    bins = np.clip(np.ceil(t * 2.0 ** k) - 1, 0, 2 ** k - 1).astype(np.int64)
    path, seen = np.zeros(n, dtype=np.int64), [0, 0]
    for a in axes:
        seen[a] += 1
        path = 2 * path + ((bins[:, a] >> (k[a] - seen[a])) & 1)
    # the depth at which each entry's ends part (levels: never)
    split = levels - np.frexp((path[r] ^ path[c]).astype(float))[1]
    sep = np.full(n, levels)        # the depth of each dof's separator
    for d in range(levels):
        at = split == d
        i, j = r[at], c[at]
        both = (sep[i] == levels) & (sep[j] == levels)
        i_upper = (path[i] >> (levels - 1 - d)) & 1
        sep[np.where(i_upper == 1, j, i)[both]] = d
    # post-order: the box of a dof's separator (or its leaf) holds the leaf
    # paths below ``end``, and it follows them and the deeper boxes that
    # end there too
    above = levels - sep
    end = ((path >> above) + 1) << above
    return np.lexsort((xy[:, 1], xy[:, 0], above, end))


SOLVE_TOL = 1e-10         # relative residual of a direct solve, free rows


class ReducedSolver:
    """Dirichlet reduction: the one split of the dofs of an extended space
    into free and constrained ones, and the one sparse factorization path
    for SPD matrices on the free dofs.

    The free dofs are numbered in the geometric nested-dissection order of
    the entries of A's own pattern between free dofs, the order in which
    the factor eliminates them; ``order_s`` is the time it took.  Every
    matrix stays as it was assembled, on the space's pattern: a
    vector on the free dofs is scattered to full length (``_expand``),
    multiplied, and gathered back by indexing with ``free``.  The one
    matrix that is split is the one that is factored (``_free_block``).

    Hansbo's Nitsche form is coercive only for a large enough interface
    penalty, which shows in A's principal blocks on the free dofs of the
    cut elements (``space.cut_dofs``): unless all are positive definite,
    SolverError is raised before the order and before any factor."""

    def __init__(self, A, space):
        self.A = A
        self.constrained = np.asarray(space.dirichlet_dofs, dtype=np.int64)
        mask = np.zeros(A.shape[0], dtype=bool)
        mask[self.constrained] = True
        # A's 6x6 block on every cut element, constrained rows and columns
        # set to identity
        dofs = space.cut_dofs
        blocks = A[np.repeat(dofs, 6, axis=1), np.tile(dofs, (1, 6))]
        kept = ~mask[dofs]
        try:
            np.linalg.cholesky(np.where(kept[:, :, None] & kept[:, None, :],
                                        blocks.toarray().reshape(-1, 6, 6),
                                        np.eye(6)))
        except np.linalg.LinAlgError:
            raise SolverError("stiffness matrix is not positive definite on "
                              "the cut elements: the interface penalty "
                              "lambda_coef / h is too small") from None
        free = np.flatnonzero(~mask)
        start = time.perf_counter()
        # the upper-triangle entries of A's own pattern between free dofs
        r = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        pair = (r < A.indices) & ~mask[r] & ~mask[A.indices]
        position = np.cumsum(~mask) - 1             # among the free dofs
        order = _nested_dissection(position[r[pair]],
                                   position[A.indices[pair]],
                                   space.mesh.vertices[space.dof_vertex[free]])
        self.order_s = time.perf_counter() - start
        self.free = free[order]
        self.factor_nnz = 0
        self.factor_s = 0.0
        self._lu = None
        self._saddle_lu = None

    def _free_block(self, data):
        """The free/free block, in elimination order, of the matrix on A's
        pattern whose entries at the places k of A's data array are
        ``data(k)``.  The places live only while the block is built."""
        A, free = self.A, self.free
        places = sp.csr_matrix((np.arange(len(A.data), dtype=A.indices.dtype),
                                A.indices, A.indptr), shape=A.shape)
        places = places[free][:, free]
        places.sort_indices()
        return sp.csr_matrix((data(places.data), places.indices,
                              places.indptr), shape=places.shape)

    def _factor(self, B):
        """Solve with the SPD matrix B on the free dofs (a ``_free_block``),
        for right-hand sides of one or more columns, in the precision of
        B's data: a right-hand side is rounded to it.

        The free dofs are in nested-dissection order already, so B is
        factored as it is, without pivoting: its transpose is the CSC
        matrix on B's own arrays, its factor is used by transposed solves,
        and no permuted copy of B or of a vector is made.
        """
        start = time.perf_counter()
        try:
            # one-column panels: ~16 MB less workspace at N=256, no slower
            lu = spla.splu(B.T, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                           panel_size=1, options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise SolverError(f"factorization failed: {exc}") from exc
        self.factor_s += time.perf_counter() - start
        if not np.array_equal(lu.perm_r, lu.perm_c):
            raise SolverError("matrix is not positive definite: the "
                              "factorization left the diagonal")
        self.factor_nnz = lu.nnz
        dtype = B.dtype
        return lambda b: lu.solve(b.astype(dtype, copy=False), trans="T")

    def solve(self, b, bc_values=None):
        """Solve with full-length right-hand side; ``bc_values`` holds the
        prescribed entries at the constrained dofs (zero if omitted)."""
        A, free = self.A, self.free
        x = self._expand(0.0, 0.0 if bc_values is None else bc_values)
        b_f = (b - A @ x)[free]
        if self._lu is None:
            self._lu = self._factor(self._free_block(lambda k: A.data[k]))
        x[free] = self._lu(b_f)
        scale = max(_norm(b_f), 1e-300)
        res = _norm((A @ x - b)[free]) / scale
        if not res <= SOLVE_TOL:                    # a NaN residual fails too
            raise SolverError(f"linear solve residual {res:.3e} exceeds "
                              f"{SOLVE_TOL:.1e}")
        return x

    def _expand(self, x_f, bc_values=0.0):
        x = np.zeros(self.A.shape[0])
        x[self.free] = x_f
        x[self.constrained] = bc_values
        return x


SADDLE_TOL = 1e-10        # true block residuals, relative, free rows
# GMRES keeps at most GMRES_RESTART basis vectors, then restarts from the
# true defect; a saddle solve takes at most SADDLE_MAXITER iterations
GMRES_RESTART = 20
SADDLE_MAXITER = 80


def _saddle_operator(red, M_I, M, a):
    """[[M, -sqrt(a) A], [sqrt(a) A, M_I]] on the free (y, q) dofs of
    ``red``, q = p/sqrt(a), applied with the assembled matrices to y and q
    scattered to full length."""
    A, free, nf, s = red.A, red.free, len(red.free), np.sqrt(a)

    def apply(x):
        y, q = red._expand(x[:nf]), red._expand(x[nf:])
        return np.concatenate([(M @ y - s * (A @ q))[free],
                               (s * (A @ y) + M_I @ q)[free]])

    return spla.LinearOperator((2 * nf, 2 * nf), matvec=apply, dtype=float)


def _presb(red, M, a):
    """The inverse of the PRESB preconditioner [[M, -sqrt(a) A], [sqrt(a) A,
    M + 2 sqrt(a) A]] on the free (y, q) dofs: two solves with S = M +
    sqrt(a) A.  S is factored on first use and kept, for M and a are fixed
    for the system that ``red`` serves and S is blind to the active set.
    The factor is in single precision: S is the free block of M + sqrt(a) A
    (M on A's pattern), its data summed in double and rounded once to
    float32, and the inverse returns float32 vectors, which flexible GMRES
    takes as they are.  An S beyond the float32 range raises SolverError."""
    A, s = red.A, np.sqrt(a)
    if red._saddle_lu is None:
        if not (np.array_equal(M.indptr, A.indptr)
                and np.array_equal(M.indices, A.indices)):
            raise ValueError("M is not on the sparsity pattern of A")
        with np.errstate(over="ignore"):
            S = red._free_block(lambda k: np.add(
                M.data[k], s * A.data[k], out=np.empty(len(k), np.float32),
                casting="same_kind"))
        if not np.isfinite(S.data).all():
            raise SolverError(f"S = M + sqrt(a) A overflows single precision "
                              f"at sqrt(a) = {s:.3e}")
        red._saddle_lu = red._factor(S)
    solve, free, nf = red._saddle_lu, red.free, len(red.free)

    def apply(r):
        r1, r2 = r[:nf], r[nf:]
        z = solve(r1 + r2)
        w = solve((M @ red._expand(z))[free] - r1)
        return np.concatenate([z - w, w])

    return spla.LinearOperator((2 * nf, 2 * nf), matvec=apply, dtype=float)


def _norm(v):
    """The 2-norm by numpy's own reduction, as every inner product of the
    Krylov loop: BLAS threads them on long vectors, slower and rounding by
    the thread count."""
    return np.sqrt(np.einsum("i,i->", v, v))


def _largest(terms):
    """The norm of a row's largest term, the scale of its residual."""
    return max(*map(_norm, terms), 1e-300)


def _relative_residuals(rows):
    """The residual of every row of the optimality system, given as its
    terms (which sum to zero at the solution), relative to its largest
    term: the one residual measure of every solve."""
    return tuple(float(_norm(sum(terms)) / _largest(terms))
                 for terms in rows)


def _block_rows(A, M, F1, F2, Y, P, control_term, free):
    """The terms of the state row A Y = control_term + F1 and of the
    co-state row A P = M Y + F2 on the free dofs."""
    return (((A @ Y)[free], -control_term[free], -F1[free]),
            ((A @ P)[free], -(M @ Y)[free], -F2[free]))


def _fgmres(K, pre, b, x, judge):
    """Solve K x = b from the start x by flexible GMRES (Saad, SIAM J. Sci.
    Comput. 14, 1993), right-preconditioned by ``pre``.

    Every iteration applies ``pre`` once and keeps the vector it returns,
    so the iterate is x + Z c for the kept vectors Z, and K Z = V H holds
    in double precision whatever the precision of ``pre`` (Arioli & Duff,
    ETNA 33, 2009).  The basis grows by one vector per iteration, up to
    GMRES_RESTART; then the next cycle starts from the true defect.
    ``judge(x)`` gives the judged residuals of x and the 2-norm of b - K x
    above which they cannot all be <= SADDLE_TOL.  An iterate is judged
    whenever its least-squares residual is under that norm, and at the end
    of every cycle.  Returns x, the iteration count and the judged
    residuals; raises SolverError after SADDLE_MAXITER iterations.
    """
    its = 0
    residuals, bound = judge(x)
    while not max(residuals) <= SADDLE_TOL:         # a NaN residual fails
        if its == SADDLE_MAXITER:
            raise SolverError(
                "GMRES block residuals {:.3e}/{:.3e} exceed {:.0e} after {} "
                "iterations".format(*residuals, SADDLE_TOL, its))
        r = b - K @ x
        g = np.zeros(GMRES_RESTART + 1)
        g[0] = _norm(r)
        H = np.zeros((GMRES_RESTART + 1, GMRES_RESTART))
        V, Z = [r / g[0]], []
        cycle = min(GMRES_RESTART, SADDLE_MAXITER - its)
        for j in range(cycle):
            Z.append(pre @ V[j])
            w = K @ Z[j]
            for i, v in enumerate(V):               # modified Gram-Schmidt
                H[i, j] = np.einsum("i,i->", v, w)
                w -= H[i, j] * v
            H[j + 1, j] = _norm(w)
            if not np.isfinite(H[:j + 2, j]).all():
                raise SolverError("singular saddle system")
            its += 1
            h, e = H[:j + 2, :j + 1], g[:j + 2]
            c = np.linalg.lstsq(h, e)[0]
            end = j + 1 == cycle or H[j + 1, j] == 0.0
            if end or np.linalg.norm(e - h @ c) <= bound:
                x_j = x.copy()              # x + Z c, one term at a time
                for cj, z in zip(c, Z):
                    x_j += cj * z
                residuals, bound = judge(x_j)
                if end or max(residuals) <= SADDLE_TOL:
                    break
            V.append(w / H[j + 1, j])
        x = x_j
    return x, its, residuals


def _solve_saddle(red, M_I, M, load, F2, a, ybc_values, x0=None):
    """Solve [[M_I/a, A], [A, -M]] (p, y) = (load, F2) on the free dofs of
    ``red``, with y prescribed on the Dirichlet dofs.

    M_I is the mass on the inactive set (all of M without bounds); the
    control u = -p/a has no unknowns of its own.  In q = p/sqrt(a) the
    system is ``_saddle_operator`` (y, q) = (-g, sqrt(a) f), f and g the
    right-hand sides with the Dirichlet values moved over, and flexible
    GMRES preconditioned by ``_presb`` solves it from x0, the free (y, q)
    (zero if omitted), until both block rows have a true relative residual
    <= SADDLE_TOL.  Returns full-length P, Y, the GMRES iteration count
    and the residuals.
    """
    yb = np.asarray(ybc_values, dtype=float)
    A, free, nf, s = red.A, red.free, len(red.free), np.sqrt(a)
    Yb = red._expand(0.0, yb)
    rhs = np.concatenate([-(F2 + M @ Yb)[free], s * (load - A @ Yb)[free]])
    if not np.isfinite(rhs).all():
        raise SolverError("non-finite right-hand side in the saddle system")

    def judge(x):
        # state row A y + M_I p/a = load and co-state row A p - M y = F2,
        # y with its Dirichlet values; the defect of the (y, q) system is
        # (minus the co-state row, sqrt(a) times the state row)
        Y, P = red._expand(x[:nf], yb), red._expand(s * x[nf:])
        rows = _block_rows(A, M, load, F2, Y, P, -(M_I @ P) / a, free)
        return _relative_residuals(rows), SADDLE_TOL * np.hypot(
            s * _largest(rows[0]), _largest(rows[1]))

    x, its, residuals = _fgmres(
        _saddle_operator(red, M_I, M, a), _presb(red, M, a), rhs,
        np.zeros(2 * nf) if x0 is None else x0, judge)
    P, Y = red._expand(s * x[nf:]), red._expand(x[:nf], yb)
    return P, Y, its, residuals


def _check_control(a=1.0, bounds=(-np.inf, np.inf), max_iter=1):
    """Raise ConfigurationError unless the regularization weight is a
    positive and finite real number, the box is a pair (lo, hi) of real
    numbers (no strings) that holds a finite control and max_iter is an
    integer (one that ``operator.index`` takes) of at least 1: the one
    check of every public entry's input, and of RunConfig's a, box and
    max_iter."""
    pair = list(bounds) if np.iterable(bounds) else []
    if len(pair) != 2 or not all(isinstance(v, numbers.Real) for v in pair):
        raise ConfigurationError(f"control box must be a pair (lo, hi) of "
                                 f"real numbers, got {bounds!r}")
    lo, hi = pair
    _check_positive("regularization weight", a)
    if np.isnan(lo) or np.isnan(hi) or lo == np.inf or hi == -np.inf:
        raise ConfigurationError(
            f"control box [{lo}, {hi}] admits no finite control")
    if not lo <= hi:
        raise ConfigurationError(f"empty control box [{lo}, {hi}]")
    try:
        count = operator.index(max_iter)
    except TypeError:
        count = 0
    if not count >= 1:
        raise ConfigurationError(
            f"max_iter must be at least 1 and an integer, got {max_iter!r}")


def _free_pair(red, Y, P, a):
    """The free (y, q) of full-length Y and P, q = p/sqrt(a): the start of
    a saddle solve."""
    return np.concatenate([Y[red.free], P[red.free] / np.sqrt(a)])


# ---------------------------------------------------------------------------
# box-constrained drivers
# ---------------------------------------------------------------------------

def _clips(cut_info, space, z, bounds):
    """Per bound, lo then hi: the bound and the clip at it of the cells
    where the pre-clamp control z = -P/a reaches past it (below lo, above
    hi): the pieces, whether each lies beyond the bound (at or below lo,
    above hi), the clipped cell each comes from (its index among them),
    and the chords of the cells the bound crosses, in cell order.  Only
    the elements with a dof at or past the bound are sampled: on a cell z
    is a convex combination of its element's dofs on its side, rounded
    past them by a few ulps of max |z| at most, so a dof within 16 such
    ulps of the bound counts as at it."""
    slack = 16 * np.finfo(float).eps * np.abs(z).max(initial=0.0)
    for sign, level in zip((-1.0, 1.0), bounds):
        past = space.vertex_sides(sign * z >= sign * level - slack)
        near = past.any(axis=0)[space.mesh.triangles].any(axis=1)
        cells = cut_info.integration_cells(space.mesh, near=near)
        values = space.cell_sampler(cells)(z)
        reach = (sign * values).max(axis=1) > sign * level
        pieces, above, source, chords = cells[reach].clip(values[reach],
                                                          level)
        yield level, pieces, above == (sign > 0), source, chords


def _newton_terms(cut_info, space, z, bounds, M):
    """The mass matrix on the inactive set of clamp(z), the mass matrix M
    (on the space's pattern) less the mass on the pieces beyond the bounds
    (``_clips``), and the load of the control there: each bound times the
    row sums of its pieces' masses.  With no piece beyond a bound, M_I is
    M itself, not a copy."""
    n = M.shape[0]
    blocks, b = [], np.zeros(n)
    for level, pieces, beyond, _, _ in _clips(cut_info, space, z, bounds):
        for dofs, mass in _cell_masses(space, pieces[beyond]):
            blocks.append((dofs, mass))
            b += np.bincount(dofs.ravel(), level * mass.sum(axis=2).ravel(),
                             minlength=n)
    if not blocks:
        return M, b
    M_inact = _assemble(space, blocks)
    np.subtract(M.data, M_inact.data, out=M_inact.data)
    return M_inact, b


def _clamp_load(cut_info, space, z, bounds, M):
    """Inner products of clamp(z) with all basis functions: M_I z + b."""
    M_inact, b = _newton_terms(cut_info, space, z, bounds, M)
    return M_inact @ z + b


def _control_load(mesh, cut_info, space, P, a, bounds):
    """Inner products of clamp(-p/a) with all basis functions."""
    _check_control(a, bounds)
    return _clamp_load(cut_info, space, -P / a, bounds,
                       assemble_mass(mesh, cut_info, space))


FIXED_POINT_TOL = 1e-10   # the fixed point's stop on the control update


def solve_constrained_fixed_point(mesh, cut_info, space, A, M, F1_base,
                                  F2_base, a, bounds, ybc_values,
                                  max_iter=200, start=None):
    """Projected fixed-point iteration for box-constrained control.

    Per sweep: state solve with the current control, co-state solve (both
    with the one factor of A), clamp update.  The first control is
    clamp(-P0/a) for ``start`` = (Y0, P0), else zero.  Stops when the
    control update, measured as the M-norm of the clamped update at the
    dofs (d = clip(-P/a) - clip(-P_prev/a), sqrt(d^T M d)) normalized by
    sqrt(domain area), drops below FIXED_POINT_TOL.  Returns a flagged
    (not raised) result when ``max_iter`` is exhausted.
    """
    _check_control(a, bounds, max_iter)
    solver = ReducedSolver(A, space)
    x0, x1, y0, y1 = mesh.domain
    sqrt_area = np.sqrt((x1 - x0) * (y1 - y0))

    load = np.zeros(space.n_dofs)
    u_prev = 0.0
    if start is not None:
        load = _clamp_load(cut_info, space, -start[1] / a, bounds, M)
        u_prev = np.clip(-start[1] / a, *bounds)
    history = []
    for it in range(max_iter):
        Y = solver.solve(F1_base + load, ybc_values)
        P = solver.solve(F2_base + M @ Y)
        # the load induced by the updated control doubles as the residual
        # probe and as next sweep's state load
        load = _clamp_load(cut_info, space, -P / a, bounds, M)
        u_now = np.clip(-P / a, *bounds)
        d = u_now - u_prev
        diff = np.sqrt(np.einsum("i,i->", d, M @ d)) / sqrt_area
        history.append((it + 1, diff, *_relative_residuals(_block_rows(
            A, M, F1_base, F2_base, Y, P, load, solver.free))))
        if diff < FIXED_POINT_TOL:
            break
        u_prev = u_now

    return OcpSolution(Y=Y, P=P, iterations=len(history),
                       converged=diff < FIXED_POINT_TOL,
                       residual_state=history[-1][2],
                       residual_costate=history[-1][3],
                       control_diffs=[row[1] for row in history],
                       history=history, factor_nnz=solver.factor_nnz,
                       factor_s=solver.factor_s, order_s=solver.order_s)


def solve_constrained_ssn(mesh, cut_info, space, A, M, F1_base, F2_base, a,
                          bounds, ybc_values, max_iter=30, start=None):
    """Primal-dual active-set (semismooth Newton) solve of the clamped
    optimality system (Hintermueller, Ito & Kunisch 2002).

    Each step freezes the active set induced by the current co-state, as
    the mass M_I on the inactive set and the bound load b there
    (``_newton_terms`` of z = -P/a), and solves the resulting linear
    saddle system to SADDLE_TOL, the first at P0 of ``start`` = (Y0, P0)
    and from its free (y, p/sqrt(a)), else at and from zero.  The terms at
    the new co-state give both the step's stop and the next step's system:
    converged when both rows of the optimality system, with the exact
    clamp's load M_I(-P/a) + b, have residuals <= SADDLE_TOL.  The rows
    are measured as the next step's GMRES judges its start, so a step
    that fails the stop leaves that solve work to do.  On the box (-inf,
    inf), the problem without bounds, M_I is M and b zero: one step.
    """
    _check_control(a, bounds, max_iter)
    red = ReducedSolver(A, space)

    P = np.zeros(A.shape[0]) if start is None else start[1]
    M_inact, b_act = _newton_terms(cut_info, space, -P / a, bounds, M)
    x = None if start is None else _free_pair(red, *start, a)
    saddle_its, saddle_res, history = [], [], []
    for it in range(max_iter):
        P, Y, its, res = _solve_saddle(red, M_inact, M, F1_base + b_act,
                                       F2_base, a, ybc_values, x)
        # the next step starts from this one's (y, q)
        x = _free_pair(red, Y, P, a)
        saddle_its.append(its)
        saddle_res.append(res)
        M_inact, b_act = _newton_terms(cut_info, space, -P / a, bounds, M)
        residuals = _relative_residuals(_block_rows(
            A, M, F1_base + b_act, F2_base, Y, P, -(M_inact @ P) / a,
            red.free))
        history.append((it + 1, *residuals))
        if max(residuals) <= SADDLE_TOL:
            break

    return OcpSolution(Y=Y, P=P, iterations=len(history),
                       converged=max(residuals) <= SADDLE_TOL,
                       residual_state=residuals[0],
                       residual_costate=residuals[1], history=history,
                       saddle_iterations=saddle_its,
                       saddle_residuals=saddle_res, factor_nnz=red.factor_nnz,
                       factor_s=red.factor_s, order_s=red.order_s)
