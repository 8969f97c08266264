"""Linear solves and optimal-control drivers.

The unconstrained problem is solved as one 2x2 block system in (state,
co-state); the box-constrained problem by the projected fixed-point
iteration (state solve, co-state solve, clamp update) or, alternatively, by
a primal-dual active-set / semismooth Newton loop.  The control never gets
its own unknowns: it is the pointwise clamp of -p/a (Hinze's variational
discretization).  For P1 co-states -p/a is linear on every integration
cell, so the clamp's kinks are straight: the cells are clipped exactly at
both bounds (``CellTable.clip``), and on every piece the control is a
bound or -p/a, which a degree-2 rule integrates exactly against hats and
hat products.  Every reader of the control goes through one
``ControlClamp``, which holds the cells and is built once per solve.

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

Every sparse factorization (S, or A, whose one factor every inner solve
of the fixed point shares) takes one path: a geometric nested-dissection
order of the free dofs (George 1973) on fixed halving boxes, computed by
one sort once per Dirichlet reduction from A's own pattern, the matrix's
free/free block (the one block ever split), and a symmetric factor
without pivoting, whose pivots give the inertia.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import _assemble, _hat_blocks, _hat_load
from .interface_geometry import (VOLUME_DEGREE, CellTable, ElementClass,
                                 triangle_rule)
from .mesh import ConfigurationError

__all__ = ["SolverError", "OcpSolution", "ReducedSolver", "ControlClamp",
           "solve_unconstrained_ocp", "solve_constrained_fixed_point",
           "solve_constrained_ssn"]


class SolverError(RuntimeError):
    """Factorization failure or iterative non-convergence."""


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
    # one row per iteration: (sweep, control_diff, residual_state,
    # residual_costate), or for Newton (step, status changes, -1 at first)
    history: list = field(default_factory=list)
    # one entry per saddle solve (the unconstrained solve or a Newton step):
    # GMRES iterations and the relative true residuals of both block rows
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
    matrix that is split is the one that is factored (``_free_block``)."""

    def __init__(self, A, space):
        self.A = A
        self.constrained = np.asarray(space.dirichlet_dofs, dtype=np.int64)
        mask = np.zeros(A.shape[0], dtype=bool)
        mask[self.constrained] = True
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
        position[self.free] = np.arange(len(self.free))
        position[self.constrained] = -1
        cut = space.mesh.triangles[space.classes == int(ElementClass.CUT)]
        self._cut_dofs = position[np.concatenate([space.dof1[cut],
                                                  space.dof2[cut]], axis=1)]
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
        and no permuted copy of B or of a vector is made.  U's diagonal
        holds the pivots of B = L D L^T, and by Sylvester's law of inertia
        the non-positive pivots count B's non-positive eigenvalues.  Reading
        U makes scipy keep CSC copies of L and U as large as the factor, so
        the pivots are counted, and SolverError raised, only once B is
        shown not to be positive definite: by its principal block on some
        cut element, where a too small interface penalty shows.
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
        if not self._cut_blocks_definite(B):
            bad = np.count_nonzero(lu.U.diagonal() <= 0.0)
            if bad:
                raise SolverError(f"matrix is not positive definite: {bad} "
                                  "non-positive pivots")
        self.factor_nnz = lu.nnz
        dtype = B.dtype
        return lambda b: lu.solve(b.astype(dtype, copy=False), trans="T")

    def _cut_blocks_definite(self, B, on_free=True):
        """Whether the principal blocks of B on the free dofs of every cut
        element are positive definite, as they are if B is: B on the free
        dofs in elimination order or, unless ``on_free``, on all dofs (A)."""
        dofs = self._cut_dofs
        if len(dofs) == 0:
            return True
        free = dofs >= 0
        i = np.where(free, dofs if on_free else self.free[dofs], 0)
        blocks = np.asarray(B[np.repeat(i, 6, axis=1).ravel(),
                              np.tile(i, (1, 6)).ravel()]).reshape(-1, 6, 6)
        blocks = np.where(free[:, :, None] & free[:, None, :], blocks,
                          np.eye(6))
        try:
            np.linalg.cholesky(blocks)
        except np.linalg.LinAlgError:
            return False
        return True

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
        # at small a, S can be definite where A is not
        if not red._cut_blocks_definite(A, on_free=False):
            raise SolverError("stiffness matrix is not positive definite on "
                              "the cut elements: the interface penalty "
                              "lambda_coef / h is too small")
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


def _check_control(a, bounds, max_iter=1):
    """Raise ConfigurationError unless the regularization weight is positive
    and finite, the box (lo, hi) holds a finite control and at least one
    iteration is allowed: the one check of every driver's input."""
    if bounds is None:
        raise ConfigurationError("no control box (lo, hi): bounds=None")
    lo, hi = bounds
    if not (np.isfinite(a) and a > 0.0):
        raise ConfigurationError(
            f"regularization weight must be positive and finite, got {a}")
    if np.isnan(lo) or np.isnan(hi) or lo == np.inf or hi == -np.inf:
        raise ConfigurationError(
            f"control box [{lo}, {hi}] admits no finite control")
    if not lo <= hi:
        raise ConfigurationError(f"empty control box [{lo}, {hi}]")
    if not max_iter >= 1:
        raise ConfigurationError(
            f"max_iter must be at least 1, got {max_iter}")


def solve_unconstrained_ocp(A, M, F1, F2, a, space, ybc_values):
    """Coupled optimality system without control bounds: the control is
    eliminated via u = -p/a and the saddle system with M_I = M is solved
    by PRESB-preconditioned GMRES.  ``space`` is the ExtendedSpace of the
    matrices: its Dirichlet dofs and dof positions."""
    _check_control(a, (-np.inf, np.inf))
    red = ReducedSolver(A, space)
    P, Y, its, res = _solve_saddle(red, M, M, F1, F2, a, ybc_values)
    return OcpSolution(Y=Y, P=P, a=a, bounds=None, U=-P / a,
                       residual_state=res[0], residual_costate=res[1],
                       saddle_iterations=[its], saddle_residuals=[res],
                       factor_nnz=red.factor_nnz, factor_s=red.factor_s,
                       order_s=red.order_s)


# ---------------------------------------------------------------------------
# box-constrained drivers
# ---------------------------------------------------------------------------

class ControlClamp:
    """The control clamp(-p/a) for co-states P of an extended space: the
    one reader of it, built once per solve.

    It holds what does not depend on P: the integration cells, the map
    from a dof vector to its values at the cells' vertices and the weights
    of the degree-VOLUME_DEGREE points of the cells.  -p/a is linear on
    every cell, so the cells are clipped exactly at both bounds
    (``pieces``), and on every piece the control is lo, -p/a or hi, which
    the degree-2 rule integrates exactly against hats and hat products
    (``load``, ``newton_terms``).
    """

    def __init__(self, mesh, cut_info, space, a, bounds):
        _check_control(a, bounds)
        self.mesh, self.space, self.a, self.bounds = mesh, space, a, bounds
        self.cells = cut_info.integration_cells(mesh)
        self._sampler = space.cell_sampler(self.cells)
        self._bary, w = triangle_rule(VOLUME_DEGREE)
        self.weights = np.outer(self.cells.areas(), w).ravel()
        self._P = self._z = None

    def vertex_values(self, P):
        """-P/a at the vertices (C, 3) of every cell.  The pieces and the
        samples of a co-state read the same values, so those of the last P
        are kept; P is never changed in place."""
        if P is not self._P:
            self._P, self._z = P, self._sampler(-P / self.a)
        return self._z

    def pieces(self, P):
        """The cells clipped at both bounds: the pieces, the index of the
        cell each comes from, and the control's status on each: -1 (lo),
        0 (-p/a) or 1 (hi).  Where -p/a equals a bound the control counts
        as clamped (the upper clip is of p/a at -hi)."""
        lo, hi = self.bounds
        pieces, zp, up, source, _ = self.cells.clip(self.vertex_values(P), lo)
        rest, _, inside, src, _ = pieces[up].clip(-zp[up], -hi)
        return (CellTable.concat(pieces[~up], rest),
                np.concatenate([source[~up], source[up][src]]),
                np.concatenate([np.full(np.count_nonzero(~up), -1),
                                np.where(inside, 0, 1)]))

    def _rule(self, P):
        """Weights (K, 3), parent barycentrics (K, 3, 3), dofs (K, 3) and
        control values (K, 3) of the degree-2 rule on the K pieces, and
        their status."""
        lo, hi = self.bounds
        pieces, _, status = self.pieces(P)
        _, w, lam, dofs, _ = self.space.rule(pieces, 2)
        u = np.einsum("cqi,ci->cq", lam, -P[dofs] / self.a)
        u[status < 0] = lo
        u[status > 0] = hi
        return w, lam, dofs, u, status

    def load(self, P):
        """Inner products of the control with all basis functions."""
        w, lam, dofs, u, _ = self._rule(P)
        return _hat_load(self.space.n_dofs, dofs, w, lam, u)

    def newton_terms(self, P):
        """The mass matrix on the inactive set (status 0) and the load of
        the control on the active set."""
        w, lam, dofs, u, status = self._rule(P)
        free = status == 0
        M_inact = _assemble(self.space,
                            _hat_blocks(dofs[free], w[free], lam[free]))
        return M_inact, _hat_load(self.space.n_dofs, dofs[~free], w[~free],
                                  lam[~free], u[~free])

    def _at_points(self, P):
        return (self.vertex_values(P) @ self._bary.T).ravel()

    def samples(self, P):
        """The control at the degree-VOLUME_DEGREE points of every cell,
        whose weights are ``weights``."""
        return np.clip(self._at_points(P), *self.bounds)

    def status(self, P):
        """The control's status at the points of ``samples``: -1 (lo), 0
        (-p/a) or 1 (hi)."""
        lo, hi = self.bounds
        z = self._at_points(P)
        return np.where(z <= lo, -1, np.where(z >= hi, 1, 0))


def _control_load(mesh, cut_info, space, P, a, bounds):
    """Inner products of clamp(-p/a) with all basis functions."""
    return ControlClamp(mesh, cut_info, space, a, bounds).load(P)


FIXED_POINT_TOL = 1e-10   # the fixed point's stop on the control update


def solve_constrained_fixed_point(mesh, cut_info, space, A, M, F1_base,
                                  F2_base, a, bounds, ybc_values,
                                  max_iter=200):
    """Projected fixed-point iteration for box-constrained control.

    Per sweep: state solve with the current control, co-state solve (both
    with the one factor of A), clamp update.  Stops when the
    quadrature-sampled L2 norm of the control update, normalized by
    sqrt(domain area), drops below FIXED_POINT_TOL.  Returns a flagged (not
    raised) result when ``max_iter`` is exhausted.
    """
    _check_control(a, bounds, max_iter)
    clamp = ControlClamp(mesh, cut_info, space, a, bounds)
    solver = ReducedSolver(A, space)
    x0, x1, y0, y1 = mesh.domain
    sqrt_area = np.sqrt((x1 - x0) * (y1 - y0))

    load = np.zeros(space.n_dofs)
    u_prev = 0.0
    history = []
    for it in range(max_iter):
        Y = solver.solve(F1_base + load, ybc_values)
        P = solver.solve(F2_base + M @ Y)
        # the load induced by the updated control doubles as the residual
        # probe and as next sweep's state load
        load = clamp.load(P)
        u_now = clamp.samples(P)
        diff = np.sqrt(np.sum(clamp.weights * (u_now - u_prev) ** 2)) \
            / sqrt_area
        history.append((it + 1, diff, *_relative_residuals(_block_rows(
            A, M, F1_base, F2_base, Y, P, load, solver.free))))
        if diff < FIXED_POINT_TOL:
            break
        u_prev = u_now

    return OcpSolution(Y=Y, P=P, a=a, bounds=bounds, iterations=len(history),
                       converged=diff < FIXED_POINT_TOL,
                       residual_state=history[-1][2],
                       residual_costate=history[-1][3],
                       control_diffs=[row[1] for row in history],
                       history=history, factor_nnz=solver.factor_nnz,
                       factor_s=solver.factor_s, order_s=solver.order_s)


def solve_constrained_ssn(mesh, cut_info, space, A, M, F1_base, F2_base, a,
                          bounds, ybc_values, max_iter=30):
    """Primal-dual active-set (semismooth Newton) solve of the clamped
    optimality system.

    Each step freezes the active set induced by the current co-state and
    solves the resulting linear saddle system to SADDLE_TOL; convergence is
    declared when the control's status at the quadrature points stops
    changing.
    """
    _check_control(a, bounds, max_iter)
    clamp = ControlClamp(mesh, cut_info, space, a, bounds)
    red = ReducedSolver(A, space)

    P = np.zeros(A.shape[0])
    x = status = None
    saddle_its, saddle_res, history = [], [], []
    for it in range(max_iter):
        M_inact, b_act = clamp.newton_terms(P)
        P, Y, its, res = _solve_saddle(red, M_inact, M, F1_base + b_act,
                                       F2_base, a, ybc_values, x)
        # the next step starts from this one's (y, q)
        x = np.concatenate([Y[red.free], P[red.free] / np.sqrt(a)])
        saddle_its.append(its)
        saddle_res.append(res)
        prev, status = status, clamp.status(P)
        changed = (-1 if prev is None
                   else int(np.count_nonzero(status != prev)))
        history.append((it + 1, changed))
        if changed == 0:
            break

    r1, r2 = _relative_residuals(_block_rows(
        A, M, F1_base, F2_base, Y, P, clamp.load(P), red.free))
    return OcpSolution(Y=Y, P=P, a=a, bounds=bounds, iterations=len(history),
                       converged=changed == 0, residual_state=r1,
                       residual_costate=r2, history=history,
                       saddle_iterations=saddle_its,
                       saddle_residuals=saddle_res, factor_nnz=red.factor_nnz,
                       factor_s=red.factor_s, order_s=red.order_s)
