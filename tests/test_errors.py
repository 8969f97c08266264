import numpy as np
import pytest

from nxfem_ocp.assembly import Load, assemble_load
from nxfem_ocp.errors import _ClampedLinearField, compute_errors
from nxfem_ocp.interface_geometry import CellTable
from nxfem_ocp.problems import PiecewiseField, build_example
from nxfem_ocp.solver import OcpSolution
from nxfem_ocp.study import discretize, solve_discretized
from nxfem_ocp.xfem_space import ExtendedSpace

from helpers import (build_smooth_problem, element_areas, hat_gradients,
                     interpolate_two_sided, tri_coords)


def interpolant_solution(problem, disc):
    P = interpolate_two_sided(disc.space, disc.cut_info.vertex_sign,
                              problem.p.side(1), problem.p.side(2))
    Y = interpolate_two_sided(disc.space, disc.cut_info.vertex_sign,
                              problem.y.side(1), problem.y.side(2))
    return OcpSolution(Y=Y, P=P)


def test_interpolant_error_on_uncut_mesh():
    problem = build_smooth_problem()
    disc = discretize(problem, 8)
    sol = interpolant_solution(problem, disc)
    rep = compute_errors(problem, sol, disc.mesh, disc.cut_info, disc.space)

    # jump terms vanish without cut elements: triple norm == broken H1
    for fld in ("u", "y", "p"):
        assert rep.fields[fld].triple == rep.fields[fld].h1

    # independent accumulation of the H1 interpolation error of y
    mesh = disc.mesh
    from nxfem_ocp.interface_geometry import triangle_rule
    bary, w = triangle_rule(4)
    acc = 0.0
    for e in range(mesh.num_triangles):
        coords = tri_coords(mesh, e)
        nodal = problem.y.side(2)(coords[:, 0], coords[:, 1])
        dg = nodal @ hat_gradients(mesh, e)
        pts = bary @ coords
        gx, gy = problem.grad_y.side(2)(pts[:, 0], pts[:, 1])
        acc += element_areas(mesh, e) * (w @ ((gx - dg[0]) ** 2
                                              + (gy - dg[1]) ** 2))
    assert rep.fields["y"].h1 == pytest.approx(np.sqrt(acc), rel=1e-12)


def test_zero_solution_has_unit_relative_error():
    problem = build_example(1)
    disc = discretize(problem, 8)
    sol = OcpSolution(Y=np.zeros(disc.space.n_dofs),
                      P=np.zeros(disc.space.n_dofs))
    rep = compute_errors(problem, sol, disc.mesh, disc.cut_info, disc.space)
    for fld in ("u", "y", "p"):
        assert rep.value(fld, "l2") == pytest.approx(1.0, rel=1e-12)
        assert rep.value(fld, "h1") == pytest.approx(1.0, rel=1e-12)


def test_triple_norm_dominates_h1():
    problem = build_example(1)
    disc = discretize(problem, 16)
    sol = solve_discretized(problem, disc)
    rep = compute_errors(problem, sol, disc.mesh, disc.cut_info, disc.space)
    for fld in ("u", "y", "p"):
        fe = rep.fields[fld]
        assert fe.triple >= fe.h1
        assert fe.exact_triple >= fe.exact_h1


def test_reference_state_h1_value_and_control_rate():
    # segment benchmark, N=64: relative H1 state error tabulated as 2.5486e-02
    problem = build_example(1)
    reports = {}
    for n in (16, 32, 64):
        disc = discretize(problem, n)
        sol = solve_discretized(problem, disc)
        reports[n] = compute_errors(problem, sol, disc.mesh, disc.cut_info,
                                    disc.space)
    assert reports[64].value("y", "h1") == pytest.approx(2.5486e-02, rel=0.02)
    # coarse-row anchor of the L2 state error (8.7667e-03 in the reference
    # table; small offsets from the unspecified cell diagonal are expected)
    assert reports[16].value("y", "l2") == pytest.approx(8.7667e-03, rel=0.10)
    # the unconstrained control converges at first order in the
    # mesh-dependent norm, like the state and co-state
    for fld in ("u", "y", "p"):
        eoc = np.log2(reports[32].value(fld, "triple")
                      / reports[64].value(fld, "triple"))
        assert 0.85 <= eoc <= 1.15


def test_reference_constrained_control_value():
    # constrained circle benchmark, N=32: relative L2 control error
    # tabulated as 1.7953e-02; cut-pattern differences stay within factor 2
    problem = build_example(2)
    disc = discretize(problem, 32)
    sol = solve_discretized(problem, disc)
    rep = compute_errors(problem, sol, disc.mesh, disc.cut_info, disc.space)
    assert sol.converged
    ratio = rep.value("u", "l2") / 1.7953e-02
    assert 0.5 <= ratio <= 2.0


def test_absolute_vs_relative_convention():
    rel_problem = build_example(2)
    abs_problem = build_example(3)
    disc = discretize(abs_problem, 8)
    sol = solve_discretized(abs_problem, disc)
    rep = compute_errors(abs_problem, sol, disc.mesh, disc.cut_info,
                         disc.space)
    fe = rep.fields["y"]
    assert rep.value("y", "l2") == fe.l2          # absolute convention
    assert rel_problem.relative_errors and not abs_problem.relative_errors


def test_loads_and_error_norms_share_the_kink_rule(monkeypatch):
    # small batches, so that each side has several
    monkeypatch.setattr(CellTable, "BATCH", 256)
    problem = build_example(2)
    refined, straddles = CellTable.refined, _ClampedLinearField.straddles
    calls, tested = [], []

    def record(cells, needs_refine):
        before = len(tested)
        leaves = refined(cells, needs_refine)
        calls.append((int(cells.side[0]), len(cells), len(tested) > before,
                      leaves))
        return leaves

    def straddle_test(field, space, cells):
        tested.append(len(cells))
        return straddles(field, space, cells)

    monkeypatch.setattr(CellTable, "refined", record)
    monkeypatch.setattr(_ClampedLinearField, "straddles", straddle_test)
    disc = discretize(problem, 32)
    loads = calls[:]
    batches = [(side, len(part)) for side in (1, 2) for part in
               disc.cut_info.integration_cells(disc.mesh, side).batches()]
    assert len(batches) >= 6
    args = (disc.mesh, disc.cut_info, disc.space)
    zero = np.zeros(disc.space.n_dofs)
    runs = {}
    for name, sol in (("solution", solve_discretized(problem, disc)),
                      ("zero", OcpSolution(Y=zero, P=zero))):
        calls.clear()
        compute_errors(problem, sol, *args)
        runs[name] = calls[:]
    # one refinement per batch and side; the error norms also split where
    # the discrete control straddles a bound
    assert [c[:3] for c in loads] == [(*b, False) for b in batches]
    for run in runs.values():
        assert [c[:3] for c in run] == [(*b, True) for b in batches]
    # -0/a lies inside the box everywhere: the same leaves as the loads'
    for (*_, mine), (*_, theirs) in zip(runs["zero"], loads):
        assert np.array_equal(mine.parent, theirs.parent)
        assert np.array_equal(mine.coords, theirs.coords)
    # the computed control's kink is not the exact one: more leaves
    assert sum(len(c[3]) for c in runs["solution"]) \
        > sum(len(c[3]) for c in loads)


def recording_rule(monkeypatch):
    """The cells of every ``ExtendedSpace.rule`` call from now on."""
    calls, rule = [], ExtendedSpace.rule

    def recorded(space, cells):
        calls.append(cells)
        return rule(space, cells)
    monkeypatch.setattr(ExtendedSpace, "rule", recorded)
    return calls


def test_loads_and_error_norms_integrate_bounded_batches(monkeypatch):
    # the kink rule's leaves of a batch are cut again to the batch bound,
    # which bounds the per-point temporaries of both passes; the leaves of
    # a batch used to be integrated as one piece
    monkeypatch.setattr(CellTable, "BATCH", 256)
    problem = build_example(2)
    disc = discretize(problem, 32)
    sol = solve_discretized(problem, disc)
    args = (disc.mesh, disc.cut_info, disc.space)
    cells = sum(len(disc.cut_info.integration_cells(disc.mesh, side))
                for side in (1, 2))
    calls = recording_rule(monkeypatch)
    assemble_load(*args, Load(problem.f, problem.g, 1.0),
                  Load(problem.y_d, problem.g_adj, -1.0),
                  kinks=problem.kink_rule(disc.mesh))
    loads = calls[:]
    calls.clear()
    compute_errors(problem, sol, *args)
    for run in (loads, calls):
        assert sum(map(len, run)) > cells          # the kink rule split
        assert max(map(len, run)) <= 256


def test_error_norms_take_one_rule_and_one_jet_per_batch(monkeypatch):
    # u, y and p share each batch's rule and jet, so every side's cells
    # are integrated once; a batch that the kink touched used to take a
    # second rule and jet for u's leaves
    monkeypatch.setattr(CellTable, "BATCH", 256)
    problem = build_example(2)
    disc = discretize(problem, 32)
    sol = solve_discretized(problem, disc)
    shapes, jet = [], problem.jet

    def counted(m):
        def side(x, y, lap=False):
            shapes.append(x.shape)
            return jet.side(m)(x, y, lap)
        return side

    problem.jet = PiecewiseField(counted(1), counted(2))
    calls = recording_rule(monkeypatch)
    compute_errors(problem, sol, disc.mesh, disc.cut_info, disc.space)
    # the rules' cells tile the domain [-1, 1]^2 once
    assert sum(c.areas().sum() for c in calls) == pytest.approx(4.0,
                                                                rel=1e-12)
    assert all(len(np.unique(c.side)) == 1 for c in calls)
    # one jet at the 6 points of each rule; the kink rule samples z at 7
    # points a cell, and the chords' rule has 3 points
    assert [s for s in shapes if s[1:] == (6,)] \
        == [(len(c), 6) for c in calls]
