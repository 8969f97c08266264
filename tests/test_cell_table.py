"""The batched integration-cell and chord tables against the per-element
loops they replace (``oracles.py``): matrices, loads and every error norm
agree to rounding, on the benchmark geometries and on awkward cuts.  The
clamped-control integrals on the cells clipped at the bounds agree with an
exact polygon clipping to rounding, and with the refined loops they
replace to within those loops' own quadrature error."""

import numpy as np
import pytest

from nxfem_ocp.assembly import (Load, assemble_load, assemble_mass,
                                assemble_stiffness)
from nxfem_ocp.errors import compute_errors
from nxfem_ocp.interface_geometry import (CellTable, ElementClass,
                                          build_cut_info, circle_interface,
                                          line_interface)
from nxfem_ocp.mesh import build_uniform_mesh
from nxfem_ocp.problems import PiecewiseField, build_example
from nxfem_ocp.solver import ControlClamp, OcpSolution
from nxfem_ocp.xfem_space import ExtendedSpace

from helpers import (element_areas, interpolate_two_sided, mesh_from_arrays,
                     tri_coords)
from oracles import (clipped_control_integrals, loop_active_mass_and_load,
                     loop_control_at_quadrature, loop_control_load,
                     loop_cut_info, loop_errors, loop_integration_cells,
                     loop_load, loop_mass, loop_stiffness)

RTOL = 1e-12

# (example, level set replacing the example's own, label)
GEOMETRIES = {
    "ex1": (1, None),
    "ex2": (2, None),
    # vertices (+-1/2, 0), (0, +-1/2) lie on the circle: grazing cuts
    "ex3": (3, None),
    # the circle passes 3e-4 from the vertex (1/2, 0): sliver fractions
    "ex2-near-vertex": (2, circle_interface(0.5, center=(3e-4, 0.0))),
    # the line y = x runs along mesh edges through every diagonal vertex
    "ex1-along-edges": (1, line_interface(1.0, 0.0)),
}
# a control box laid on an unbounded example: (geometry, box)
BOXED = {"ex1-box": ("ex1", (-0.3, 0.3))}
CASES = [(g, n) for g in ("ex1", "ex2", "ex3", "ex1-box") for n in (16, 32)] \
    + [("ex2-near-vertex", 16), ("ex1-along-edges", 16)]


def setup(label, n):
    label, bounds = BOXED.get(label, (label, None))
    example, levelset = GEOMETRIES[label]
    problem = build_example(example)
    if levelset is not None:
        problem.levelset = levelset
    if bounds is not None:
        problem.bounds = bounds
    mesh = build_uniform_mesh(problem.domain, n)
    info = build_cut_info(mesh, problem.levelset)
    return problem, mesh, info, ExtendedSpace(mesh, info)


def assert_close(new, old):
    new, old = np.asarray(new), np.asarray(old)
    assert np.abs(new - old).max() <= RTOL * np.abs(old).max()


def assert_on_space_pattern(matrix, space):
    """The matrix shares the index arrays of the space's one pattern."""
    indptr, indices = space.pattern
    assert np.shares_memory(matrix.indptr, indptr)
    assert np.shares_memory(matrix.indices, indices)


@pytest.mark.parametrize("label, n", CASES)
def test_matrices_and_loads_match_element_loops(label, n):
    problem, mesh, info, space = setup(label, n)
    args = (mesh, info, space, problem.alpha1, problem.alpha2,
            problem.lambda_coef)
    A, M = assemble_stiffness(*args), assemble_mass(mesh, info, space)
    assert_close(A.toarray(), loop_stiffness(*args).toarray())
    assert_close(M.toarray(), loop_mass(mesh, info, space).toarray())
    # one pattern: M stores zeros where A couples the two sides' copies of
    # a cut element's dofs, and nowhere else
    for matrix in (A, M):
        assert_on_space_pattern(matrix, space)
    rows = np.repeat(np.arange(space.n_dofs), np.diff(M.indptr))
    zero = M.data == 0.0
    sides = np.sort([space.dof_side[rows[zero]],
                     space.dof_side[M.indices[zero]]], axis=0)
    assert (zero.any() == (len(info.cut_elements) > 0)
            and (sides == [[1], [2]]).all())
    refine = problem.load_refine(mesh, info)
    assert (refine is not None) == (problem.bounds is not None)
    # both right-hand sides of the mesh from one pass over its cells
    F1, F2 = assemble_load(mesh, info, space, *base_loads(problem, refine))
    assert_close(
        F1, loop_load(mesh, info, space, f=problem.f, g=problem.g,
                      refine=refine))
    assert_close(F2, loop_load(mesh, info, space, f=negated(problem.y_d),
                               g=problem.g_adj))


def base_loads(problem, refine):
    """The state and adjoint right-hand sides, as ``discretize`` asks."""
    return (Load(problem.f, problem.g, refine, 1.0),
            Load(problem.y_d, problem.g_adj, None, -1.0))


def negated(field):
    return PiecewiseField(lambda x, y: -field.side(1)(x, y),
                          lambda x, y: -field.side(2)(x, y))


@pytest.mark.parametrize("label, n", [(g, n) for g in ("ex1", "ex2", "ex3")
                                      for n in (16, 32)])
def test_one_pass_loads_equal_one_load_calls(label, n):
    # each right-hand side of the shared pass is bitwise the one its own
    # pass gives; the signed adjoint load is bitwise the load of the
    # negated target, negation being exact
    problem, mesh, info, space = setup(label, n)
    loads = base_loads(problem, problem.load_refine(mesh, info))
    together = assemble_load(mesh, info, space, *loads)
    for vec, load in zip(together, loads):
        alone, = assemble_load(mesh, info, space, load)
        assert np.array_equal(vec, alone)
    plain, = assemble_load(mesh, info, space, Load(
        negated(problem.y_d), problem.g_adj, None, 1.0))
    assert np.array_equal(together[1], plain)


@pytest.mark.parametrize("label", ["ex1", "ex3"])
def test_one_jet_per_batch_and_side(label, monkeypatch):
    # small batches, so that each side has several
    monkeypatch.setattr(CellTable, "BATCH", 200)
    problem, mesh, info, space = setup(label, 32)
    calls, jets = [], problem.jet

    def counted(m):
        def jet(x, y, lap=False):
            calls.append((m, x.shape, lap))
            return jets.side(m)(x, y, lap)
        return jet

    problem.jet = PiecewiseField(counted(1), counted(2))
    batches = [(side, (len(part), 6)) for side in (1, 2)
               for part in info.integration_cells(mesh, side).batches()]
    assert len(batches) >= 6
    chords = info.chords.quadrature(mesh)[0].shape[:2]
    # the loads read f and y_d off one jet with Laplacians per batch; each
    # interface flux evaluates both sides' gradients on the chords
    assemble_load(mesh, info, space, *base_loads(problem, None))
    assert calls == [(m, shape, True) for m, shape in batches] \
        + [(m, chords, False) for m in (1, 2, 1, 2)]
    # the norms of u, y and p read one jet per batch, and one per side on
    # the chords
    calls.clear()
    sol = OcpSolution(Y=np.zeros(space.n_dofs), P=np.zeros(space.n_dofs),
                      a=problem.a, bounds=None)
    compute_errors(problem, sol, mesh, info, space)
    assert calls == [(m, shape, False) for m, shape in batches] \
        + [(m, chords, False) for m in (1, 2)]


@pytest.mark.parametrize("label, n", CASES)
def test_error_norms_match_element_loops(label, n):
    problem, mesh, info, space = setup(label, n)
    # perturbed interpolants: the discrete clamp kinks away from the exact
    # ones, so both refinement triggers fire on the bounded example
    rng = np.random.default_rng(n)
    fields = {}
    for name in ("Y", "P"):
        exact = getattr(problem, name.lower())
        vec = interpolate_two_sided(space, info.vertex_sign, exact.side(1),
                                    exact.side(2))
        fields[name] = vec * (1.0 + 0.05 * rng.standard_normal(len(vec)))
    sol = OcpSolution(Y=fields["Y"], P=fields["P"], a=problem.a,
                      bounds=problem.bounds)
    new = compute_errors(problem, sol, mesh, info, space)
    old = loop_errors(problem, sol, mesh, info, space)
    for fld in ("u", "y", "p"):
        for attr in ("l2", "h1", "triple", "exact_l2", "exact_h1",
                     "exact_triple"):
            a = getattr(new.fields[fld], attr)
            b = getattr(old.fields[fld], attr)
            assert a == pytest.approx(b, rel=RTOL, abs=0.0), (fld, attr)


@pytest.mark.parametrize("label", sorted(GEOMETRIES))
def test_integration_cells_follow_the_element_walk(label):
    problem, mesh, info, _ = setup(label, 16)
    cells = info.integration_cells(mesh)
    walk = loop_integration_cells(mesh, info)
    assert cells.parent.tolist() == [e for e, _, _ in walk]
    assert cells.side.tolist() == [s for _, s, _ in walk]
    assert np.array_equal(cells.coords, np.array([t for _, _, t in walk]))
    for side in (1, 2):
        part = info.integration_cells(mesh, side)
        assert np.array_equal(part.parent, cells.parent[cells.side == side])
    # the sides tile every element
    e0, e1 = cells.coords[:, 1] - cells.coords[:, 0], \
        cells.coords[:, 2] - cells.coords[:, 0]
    area = 0.5 * np.abs(e0[:, 0] * e1[:, 1] - e0[:, 1] * e1[:, 0])
    tiled = np.bincount(cells.parent, area, minlength=mesh.num_triangles)
    assert np.allclose(tiled, element_areas(mesh, np.arange(len(tiled))),
                       rtol=1e-12, atol=0.0)
    cut = info.classes == int(ElementClass.CUT)
    assert np.array_equal(np.flatnonzero(cut), info.chords.element)


def test_chord_table_stacks_the_cut_geometry():
    problem, mesh, info, _ = setup("ex2", 16)
    ch = info.chords
    _, cuts = loop_cut_info(mesh, problem.levelset)
    assert len(ch.element) == len(cuts) > 0
    for i, e in enumerate(ch.element):
        cg = cuts[int(e)]
        assert np.array_equal(ch.q1[i], cg.q1)
        assert np.array_equal(ch.q2[i], cg.q2)
        assert np.array_equal(ch.normal[i], cg.normal)
        assert (ch.k1[i], ch.k2[i]) == (cg.k1, cg.k2)
        coords = tri_coords(mesh, int(e))
        assert ch.h[i] == max(np.linalg.norm(coords[j] - coords[j - 1])
                              for j in range(3))


def test_batched_barycentric_matches_single_element():
    mesh = build_uniform_mesh((0, 1, 0, 1), 8)
    rng = np.random.default_rng(3)
    parents = rng.integers(0, mesh.num_triangles, size=5)
    pts = rng.random((5, 4, 2))
    batched = mesh.barycentric(parents, pts)
    assert batched.shape == (5, 4, 3)
    for i, e in enumerate(parents):
        assert np.allclose(batched[i], mesh.barycentric(e, pts[i]),
                           rtol=0.0, atol=1e-14)


# (vertex values of -p/a, bounds): where the bounds cut a single cell
CLIP_CASES = {
    "through-a-vertex": ((0.5, -1.0, 2.0), (0.5, 1.5)),
    "along-an-edge": ((0.5, 0.5, 2.0), (0.5, 1.0)),
    "touching-vertices": ((-1.0, 0.5, 2.0), (-1.0, 2.0)),
    "through-edges": ((-1.0, 0.5, 2.0), (0.0, 1.0)),
    "missing-inactive": ((-1.0, 0.5, 2.0), (-3.0, 3.0)),
    "missing-below": ((-1.0, 0.5, 2.0), (3.0, 4.0)),
    "missing-above": ((-1.0, 0.5, 2.0), (-5.0, -4.0)),
}


def single_cell(cut, z, a=0.5):
    """One triangle, whole or cut by the line y = x - 1/2, and the co-state
    whose -p/a takes the values z at its vertices (reversed on side 2)."""
    mesh = mesh_from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    levelset = (line_interface(1.0, -0.5) if cut
                else circle_interface(1.0, center=(10.0, 10.0)))
    info = build_cut_info(mesh, levelset)
    assert (info.classes[0] == ElementClass.CUT) == cut
    space = ExtendedSpace(mesh, info)
    P = np.zeros(space.n_dofs)
    P[space.dof2] = -a * np.asarray(z)[::-1]
    P[space.dof1] = -a * np.asarray(z)
    return mesh, info, space, P, a


@pytest.mark.parametrize("cut", [False, True], ids=["whole", "cut"])
@pytest.mark.parametrize("case", sorted(CLIP_CASES))
def test_clamp_integrals_on_single_cells_match_polygon_clipping(case, cut):
    z, bounds = CLIP_CASES[case]
    mesh, info, space, P, a = single_cell(cut, z)
    args = (mesh, info, space, P, a, bounds)
    load, M_inact, b_act = clipped_control_integrals(*args)
    clamp = ControlClamp(mesh, info, space, a, bounds)
    M, b = clamp.newton_terms(P)
    assert np.abs(clamp.load(P) - load).max() <= 1e-13
    assert np.abs(M.toarray() - M_inact.toarray()).max() <= 1e-13
    assert np.abs(b - b_act).max() <= 1e-13


def clamp_setup(example, n):
    """An example's mesh and the interpolated exact co-state, clamped at
    example 2's box (the upper bound only is reached on example 1): the
    arguments of the oracles."""
    problem = build_example(example)
    mesh = build_uniform_mesh(problem.domain, n)
    info = build_cut_info(mesh, problem.levelset)
    space = ExtendedSpace(mesh, info)
    P = interpolate_two_sided(space, info.vertex_sign, problem.p.side(1),
                              problem.p.side(2))
    return mesh, info, space, P, problem.a, (-0.5, 0.5)


def clamp_of(mesh, info, space, P, a, bounds):
    """The clamp of the oracles' arguments, and their co-state."""
    return ControlClamp(mesh, info, space, a, bounds), P


CLAMP_CASES = [(ex, n) for ex in (1, 2, 3) for n in (16, 32)]


@pytest.mark.parametrize("example, n", CLAMP_CASES)
def test_clamp_integrals_match_exact_clipping(example, n):
    args = clamp_setup(example, n)
    load, M_inact, b_act = clipped_control_integrals(*args)
    clamp, P = clamp_of(*args)
    M, b = clamp.newton_terms(P)
    assert_on_space_pattern(M, args[2])
    assert_close(clamp.load(P), load)
    assert_close(M.toarray(), M_inact.toarray())
    assert_close(b, b_act)


@pytest.mark.parametrize("example, n", CLAMP_CASES)
def test_refined_clamp_loops_converge_to_the_clipped_integrals(example, n):
    # the loops refine kink cells to a depth; their error shrinks with it
    args = clamp_setup(example, n)
    clamp, P = clamp_of(*args)
    M, b = clamp.newton_terms(P)
    exact = (clamp.load(P), M.toarray(), b)
    gaps = []
    for depth in (2, 3):
        M_d, b_d = loop_active_mass_and_load(*args, depth=depth)
        loops = (loop_control_load(*args, depth=depth), M_d.toarray(), b_d)
        gaps.append([np.linalg.norm(old - new) / np.linalg.norm(new)
                     for old, new in zip(loops, exact)])
    assert all(g3 < g2 / 1.5 for g2, g3 in zip(*gaps))
    # the load: a kink of a continuous field; the inactive mass and the
    # active load jump at the kink, so the loops' rule is first order there
    assert gaps[1][0] <= 1e-5
    assert max(gaps[1][1:]) <= 5e-3


def test_control_samples_match_the_element_loop():
    mesh, info, space, P, a, bounds = clamp_setup(3, 16)
    for lim in (bounds, (-np.inf, np.inf)):
        clamp = ControlClamp(mesh, info, space, a, lim)
        vals, w = clamp.samples(P), clamp.weights
        ref_vals, ref_w = loop_control_at_quadrature(mesh, info, space, P, a,
                                                     lim)
        # the status marks the samples at a bound
        status = clamp.status(P)
        assert np.array_equal(status < 0, vals == lim[0])
        assert np.array_equal(status > 0, vals == lim[1])
        # the same points, in element order rather than side by side
        assert np.allclose(np.sort(vals), np.sort(ref_vals), rtol=0.0,
                           atol=1e-14)
        assert np.allclose(np.sort(w), np.sort(ref_w), rtol=1e-13, atol=0.0)
        assert w.sum() == pytest.approx(4.0, rel=1e-13)


@pytest.mark.parametrize("label", sorted(GEOMETRIES))
def test_clip_splits_cells_into_pieces_on_each_side(label):
    _, mesh, info, space = setup(label, 16)
    cells = info.integration_cells(mesh)
    vec = np.random.default_rng(5).standard_normal(space.n_dofs)
    z = space.cell_sampler(cells)(vec)
    # a level at a vertex value puts vertices exactly on the line, and
    # at a cell's lowest value touches that cell at a vertex only
    for level in (0.1, float(z[7, 1]), float(z[7].min()), np.inf):
        pieces, values, above, source, chords = cells.clip(z, level)
        assert np.array_equal(source, np.sort(source))
        assert np.array_equal(pieces.parent, cells.parent[source])
        assert np.array_equal(pieces.side, cells.side[source])
        # the pieces tile every cell (slivers to the rounding of their
        # element's area), and keep its orientation
        area = np.bincount(source, pieces.areas(), minlength=len(cells))
        assert np.abs(area - cells.areas()).max() \
            <= 1e-12 * cells.areas().max()
        c = pieces.coords
        e0, e1 = c[:, 1] - c[:, 0], c[:, 2] - c[:, 0]
        assert (e0[:, 0] * e1[:, 1] - e0[:, 1] * e1[:, 0]).min() >= 0.0
        # the carried vertex values are those of the cell's linear function
        scale = np.abs(z).max()
        assert np.abs(values - space.cell_sampler(pieces)(vec)).max() \
            <= 1e-13 * scale
        assert (values[above] >= level).all()
        assert (values[~above] <= level).all()
        split = np.bincount(source) > 1
        straddles = (z.min(axis=1) < level) & (z.max(axis=1) > level)
        assert np.array_equal(split, straddles)
        assert np.array_equal(np.bincount(source)[split], np.full(
            split.sum(), 3))
        # one chord per split cell, a vertex at the level among its ends
        assert len(chords) == np.count_nonzero(straddles)
