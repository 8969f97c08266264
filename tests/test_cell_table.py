"""The batched integration-cell and chord tables against the per-element
loops they replace (``oracles.py``): matrices, loads and every error norm
agree to rounding, on the benchmark geometries and on awkward cuts."""

import numpy as np
import pytest

from nxfem_ocp.assembly import assemble_load, assemble_mass, assemble_stiffness
from nxfem_ocp.errors import compute_errors
from nxfem_ocp.interface_geometry import (ElementClass, build_cut_info,
                                          circle_interface, line_interface)
from nxfem_ocp.mesh import build_uniform_mesh
from nxfem_ocp.problems import PiecewiseField, build_example
from nxfem_ocp.solver import OcpSolution
from nxfem_ocp.xfem_space import ExtendedSpace

from helpers import interpolate_two_sided
from oracles import (loop_errors, loop_integration_cells, loop_load,
                     loop_mass, loop_stiffness)

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
CASES = [(g, n) for g in ("ex1", "ex2", "ex3") for n in (16, 32)] + \
    [("ex2-near-vertex", 16), ("ex1-along-edges", 16)]


def setup(label, n):
    example, levelset = GEOMETRIES[label]
    problem = build_example(example)
    if levelset is not None:
        problem.levelset = levelset
    mesh = build_uniform_mesh(problem.domain, n)
    info = build_cut_info(mesh, problem.levelset)
    return problem, mesh, info, ExtendedSpace(mesh, info)


def assert_close(new, old):
    new, old = np.asarray(new), np.asarray(old)
    assert np.abs(new - old).max() <= RTOL * np.abs(old).max()


@pytest.mark.parametrize("label, n", CASES)
def test_matrices_and_loads_match_element_loops(label, n):
    problem, mesh, info, space = setup(label, n)
    args = (mesh, info, space, problem.alpha1, problem.alpha2,
            problem.nitsche_params())
    assert_close(assemble_stiffness(*args).toarray(),
                 loop_stiffness(*args).toarray())
    assert_close(assemble_mass(mesh, info, space).toarray(),
                 loop_mass(mesh, info, space).toarray())
    refine = problem.load_refine(mesh, info)
    assert (refine is not None) == (problem.bounds is not None)
    assert_close(
        assemble_load(mesh, info, space, f=problem.f, g=problem.g,
                      refine=refine),
        loop_load(mesh, info, space, f=problem.f, g=problem.g, refine=refine))
    neg_yd = PiecewiseField(lambda x, y: -problem.y_d.side(1)(x, y),
                            lambda x, y: -problem.y_d.side(2)(x, y))
    assert_close(assemble_load(mesh, info, space, f=neg_yd, g=problem.g_adj),
                 loop_load(mesh, info, space, f=neg_yd, g=problem.g_adj))


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
    assert np.allclose(tiled, mesh.areas, rtol=1e-12, atol=0.0)
    cut = info.classes == int(ElementClass.CUT)
    assert np.array_equal(np.flatnonzero(cut), info.chords.element)


def test_chord_table_stacks_the_cut_geometry():
    problem, mesh, info, _ = setup("ex2", 16)
    ch = info.chords
    assert len(ch.element) == len(info.cuts) > 0
    for i, e in enumerate(ch.element):
        cg = info.cuts[int(e)]
        assert np.array_equal(ch.q1[i], cg.q1)
        assert np.array_equal(ch.q2[i], cg.q2)
        assert np.array_equal(ch.normal[i], cg.normal)
        assert (ch.k1[i], ch.k2[i]) == (cg.k1, cg.k2)
        coords = mesh.tri_coords(int(e))
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
