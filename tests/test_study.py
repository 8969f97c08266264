import re
import resource
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import nxfem_ocp.study as study_mod
from nxfem_ocp.cli import main
from nxfem_ocp.errors import compute_errors
from nxfem_ocp.mesh import ConfigurationError, build_uniform_mesh
from nxfem_ocp.interface_geometry import CellTable, CutInfo, build_cut_info
from nxfem_ocp.problems import build_example
from nxfem_ocp.solver import OcpSolution
from nxfem_ocp.study import (RunConfig, discretize, extract_active_set_boundary,
                             interface_polylines, run_convergence_study,
                             solve_discretized)

from helpers import MALFORMED_BOXES, element_dofs, interpolate_two_sided
from oracles import loop_integration_cells

R2 = np.sqrt(3) / 4


def phi_inside(x, y):
    return 5.0 * (x * x + y * y - R2 * R2) * (x * x - 1.0) * (y * y - 1.0)


def analytic_lower_active_boundary(n_angles=720):
    """Locus phi = -1/2 inside the circle, sampled by radial root-finding."""
    pts = []
    for th in np.linspace(0.0, 2 * np.pi, n_angles, endpoint=False):
        c, s = np.cos(th), np.sin(th)
        f = lambda t: phi_inside(t * c, t * s) + 0.5
        pts.append((brentq(f, 0.0, R2) * c, brentq(f, 0.0, R2) * s))
    return np.array(pts)


def hausdorff(a, b):
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def curve_points(curves, per_segment=6):
    """Polyline points densified along each segment, so the Hausdorff
    distance measures contour placement, not vertex spacing."""
    chunks = []
    t = np.linspace(0.0, 1.0, per_segment, endpoint=False)
    for polys in curves.values():
        for poly in polys:
            a, b = poly[:-1], poly[1:]
            chunks.append((a[:, None, :]
                           + t[None, :, None] * (b - a)[:, None, :])
                          .reshape(-1, 2))
            chunks.append(poly[-1:])
    return np.vstack(chunks)


def test_run_config_validation():
    with pytest.raises(ConfigurationError):
        RunConfig(example=1, n_values=(2,))
    # int() would have turned 16.5 into 16
    with pytest.raises(ConfigurationError, match="must be integers"):
        RunConfig(example=1, n_values=(16.5, 32))
    assert RunConfig(example=1, n_values=(16.0, 32)).n_values == (16, 32)
    with pytest.raises(ConfigurationError):
        RunConfig(example=1, n_values=(16, 8))
    cfg = RunConfig(example=1, n_values=(8, 16))
    assert cfg.n_values == (8, 16)
    # a fractional max_iter passed here, discretized N=8 and died in
    # range(); any integer operator.index takes is kept
    for bad in (2.5, np.float64(3.0), "3"):
        with pytest.raises(ConfigurationError,
                           match="max_iter must be .* an integer"):
            RunConfig(example=2, n_values=(8,), max_iter=bad)
    assert RunConfig(example=2, n_values=(8,),
                     max_iter=np.int64(3)).max_iter == 3


@pytest.mark.parametrize("field, value, name", [
    ("a", "1", "regularization weight"), ("lambda_coef", "2", "lambda_coef")])
def test_run_config_names_a_weight_that_is_no_real_number(field, value,
                                                          name):
    # a string weight died in np.isfinite with a bare TypeError; the
    # regularization weight is checked by the drivers' own check
    with pytest.raises(ConfigurationError,
                       match=f"{name} must be positive and finite, got "
                             f"{value}"):
        RunConfig(example=2, n_values=(8,), **{field: value})


@pytest.mark.parametrize("box", sorted(MALFORMED_BOXES))
def test_run_config_names_a_malformed_box(box):
    # RunConfig(bounds="none") died in unpacking the box once the study ran
    bounds = MALFORMED_BOXES[box]
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"control box must be a pair (lo, hi) "
                                       f"of real numbers, got {bounds!r}")):
        RunConfig(example=2, n_values=(8,), bounds=bounds)


def test_run_config_takes_a_box_pair_of_any_kind(tmp_path):
    # an array box failed in build_problem, whose comparison with
    # "default" had no truth value; a list or an array pair writes what
    # the tuple does, byte for byte
    outputs = []
    for kind in (tuple, list, np.array):
        out = tmp_path / kind.__name__
        config = RunConfig(example=2, n_values=(8, 16), bounds=kind([-0.3,
                                                                     0.3]),
                           out_dir=str(out), dump_geometry=True, verbose=True)
        assert config.bounds == (-0.3, 0.3)
        run_convergence_study(config)
        outputs.append({path.name: path.read_bytes()
                        for path in sorted(out.iterdir())})
    assert len(outputs[0]) == 14
    assert outputs[0] == outputs[1] == outputs[2]


def test_determinism_bitwise():
    problem = build_example(2)
    reps = []
    for _ in range(2):
        disc = discretize(problem, 16)
        sol = solve_discretized(problem, disc)
        rep = compute_errors(problem, sol, disc.mesh, disc.cut_info,
                             disc.space)
        reps.append(rep)
    for fld in ("u", "y", "p"):
        for norm in ("l2", "h1", "triple"):
            assert repr(reps[0].value(fld, norm)) == \
                repr(reps[1].value(fld, norm))


@pytest.mark.parametrize("example", [1, 3])
def test_a_carried_start_is_bitwise_repeatable(example):
    # every mesh after the first starts from the last one's solution
    runs = [run_convergence_study(RunConfig(example=example,
                                            n_values=(16, 32, 64)))
            for _ in range(2)]
    for first, second in zip(*(run.solutions for run in runs)):
        assert np.array_equal(first.Y, second.Y)
        assert np.array_equal(first.P, second.P)


def test_convergence_study_outputs(tmp_path):
    cfg = RunConfig(example=1, n_values=(8, 16), out_dir=str(tmp_path))
    result = run_convergence_study(cfg)
    assert len(result.reports) == 2
    eoc = result.eoc[("y", "l2")][1]
    assert 1.3 < eoc < 2.6
    errors_csv = (tmp_path / "errors.csv").read_text().strip().splitlines()
    assert errors_csv[0] == "N,field,norm,error,eoc"
    assert len(errors_csv) == 1 + 2 * 3 * 3
    table = (tmp_path / "table.txt").read_text()
    assert "L2 errors" in table and "H1 seminorm errors" in table


def test_partial_flush_on_failure(tmp_path, monkeypatch):
    calls = {"n": 0}
    orig = study_mod.solve_discretized

    def failing(problem, disc, **kw):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise RuntimeError("synthetic failure")
        return orig(problem, disc, **kw)

    monkeypatch.setattr(study_mod, "solve_discretized", failing)
    cfg = RunConfig(example=1, n_values=(8, 16), out_dir=str(tmp_path))
    with pytest.raises(RuntimeError):
        run_convergence_study(cfg)
    lines = (tmp_path / "errors.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 1 * 3 * 3        # one completed row flushed


def test_active_set_empty_when_bounds_inactive():
    problem = build_example(2)
    disc = discretize(problem, 8)
    sol = solve_discretized(problem, disc)
    curves = extract_active_set_boundary(sol, problem.a, (-50.0, 50.0),
                                         disc.mesh, disc.cut_info, disc.space)
    assert curves["lower"] == [] and curves["upper"] == []


def test_active_set_matches_analytic_locus():
    # contour extracted from the interpolated exact co-state field
    problem = build_example(2)
    disc = discretize(problem, 128)
    P = interpolate_two_sided(disc.space, disc.cut_info.vertex_sign,
                              problem.p.side(1), problem.p.side(2))
    sol = OcpSolution(Y=np.zeros_like(P), P=P)
    curves = extract_active_set_boundary(sol, problem.a, problem.bounds,
                                         disc.mesh, disc.cut_info, disc.space)
    assert len(curves["lower"]) >= 1
    assert curves["upper"] == []            # only the lower bound activates
    pts = curve_points({"lower": curves["lower"]})
    residual = np.abs(phi_inside(pts[:, 0], pts[:, 1]) + 0.5)
    assert residual.max() < 5e-3
    hd = hausdorff(pts, analytic_lower_active_boundary())
    assert hd < 5e-3


def test_active_set_hausdorff_shrinks_with_refinement():
    problem = build_example(2)
    exact_pts = analytic_lower_active_boundary()
    hds = []
    for n in (32, 64):
        disc = discretize(problem, n)
        sol = solve_discretized(problem, disc)
        curves = extract_active_set_boundary(sol, problem.a, problem.bounds,
                                             disc.mesh, disc.cut_info,
                                             disc.space)
        pts = curve_points({"lower": curves["lower"]})
        hds.append(hausdorff(pts, exact_pts))
    assert hds[1] < hds[0]


def _triangle_contour(coords, vals):
    """Zero-level segment of a linear function on one triangle whose values
    straddle zero, or None.  A vertex at zero counts as below it, so it is
    the crossing point of the edge to the vertex above."""
    if not vals.min() < 0.0 < vals.max():
        return None
    pts = []
    for i in range(3):
        j = (i + 1) % 3
        vi, vj = vals[i], vals[j]
        if (vi > 0.0) != (vj > 0.0):
            t = vi / (vi - vj)
            pts.append(coords[i] + t * (coords[j] - coords[i]))
    return np.array(pts)


def contour_segments_all_elements(P, a, level, mesh, cut_info, space):
    """Oracle: zero-level segments of -p/a - level, walking every element
    side patch in element order."""
    segments = []
    for e, side, tri in loop_integration_cells(mesh, cut_info):
        vals = mesh.barycentric(e, tri) @ (-P[element_dofs(space, e, side)]
                                           / a) - level
        seg = _triangle_contour(np.asarray(tri), vals)
        if seg is not None:
            segments.append(seg)
    return segments


def test_active_set_extraction_matches_full_element_walk():
    problem = build_example(2)
    disc = discretize(problem, 32)
    sol = solve_discretized(problem, disc)
    # a lower bound equal to a vertex value of -p/a is the edge case of the
    # element preselection
    uncut = np.flatnonzero(disc.cut_info.classes == 1)
    u = -sol.P[disc.space.dof1[disc.mesh.triangles[uncut]]] / problem.a
    bounds = (float(u.flat[np.abs(u + 0.7).argmin()]), -0.3)
    curves = extract_active_set_boundary(sol, problem.a, bounds, disc.mesh,
                                         disc.cut_info, disc.space)
    for name, level in zip(("lower", "upper"), bounds):
        chained = study_mod._chain_segments(contour_segments_all_elements(
            sol.P, problem.a, level, disc.mesh, disc.cut_info, disc.space))
        # where a vertex value differs from the level by rounding only, the
        # walk chains chords of rounding length: the expected polylines are
        # the walk's without points within 1e-12 of the one before, and
        # without the loops that shrink to a point
        expected = []
        for poly in chained:
            steps = np.linalg.norm(np.diff(poly, axis=0), axis=1)
            poly = poly[np.concatenate([[True], steps >= 1e-12])]
            if len(poly) > 1:
                expected.append(poly)
        assert len(curves[name]) == len(expected) >= 1
        for got, ref in zip(curves[name], expected):
            assert np.array_equal(got, ref)
            steps = np.linalg.norm(np.diff(got, axis=0), axis=1)
            assert steps.min() >= 1e-12
    # the lower level runs through a mesh vertex, and its one curve closes
    # there
    assert len(curves["lower"]) == 1
    lower = curves["lower"][0]
    assert len(lower) > 3
    assert np.abs(lower[0] - lower[-1]).max() <= 1e-12


def test_interface_polylines_closed_circle():
    problem = build_example(2)
    mesh = build_uniform_mesh(problem.domain, 32)
    info = build_cut_info(mesh, problem.levelset)
    polys = interface_polylines(info)
    assert len(polys) == 1
    poly = polys[0]
    assert np.allclose(poly[0], poly[-1], atol=1e-9)
    assert len(poly) == len(info.cut_elements) + 1


def test_cli_unconstrained(tmp_path, capsys):
    rc = main(["solve", "--example", "1", "--n", "8",
               "--out", str(tmp_path / "run1")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "L2 errors" in out
    assert (tmp_path / "run1" / "errors.csv").exists()
    assert (tmp_path / "run1" / "table.txt").exists()


def test_cli_verbose_echoes_one_line_per_mesh(tmp_path, capsys,
                                              monkeypatch):
    args = ["solve", "--example", "1", "--n-list", "8,16"]
    assert main(args + ["--out", str(tmp_path / "quiet")]) == 0
    quiet = capsys.readouterr()
    assert quiet.err == ""
    errors = study_mod.compute_errors

    def marked(*args):
        print("errors", file=sys.stderr)
        return errors(*args)

    monkeypatch.setattr(study_mod, "compute_errors", marked)
    assert main(args + ["--out", str(tmp_path / "loud"), "--verbose"]) == 0
    loud = capsys.readouterr()
    assert loud.out == quiet.out
    # each mesh's line follows its error norms, whose time it reports
    lines = loud.err.strip().splitlines()
    assert [line.split()[0] for line in lines] == ["errors", "N=8",
                                                   "errors", "N=16"]
    lines = lines[1::2]
    problem = build_example(1)
    rss = [float(dict(item.split("=") for item in line.split())
                 ["peak_rss_mb"]) for line in lines]
    # the process high-water mark: positive, never falling, and at most
    # what the process reports after the run (the line rounds to 0.1 MB)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    assert 0.0 < rss[0] <= rss[1] <= after + 0.05
    for n, line in zip((8, 16), lines):
        fields = dict(item.split("=") for item in line.split())
        assert int(fields["free_dofs"]) > 0
        assert float(fields["solve_s"]) >= 0.0
        assert float(fields["discretize_s"]) > 0.0
        assert float(fields["errors_s"]) > 0.0
        assert list(fields).index("discretize_s") \
            < list(fields).index("solve_s") < list(fields).index("errors_s")
        # the elimination order and the factorization are parts of the solve
        assert 0.0 <= float(fields["order_s"]) <= float(fields["solve_s"])
        assert 0.0 <= float(fields["factor_s"]) <= float(fields["solve_s"])
        assert 0 < int(fields["krylov_iterations"]) <= 12
        # L+U nonzeros of the factor of S, as the solution records them
        sol = solve_discretized(problem, discretize(problem, n))
        assert int(fields["factor_nnz"]) == sol.factor_nnz > 0
        assert sol.factor_s > 0.0 and sol.order_s > 0.0
        # problem sizes and the smallest cut fraction, read from the tables
        info = build_cut_info(build_uniform_mesh(problem.domain, n),
                              problem.levelset)
        cut = len(info.cut_elements)
        assert int(fields["cut_elements"]) == cut > 0
        assert int(fields["cells"]) == 2 * n * n - cut + len(info.cells)
        frac = np.minimum(info.chords.k1, info.chords.k2).min()
        assert float(fields["min_cut_fraction"]) == pytest.approx(frac,
                                                                  rel=1e-3)
    # the start of each solve: a mesh twice the last one starts from the
    # last solution, any other from zero
    assert starts(lines) == ["zero", "coarse"]
    args[-1] = "16,24"
    assert main(args + ["--out", str(tmp_path / "other"), "--verbose"]) == 0
    assert starts(capsys.readouterr().err.splitlines()[1::2]) == ["zero",
                                                                  "zero"]


def starts(lines):
    """The start of every progress line, named just before its work."""
    names = []
    for line in lines:
        keys = [item.split("=")[0] for item in line.split()]
        assert keys[keys.index("start") + 1] in ("krylov_iterations",
                                                 "fixed_point_sweeps")
        names.append(dict(item.split("=") for item in line.split())["start"])
    return names


def test_cli_constrained_with_dumps(tmp_path, capsys):
    rc = main(["solve", "--example", "2", "--n", "8",
               "--out", str(tmp_path / "run2"), "--dump-geometry",
               "--verbose"])
    assert rc == 0
    assert "fixed_point_sweeps=" in capsys.readouterr().err
    base = tmp_path / "run2"
    for name in ("errors.csv", "table.txt", "activeset_n8.csv",
                 "integration_mesh_n8.csv", "iterations_n8.csv",
                 "mesh_vertices_n8.csv", "mesh_triangles_n8.csv"):
        assert (base / name).exists(), name
    header = (base / "activeset_n8.csv").read_text().splitlines()[0]
    assert header == "curve_id,x,y"
    itlines = (base / "iterations_n8.csv").read_text().strip().splitlines()
    assert itlines[0] == "iteration,control_diff,residual_state,residual_costate"
    assert len(itlines) >= 3


def test_cli_stops_at_the_first_unconverged_mesh(tmp_path, capsys):
    # the fixed point does not contract for this small a; the run used to
    # go on to solve and write every later mesh and then exit with
    # argparse's usage-error status 2
    out = tmp_path / "run8"
    rc = main(["solve", "--example", "1", "--bounds=-100,100", "--a", "1e-4",
               "--n-list", "16,32", "--max-iter", "5", "--out", str(out)])
    assert rc == 3
    assert "did not converge at N=16" in capsys.readouterr().err
    rows = (out / "errors.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 9
    assert {row.split(",")[0] for row in rows} == {"16"}
    assert (out / "activeset_n16.csv").exists()
    assert not (out / "activeset_n32.csv").exists()


def test_cli_outputs_build_the_whole_cell_table_in_the_dump_only(
        tmp_path, monkeypatch):
    # the outputs of a constrained run clip the control at its bounds
    # (``solver._clips``), for the contours in the public
    # ``extract_active_set_boundary``
    # (so the benchmark's tracer times them), and for the dump's pieces;
    # each bound's clip builds only the cells near that bound, so the
    # whole-mesh table is built by the dump writer alone
    built = {}
    stage = {"outputs": False, "contours": False, "writer": False}

    def within(name, key):
        function = getattr(study_mod, name)

        def wrapper(*args, **kwargs):
            stage[key] = True
            try:
                return function(*args, **kwargs)
            finally:
                stage[key] = False
        monkeypatch.setattr(study_mod, name, wrapper)

    method = CutInfo.integration_cells

    def counted(self, mesh, *args, **kwargs):
        cells = method(self, mesh, *args, **kwargs)
        if stage["outputs"] and not stage["writer"]:
            where = "contours" if stage["contours"] else "dump"
            built.setdefault(where, []).append(
                (len(cells), len(method(self, mesh))))
        return cells

    within("_write_outputs", "outputs")
    within("extract_active_set_boundary", "contours")
    within("write_integration_mesh_csv", "writer")
    monkeypatch.setattr(CutInfo, "integration_cells", counted)
    rc = main(["solve", "--example", "2", "--n-list", "8,16",
               "--dump-geometry", "--out", str(tmp_path / "run9")])
    assert rc == 0
    assert (tmp_path / "run9" / "integration_mesh_n16.csv").exists()
    # two meshes, two bounds each
    assert {where: len(sizes) for where, sizes in built.items()} == {
        "contours": 4, "dump": 4}
    for sizes in built.values():
        assert all(n < whole for n, whole in sizes)
        assert any(n for n, _ in sizes)


def test_cli_writes_each_mesh_table_once(tmp_path, monkeypatch):
    # the plain-named tables are byte copies of the last mesh's; they used
    # to be formatted and written a second time
    written = []

    def logged(name):
        function = getattr(study_mod, name)

        def wrapper(path, *args):
            written.append(Path(path).name)
            return function(path, *args)
        monkeypatch.setattr(study_mod, name, wrapper)

    logged("write_activeset_csv")
    logged("write_integration_mesh_csv")
    out = tmp_path / "run10"
    rc = main(["solve", "--example", "2", "--n-list", "8,16",
               "--dump-geometry", "--out", str(out)])
    assert rc == 0
    assert written == [f"{stem}_n{n}.csv" for n in (8, 16)
                       for stem in ("activeset", "integration_mesh")]
    for stem in ("activeset", "integration_mesh"):
        assert (out / f"{stem}.csv").read_bytes() \
            == (out / f"{stem}_n16.csv").read_bytes()


@pytest.mark.parametrize("example", [1, 2, 3])
def test_discretize_assembles_the_loads_in_one_pass(example, monkeypatch):
    # one assemble_load call per mesh gives F1 and F2, from one table of
    # integration cells per side; there used to be one call per load
    calls = []
    load = study_mod.assemble_load
    cells = CutInfo.integration_cells

    def counted_load(*args, **kwargs):
        calls.append("assemble_load")
        return load(*args, **kwargs)

    def counted_cells(self, mesh, side=None):
        calls.append(("integration_cells", side))
        return cells(self, mesh, side)

    monkeypatch.setattr(study_mod, "assemble_load", counted_load)
    monkeypatch.setattr(CutInfo, "integration_cells", counted_cells)
    disc = discretize(build_example(example), 8)
    assert calls == ["assemble_load", ("integration_cells", 1),
                     ("integration_cells", 2)]
    assert np.abs(disc.F1).max() > 0.0 and np.abs(disc.F2).max() > 0.0


@pytest.mark.parametrize("example, options", [
    ("3", ["--n-list", "16,32,64,128"]),
    # the fixed point's inner solves share one factor of A
    ("2", ["--n", "16"]),
    # at a = 1e-8, S = M + sqrt(a) A is definite although A is not
    ("3", ["--n-list", "16,32", "--a", "1e-8"])],
    ids=["ex3", "ex2", "ex3-small-a"])
def test_cli_rejects_an_indefinite_system(tmp_path, capsys, example, options):
    # a penalty far below the example's makes the interface form indefinite
    # on the first mesh; every driver rejects it with one message, before
    # any factorization
    rc = main(["solve", "--example", example, *options, "--lambda-coef",
               "10", "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err.strip() == (
        "error: N=16, lambda_coef=10: stiffness matrix is not positive "
        "definite on the cut elements: the interface penalty lambda_coef / h "
        "is too small")


@pytest.mark.parametrize("example, a, lam, root", [
    ("1", "1e100", "1000", "1.000e+50"), ("3", "1e80", "10000", "1.000e+40")])
def test_cli_rejects_a_weight_beyond_single_precision(tmp_path, capsys,
                                                      example, a, lam, root):
    # S = M + sqrt(a) A is factored in float32, where sqrt(a) A overflows;
    # the solve used to warn and then report an exactly singular factor
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["solve", "--example", example, "--n", "8", "--a", a,
                   "--out", str(tmp_path / "huge")])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err == (f"error: N=8, lambda_coef={lam}: S = M + sqrt(a) A "
                   f"overflows single precision at sqrt(a) = {root}")


def test_cli_overrides_and_errors(tmp_path):
    rc = main(["solve", "--example", "2", "--n", "8", "--bounds", "none",
               "--a", "0.5", "--lambda-coef", "4000",
               "--out", str(tmp_path / "run3")])
    assert rc == 0
    assert not (tmp_path / "run3" / "activeset_n8.csv").exists()
    with pytest.raises(SystemExit):
        main(["solve", "--example", "2", "--n", "8", "--bounds", "bogus",
              "--out", str(tmp_path / "run4")])
    with pytest.raises(SystemExit):
        main(["solve", "--example", "7", "--n", "8"])


@pytest.mark.parametrize("flag, value", [("--a", "-0.01"), ("--a", "0"),
                                         ("--lambda-coef", "0"),
                                         ("--lambda-coef", "inf")])
def test_cli_rejects_nonpositive_weights(tmp_path, capsys, flag, value):
    # a negative weight used to run to a wrong answer, a zero one to crash
    # with a division by zero
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--example", "1", "--n-list", "8,16", flag, value,
              "--out", str(tmp_path / "run6")])
    assert exc.value.code == 2
    assert "must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "run6").exists()


@pytest.mark.parametrize("entries, bad", [("16,abc", "'abc'"),
                                          ("16,,32", "''"),
                                          ("16.5,32", "'16.5'")])
def test_cli_rejects_a_bad_n_list_entry(tmp_path, capsys, entries, bad):
    # these exited 1 with int()'s own message; a bad size is a usage error
    # like --n 3
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--example", "1", "--n-list", entries,
              "--out", str(tmp_path / "run9")])
    assert exc.value.code == 2
    assert f"--n-list entry {bad} is not an integer" \
        in capsys.readouterr().err
    assert not (tmp_path / "run9").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--max-iter", "0", "max_iter must be at least 1"),
    ("--max-iter", "-3", "max_iter must be at least 1")])
def test_cli_rejects_bad_fixed_point_settings(tmp_path, capsys, flag, value,
                                              message):
    # no sweep used to crash on an unbound variable
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--example", "2", "--n", "8", flag, value,
              "--out", str(tmp_path / "run7")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run7").exists()


@pytest.mark.parametrize("bounds", ["inf,inf", "-inf,-inf", "nan,nan"])
def test_cli_rejects_a_box_without_a_finite_control(tmp_path, capsys,
                                                    bounds):
    # these passed lo <= hi (or were called empty) and the first two ended
    # in a NaN linear-solve residual, exit 1
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--example", "2", "--n", "8", f"--bounds={bounds}",
              "--out", str(tmp_path / "run10")])
    assert exc.value.code == 2
    lo, hi = bounds.split(",")
    assert f"control box [{lo}, {hi}] admits no finite control" \
        in capsys.readouterr().err


@pytest.mark.parametrize("bounds", ["inf,inf", "0.5,-0.5", "nan,nan"])
def test_cli_rejects_a_bad_box_before_any_output(tmp_path, capsys, bounds,
                                                 monkeypatch):
    # the box is checked before the output directory is made or any mesh
    # is discretized
    def no_work(*args):
        raise AssertionError("discretized before the box was checked")

    monkeypatch.setattr(study_mod, "discretize", no_work)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--example", "2", "--n-list", "16,32",
              f"--bounds={bounds}", "--out", str(tmp_path / "run12")])
    assert exc.value.code == 2
    assert "control box" in capsys.readouterr().err
    assert not (tmp_path / "run12").exists()


def test_cli_solves_a_one_sided_box(tmp_path):
    assert main(["solve", "--example", "2", "--n", "8", "--bounds=-inf,0.3",
                 "--out", str(tmp_path / "run11")]) == 0
    rows = np.loadtxt(tmp_path / "run11" / "errors.csv", delimiter=",",
                      skiprows=1, usecols=3)
    assert len(rows) == 9 and np.isfinite(rows).all()


def test_dump_rows_after_the_cells_are_the_clipped_pieces(tmp_path):
    cfg = RunConfig(example=2, n_values=(8,), out_dir=str(tmp_path),
                    dump_geometry=True)
    result = run_convergence_study(cfg)
    problem, P = result.problem, result.solutions[0].P
    lo, hi = problem.bounds
    rows = np.loadtxt(tmp_path / "integration_mesh_n8.csv", delimiter=",",
                      skiprows=1)
    disc = discretize(problem, 8)
    cells = disc.cut_info.integration_cells(disc.mesh)
    assert np.array_equal(rows[:len(cells), 2:].reshape(-1, 3, 2),
                          cells.coords)
    extra = CellTable(rows[len(cells):, 0].astype(np.int64),
                      rows[len(cells):, 1].astype(np.int8),
                      rows[len(cells):, 2:].reshape(-1, 3, 2))
    # the pieces tile the cells a bound runs through ...
    z = disc.space.cell_sampler(cells)(-P / problem.a)
    crossed = ((z.min(axis=1) < lo) & (z.max(axis=1) > lo)) \
        | ((z.min(axis=1) < hi) & (z.max(axis=1) > hi))
    assert crossed.sum() > 0
    for e, side in {(e, s) for e, s in zip(cells.parent[crossed],
                                          cells.side[crossed])}:
        mine = (extra.parent == e) & (extra.side == side)
        theirs = (cells.parent == e) & (cells.side == side) & crossed
        assert extra.areas()[mine].sum() == pytest.approx(
            cells.areas()[theirs].sum(), rel=1e-12)
    assert len(set(zip(extra.parent, extra.side))) == len(
        set(zip(cells.parent[crossed], cells.side[crossed])))
    # ... and the control is a bound or -p/a on each of them
    v = disc.space.cell_sampler(extra)(-P / problem.a)
    tol = 1e-12
    assert ((v <= lo + tol).all(axis=1) | (v >= hi - tol).all(axis=1)
            | ((v >= lo - tol) & (v <= hi + tol)).all(axis=1)).all()


def test_cli_n_list(tmp_path):
    rc = main(["solve", "--example", "3", "--n-list", "8,16",
               "--out", str(tmp_path / "run5")])
    assert rc == 0
    lines = (tmp_path / "run5" / "errors.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 9
