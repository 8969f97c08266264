"""The benchmark's hold on the package.

``perfbench/spans.py`` wraps the layer functions, and the methods it
names, by name; ``perfbench/workloads.py`` calls the package with fixed
argument lists and reads fixed attributes of what it gets back, and it
and ``perfbench/checks.py`` read fixed attributes of the problem, the
mesh and the space.  A deletion or a signature change that breaks either
would otherwise show up only in a benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import nxfem_ocp
from nxfem_ocp import problems, solver, study, xfem_space

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# names that hold the package's results in the workloads, and their types
RESULTS = {"disc": study.Discretization, "sol": solver.OcpSolution,
           "ref": solver.OcpSolution, "result": study.StudyResult}


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _has(cls, attr):
    return attr in getattr(cls, "__dataclass_fields__", {}) \
        or hasattr(cls, attr)


def test_tracer_installs_and_uninstalls():
    spans = _load("spans")
    originals = {name: getattr(study, name)
                 for name in ("discretize", "solve_discretized")}
    methods = dict(vars(xfem_space.ExtendedSpace))
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.open("sweep")
        problem = problems.build_example(2)
        study.solve_discretized(problem, study.discretize(problem, 8))
        tracer.close()
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"study.discretize", "study.solve_discretized",
            "xfem_space.ExtendedSpace",
            "xfem_space.ExtendedSpace.boundary_values",
            "assembly.assemble_stiffness", "assembly.assemble_load",
            "solver.solve_constrained_fixed_point", "scipy.splu"} <= names
    layers = spans.summarize(tracer.spans)
    assert layers["solver.sparse_direct_calls"] >= 1
    assert 0.0 <= layers["trace.uncovered_share"] <= 1.0
    assert all(getattr(study, name) is fn for name, fn in originals.items())
    assert dict(vars(xfem_space.ExtendedSpace)) == methods


def test_workload_calls_match_the_package():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    layers = {name for name in dir(nxfem_ocp)
              if inspect.ismodule(getattr(nxfem_ocp, name))}
    checked = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)):
            continue
        owner, attr = node.value.id, node.attr
        if owner in RESULTS:
            assert _has(RESULTS[owner], attr), f"{owner}.{attr}"
        elif owner in layers:
            module = importlib.import_module(f"nxfem_ocp.{owner}")
            assert hasattr(module, attr), f"nxfem_ocp.{owner}.{attr}"
            checked.add(f"{owner}.{attr}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in layers):
            fn = getattr(importlib.import_module(
                f"nxfem_ocp.{node.func.value.id}"), node.func.attr)
            inspect.signature(fn).bind(
                *[None] * len(node.args),
                **{kw.arg: None for kw in node.keywords})
    assert {"study.discretize", "study.RunConfig", "solver._control_load",
            "solver.solve_constrained_fixed_point",
            "solver.solve_constrained_ssn", "errors.compute_errors",
            "study.extract_active_set_boundary"} <= checked


def test_problem_reads_match_the_problem_class():
    """Every ``problem.<attr>`` that the workloads and the checks read is a
    field or a derived attribute of ManufacturedProblem."""
    read = set()
    for name in ("workloads", "checks"):
        tree = ast.parse((PERFBENCH / f"{name}.py").read_text())
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name)
                 and node.value.id == "problem"}
    problem = problems.build_example(2)
    for attr in read:
        assert _has(problems.ManufacturedProblem, attr), f"problem.{attr}"
        getattr(problem, attr)
    assert {"a", "bounds", "domain", "levelset", "y", "p", "grad_p"} <= read


def test_mesh_and_space_reads_match_the_package():
    """Every ``mesh.<attr>`` and ``space.<attr>`` that the workloads and
    the checks read, also through ``disc.mesh`` or ``disc.space``, exists
    on a Mesh and an ExtendedSpace."""
    read = {"mesh": set(), "space": set()}
    for name in ("workloads", "checks"):
        tree = ast.parse((PERFBENCH / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            owner = node.value
            owner = (owner.id if isinstance(owner, ast.Name)
                     else owner.attr if isinstance(owner, ast.Attribute)
                     else None)
            if owner in read:
                read[owner].add(node.attr)
    disc = study.discretize(problems.build_example(2), 8)
    for owner, attrs in read.items():
        for attr in attrs:
            assert hasattr(getattr(disc, owner), attr), f"{owner}.{attr}"
    assert {"vertices", "triangles"} <= read["mesh"]
    assert {"dof1", "dof2", "doubled", "dirichlet_dofs"} <= read["space"]


@pytest.mark.parametrize("name", ["constrained-fixed-point",
                                  "constrained-ssn"])
def test_constrained_workloads_pass_their_checks(name, tmp_path, monkeypatch):
    """The constrained workloads, run and checked on their smoke meshes:
    their sweeps and checks call the fixed point, Newton and
    ``solver._control_load``, so a change that breaks those calls fails
    here and not only in a benchmark run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[name]
    meshes = workload.smoke_meshes
    problem, solutions = workloads.run_sweep(workload, meshes, str(tmp_path),
                                             [])
    assert workloads.check_sweep(workload, problem, meshes, solutions,
                                 str(tmp_path), np.random.default_rng(0)) \
        == [[] for _ in meshes]
