"""Every exported name resolves, and the program uses it.

The benchmark's tracer looks up each ``__all__`` entry of the layer
modules, so a stale entry would otherwise surface only in a traced run.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import nxfem_ocp
from nxfem_ocp.problems import build_example
from nxfem_ocp.solver import ReducedSolver
from nxfem_ocp.study import discretize

MODULES = sorted(m.name for m in pkgutil.iter_modules(nxfem_ocp.__path__))
LAYERS = [m for m in MODULES
          if hasattr(importlib.import_module(f"nxfem_ocp.{m}"), "__all__")]
PACKAGE = Path(nxfem_ocp.__file__).parent
# the program: the package and the benchmark that drives it
PROGRAM = {path: ast.parse(path.read_text()) for path in sorted(
    [*PACKAGE.glob("*.py"), *(PACKAGE.parents[1] / "perfbench").glob("*.py")])}


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"nxfem_ocp.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"nxfem_ocp.{name}.__all__ lists missing {missing}"


def test_package_imports_resolve():
    tree = ast.parse(Path(nxfem_ocp.__file__).read_text())
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names
    missing = [n for n in names if not hasattr(nxfem_ocp, n)]
    assert not missing, f"nxfem_ocp does not provide {missing}"


@pytest.fixture(scope="module")
def instances():
    """One instance of each class that sets its attributes in ``__init__``,
    from one small discretization: a walk of the class cannot see them."""
    disc = discretize(build_example(2), 8)
    return {"Mesh": disc.mesh, "CutInfo": disc.cut_info,
            "ExtendedSpace": disc.space,
            "ReducedSolver": ReducedSolver(disc.A, disc.space)}


@pytest.mark.parametrize("module, name", [
    ("xfem_space", "interpolate_two_sided"),
    ("interface_geometry", "total_interface_length"),
    ("problems", "build_smooth_problem"),
    ("interface_geometry", "refined_triangle_quadrature"),
    ("interface_geometry", "map_rule_to_triangle"),
    ("interface_geometry", "QuadRule"),
    ("mesh", "Mesh.tri_coords"),
    ("mesh", "triangle_area"),
    ("xfem_space", "ExtendedSpace.element_dofs"),
    ("interface_geometry", "CutGeometry"),
    ("interface_geometry", "compute_cut_geometry"),
    ("interface_geometry", "DegenerateCutError"),
    ("interface_geometry", "CutInfo.cuts"),
    ("mesh", "Mesh.from_arrays"),
    ("problems", "ManufacturedProblem.side_at"),
    ("problems", "ManufacturedProblem.boundary_value"),
    ("solver", "_clip_at_bounds"),
    ("solver", "_clamped_pieces"),
    ("solver", "_clamped_rule"),
    ("solver", "_pieces_load"),
    ("solver", "_sampled_control"),
    ("solver", "_sample_weights"),
    ("solver", "_control_at_quadrature"),
    ("solver", "_active_mass_and_load"),
    ("solver", "project_control"),
    ("problems", "ManufacturedProblem.control_arg"),
    ("assembly", "NitscheParams"),
    ("problems", "ManufacturedProblem.nitsche_params"),
    ("study", "RunConfig.tol"),
    ("solver", "OcpSolution.U"),
    ("assembly", "RefineSpec"),
    ("assembly", "Load.refine"),
    ("problems", "ManufacturedProblem.load_refine"),
    ("errors", "_kink_refined"),
    ("problems", "ManufacturedProblem.clamp_status"),
    ("problems", "ManufacturedProblem.lap_y"),
    ("problems", "ManufacturedProblem.lap_z"),
    ("problems", "ManufacturedProblem.grad_z"),
    ("solver", "ControlClamp.samples"),
    ("solver", "ControlClamp.weights"),
    ("solver", "ControlClamp.status"),
    ("solver", "ControlClamp._at_points"),
    ("assembly", "_hat_blocks"),
    ("solver", "ReducedSolver._cut_dofs"),
    ("solver", "ReducedSolver._cut_blocks_definite"),
    ("solver", "_cut_blocks_definite"),
    ("solver", "ControlClamp.vertex_values"),
    ("solver", "ControlClamp.cells"),
    ("solver", "ControlClamp._sampler"),
    ("xfem_space", "ExtendedSpace.dof_side"),
    ("xfem_space", "SIDE_BOTH"),
    ("solver", "ControlClamp"),
    ("solver", "solve_unconstrained_ocp"),
    ("solver", "OcpSolution.a"),
    ("solver", "OcpSolution.bounds"),
])
def test_test_only_helpers_stay_in_tests(module, name, instances):
    # these live in tests/helpers.py or tests/oracles.py, or are gone; the
    # package keeps what it runs
    def provides(obj):
        for part in name.split("."):
            # a dataclass field without a default is no class attribute
            if part in getattr(obj, "__dataclass_fields__", {}):
                return True
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True

    assert not provides(importlib.import_module(f"nxfem_ocp.{module}"))
    assert not provides(nxfem_ocp)
    # an attribute set in __init__ is on the instances only
    owner, _, attribute = name.partition(".")
    if owner in instances:
        assert not hasattr(instances[owner], attribute)


def _names_read(tree, skip):
    """The identifiers (names and attributes) a module reads outside its
    top-level definition of ``skip``.  ``__all__`` entries are strings and
    re-exports are import aliases, so neither counts."""
    names = set()
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name == skip):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


@pytest.mark.parametrize("name", LAYERS)
def test_every_export_is_used_by_the_program(name):
    # an export that only tests read belongs in tests/helpers.py
    module = importlib.import_module(f"nxfem_ocp.{name}")
    own = PACKAGE / f"{name}.py"
    unused = [export for export in module.__all__
              if not any(export in _names_read(tree,
                                               export if path == own else None)
                         for path, tree in PROGRAM.items())]
    assert not unused, f"only tests use nxfem_ocp.{name}: {unused}"
