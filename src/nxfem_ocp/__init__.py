"""Optimal control of elliptic PDEs with internal interfaces, discretized
with penalized extended P1 elements on unfitted uniform meshes."""

from .assembly import Load, assemble_load, assemble_mass, assemble_stiffness
from .errors import ErrorReport, compute_errors
from .interface_geometry import (CutInfo, ElementClass, LevelSet,
                                 build_cut_info, circle_interface,
                                 line_interface)
from .mesh import Mesh, build_uniform_mesh
from .problems import ManufacturedProblem, PiecewiseField, build_example
from .solver import (OcpSolution, solve_constrained_fixed_point,
                     solve_constrained_ssn)
from .study import (RunConfig, discretize, extract_active_set_boundary,
                    run_convergence_study, solve_discretized)
from .xfem_space import ExtendedSpace

__version__ = "0.1.0"
