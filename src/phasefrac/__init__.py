"""Phase-field brittle fracture on 2D triangle meshes.

A small numpy/scipy library for the variational (gradient-damage) description
of brittle fracture: a damage field alpha in [0, 1] smears cracks over bands
of width ~ell, stiffness degrades as (1 - alpha)^2 + k_ell, and quasi-static
evolution minimizes elastic plus dissipated energy under the irreversibility
constraint alpha >= alpha_previous.

The package provides

* structured triangle meshes of rectangles, optionally refined in a band
  (``mesh``);
* material data and closed-form critical loads (``model``);
* linear P1 assembly of energies, residuals, and Hessian blocks (``fem``);
* hand-rolled MINRES, sparse LU through SuperLU, CG on a lagged LU, and a
  block field-split preconditioner with LU block inverses (``linalg``);
* a reduced-space active-set semismooth Newton solver for box-constrained
  systems (``vi``);
* alternate minimization with over-relaxation, optionally composed with a
  coupled active-set Newton phase (``solver``);
* three benchmark problems and a quasi-static driver (``cases``);
* INI-config parsing, CSV/VTK artifact emission, and sweeps (``runio``,
  ``cli``).
"""

__version__ = "0.1.0"

from .cases import (ProblemSetup, StepFailureError, StepRecord,
                    crack_band_count, run_quasistatic, setup_surfing,
                    setup_thermal_shock, setup_traction, surfing_displacement,
                    thermal_strain)
from .fem import (DirichletBC, Discretization, EnergyBreakdown, State,
                  apply_dirichlet, assemble_energy, assemble_Kaa, assemble_Kua,
                  assemble_Kuu, assemble_load_u, assemble_residual_alpha,
                  assemble_residual_u, combine_bcs, eliminate_dirichlet,
                  impose_dirichlet)
from .linalg import (BlockJacobian, BreakdownError, FieldSplitPreconditioner,
                     LaggedFactorization, LinearSolveReport, LinearSolverError,
                     SingularOperatorError, direct_factorize, extract_submatrix,
                     inner_direct, minres_solve)
from .mesh import Mesh, banded_rect_mesh, boundary_dofs, rect_mesh
from .model import (C_W, Material, critical_shock, critical_traction,
                    degradation, dissipation)
from .runio import (ConfigError, RunConfig, SweepSpec, build_material,
                    build_setup, configure, echo_config, parse_config,
                    parse_sweep, run, sweep)
from .solver import (Iteration, NonlinearReport, SolverConfig, am_solve,
                     coupled_newton_solve, damage_step, elastic_step,
                     first_order_residual, inactive_block_jacobian,
                     oram_n_solve, residual_norm, solve_load_step)
from .vi import (ActivePartition, ActiveSetReport, MCProblem, classify_active,
                 fb_composite, fb_phi, rsls_solve)

__all__ = [
    "__version__",
    # cases
    "ProblemSetup", "StepFailureError", "StepRecord", "crack_band_count",
    "run_quasistatic", "setup_surfing", "setup_thermal_shock", "setup_traction",
    "surfing_displacement", "thermal_strain",
    # fem
    "DirichletBC", "Discretization", "EnergyBreakdown", "State", "apply_dirichlet",
    "assemble_energy", "assemble_Kaa", "assemble_Kua", "assemble_Kuu",
    "assemble_load_u", "assemble_residual_alpha", "assemble_residual_u",
    "combine_bcs", "eliminate_dirichlet", "impose_dirichlet",
    # linalg
    "BlockJacobian", "BreakdownError", "FieldSplitPreconditioner",
    "LaggedFactorization", "LinearSolveReport", "LinearSolverError",
    "SingularOperatorError", "direct_factorize", "extract_submatrix",
    "inner_direct", "minres_solve",
    # mesh
    "Mesh", "banded_rect_mesh", "boundary_dofs", "rect_mesh",
    # model
    "C_W", "Material", "critical_shock", "critical_traction", "degradation",
    "dissipation",
    # runio
    "ConfigError", "RunConfig", "SweepSpec", "build_material", "build_setup",
    "configure", "echo_config", "parse_config", "parse_sweep", "run", "sweep",
    # solver
    "Iteration", "NonlinearReport", "SolverConfig", "am_solve", "coupled_newton_solve",
    "damage_step", "elastic_step", "first_order_residual",
    "inactive_block_jacobian", "oram_n_solve", "residual_norm", "solve_load_step",
    # vi
    "ActivePartition", "ActiveSetReport", "MCProblem", "classify_active",
    "fb_composite", "fb_phi", "rsls_solve",
]
