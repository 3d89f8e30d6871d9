"""Phase-field brittle fracture on 2D triangle meshes.

A small numpy/scipy library for the variational (gradient-damage) description
of brittle fracture: a damage field alpha in [0, 1] smears cracks over bands
of width ~ell, stiffness degrades as (1 - alpha)^2 + k_ell, and quasi-static
evolution minimizes elastic plus dissipated energy under the irreversibility
constraint alpha >= alpha_previous.

The package provides

* structured triangle meshes of rectangles, optionally band-refined (``mesh``);
* material data and closed-form critical loads (``model``);
* linear P1 assembly of energies, residuals, and Hessian blocks (``fem``);
* hand-rolled MINRES, SuperLU, CG on a lagged LU, and a field split applied
  once per Newton solve, its damage solve MINRES on ``C - B^T A^-1 B`` with
  the LU of C as preconditioner and one A-solve per iteration (``linalg``);
* a reduced-space active-set semismooth Newton solver for box-constrained
  systems (``vi``);
* alternate minimization with over-relaxation, optionally composed with a
  coupled active-set Newton phase (``solver``);
* three benchmark problems and a quasi-static driver (``cases``);
* INI-config parsing, CSV/VTK artifact emission, and sweeps (``runio``,
  ``cli``).
"""

__version__ = "0.1.0"

from .cases import run_quasistatic, setup_surfing, setup_thermal_shock, setup_traction
from .model import Material
from .solver import SolverConfig

__all__ = ["__version__", "Material", "SolverConfig", "run_quasistatic",
           "setup_surfing", "setup_thermal_shock", "setup_traction"]
