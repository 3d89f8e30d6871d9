"""The package's public surface: an explicit ``__all__`` with no stale names."""

import inspect

import phasefrac
import phasefrac.linalg
import phasefrac.mesh
import phasefrac.model
import phasefrac.vi


def test_every_exported_name_resolves():
    assert len(set(phasefrac.__all__)) == len(phasefrac.__all__)
    for name in phasefrac.__all__:
        assert hasattr(phasefrac, name), name


def test_exports_are_the_public_imports():
    public = {n for n in vars(phasefrac) if not n.startswith("_")}
    modules = {"cases", "cli", "fem", "linalg", "mesh", "model", "runio", "solver", "vi"}
    assert public - modules == set(phasefrac.__all__) - {"__version__"}


def test_retired_names_are_gone():
    for name in ("VIConfig", "stationary_precond", "inner_cg", "InnerSolverError",
                 "SSORPreconditioner", "STATIONARY", "BOUNDARY_TAGS", "internal_length",
                 "mcp_residual", "cg_solve", "JacobiPreconditioner",
                 "ChebyshevPreconditioner", "inner_chebyshev", "CHEBYSHEV_DEGREE"):
        assert name not in phasefrac.__all__
        assert not hasattr(phasefrac, name)
    assert not hasattr(phasefrac.vi, "VIConfig")
    assert not hasattr(phasefrac.linalg, "stationary_precond")
    assert not hasattr(phasefrac.linalg, "inner_cg")
    assert not hasattr(phasefrac.linalg, "InnerSolverError")
    assert not hasattr(phasefrac.linalg, "_find_zero_pivot")
    assert not hasattr(phasefrac.linalg, "SSORPreconditioner")
    assert not hasattr(phasefrac.linalg, "STATIONARY")
    assert not hasattr(phasefrac.linalg, "cg_solve")
    assert not hasattr(phasefrac.linalg, "JacobiPreconditioner")
    for name in ("ChebyshevPreconditioner", "inner_chebyshev", "CHEBYSHEV_DEGREE"):
        assert not hasattr(phasefrac.linalg, name)
    assert not hasattr(phasefrac.linalg.BlockJacobian, "to_csr")
    assert "spd" not in inspect.signature(phasefrac.linalg.direct_factorize).parameters
    assert not hasattr(phasefrac.mesh, "BOUNDARY_TAGS")
    assert not hasattr(phasefrac.model, "internal_length")
    assert not hasattr(phasefrac.vi, "mcp_residual")
    assert not hasattr(phasefrac.solver, "Log")
    assert {"energy_history", "newton_residual_histories"}.isdisjoint(
        vars(phasefrac.NonlinearReport()))
    assert "total_krylov_iterations" not in vars(phasefrac.vi.ActiveSetReport(0, False, 0.0))
