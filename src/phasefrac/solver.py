"""Nonlinear solvers for one quasi-static load step of the fracture model.

Three entry points, all driving the same first-order optimality system
(displacement residual with ``u - ubar`` on the Dirichlet rows, damage
residual composed through the Fischer-Burmeister function against the bounds
``alpha_lb <= alpha <= 1``).  Boundary data is read and imposed only through
``fem``:

* ``am_solve`` -- alternate minimization: linear solve in u at fixed alpha,
  then a bound-constrained damage solve at fixed u, with optional
  over-relaxation ``omega`` of both half-step increments.  Both blocks are
  solved by CG on the last factor of the call (the damage one only for the same
  inactive set), refactored when CG misses its budget.  Over-relaxed
  damage updates that leave the box are backtracked toward the unrelaxed
  update (midpoint rule) until feasible.  With ``omega = 1`` the total energy
  is nonincreasing across iterations.
* ``coupled_newton_solve`` -- semismooth active-set Newton on (u, alpha); one
  field split per Newton solve, its damage solve MINRES on ``C - B^T A^-1 B``
  preconditioned by the factor of C, with one A-solve per iteration.  The
  factor of A is kept from step to step and refactored from its first
  changed row.
* ``oram_n_solve`` -- outer cycles that run alternate minimization to a loose
  relative tolerance and then hand over to the coupled Newton solver; a
  failed Newton phase keeps its last (merit-nonincreasing) iterate and
  returns to alternate minimization.

Each fills a ``NonlinearReport`` in place (a new one by default) with its
outcome, its counts (MINRES iterations included) and one ``Iteration`` row per
AM sweep or Newton iterate; nothing else reports out of a solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse.linalg as spla

from .fem import (Discretization, State, apply_dirichlet, assemble_energy,
                  assemble_Kaa, assemble_Kua, assemble_Kuu, assemble_load_u,
                  assemble_residual_alpha, assemble_residual_u, element_strains,
                  impose_dirichlet)
from .linalg import (BlockJacobian, FieldSplitPreconditioner, LaggedFactorization,
                     LinearSolverError, direct_factorize, extract_submatrix,
                     inner_direct, minres_solve)
from .vi import (MCProblem, active_set_slack, classify_active, fb_composite,
                 reduced_direct_solver, rsls_solve)

#: the choice-valued fields of SolverConfig and their admissible values
CHOICES = {"method": ("am", "oram_newton", "newton_only"),
           "coupled": ("fieldsplit",), "fieldsplit_inner": ("direct",)}
#: relative residual drop of the AM phase before a Newton hand-off in oram_newton
AM_RTOL = 0.1
MAX_NEWTON_ITERATIONS = 30
#: AM-then-Newton cycles of one oram_newton load step
MAX_OUTER_CYCLES = 20
#: relative tolerance of the field-split MINRES solves inside Newton
FIELDSPLIT_RTOL = 1e-6
#: damage subproblem tolerance, as a fraction of ``outer_atol``
DAMAGE_ATOL_FACTOR = 0.1
#: CG tolerance of the lagged-factor solves of both blocks inside alternate minimization,
#: as a fraction of ``outer_atol``; looser tolerances move the final energies by more than 1e-10
LAGGED_ATOL_FACTOR = 1e-4
#: CG iterations on a lagged factor before the block is refactored
LAGGED_CG_ITERATIONS = 5
MAX_VI_ITERATIONS = 200
#: largest estimated remaining damage travel at a Newton hand-off
NEWTON_DALPHA = 1e-6

#: INI section of the linear-solver fields (the rest are read from [solver])
_LINEAR = {"section": "linear"}


@dataclass
class SolverConfig:
    """Knobs for the load-step solvers; invalid values raise at construction.

    ``method = "am"`` is alternate minimization, over-relaxed (ORAM) when
    ``omega != 1``; ``"oram_newton"`` composes it with coupled Newton.
    """

    method: str = "am"
    omega: float = 1.0               # relaxation weight, required to lie in (0, 2)
    outer_atol: float = 1e-7         # absolute l2 tolerance on the optimality residual
    max_am_iterations: int = 1000
    # one value each (field-split MINRES, Cholesky block inverses); kept for existing configs
    coupled: str = field(default="fieldsplit", metadata=_LINEAR)
    fieldsplit_inner: str = field(default="direct", metadata=_LINEAR)

    def __post_init__(self):
        for name, choices in CHOICES.items():
            if getattr(self, name) not in choices:
                raise ValueError(f"{name} must be one of {choices}, got {getattr(self, name)!r}")
        if not 0.0 < self.omega < 2.0:
            raise ValueError(f"omega must lie strictly inside (0, 2), got {self.omega!r}")
        if not 0.0 < self.outer_atol < math.inf:
            raise ValueError(f"outer_atol must be positive and finite, got {self.outer_atol!r}")
        if self.max_am_iterations < 1:
            raise ValueError(
                f"max_am_iterations must be at least 1, got {self.max_am_iterations!r}")


class Iteration(NamedTuple):
    """One row of a load step's record: an AM sweep (counted from 1, energies
    after it) or a Newton iterate (counted from 0, the starting residual; NaN
    energies and ``omega_bar``)."""

    phase: str      # "am" or "newton"
    cycle: int      # outer cycle of oram_newton, else 0
    iteration: int
    residual: float
    omega_bar: float = math.nan
    elastic: float = math.nan
    dissipated: float = math.nan
    total: float = math.nan


@dataclass
class NonlinearReport:
    """Outcome, cost accounting and iteration record of one load-step solve."""

    converged: bool = False
    final_residual_norm: float = np.inf
    am_iterations: int = 0
    newton_iterations: int = 0
    newton_attempts: int = 0
    total_krylov_iterations: int = 0   # MINRES iterations of the coupled Newton solves
    elastic_factorizations: int = 0    # factors of the elastic block in the AM sweeps
    damage_factorizations: int = 0     # factors of inactive damage blocks in the AM sweeps
    entry_energy: float = np.nan       # total energy where the first AM phase started
    iterations: list = field(default_factory=list)   # Iteration rows, in order

    @property
    def omega_bar_min(self) -> float:
        """Smallest relaxation weight applied by an AM sweep; 1.0 without sweeps."""
        return min((r.omega_bar for r in self.iterations if r.phase == "am"), default=1.0)


# -- first-order optimality ----------------------------------------------------


def first_order_residual(state: State, problem: Discretization, strains=None,
                         residual_alpha: Optional[np.ndarray] = None) -> np.ndarray:
    """Stacked optimality residual: the u-rows (``u - ubar`` on Dirichlet
    rows) and the Fischer-Burmeister composition of the damage rows with the
    box ``alpha_lb <= alpha <= 1``.  ``strains`` (see ``fem.element_strains``)
    and the damage residual ``residual_alpha``, if given, are those of ``state``."""
    ru = assemble_residual_u(state, problem, apply_bc=True, strains=strains)
    if residual_alpha is None:
        residual_alpha = assemble_residual_alpha(state, problem, strains)
    phi_a = fb_composite(state.alpha, residual_alpha, state.alpha_lb,
                         np.ones_like(state.alpha))
    return np.concatenate([ru, phi_a])


def residual_norm(state: State, problem: Discretization, strains=None,
                  residual_alpha: Optional[np.ndarray] = None) -> float:
    return float(np.linalg.norm(first_order_residual(state, problem, strains, residual_alpha)))


# -- half-steps -----------------------------------------------------------------


def elastic_step(state: State, problem: Discretization,
                 lagged: Optional[LaggedFactorization] = None) -> np.ndarray:
    """Minimize the energy in u at fixed alpha.

    Without ``lagged`` this is one Cholesky solve.  With it, CG started from
    ``state.u`` and preconditioned by the held factor solves the system to
    ``lagged.atol``, and a budget miss refactors (see
    :class:`~phasefrac.linalg.LaggedFactorization`).  Either way the
    Dirichlet rows of the returned u hold the boundary data exactly when
    those of ``state.u`` do, or when the system was factored.
    """
    K = assemble_Kuu(state, problem, apply_bc=False)
    f = assemble_load_u(state, problem)
    K, f = apply_dirichlet(K, f, problem)
    if lagged is None:
        return direct_factorize(K).solve(f)
    return lagged.solve(K, f, state.u)


def damage_system(state: State, problem: Discretization, strains=None):
    """(Kaa, c): the damage residual at ``state.u`` is ``Kaa @ alpha + c`` for every alpha."""
    Kaa = assemble_Kaa(state, problem, strains)
    return Kaa, assemble_residual_alpha(state, problem, strains) - Kaa @ state.alpha


def damage_step(state: State, problem: Discretization, config: SolverConfig,
                system=None, lagged: Optional[LaggedFactorization] = None):
    """Minimize the energy in alpha at fixed u, subject to the box constraints.

    The damage residual is affine in alpha at fixed u, ``Kaa @ alpha + c`` with
    ``(Kaa, c) = system`` (default :func:`damage_system`), so the subproblem is a
    convex bound-constrained quadratic solved by the active-set method; its Newton
    steps use ``lagged`` as :func:`~phasefrac.vi.reduced_direct_solver` does.
    Returns (alpha, ActiveSetReport).
    """
    Kaa, c = damage_system(state, problem) if system is None else system
    mcp = MCProblem(residual=lambda a: Kaa @ a + c,
                    jacobian=lambda a: Kaa,
                    lower=state.alpha_lb,
                    upper=np.ones_like(state.alpha))
    return rsls_solve(mcp, state.alpha, abs_tol=DAMAGE_ATOL_FACTOR * config.outer_atol,
                      max_iterations=MAX_VI_ITERATIONS,
                      linear_solver=partial(reduced_direct_solver, lagged=lagged))


# -- alternate minimization ------------------------------------------------------


def am_solve(state: State, problem: Discretization, config: SolverConfig,
             target: float = 0.0, cycle: int = 0,
             report: Optional[NonlinearReport] = None) -> NonlinearReport:
    """Alternate minimization with over-relaxation; mutates ``state`` in place.

    The first sweep factors the elastic block.  Later sweeps solve it by CG
    from the current iterate, preconditioned by the last factorization of this
    call, to ``LAGGED_ATOL_FACTOR * outer_atol``; after
    ``LAGGED_CG_ITERATIONS`` iterations without reaching it, the current
    block is factored and solved exactly instead (the old factorization is
    released first).  The damage Newton steps do likewise on the last inactive
    damage block, while the inactive set is unchanged.  A sweep evaluates the
    strains once, and its damage residual is ``Kaa @ alpha + c`` of its system.

    Stops when the optimality norm drops below ``outer_atol``.  With a
    positive ``target`` (the hand-off phase of the composite method) it may
    stop earlier, once the norm is at most ``target`` *and* the damage field
    has settled: the remaining travel of the damage iterates, estimated from
    the last two sweep increments assuming linear contraction as
    ``d_k^2 / (d_{k-1} - d_k)``, must not exceed ``NEWTON_DALPHA``.  While a
    crack front is still advancing the sweeps contract slowly and the estimate
    stays large, preventing a premature hand-off after which Newton would
    converge to a different stationary point than the one alternate
    minimization is descending to.  Always performs at least one iteration,
    and stops unconverged as soon as the norm is not finite.  Adds one ``am``
    row per sweep to ``report``, numbered from 1 in this call.
    """
    report = NonlinearReport() if report is None else report
    impose_dirichlet(state, problem)
    if not report.iterations:
        report.entry_energy = assemble_energy(state, problem).total

    lagged_u, lagged_alpha = (LaggedFactorization(LAGGED_ATOL_FACTOR * config.outer_atol,
                                                  LAGGED_CG_ITERATIONS) for _ in range(2))
    d_prev = None
    for sweep in range(1, config.max_am_iterations + 1):
        u_prev = state.u.copy()
        u_star = elastic_step(state, problem, lagged_u)
        state.u = u_prev + config.omega * (u_star - u_prev)
        impose_dirichlet(state, problem)

        strains = element_strains(state, problem)
        Kaa, c = damage_system(state, problem, strains)
        a_prev = state.alpha.copy()
        a_star, _ = damage_step(state, problem, config, (Kaa, c), lagged_alpha)
        omega_bar = config.omega
        cand = a_star if omega_bar == 1.0 else a_prev + omega_bar * (a_star - a_prev)
        # an infeasible over-relaxed update moves omega_bar halfway back to 1,
        # reached exactly within 54 halvings, where cand is a_star (rsls_solve
        # keeps it in the box)
        while omega_bar != 1.0 and (np.any(cand < state.alpha_lb) or np.any(cand > 1.0)):
            omega_bar = 0.5 * (1.0 + omega_bar)
            cand = a_star if omega_bar == 1.0 else a_prev + omega_bar * (a_star - a_prev)
        state.alpha = cand
        d_alpha = float(np.max(np.abs(state.alpha - a_prev), initial=0.0))

        res = residual_norm(state, problem, strains, Kaa @ state.alpha + c)
        energy = assemble_energy(state, problem, strains)
        report.iterations.append(Iteration("am", cycle, sweep, res, omega_bar, energy.elastic,
                                           energy.dissipated, energy.total))
        report.am_iterations += 1
        report.final_residual_norm = res
        if d_alpha == 0.0:
            settled = True
        elif d_prev is not None and d_alpha < d_prev:
            settled = d_alpha * d_alpha / (d_prev - d_alpha) <= NEWTON_DALPHA
        else:
            settled = False
        d_prev = d_alpha
        if not math.isfinite(res):
            break
        if res <= config.outer_atol or (res <= target and settled):
            report.converged = True
            break
    report.elastic_factorizations += lagged_u.factorizations
    report.damage_factorizations += lagged_alpha.factorizations
    return report


# -- coupled Newton ----------------------------------------------------------------


def _inactive_blocks(J: BlockJacobian, inactive: np.ndarray):
    """Rows and columns ``inactive`` (stacked numbering) of ``J``.  ``coupled_mcp``
    bounds no displacement dof, so all are inactive and the A block is ``J.A``.

    Returns (BlockJacobian, inactive_u_indices, inactive_alpha_indices).
    """
    iu = inactive[inactive < J.nu]
    ia = inactive[inactive >= J.nu] - J.nu
    return BlockJacobian(J.A, extract_submatrix(J.B, iu, ia), extract_submatrix(J.C, ia, ia)), iu, ia


def _coupled_linear_solve(J: BlockJacobian, inactive: np.ndarray, rhs: np.ndarray,
                          report: NonlinearReport, held: Optional[list] = None) -> np.ndarray:
    """Field-split solve of the inactive block, with MINRES on ``C - B^T A^-1 B``
    preconditioned by C as its damage solve: exactly field-split MINRES on the
    whole block started at ``(A^-1 b_u, 0)``, with one A-solve per iteration.
    Adds a converged solve's iterations to ``report.total_krylov_iterations``.

    ``held`` (a list of at most one factor) carries the factor of A from one
    call to the next, refactored from A's first changed row on and emptied
    while that runs.  A fresh factor eliminates last the displacement rows
    that B couples to the damage, and the A-solves inside the Schur product
    solve only from the first of them: ``B z`` vanishes before it, and ``B^T``
    reads nothing else."""
    red, _, _ = _inactive_blocks(J, inactive)
    held = [] if held is None else held
    reach, n = np.flatnonzero(np.diff(red.B.indptr)), red.nu
    factor = direct_factorize(red.A, held.pop() if held else None,
                              flip=reach.size > 0 and reach[0] < n - 1 - reach[-1])
    held.append(factor)
    start = int((n - 1 - reach if factor.flip else reach).min(initial=n))
    solve_c = inner_direct(red.C)
    # dtype given, so that scipy does not probe the operators with a solve
    schur = spla.LinearOperator(
        red.C.shape, dtype=float,
        matvec=lambda z: red.C @ z - red.Bt @ factor.solve(red.B @ z, start))
    precond = spla.LinearOperator(red.C.shape, solve_c, dtype=float)
    def solve_schur(g: np.ndarray) -> np.ndarray:
        z, rep = minres_solve(schur, g, rtol=FIELDSPLIT_RTOL, precond=precond)
        if not rep.converged:
            raise LinearSolverError(
                f"field-split MINRES stalled at residual {rep.final_residual_norm:.3e}")
        report.total_krylov_iterations += rep.iterations
        return z

    return FieldSplitPreconditioner(red, factor.solve, solve_schur).matvec(rhs)


def coupled_mcp(state: State, problem: Discretization) -> MCProblem:
    """The stacked (u, alpha) system as a mixed complementarity problem.

    Displacement components are unbounded; Dirichlet rows carry the residual
    ``u - ubar`` and an identity Jacobian row, which pins them without bounds.
    """
    nu = problem.n_udofs
    work = state.copy()

    def unpack(x: np.ndarray) -> None:
        work.u = x[:nu]
        work.alpha = x[nu:]

    def residual(x: np.ndarray) -> np.ndarray:
        unpack(x)
        strains = element_strains(work, problem)
        return np.concatenate([assemble_residual_u(work, problem, apply_bc=True, strains=strains),
                               assemble_residual_alpha(work, problem, strains)])

    def jacobian(x: np.ndarray) -> BlockJacobian:
        unpack(x)
        strains = element_strains(work, problem)
        return BlockJacobian(assemble_Kuu(work, problem, apply_bc=True),
                             assemble_Kua(work, problem, apply_bc=True, strains=strains),
                             assemble_Kaa(work, problem, strains))

    lower = np.concatenate([np.full(nu, -np.inf), state.alpha_lb])
    upper = np.concatenate([np.full(nu, np.inf), np.ones(problem.n_vertices)])
    return MCProblem(residual, jacobian, lower, upper)


def coupled_newton_solve(state: State, problem: Discretization,
                         config: SolverConfig, cycle: int = 0,
                         report: Optional[NonlinearReport] = None) -> State:
    """Active-set Newton on the stacked system from the current state.

    Does not mutate ``state``; returns the new state, the last
    merit-nonincreasing iterate even on failure.  ``report`` (a new one by
    default) takes the outcome, counts the attempt and its Newton and MINRES
    iterations, and gets one ``newton`` row per residual, the starting one
    first.  The Newton steps share one factor of the displacement block (see
    :func:`_coupled_linear_solve`), released when the solve returns.

    The boundary rows of ``state.u`` should already satisfy the Dirichlet
    data (run an elastic presolve or an alternate-minimization sweep first):
    the stacked Jacobian eliminates boundary columns symmetrically, so
    directions computed from boundary-inconsistent states lack the
    boundary-to-interior coupling.
    """
    report = NonlinearReport() if report is None else report
    mcp = coupled_mcp(state, problem)
    x0 = np.concatenate([state.u, state.alpha])
    x, rep = rsls_solve(mcp, x0, abs_tol=config.outer_atol,
                        max_iterations=MAX_NEWTON_ITERATIONS,
                        linear_solver=partial(_coupled_linear_solve, report=report, held=[]))
    out = state.copy()
    out.u = x[:problem.n_udofs]
    out.alpha = x[problem.n_udofs:]
    report.converged, report.final_residual_norm = rep.converged, rep.final_residual_norm
    report.newton_attempts += 1
    report.newton_iterations += rep.iterations
    report.iterations.extend(Iteration("newton", cycle, k, r)
                             for k, r in enumerate(rep.residual_history))
    return out


def oram_n_solve(state: State, problem: Discretization, config: SolverConfig,
                 report: Optional[NonlinearReport] = None) -> NonlinearReport:
    """Over-relaxed alternate minimization composed with coupled Newton.

    Each outer cycle measures the optimality norm, runs alternate
    minimization until it falls by ``AM_RTOL`` with the damage field settled
    (see :func:`am_solve`), and then attempts the Newton solve.  The Newton
    result is accepted only if it converged without raising the total energy
    above the hand-off value: near crack-advance bifurcations the semismooth
    Newton method could otherwise hop to a stationary point on an
    energetically worse branch than the one alternate minimization descends
    to.  A rejected or unconverged Newton phase never loses the cycle's
    progress — the next cycle resumes alternate minimization from the
    hand-off point with a tighter target — so the accepted-state energy never
    exceeds the pure alternate-minimization trajectory.
    """
    report = NonlinearReport() if report is None else report
    impose_dirichlet(state, problem)

    for cycle in range(MAX_OUTER_CYCLES):
        norm = residual_norm(state, problem)
        if norm <= config.outer_atol:
            break

        am_solve(state, problem, config, target=AM_RTOL * norm, cycle=cycle, report=report)
        if not math.isfinite(report.final_residual_norm):
            break
        if report.final_residual_norm <= config.outer_atol:
            break

        e_handoff = report.iterations[-1].total
        newt_state = coupled_newton_solve(state, problem, config, cycle=cycle, report=report)
        e_newton = assemble_energy(newt_state, problem).total
        if report.converged and e_newton <= e_handoff + 1e-12 * (1.0 + abs(e_handoff)):
            state.u, state.alpha = newt_state.u, newt_state.alpha
            break

    report.final_residual_norm = residual_norm(state, problem)
    report.converged = report.final_residual_norm <= config.outer_atol
    return report


def solve_load_step(state: State, problem: Discretization, config: SolverConfig,
                    report: Optional[NonlinearReport] = None) -> NonlinearReport:
    """Dispatch one load step to the configured method; mutates ``state``, fills ``report``."""
    report = NonlinearReport() if report is None else report
    if config.method == "oram_newton":
        return oram_n_solve(state, problem, config, report)
    if config.method == "newton_only":
        # Lift the new boundary data onto the iterate with one linear elastic
        # presolve at the current damage.  The boundary rows must be exactly
        # satisfied before the coupled Newton solve: the stacked Jacobian
        # eliminates boundary columns symmetrically (to stay symmetric for
        # MINRES), so directions computed from boundary-inconsistent states
        # drop the boundary-to-interior coupling and wander; snapping the raw
        # boundary values instead creates a strain spike whose damage driving
        # force strands the merit line search.
        state.u = elastic_step(state, problem)
        new_state = coupled_newton_solve(state, problem, config, report=report)
        state.u, state.alpha = new_state.u, new_state.alpha
        return report
    return am_solve(state, problem, config, report=report)


# -- reduced block system at a solved state ----------------------------------------


def inactive_block_jacobian(state: State, problem: Discretization):
    """Symmetric block Jacobian restricted to the inactive set at ``state``.

    Returns (BlockJacobian, inactive_u_indices, inactive_alpha_indices); used
    to study Krylov solvers on the linear systems the coupled Newton method
    actually faces.
    """
    mcp = coupled_mcp(state, problem)
    x = np.concatenate([state.u, state.alpha])
    part = classify_active(x, mcp.residual(x), mcp.lower, mcp.upper, active_set_slack(x))
    return _inactive_blocks(mcp.jacobian(x), part.inactive)
