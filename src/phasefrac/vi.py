"""Box-constrained nonlinear systems as mixed complementarity problems (MCP).

A solution of the MCP for F with bounds l <= x <= u satisfies, componentwise,
exactly one of

    l_i < x_i < u_i  and  F_i(x) = 0
    x_i = l_i        and  F_i(x) >= 0
    x_i = u_i        and  F_i(x) <= 0

The semismooth residual is built from the Fischer-Burmeister function
``phi(a, b) = sqrt(a^2 + b^2) - a - b`` (zero iff a, b >= 0 and a*b = 0),
composed as ``phi(x - l, phi(u - x, -F))``.  An absent bound is an infinite
distance, where ``phi(+inf, b) = -b``, so this one formula covers every row
that has a bound; rows with none pass F through.  The squared norm of the
residual is a smooth merit function.

``rsls_solve`` is a reduced-space active-set Newton method: bound-active
components with the right residual sign are frozen, a linear solver maps
``(J, inactive, rhs)`` to the Newton direction on the inactive block, and a
projected line search on the merit accepts the step, falling back to
(projected) steepest descent on the merit when the Newton direction is
unavailable or fails to decrease.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .linalg import LinearSolverError, direct_factorize, extract_submatrix

_SQRT2_M1 = 1.0 / np.sqrt(2.0) - 1.0
#: line search: step factor per backtrack, smallest step tried, Armijo slope fraction
LS_BACKTRACK = 0.5
LS_MIN_STEP = 1e-10
ARMIJO = 1e-4


@dataclass
class MCProblem:
    """Residual/Jacobian callbacks with box bounds (entries may be +-inf)."""

    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], Any]
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.shape != self.upper.shape:
            raise ValueError("bound shapes differ")
        if np.isnan(self.lower).any() or np.isnan(self.upper).any():
            raise ValueError("bounds must not be NaN")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")


@dataclass
class ActivePartition:
    lower: np.ndarray
    upper: np.ndarray
    inactive: np.ndarray


@dataclass
class ActiveSetReport:
    iterations: int
    converged: bool
    final_residual_norm: float
    residual_history: list = field(default_factory=list)
    steepest_descent_steps: int = 0
    linear_failures: int = 0


def fb_phi(a, b):
    """Fischer-Burmeister function sqrt(a^2 + b^2) - a - b (vectorized), and
    its limit -b where a = +inf."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    inf = a == np.inf
    a = np.where(inf, 0.0, a)
    return np.where(inf, -b, np.hypot(a, b) - a - b)


def fb_composite(x: np.ndarray, F: np.ndarray, lower: np.ndarray,
                 upper: np.ndarray) -> np.ndarray:
    """Semismooth residual Phi(x); free rows pass F through unchanged."""
    free = np.isneginf(lower) & np.isposinf(upper)
    return np.where(free, F, fb_phi(x - lower, fb_phi(upper - x, -F)))


def classify_active(x: np.ndarray, F: np.ndarray, lower: np.ndarray,
                    upper: np.ndarray, zeta: float) -> ActivePartition:
    """Split indices into bound-active (frozen) and inactive (Newton) sets.

    Lower-active: x within zeta of a finite lower bound with F > 0;
    upper-active: within zeta of a finite upper bound with F < 0.  An absent
    bound is at distance +inf, so it is never within zeta.
    """
    lower_active = (x - lower <= zeta) & (F > 0.0)
    upper_active = (upper - x <= zeta) & (F < 0.0) & ~lower_active
    inactive = ~(lower_active | upper_active)
    return ActivePartition(np.flatnonzero(lower_active),
                           np.flatnonzero(upper_active),
                           np.flatnonzero(inactive))


def _fb_partials(a, b):
    """(d/da, d/db) of fb_phi with the (1/sqrt2 - 1, .) subgradient at 0, and
    (0, -1) where a = +inf."""
    inf = a == np.inf
    a = np.where(inf, 0.0, a)
    rho = np.hypot(a, b)
    safe = rho > 0.0
    pa = np.where(safe, a / np.where(safe, rho, 1.0) - 1.0, _SQRT2_M1)
    pb = np.where(safe, b / np.where(safe, rho, 1.0) - 1.0, _SQRT2_M1)
    return np.where(inf, 0.0, pa), np.where(inf, -1.0, pb)


def _merit_gradient(x, F, phi, J, lower, upper) -> np.ndarray:
    """Gradient of ||Phi||^2: 2 J_Phi^T Phi with J_Phi = diag(p) + diag(q) J."""
    s = upper - x
    pa_o, pb_o = _fb_partials(x - lower, fb_phi(s, -F))
    pa_i, pb_i = _fb_partials(s, -F)
    # free rows: p is already 0, and q = 1 as Phi = F there
    p = pa_o - pb_o * pa_i
    q = np.where(np.isneginf(lower) & np.isposinf(upper), 1.0, -pb_o * pb_i)
    return 2.0 * (p * phi + J.T @ (q * phi))


def reduced_direct_solver(J, inactive: np.ndarray, rhs: np.ndarray, lagged=None):
    """Default inner solver: Cholesky on the inactive submatrix of a CSR Jacobian, or
    with ``lagged``, its ``solve`` from zero keyed by the inactive set."""
    sub = extract_submatrix(J, inactive, inactive)
    if lagged is not None:
        return lagged.solve(sub, rhs, np.zeros_like(rhs), key=inactive)
    return direct_factorize(sub).solve(rhs)


def active_set_slack(x: np.ndarray) -> float:
    """Distance to a bound within which ``rsls_solve`` may freeze a component
    of the iterate ``x``: 1e-10 * (1 + |x|_inf)."""
    return 1e-10 * (1.0 + float(np.max(np.abs(x), initial=0.0)))


def rsls_solve(problem: MCProblem, x0: np.ndarray, abs_tol: float = 1e-8,
               max_iterations: int = 100, linear_solver=None):
    """Reduced-space active-set semismooth Newton solve of the MCP.

    Stops when ||Phi|| <= ``abs_tol`` or after ``max_iterations``.  Returns
    (x, ActiveSetReport).  ``linear_solver`` (default
    :func:`reduced_direct_solver`) maps ``(J, inactive, rhs)`` to the solution
    y of ``J[inactive][:, inactive] y = rhs``; the Newton direction is ``-y``
    for ``rhs = F[inactive]``.  Every iterate is exactly feasible (trial points
    are clamped to the box); the merit ||Phi||^2 never increases across
    accepted iterations.  The active-set slack is ``active_set_slack`` of the
    clamped x0.
    """
    linear_solver = linear_solver or reduced_direct_solver
    x = np.clip(np.asarray(x0, dtype=float), problem.lower, problem.upper)
    zeta = active_set_slack(x)

    report = ActiveSetReport(0, False, np.inf)
    F = problem.residual(x)
    phi = fb_composite(x, F, problem.lower, problem.upper)
    merit = float(phi @ phi)
    report.residual_history.append(np.sqrt(merit))

    def line_search(d, bound):
        """Backtrack on projected trials; bound(mu) is the acceptance target."""
        mu = 1.0
        while mu >= LS_MIN_STEP:
            trial = np.clip(x + mu * d, problem.lower, problem.upper)
            F_t = problem.residual(trial)
            phi_t = fb_composite(trial, F_t, problem.lower, problem.upper)
            m_t = float(phi_t @ phi_t)
            if m_t <= bound(mu):
                return trial, F_t, phi_t, m_t
            mu *= LS_BACKTRACK
        return None

    for it in range(1, max_iterations + 1):
        if np.sqrt(merit) <= abs_tol:
            break
        report.iterations = it

        part = classify_active(x, F, problem.lower, problem.upper, zeta)
        J = problem.jacobian(x)
        accepted = None

        if part.inactive.size:
            d = np.zeros_like(x)
            try:
                d[part.inactive] = -linear_solver(J, part.inactive, F[part.inactive])
                accepted = line_search(
                    d, lambda mu: (1.0 - 2.0 * ARMIJO * mu) * merit)
            except (LinearSolverError, np.linalg.LinAlgError):
                report.linear_failures += 1

        if accepted is None:
            g = _merit_gradient(x, F, phi, J, problem.lower, problem.upper)
            gnorm = float(np.linalg.norm(g))
            if gnorm > 0.0:
                scale = 1.0 / max(1.0, gnorm)
                accepted = line_search(
                    -scale * g,
                    lambda mu: merit - ARMIJO * mu * scale * gnorm * gnorm)
                report.steepest_descent_steps += 1
        if accepted is None:
            break  # stagnation: no descent along Newton or gradient direction

        x, F, phi, merit = accepted
        report.residual_history.append(np.sqrt(merit))

    report.final_residual_norm = float(np.sqrt(merit))
    report.converged = report.final_residual_norm <= abs_tol
    return x, report
