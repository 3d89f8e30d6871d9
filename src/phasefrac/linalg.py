"""Sparse linear algebra kernels: MINRES, direct solves, lagged-LU CG, block
preconditioner.

Matrices are scipy CSR (compressed-row storage with sorted, duplicate-free
indices).  MINRES is written out longhand because its iteration counts and
residual norms are reported quantities; direct factorization delegates to
SuperLU, which factors A^T (the CSC view of CSR A) and solves transposed, so
every solve is of A.  A sequence of nearby SPD systems can reuse one LU as the
preconditioner of a short CG solve, refactoring only when CG misses its
iteration budget or the caller's key changes.  Each Newton solve is one field
split: damage by MINRES on ``C - B^T A^-1 B`` with C's LU, one A-solve per step.

Operators need ``shape`` and ``A @ x``; preconditioners need ``matvec(r)``,
which applies a fixed SPD approximation of the inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class LinearSolverError(Exception):
    """Base class for linear-solver failures."""


class BreakdownError(LinearSolverError):
    """Krylov recurrence breakdown (indefinite operator or preconditioner)."""


class SingularOperatorError(LinearSolverError):
    """Exact zero pivot, or a non-finite entry, in a matrix to factorize."""


@dataclass
class LinearSolveReport:
    iterations: int
    final_residual_norm: float
    converged: bool


@dataclass
class BlockJacobian:
    """Symmetric 2x2 block matrix [[A, B], [B^T, C]]."""

    A: sp.csr_matrix
    B: sp.csr_matrix
    C: sp.csr_matrix

    @property
    def nu(self) -> int:
        return self.A.shape[0]

    @property
    def na(self) -> int:
        return self.C.shape[0]

    @property
    def shape(self):
        n = self.nu + self.na
        return (n, n)

    @property
    def T(self) -> "BlockJacobian":
        return self   # symmetric

    @cached_property
    def Bt(self) -> sp.csr_matrix:
        """``B.T`` as CSR, built once: ``B.T`` itself is a new matrix on every use."""
        return self.B.T.tocsr()

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        xu, xa = x[: self.nu], x[self.nu:]
        return np.concatenate([self.A @ xu + self.B @ xa,
                               self.Bt @ xu + self.C @ xa])


# -- MINRES --------------------------------------------------------------------


def minres_solve(A, b: np.ndarray, precond=None, rtol: float = 1e-8,
                 maxit: Optional[int] = None):
    """MINRES for symmetric (possibly indefinite) systems, x0 = 0.

    ``precond`` (``None`` is the identity) must be symmetric positive definite;
    convergence is tested on the preconditioned residual norm, which the
    recurrence decreases monotonically.
    """
    apply_precond = (lambda r: r) if precond is None else precond.matvec
    n = A.shape[0]
    maxit = maxit if maxit is not None else 10 * n
    x = np.zeros(n)
    r1 = b.copy()
    y = apply_precond(r1)
    beta1 = float(r1 @ y)
    if beta1 < 0.0:
        raise BreakdownError(f"minres: preconditioner not SPD (r'M^-1 r = {beta1:.3e})")
    beta1 = np.sqrt(beta1)
    if beta1 == 0.0:
        return x, LinearSolveReport(0, 0.0, True)
    target = rtol * beta1

    oldb = 0.0
    beta = beta1
    dbar = epsln = 0.0
    phibar = beta1
    cs, sn = -1.0, 0.0
    w = np.zeros(n)
    w2 = np.zeros(n)
    r2 = r1
    it = 0
    while it < maxit and phibar > target:
        it += 1
        s = 1.0 / beta
        v = s * y
        y = A @ v
        if it >= 2:
            y = y - (beta / oldb) * r1
        alfa = float(v @ y)
        y = y - (alfa / beta) * r2
        r1 = r2
        r2 = y
        y = apply_precond(r2)
        oldb = beta
        beta = float(r2 @ y)
        if beta < 0.0:
            raise BreakdownError(f"minres: preconditioner not SPD at iteration {it} "
                                 f"(r'M^-1 r = {beta:.3e})")
        beta = np.sqrt(beta)

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(np.hypot(gbar, beta), np.finfo(float).eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w
    return x, LinearSolveReport(it, float(phibar), phibar <= target)


# -- direct solves ------------------------------------------------------------


class DirectFactorization:
    """SuperLU factor of A^T (``_lu``); ``solve(b)`` solves A x = b through
    SuperLU's transposed path, the faster one on these factors."""

    def __init__(self, lu):
        self._lu = lu

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(b, dtype=float), trans="T")


def direct_factorize(A) -> DirectFactorization:
    """Sparse LU of a symmetric positive definite matrix; an exact zero pivot
    or a non-finite entry raises.

    SuperLU runs in symmetric mode (minimum degree on A^T + A, pivots taken
    on the diagonal), which keeps the symmetric structure and roughly halves
    the fill of partial pivoting.  It factors A^T, the CSC view of A as CSR
    (a CSR input is not copied).
    """
    At = sp.csr_matrix(A).T
    if not np.all(np.isfinite(At.data)):
        raise SingularOperatorError("non-finite entry in the matrix to factorize")
    try:
        lu = spla.splu(At, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularOperatorError(f"singular matrix in LU factorization: {exc}") from exc
    return DirectFactorization(lu)


def _pcg(A, b: np.ndarray, x0: np.ndarray, precond: Callable, atol: float,
         maxit: int):
    """Preconditioned CG from ``x0`` until ||b - A x|| <= atol, at most ``maxit``
    iterations; a NaN or a loss of positive curvature ends it unconverged."""
    x = x0.copy()
    r = b - A @ x
    rnorm = float(np.linalg.norm(r))
    it = 0
    if rnorm > atol and maxit > 0:
        z = precond(r)
        p = z
        rz = float(r @ z)
        while it < maxit:
            it += 1
            Ap = A @ p
            pAp = float(p @ Ap)
            if not pAp > 0.0:
                break
            step = rz / pAp
            x += step * p
            r -= step * Ap
            rnorm = float(np.linalg.norm(r))
            if rnorm <= atol:
                break
            z = precond(r)
            rz_new = float(r @ z)
            p = z + (rz_new / rz) * p
            rz = rz_new
    return x, LinearSolveReport(it, rnorm, rnorm <= atol)


class LaggedFactorization:
    """Solves a sequence of nearby SPD systems with the LU of an earlier one.

    ``solve`` runs CG preconditioned by the held factorization, started from
    the caller's guess.  If CG has not reached ``atol`` (absolute, on the
    unpreconditioned residual) within ``max_iterations``, or nothing is held
    yet, or it was made under another ``key`` (by ``np.array_equal``), the
    held factorization is released, the current matrix is factored and kept,
    and its exact solve is returned.  At most one factorization is
    alive at a time.  ``factorizations`` and ``cg_iterations`` count the work
    done over the holder's life.
    """

    def __init__(self, atol: float, max_iterations: int):
        self.atol = atol
        self.max_iterations = max_iterations
        self.factor: Optional[DirectFactorization] = None
        self.key = None
        self.factorizations = 0
        self.cg_iterations = 0

    def solve(self, A, b: np.ndarray, x0: np.ndarray, key=None) -> np.ndarray:
        if self.factor is not None and np.array_equal(key, self.key):
            x, rep = _pcg(A, b, x0, self.factor.solve, self.atol, self.max_iterations)
            self.cg_iterations += rep.iterations
            if rep.converged:
                return x
        self.factor = None   # freed before the next is built, to bound peak memory
        self.factor, self.key = direct_factorize(A), key
        self.factorizations += 1
        return self.factor.solve(b)


# -- submatrix extraction ------------------------------------------------------


def extract_submatrix(A: sp.csr_matrix, rows: np.ndarray, cols: np.ndarray) -> sp.csr_matrix:
    """CSR submatrix A[rows, cols] for sorted, duplicate-free index sets, by one entry mask."""
    row_of, col_of = (np.full(n, -1, dtype=A.indices.dtype) for n in A.shape)
    row_of[rows], col_of[cols] = np.arange(rows.size), np.arange(cols.size)
    r, c = np.repeat(row_of, np.diff(A.indptr)), col_of.take(A.indices)
    keep = np.flatnonzero((r >= 0) & (c >= 0))
    indptr = np.searchsorted(r.take(keep), np.arange(rows.size + 1))
    sub = sp.csr_matrix((A.data.take(keep), c.take(keep), indptr), shape=(rows.size, cols.size))
    sub.sort_indices()
    return sub


# -- field-split block preconditioner -------------------------------------------


class FieldSplitPreconditioner:
    """Exact inverse of [[A, B], [B^T, C]] with C standing in for the Schur
    complement:

        P^-1 = [[A^-1 + A^-1 B C^-1 B^T A^-1, -A^-1 B C^-1],
                [-C^-1 B^T A^-1,               C^-1        ]]

    applied multiplicatively: two A-solves around one C-solve, the second
    skipped when the C-solve gives 0.  ``inner_a`` and ``inner_c`` are
    callables b -> x.  With linear symmetric inner solves the operator is
    symmetric (and SPD when A and C are SPD).  With ``inner_c`` MINRES on
    ``S = C - B^T A^-1 B`` preconditioned by C, as in the coupled Newton
    solve, one application solves the block with the iterates of MINRES with
    P on the whole block started at ``(A^-1 b_u, 0)``.
    """

    def __init__(self, block: BlockJacobian, inner_a: Callable, inner_c: Callable):
        self.block = block
        self._inner_a = inner_a
        self._inner_c = inner_c

    def matvec(self, r: np.ndarray) -> np.ndarray:
        J, nu = self.block, self.block.nu
        y1 = self._inner_a(r[:nu])
        z = self._inner_c(r[nu:] - J.Bt @ y1)
        xu = y1 - self._inner_a(J.B @ z) if z.any() else y1
        return np.concatenate([xu, z])


def inner_direct(M) -> Callable[[np.ndarray], np.ndarray]:
    """Exact inner solver: one LU factorization, reused per application."""
    if M.shape[0] == 0:
        return lambda b: np.zeros(0)
    fact = direct_factorize(M)
    return fact.solve

