"""Sparse linear algebra kernels: MINRES, direct solves, lagged-factor CG, block
preconditioner.

Matrices are scipy CSR (compressed-row storage with sorted, duplicate-free
indices).  MINRES is written out longhand because its iteration counts and
residual norms are reported quantities; direct factorization is LAPACK's
banded Cholesky, which the grid's numbering (see ``mesh``) keeps narrow.  A
factor may eliminate the dofs in reverse order, may be refactored in place
from the first row where its matrix changed, and solves on its trailing rows
alone a right-hand side that vanishes before them.  A sequence of nearby SPD
systems can reuse one factor as the preconditioner of a short CG solve,
refactoring only when CG misses its iteration budget or the caller's key
changes.  Each Newton solve is one field split: damage by MINRES on
``C - B^T A^-1 B`` with C's factor, one A-solve per step.

Operators need ``shape`` and ``A @ x``; preconditioners need ``matvec(r)``,
which applies a fixed SPD approximation of the inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs


class LinearSolverError(Exception):
    """Base class for linear-solver failures."""


class BreakdownError(LinearSolverError):
    """Krylov recurrence breakdown (indefinite operator or preconditioner)."""


class SingularOperatorError(LinearSolverError):
    """Nonpositive pivot, or a non-finite entry, in a matrix to factorize."""


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
    """Cholesky factor P A P^T = U^T U of a band matrix, P the identity or, with
    ``flip``, the reversal of the dofs; U in LAPACK upper band storage
    (``band[b + i - j, j] = U[i, j]``, b the half-bandwidth).  ``A`` is the
    matrix factored, unmodified, which ``direct_factorize(..., last=self)``
    compares with."""

    def __init__(self, band: np.ndarray, A: sp.csr_matrix, flip: bool):
        self.band, self.A, self.flip = band, A, flip

    def solve(self, b: np.ndarray, start: int = 0) -> np.ndarray:
        """A^-1 b.  With ``start > 0`` only the rows from ``start`` (in elimination
        order) are solved, exactly when b vanishes before them: the solve runs on
        the band from b rows earlier, where each row's band segment is the full
        solve's, so those rows equal the full solve's bit for bit (earlier rows are 0)."""
        if self.flip:
            b = b[::-1]
        s = max(start + 1 - len(self.band), 0)
        x = dpbtrs(self.band[:, s:], b[s:])[0]
        x = np.concatenate([np.zeros(s), x]) if s else x
        return x[::-1] if self.flip else x

    @property
    def _lu(self) -> SimpleNamespace:
        """U and L = U^T as sparse views of the band (perfbench counts their entries)."""
        n = self.band.shape[1]
        U = sp.dia_matrix((self.band, np.arange(len(self.band))[::-1]), shape=(n, n))
        return SimpleNamespace(U=U, L=U.T)


def direct_factorize(A, last: Optional[DirectFactorization] = None,
                     flip: bool = False) -> DirectFactorization:
    """Banded Cholesky factor of a symmetric positive definite matrix, read from
    its upper triangle (half-bandwidth b: n (b + 1) values, about n b^2 flops);
    a nonpositive pivot or a non-finite entry raises.

    ``flip`` eliminates the dofs in reverse order.  ``last``, a factor of an
    earlier matrix with the same ``indptr`` and ``indices``, is consumed: the new
    factor keeps its orientation and its band, and the rows of U before A's first
    changed row ``keep`` (in elimination order) stay.  They couple to the rest
    only through W = U[keep - b:keep, keep:keep + b], so the trailing block is
    factored in place as A22 - W^T W (Davis & Hager, SIAM J. Matrix Anal. Appl.
    20, 1999); an unchanged matrix returns ``last``.  A fresh factor is the
    ``keep = 0`` case.  After a raise, ``last`` may hold a half-overwritten band.
    """
    A = sp.csr_matrix(A)
    if not np.all(np.isfinite(A.data)):
        raise SingularOperatorError("non-finite entry in the matrix to factorize")
    n = A.shape[0]
    row = np.repeat(np.arange(n, dtype=A.indices.dtype), np.diff(A.indptr))
    offset = A.indices - row
    b = int(offset.max(initial=0))
    if last is not None and not (np.array_equal(A.indptr, last.A.indptr)
                                 and np.array_equal(A.indices, last.A.indices)):
        last = None   # released before a new band is allocated
    flip = flip if last is None else last.flip
    p = n - 1 - A.indices if flip else row   # the row of U an upper entry lands in
    if last is None:
        keep, band, W = 0, np.zeros((b + 1, n), order="F"), np.zeros((0, 0))
    else:
        changed = (offset >= 0) & (A.data != last.A.data)
        if not changed.any():
            return last
        keep, band = int(p[changed].min()), last.band
        h, m = min(b, keep), min(b, n - keep)
        i, j = np.tril_indices(h, b - h, m)   # W[i, j] = U[keep - h + i, keep + j]
        W = np.zeros((h, m))
        W[i, j] = band[b - h + i - j, keep + j]
        band[:, keep:] = 0.0
        band[b - h + i - j, keep + j] = W[i, j]
    new = np.flatnonzero((offset >= 0) & (p >= keep))
    o = offset[new]
    band[b - o, p[new] + o] = A.data[new]
    k, l = np.triu_indices(W.shape[1])
    band[b + k - l, keep + l] -= (W.T @ W)[k, l]
    info = dpbtrf(band[:, keep:], overwrite_ab=1)[1]
    if info > 0:
        raise SingularOperatorError(
            f"nonpositive pivot in column {keep + info} of the Cholesky factor")
    return DirectFactorization(band, A, flip)


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
    """Solves a sequence of nearby SPD systems with the factor of an earlier one.

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
    """Exact inner solver: one Cholesky factorization, reused per application."""
    if M.shape[0] == 0:
        return lambda b: np.zeros(0)
    return direct_factorize(M).solve

