"""MINRES, direct solves and partial refactors, lagged-LU CG, the field-split
preconditioner, block operators, sparse utilities."""

import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import block_csr, random_spd

import phasefrac.linalg
from phasefrac.cases import run_quasistatic, setup_surfing
from phasefrac.fem import State, assemble_Kuu
from phasefrac.linalg import (BlockJacobian, FieldSplitPreconditioner,
                              LaggedFactorization, SingularOperatorError,
                              direct_factorize, extract_submatrix, inner_direct,
                              minres_solve)
from phasefrac.solver import SolverConfig, inactive_block_jacobian


def laplacian_1d(n: int) -> sp.csr_matrix:
    main = 2.0 * np.ones(n)
    off = -np.ones(n - 1)
    return sp.diags([off, main, off], [-1, 0, 1]).tocsr()


def laplacian_2d(n: int) -> sp.csr_matrix:
    eye = sp.eye(n)
    return (sp.kron(laplacian_1d(n), eye) + sp.kron(eye, laplacian_1d(n))).tocsr()


class TestMINRES:
    def test_identity(self):
        b = np.array([2.0, -1.0])
        x, rep = minres_solve(sp.eye(2, format="csr"), b)
        assert np.allclose(x, b, rtol=1e-12) and rep.iterations <= 1

    def test_indefinite_diagonal(self):
        A = sp.diags([1.0, -1.0]).tocsr()
        x, rep = minres_solve(A, np.array([2.0, 3.0]), rtol=1e-12)
        assert np.allclose(x, [2.0, -3.0], rtol=1e-10)
        assert rep.converged

    def test_random_symmetric_indefinite_matches_dense(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((40, 40))
        A = 0.5 * (M + M.T) + np.diag(np.sign(rng.standard_normal(40)) * 5)
        b = rng.standard_normal(40)
        x, rep = minres_solve(sp.csr_matrix(A), b, rtol=1e-12, maxit=2000)
        assert rep.converged
        assert np.allclose(x, np.linalg.solve(A, b), rtol=1e-8)

    def test_reported_residual_monotone_in_budget(self):
        # rerunning with growing iteration caps retraces the same iterates,
        # so the reported (preconditioned) residual must be nonincreasing
        rng = np.random.default_rng(3)
        M = rng.standard_normal((20, 20))
        A = sp.csr_matrix(0.5 * (M + M.T) + 2 * np.eye(20))
        b = rng.standard_normal(20)
        res = [minres_solve(A, b, rtol=1e-14, maxit=k)[1].final_residual_norm
               for k in range(1, 21)]
        assert np.all(np.diff(res) <= 1e-12 * res[0])

    def test_block_operator_input(self):
        rng = np.random.default_rng(4)
        A = sp.csr_matrix(random_spd(rng, 6))
        C = sp.csr_matrix(random_spd(rng, 4))
        B = sp.csr_matrix(rng.standard_normal((6, 4)) * 0.1)
        J = BlockJacobian(A, B, C)
        b = rng.standard_normal(10)
        x, rep = minres_solve(J, b, rtol=1e-12, maxit=500)
        assert rep.converged
        assert np.allclose(block_csr(J) @ x, b, atol=1e-9)


class TestDirect:
    def test_identity(self):
        f = direct_factorize(sp.eye(3, format="csr"))
        b = np.array([1.0, 2.0, 3.0])
        assert np.allclose(f.solve(b), b, rtol=1e-14)

    def test_tridiagonal_closed_form(self):
        n = 5
        x = direct_factorize(laplacian_1d(n)).solve(np.ones(n))
        i = np.arange(1, n + 1)
        assert np.allclose(x, i * (n + 1 - i) / 2.0, rtol=1e-12)

    def test_singular_matrix_raises(self):
        A = sp.csr_matrix(np.ones((3, 3)))
        with pytest.raises(SingularOperatorError):
            direct_factorize(A)

    def test_right_inverse_quality(self):
        rng = np.random.default_rng(5)
        A = sp.csr_matrix(random_spd(rng, 30))
        b = rng.standard_normal(30)
        x = direct_factorize(A).solve(b)
        assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)

    def test_spd_path_sparse_residual(self):
        rng = np.random.default_rng(40)
        A = laplacian_2d(30) + sp.diags(rng.uniform(0.0, 1e-3, 900))
        b = rng.standard_normal(900)
        x = direct_factorize(A).solve(b)
        assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)

    def test_zero_row_raises(self):
        A = laplacian_2d(10).tolil()
        A[37, :] = 0.0
        A[:, 37] = 0.0
        with pytest.raises(SingularOperatorError):
            direct_factorize(A.tocsr())

    @pytest.mark.parametrize("n", [3, 2100])
    def test_non_finite_entry_raises_typed_error(self, n):
        A = laplacian_1d(n).tolil()
        A[1, 1] = np.nan
        A[n - 1, n - 2] = np.inf
        with pytest.raises(SingularOperatorError):
            direct_factorize(A.tocsr())

    def test_csr_spd_matrix_matches_spsolve(self):
        rng = np.random.default_rng(41)
        A = (laplacian_2d(12) + sp.diags(rng.uniform(0.1, 1.0, 144))).tocsr()
        A = (A + sp.csr_matrix(random_spd(rng, 144, shift=200.0)) * 1e-3).tocsr()
        b = rng.standard_normal(144)
        expected = spla.spsolve(A.tocsc(), b)
        x = direct_factorize(A).solve(b)
        assert np.allclose(x, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("form", ["csr", "csc", "dense"])
    def test_reads_only_the_upper_triangle(self, form):
        # the factor is that of the symmetric matrix with A's upper triangle,
        # whatever the strictly lower triangle holds
        rng = np.random.default_rng(42)
        A = laplacian_2d(8) + 4.0 * sp.eye(64)
        skewed = (A + sp.tril(A, -1).multiply(rng.uniform(0.2, 0.8, A.shape))).tocsr()
        b = rng.standard_normal(A.shape[0])
        M = {"csr": skewed, "csc": skewed.tocsc(), "dense": skewed.toarray()}[form]
        x = direct_factorize(M).solve(b)
        assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)
        assert np.array_equal(x, direct_factorize(A).solve(b))

    def test_indefinite_matrix_raises(self):
        # a symmetric matrix with a negative eigenvalue has no Cholesky factor
        with pytest.raises(SingularOperatorError, match="nonpositive pivot"):
            direct_factorize(sp.diags([1.0, -1.0, 1.0]).tocsr())

    def test_surfing_block_is_factored_in_its_grid_band(self):
        setup = setup_surfing(n_steps=2)
        state = State.zeros(setup.mesh)
        setup.apply_load(setup.problem, state, 0.0)
        K = assemble_Kuu(state, setup.problem, apply_bc=True)
        # vertex (i, j) couples to (i + 1, j + 1), ny + 2 vertices on; two dofs each
        ny = np.unique(setup.mesh.vertices[:, 1]).size - 1
        factor = direct_factorize(K)
        assert factor.band.shape == (2 * (ny + 2) + 2, K.shape[0])
        assert factor.band.shape[0] - 1 == 73
        b = np.ones(K.shape[0])
        assert np.linalg.norm(b - K @ factor.solve(b)) <= 1e-10 * np.linalg.norm(b)


@pytest.fixture(scope="module")
def surfing_elastic():
    """The surfing elastic block undamaged, and with damage near x = 1.5 (of 2)."""
    setup = setup_surfing(n_steps=2)
    state = State.zeros(setup.mesh)
    setup.apply_load(setup.problem, state, 0.0)
    K0 = assemble_Kuu(state, setup.problem, apply_bc=True)
    state.alpha = np.where(np.abs(setup.mesh.vertices[:, 0] - 1.5) < 0.05, 0.7, 0.0)
    return K0, assemble_Kuu(state, setup.problem, apply_bc=True)


def first_changed_row(A0, A1, flip):
    """First row of U, in elimination order, that an upper entry of A1 - A0 lands in."""
    i, j = sp.triu(A1 - A0).nonzero()
    return int((A0.shape[0] - 1 - j if flip else i).min())


class TestPartialRefactor:
    @pytest.mark.parametrize("flip", [False, True])
    def test_local_damage_refactors_the_tail_in_place(self, surfing_elastic, flip):
        K0, K1 = surfing_elastic
        keep = first_changed_row(K0, K1, flip)
        held = direct_factorize(K0, flip=flip)
        before = held.band.copy()
        factor = direct_factorize(K1, last=held)
        assert factor.band is held.band and factor.flip == flip
        assert K0.shape[0] // 5 < keep
        assert np.array_equal(factor.band[:, :keep], before[:, :keep])
        b = np.random.default_rng(43).standard_normal(K1.shape[0])
        x = direct_factorize(K1, flip=flip).solve(b)
        assert np.linalg.norm(factor.solve(b) - x) <= 1e-14 * np.linalg.norm(x)

    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize("row", [0, 3, 70, 143])
    def test_any_first_changed_row(self, flip, row):
        # rows 0 and 3 lie within one half-bandwidth (12) of the first row
        A0 = (laplacian_2d(12) + 4.0 * sp.eye(144)).tocsr()
        A1 = A0.copy()
        A1.data[A1.indptr[row]:A1.indptr[row + 1]] *= 1.5   # only the upper part is read
        b = np.random.default_rng(44).standard_normal(144)
        factor = direct_factorize(A1, last=direct_factorize(A0, flip=flip))
        x = direct_factorize(A1, flip=flip).solve(b)
        assert np.linalg.norm(factor.solve(b) - x) <= 1e-14 * np.linalg.norm(x)

    @pytest.mark.parametrize("flip", [False, True])
    def test_tail_solve_is_the_full_solve_on_its_rows(self, surfing_elastic, flip):
        K = surfing_elastic[1]
        n = K.shape[0]
        factor = direct_factorize(K, flip=flip)
        rng = np.random.default_rng(45)
        for start in (1, 50, 73, 74, 3001, n - 1):
            rows = np.arange(start, n)   # in elimination order
            dofs = n - 1 - rows if flip else rows
            b = np.zeros(n)
            b[dofs] = rng.standard_normal(rows.size)
            assert np.array_equal(factor.solve(b, start)[dofs], factor.solve(b)[dofs])

    def test_unchanged_matrix_returns_the_held_factor(self, surfing_elastic):
        held = direct_factorize(surfing_elastic[0], flip=True)
        assert direct_factorize(surfing_elastic[0].copy(), last=held) is held

    def test_another_pattern_gets_a_fresh_factor(self):
        # the same nnz and indptr, other column indices
        def coupled(pairs):
            A = laplacian_1d(10) + 4.0 * sp.eye(10)
            for i, j in pairs:
                A = A + 0.5 * (sp.csr_matrix(([1.0], ([i], [j])), shape=(10, 10))
                               + sp.csr_matrix(([1.0], ([j], [i])), shape=(10, 10)))
            return A.tocsr()

        A0, A1 = coupled([(0, 5), (1, 6)]), coupled([(0, 6), (1, 5)])
        assert A0.nnz == A1.nnz and np.array_equal(A0.indptr, A1.indptr)
        held = direct_factorize(A0, flip=True)
        factor = direct_factorize(A1, last=held)
        assert factor.band is not held.band and not factor.flip
        b = np.ones(10)
        assert np.linalg.norm(b - A1 @ factor.solve(b)) <= 1e-13

    def test_nonpositive_pivot_in_the_tail_raises(self, surfing_elastic):
        K0 = surfing_elastic[0]
        bad = K0.copy()
        bad.data[bad.indptr[-1] - 1] = -1.0   # the last diagonal entry
        held = direct_factorize(K0)
        with pytest.raises(SingularOperatorError, match="nonpositive pivot"):
            direct_factorize(bad, last=held)


class TestLaggedFactorization:
    N = 20                 # 2D Laplacian on an N x N grid
    ATOL = 1e-9
    BUDGET = 4

    @pytest.fixture
    def factorizations(self, monkeypatch):
        calls = []
        factorize = phasefrac.linalg.direct_factorize

        def counted(*args, **kwargs):
            calls.append(1)
            return factorize(*args, **kwargs)

        monkeypatch.setattr(phasefrac.linalg, "direct_factorize", counted)
        return calls

    def held(self, A):
        """A holder whose factorization is that of ``A``."""
        lagged = LaggedFactorization(self.ATOL, self.BUDGET)
        lagged.solve(A, np.ones(A.shape[0]), np.zeros(A.shape[0]))
        assert lagged.factorizations == 1 and lagged.cg_iterations == 0
        return lagged

    def damaged(self, scale):
        """S L S + I with L the Laplacian and S = sqrt(scale) on the left half
        of the grid, 1 elsewhere: SPD, like a degraded elastic block."""
        left = np.arange(self.N * self.N) % self.N < self.N // 2
        S = sp.diags(np.where(left, np.sqrt(scale), 1.0))
        return (S @ laplacian_2d(self.N) @ S + sp.eye(self.N * self.N)).tocsr()

    def test_exact_factor_needs_at_most_one_iteration(self, factorizations):
        A = self.damaged(1.0)
        lagged = self.held(A)
        b = np.linspace(-1.0, 2.0, A.shape[0])
        x = lagged.solve(A, b, np.zeros_like(b))
        assert lagged.cg_iterations <= 1
        assert len(factorizations) == 1 and lagged.factorizations == 1
        assert np.linalg.norm(b - A @ x) <= self.ATOL

    def test_nearby_matrix_keeps_the_factor(self, factorizations):
        lagged = self.held(self.damaged(1.0))
        held = lagged.factor
        A = self.damaged(0.999)
        b = np.linspace(-1.0, 2.0, A.shape[0])
        x = lagged.solve(A, b, np.zeros_like(b))
        assert 1 <= lagged.cg_iterations <= self.BUDGET
        assert len(factorizations) == 1 and lagged.factor is held
        assert np.linalg.norm(b - A @ x) <= self.ATOL

    def test_far_matrix_refactors_once(self, factorizations):
        lagged = self.held(self.damaged(1.0))
        A = self.damaged(1e-3)
        b = np.linspace(-1.0, 2.0, A.shape[0])
        x = lagged.solve(A, b, np.zeros_like(b))
        assert lagged.cg_iterations == self.BUDGET
        assert len(factorizations) == 2 and lagged.factorizations == 2
        expected = direct_factorize(A).solve(b)
        assert np.allclose(x, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())

    def test_old_factor_released_before_refactoring(self, monkeypatch):
        lagged = self.held(self.damaged(1.0))
        old = weakref.ref(lagged.factor)
        factorize = phasefrac.linalg.direct_factorize
        alive = []

        def check(*args, **kwargs):
            alive.append(old() is not None)
            return factorize(*args, **kwargs)

        monkeypatch.setattr(phasefrac.linalg, "direct_factorize", check)
        b = np.ones(self.N * self.N)
        lagged.solve(self.damaged(1e-3), b, np.zeros_like(b))
        assert alive == [False]

    def test_same_key_keeps_the_factor_and_another_key_refactors(self, factorizations):
        A = self.damaged(1.0)
        b = np.linspace(-1.0, 2.0, A.shape[0])
        lagged = LaggedFactorization(self.ATOL, self.BUDGET)
        lagged.solve(A, b, np.zeros_like(b), key=np.arange(3))
        held = lagged.factor
        lagged.solve(self.damaged(0.999), b, np.zeros_like(b), key=np.arange(3))
        assert lagged.factor is held and len(factorizations) == 1
        x = lagged.solve(A, b, np.zeros_like(b), key=np.arange(1, 4))
        assert lagged.factor is not held and len(factorizations) == 2
        assert lagged.factorizations == 2
        assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)

    def test_non_finite_matrix_raises(self):
        lagged = self.held(self.damaged(1.0))
        A = self.damaged(1.0).tolil()
        A[3, 3] = np.nan
        b = np.ones(self.N * self.N)
        with pytest.raises(SingularOperatorError):
            lagged.solve(A.tocsr(), b, np.zeros_like(b))


class TestSubmatrix:
    def test_full_index_sets_identity(self):
        rng = np.random.default_rng(6)
        A = sp.random(8, 8, density=0.4, random_state=7).tocsr()
        idx = np.arange(8)
        assert abs(extract_submatrix(A, idx, idx) - A).max() == 0.0

    def test_matches_dense_slicing(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((10, 10))
        rows = np.array([0, 3, 7])
        cols = np.array([1, 2, 4, 9])
        S = extract_submatrix(sp.csr_matrix(A), rows, cols)
        assert np.allclose(S.toarray(), A[np.ix_(rows, cols)], rtol=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_fancy_indexing(self, seed):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(1, 30, size=2)
        A = sp.random(m, n, density=0.2, random_state=seed, format="lil")
        A[0, :] = 0.0   # a row that keeps no entry
        A[:, n - 1] = 0.0   # and a column
        A = A.tocsr()
        index_sets = [(np.flatnonzero(rng.random(m) < 0.5), np.flatnonzero(rng.random(n) < 0.5)),
                      (np.array([0]), np.arange(n)), (np.arange(m), np.array([n - 1])),
                      (np.arange(0), np.arange(n)), (np.arange(m), np.arange(0)),
                      (np.arange(0), np.arange(0))]
        for rows, cols in index_sets:
            S = extract_submatrix(A, rows, cols)
            R = A[rows][:, cols]
            assert S.format == "csr" and S.shape == R.shape == (rows.size, cols.size)
            assert S.has_sorted_indices and S.nnz == R.nnz
            assert np.array_equal(S.toarray(), R.toarray())

    def test_spd_preserved(self):
        rng = np.random.default_rng(9)
        A = random_spd(rng, 12)
        keep = np.array([1, 4, 5, 9, 10])
        S = extract_submatrix(sp.csr_matrix(A), keep, keep).toarray()
        assert np.max(np.abs(S - S.T)) <= 1e-14
        assert np.linalg.eigvalsh(S).min() > 0.0


class TestFieldSplit:
    @staticmethod
    def make_block(rng, nu=6, na=4, coupling=0.2):
        A = random_spd(rng, nu)
        C = random_spd(rng, na)
        B = rng.standard_normal((nu, na)) * coupling
        J = BlockJacobian(sp.csr_matrix(A), sp.csr_matrix(B), sp.csr_matrix(C))
        return A, B, C, J

    def test_decoupled_blocks(self):
        rng = np.random.default_rng(10)
        A, B, C, _ = self.make_block(rng, coupling=0.0)
        J = BlockJacobian(sp.csr_matrix(A), sp.csr_matrix(0.0 * B), sp.csr_matrix(C))
        P = FieldSplitPreconditioner(J, inner_direct(J.A), inner_direct(J.C))
        r = rng.standard_normal(10)
        y = P.matvec(r)
        assert np.allclose(y[:6], np.linalg.solve(A, r[:6]), rtol=1e-10)
        assert np.allclose(y[6:], np.linalg.solve(C, r[6:]), rtol=1e-10)

    def test_matches_dense_block_formula(self):
        rng = np.random.default_rng(11)
        A, B, C, J = self.make_block(rng)
        P = FieldSplitPreconditioner(J, inner_direct(J.A), inner_direct(J.C))
        Ai = np.linalg.inv(A)
        Ci = np.linalg.inv(C)
        Pinv = np.block([[Ai + Ai @ B @ Ci @ B.T @ Ai, -Ai @ B @ Ci],
                         [-Ci @ B.T @ Ai, Ci]])
        r = rng.standard_normal(10)
        assert np.allclose(P.matvec(r), Pinv @ r, atol=1e-10)

    def test_symmetric_action(self):
        rng = np.random.default_rng(12)
        _, _, _, J = self.make_block(rng)
        P = FieldSplitPreconditioner(J, inner_direct(J.A), inner_direct(J.C))
        r = rng.standard_normal(10)
        s = rng.standard_normal(10)
        assert r @ P.matvec(s) == pytest.approx(
            s @ P.matvec(r), abs=1e-10)

    def test_preconditions_minres(self):
        rng = np.random.default_rng(13)
        _, _, _, J = self.make_block(rng, nu=20, na=12, coupling=0.1)
        P = FieldSplitPreconditioner(J, inner_direct(J.A), inner_direct(J.C))
        b = rng.standard_normal(32)
        x_pre, rep_pre = minres_solve(J, b, precond=P, rtol=1e-10, maxit=500)
        x_raw, rep_raw = minres_solve(J, b, rtol=1e-10, maxit=500)
        assert rep_pre.converged
        assert np.allclose(block_csr(J) @ x_pre, b, atol=1e-8)
        assert rep_pre.iterations <= rep_raw.iterations

    def test_fieldsplit_action_is_spd_on_surfing_block(self):
        # MINRES needs one fixed SPD preconditioner: check it on the inactive
        # block a surfing Newton solve faces, not only on random blocks
        setup = setup_surfing(h=0.05, n_steps=4)
        records = run_quasistatic(setup, SolverConfig(method="am", omega=1.6))
        state = State(records[-1].u, records[-1].alpha, records[-2].alpha)
        J, iu, ia = inactive_block_jacobian(state, setup.problem)
        assert iu.size and ia.size
        P = FieldSplitPreconditioner(J, inner_direct(J.A), inner_direct(J.C)).matvec
        rng = np.random.default_rng(17)
        b1, b2 = rng.standard_normal((2, J.shape[0]))
        scale = np.linalg.norm(P(b1)) + np.linalg.norm(P(b2))
        assert np.linalg.norm(P(b1 + b2) - P(b1) - P(b2)) <= 1e-12 * scale
        assert b1 @ P(b2) == pytest.approx(b2 @ P(b1), rel=1e-10)
        for b in (b1, b2):
            assert b @ P(b) > 0.0

    def test_empty_block_inner_solves(self):
        inner = inner_direct(sp.csr_matrix((0, 0)))
        assert inner(np.zeros(0)).shape == (0,)


class TestStationaryPreconditioners:
    def test_all_kinds_are_spd_actions(self):
        # MINRES needs an SPD preconditioner; field-split with LU inner solves is the only kind
        rng = np.random.default_rng(15)
        A = sp.csr_matrix(random_spd(rng, 12))
        block = BlockJacobian(A[:8, :8], A[:8, 8:], A[8:, 8:])
        M = FieldSplitPreconditioner(block, inner_direct(block.A), inner_direct(block.C))
        for _ in range(3):
            r = rng.standard_normal(12)
            s = rng.standard_normal(12)
            assert r @ M.matvec(s) == pytest.approx(s @ M.matvec(r), abs=1e-10)
            assert r @ M.matvec(r) > 0.0


class TestBlockJacobian:
    def test_matvec_matches_csr(self):
        rng = np.random.default_rng(16)
        A = sp.csr_matrix(random_spd(rng, 5))
        C = sp.csr_matrix(random_spd(rng, 3))
        B = sp.csr_matrix(rng.standard_normal((5, 3)))
        J = BlockJacobian(A, B, C)
        x = rng.standard_normal(8)
        assert np.allclose(J @ x, block_csr(J) @ x, rtol=1e-14)
        assert J.T is J
        assert J.shape == (8, 8)
        assert J.nu == 5 and J.na == 3
        # one CSR transpose per Jacobian, shared with the preconditioner
        assert J.Bt.format == "csr" and J.Bt is J.Bt
        P = FieldSplitPreconditioner(J, inner_direct(J.A), inner_direct(J.C))
        assert P.block is J

