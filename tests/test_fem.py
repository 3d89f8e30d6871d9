"""Assembly: energies, residuals, Hessian blocks, Dirichlet elimination.

Derivative correctness is checked against central finite differences of the
energy (the assembled forms are exact derivatives of the discrete energy, so
the match is limited only by FD truncation); closed-form energies are checked
on states where the quadrature is exact.
"""

import gc
import weakref

import numpy as np
import pytest

from conftest import (coo_hessian_blocks, diag_product_elimination, element_loop_vectors,
                      fd_gradient, fd_jacobian, random_feasible_state)

import phasefrac.fem as fem

from phasefrac.cases import setup_surfing, setup_thermal_shock
from phasefrac.fem import (BlockPattern, DirichletBC, Discretization, State, apply_dirichlet,
                           assemble_energy, assemble_Kaa, assemble_Kua,
                           assemble_Kuu, assemble_load_u,
                           assemble_residual_alpha, assemble_residual_u,
                           combine_bcs, element_strains, eliminate_dirichlet,
                           impose_dirichlet)
from phasefrac.mesh import boundary_dofs, rect_mesh
from phasefrac.model import C_W, Material


def energy_of_u(problem, state, u):
    s = State(u=u, alpha=state.alpha, alpha_lb=state.alpha_lb)
    return assemble_energy(s, problem).total


def energy_of_alpha(problem, state, alpha):
    s = State(u=state.u, alpha=alpha, alpha_lb=np.zeros_like(alpha))
    return assemble_energy(s, problem).total


class TestEnergyClosedForms:
    def test_zero_state(self, tiny_problem):
        e = assemble_energy(State.zeros(tiny_problem.mesh), tiny_problem)
        assert e == (0.0, 0.0, 0.0)

    def test_fully_damaged_constant_field(self, small_material):
        problem = Discretization(rect_mesh(2.0, 0.5, 0.25), small_material)
        state = State.zeros(problem.mesh)
        state.alpha[:] = 1.0
        e = assemble_energy(state, problem)
        m = small_material
        expected = (m.Gc / C_W) / m.ell * 2.0 * 0.5  # w=1, grad alpha = 0
        assert e.dissipated == pytest.approx(expected, rel=1e-13)
        assert e.elastic == pytest.approx(m.k_ell * 0.0, abs=1e-15)

    def test_uniform_uniaxial_strain(self, small_material):
        L, H, t = 1.0, 0.3, 0.7
        problem = Discretization(rect_mesh(L, H, 0.1), small_material)
        state = State.zeros(problem.mesh)
        V = problem.mesh.vertices
        state.u[0::2] = t * V[:, 0]
        state.u[1::2] = -small_material.nu * t * V[:, 1]
        e = assemble_energy(state, problem)
        expected = (1 + small_material.k_ell) * 0.5 * small_material.E * t * t * L * H
        assert e.elastic == pytest.approx(expected, rel=1e-12)
        assert e.dissipated == 0.0

    def test_elastic_part_quadratic_in_u(self, tiny_problem):
        rng = np.random.default_rng(0)
        state = random_feasible_state(tiny_problem, rng)
        e1 = assemble_energy(state, tiny_problem).elastic
        state.u *= 2.0
        e2 = assemble_energy(state, tiny_problem).elastic
        assert e2 == pytest.approx(4.0 * e1, rel=1e-12)


class TestResiduals:
    def test_zero_state_zero_residual(self, tiny_problem):
        state = State.zeros(tiny_problem.mesh)
        assert np.all(assemble_residual_u(state, tiny_problem) == 0.0)

    def test_fully_degraded_stiffness_frees_u(self, small_material):
        m = Material(E=small_material.E, nu=small_material.nu,
                     Gc=small_material.Gc, ell=small_material.ell, k_ell=0.0)
        problem = Discretization(rect_mesh(1.0, 1.0, 0.5), m)
        state = State.zeros(problem.mesh)
        state.alpha[:] = 1.0
        state.alpha_lb[:] = 1.0
        state.u = np.random.default_rng(1).standard_normal(problem.n_udofs)
        r = assemble_residual_u(state, problem, apply_bc=False)
        assert np.max(np.abs(r)) <= 1e-14

    def test_residual_u_matches_energy_gradient(self, tiny_problem):
        rng = np.random.default_rng(42)
        state = random_feasible_state(tiny_problem, rng)
        r = assemble_residual_u(state, tiny_problem, apply_bc=False)
        g = fd_gradient(lambda u: energy_of_u(tiny_problem, state, u), state.u)
        assert np.allclose(r, g, rtol=1e-5, atol=1e-9)

    def test_residual_alpha_matches_energy_gradient(self, tiny_problem):
        rng = np.random.default_rng(43)
        state = random_feasible_state(tiny_problem, rng)
        r = assemble_residual_alpha(state, tiny_problem)
        g = fd_gradient(lambda a: energy_of_alpha(tiny_problem, state, a),
                        state.alpha)
        assert np.allclose(r, g, rtol=1e-5, atol=1e-9)

    def test_undamaged_source_is_lumped_positive(self, small_material):
        problem = Discretization(rect_mesh(1.0, 1.0, 0.5), small_material)
        state = State.zeros(problem.mesh)
        r = assemble_residual_alpha(state, problem)
        m = small_material
        # with u = 0 only the local dissipation term remains: each element
        # spreads (Gc/c_w)(1/ell) * area equally over its three vertices
        expected = np.zeros(problem.n_vertices)
        areas = problem.area
        for e, tri in enumerate(problem.mesh.triangles):
            expected[tri] += (m.Gc / C_W) / m.ell * areas[e] / 3.0
        assert np.allclose(r, expected, rtol=1e-13)
        assert r.min() > 0.0

    def test_source_linear_in_toughness(self, small_material):
        mesh = rect_mesh(1.0, 1.0, 0.25)
        m2 = Material(E=1.0, nu=0.3, Gc=2.0, ell=0.1, k_ell=1e-6)
        r1 = assemble_residual_alpha(State.zeros(mesh), Discretization(mesh, small_material))
        r2 = assemble_residual_alpha(State.zeros(mesh), Discretization(mesh, m2))
        assert np.allclose(r2, 2.0 * r1, rtol=1e-13)

    def test_thermal_load_vector_identity(self, small_material):
        problem = Discretization(rect_mesh(1.0, 0.5, 0.25), small_material)
        rng = np.random.default_rng(5)
        problem.eps0 = rng.standard_normal((problem.mesh.n_triangles, 3)) * 0.02
        state = random_feasible_state(problem, rng)
        r = assemble_residual_u(state, problem, apply_bc=False)
        K = assemble_Kuu(state, problem, apply_bc=False)
        f = assemble_load_u(state, problem)
        assert np.allclose(r, K @ state.u - f, rtol=1e-12, atol=1e-14)

    def test_thermal_residual_matches_energy_gradient(self, small_material):
        problem = Discretization(rect_mesh(1.0, 0.5, 0.25), small_material)
        rng = np.random.default_rng(6)
        problem.eps0 = rng.standard_normal((problem.mesh.n_triangles, 3)) * 0.02
        state = random_feasible_state(problem, rng)
        r = assemble_residual_u(state, problem, apply_bc=False)
        g = fd_gradient(lambda u: energy_of_u(problem, state, u), state.u)
        assert np.allclose(r, g, rtol=1e-5, atol=1e-9)


class TestHessianBlocks:
    def test_uu_block_is_scaled_elasticity_when_undamaged(self):
        mesh = rect_mesh(1.0, 1.0, 0.25)
        k = 1e-3
        with_residual = Discretization(mesh, Material(k_ell=k))
        without = Discretization(mesh, Material(k_ell=0.0))
        K1 = assemble_Kuu(State.zeros(mesh), with_residual, apply_bc=False)
        K0 = assemble_Kuu(State.zeros(mesh), without, apply_bc=False)
        assert abs((K1 - (1 + k) * K0)).max() <= 1e-12 * abs(K0).max()

    def test_uu_symmetric(self, tiny_problem):
        state = random_feasible_state(tiny_problem, np.random.default_rng(2))
        K = assemble_Kuu(state, tiny_problem, apply_bc=False)
        assert abs(K - K.T).max() <= 1e-12 * abs(K).max()

    def test_uu_spd_after_elimination(self, small_material):
        mesh = rect_mesh(1.0, 1.0, 1.0 / 3.0)
        problem = Discretization(mesh, small_material)
        state = State.zeros(mesh)
        K = assemble_Kuu(state, problem, apply_bc=False)
        fixed = np.concatenate([boundary_dofs(mesh, "left", "displacement_x1"),
                                boundary_dofs(mesh, "bottom", "displacement_x2")])
        problem.bc = DirichletBC(fixed, np.zeros(fixed.size))
        K = eliminate_dirichlet(K, problem)
        eigs = np.linalg.eigvalsh(K.toarray())
        assert eigs.min() > 0.0

    def test_uu_matches_residual_jacobian(self, tiny_problem):
        rng = np.random.default_rng(8)
        state = random_feasible_state(tiny_problem, rng)

        def F(u):
            s = State(u=u, alpha=state.alpha, alpha_lb=state.alpha_lb)
            return assemble_residual_u(s, tiny_problem, apply_bc=False)

        K = assemble_Kuu(state, tiny_problem, apply_bc=False).toarray()
        assert np.allclose(K, fd_jacobian(F, state.u), rtol=1e-5, atol=1e-8)

    def test_ua_block_zero_at_zero_displacement(self, tiny_problem):
        state = State.zeros(tiny_problem.mesh)
        state.alpha[:] = 0.4
        B = assemble_Kua(state, tiny_problem, apply_bc=False)
        assert abs(B).max() == 0.0

    def test_ua_block_linear_in_u(self, tiny_problem):
        rng = np.random.default_rng(9)
        state = random_feasible_state(tiny_problem, rng)
        B1 = assemble_Kua(state, tiny_problem, apply_bc=False)
        state.u *= 2.0
        B2 = assemble_Kua(state, tiny_problem, apply_bc=False)
        assert abs(B2 - 2.0 * B1).max() <= 1e-12 * abs(B2).max()

    def test_ua_block_matches_mixed_derivative(self, tiny_problem):
        rng = np.random.default_rng(10)
        state = random_feasible_state(tiny_problem, rng)

        def F(alpha):
            s = State(u=state.u, alpha=alpha, alpha_lb=state.alpha_lb)
            return assemble_residual_u(s, tiny_problem, apply_bc=False)

        B = assemble_Kua(state, tiny_problem, apply_bc=False).toarray()
        assert np.allclose(B, fd_jacobian(F, state.alpha), rtol=1e-5, atol=1e-8)

    def test_aa_block_pure_diffusion_at_zero_u(self, small_material):
        problem = Discretization(rect_mesh(1.0, 1.0, 0.25), small_material)
        K = assemble_Kaa(State.zeros(problem.mesh), problem)
        row_sums = np.asarray(K.sum(axis=1)).ravel()
        assert np.max(np.abs(row_sums)) <= 1e-13 * abs(K).max()

    def test_aa_block_matches_residual_jacobian(self, tiny_problem):
        rng = np.random.default_rng(11)
        state = random_feasible_state(tiny_problem, rng)

        def F(alpha):
            s = State(u=state.u, alpha=alpha, alpha_lb=state.alpha_lb)
            return assemble_residual_alpha(s, tiny_problem)

        K = assemble_Kaa(state, tiny_problem).toarray()
        assert np.allclose(K, fd_jacobian(F, state.alpha), rtol=1e-5, atol=1e-8)

    def test_damage_residual_affine_in_alpha(self, tiny_problem):
        rng = np.random.default_rng(12)
        state = random_feasible_state(tiny_problem, rng)
        K = assemble_Kaa(state, tiny_problem)
        r0 = assemble_residual_alpha(state, tiny_problem)
        c = r0 - K @ state.alpha
        other = rng.uniform(0.0, 1.0, state.alpha.size)
        s2 = State(u=state.u, alpha=other, alpha_lb=state.alpha_lb)
        r2 = assemble_residual_alpha(s2, tiny_problem)
        assert np.allclose(r2, K @ other + c, rtol=1e-10, atol=1e-12)

    def test_coupled_matrix_symmetric(self, tiny_problem):
        rng = np.random.default_rng(13)
        state = random_feasible_state(tiny_problem, rng)
        A = assemble_Kuu(state, tiny_problem, apply_bc=False).toarray()
        B = assemble_Kua(state, tiny_problem, apply_bc=False).toarray()
        C = assemble_Kaa(state, tiny_problem).toarray()
        J = np.block([[A, B], [B.T, C]])
        assert np.max(np.abs(J - J.T)) <= 1e-12 * np.max(np.abs(J))


class TestDirichlet:
    @staticmethod
    def clamped(small_material, values, seed=14):
        """3x3-vertex square clamped on the left (x1) and bottom (x2) edges;
        returns the problem and its Kuu at a random partly damaged state."""
        problem = Discretization(rect_mesh(1.0, 1.0, 0.5), small_material)
        mesh = problem.mesh
        fixed = np.concatenate([boundary_dofs(mesh, "left", "displacement_x1"),
                                boundary_dofs(mesh, "bottom", "displacement_x2")])
        problem.bc = DirichletBC(fixed, values(fixed.size))
        state = State.zeros(mesh)
        rng = np.random.default_rng(seed)
        state.alpha = rng.uniform(0.0, 0.5, problem.n_vertices)
        state.u = rng.standard_normal(problem.n_udofs)
        return problem, assemble_Kuu(state, problem, apply_bc=False)

    def test_identity_system(self, small_material):
        # dof 0 is the x1 component of the corner vertex at the origin
        problem, K = self.clamped(small_material, lambda n: np.r_[5.0, np.zeros(n - 1)])
        assert problem.bc.dofs[0] == 0
        K2, rhs2 = apply_dirichlet(K, np.ones(problem.n_udofs), problem)
        x = np.linalg.solve(K2.toarray(), rhs2)
        assert x[0] == pytest.approx(5.0, rel=1e-15)

    def test_symmetry_preserved(self, small_material):
        problem, K = self.clamped(small_material, lambda n: np.linspace(2.0, -1.0, n))
        assert abs(K - K.T).max() == 0.0
        K2, _ = apply_dirichlet(K, np.zeros(problem.n_udofs), problem)
        K2 = K2.toarray()
        assert np.max(np.abs(K2 - K2.T)) == 0.0

    def test_solution_matches_dense_oracle(self, small_material):
        rng = np.random.default_rng(15)
        problem, Ks = self.clamped(small_material, lambda n: rng.standard_normal(n), seed=15)
        K = Ks.toarray()
        n = problem.n_udofs
        rhs = rng.standard_normal(n)
        fixed, vals = problem.bc.dofs, problem.bc.values
        # oracle: solve the free block with the fixed columns moved to the rhs
        free = np.setdiff1d(np.arange(n), fixed)
        x = np.zeros(n)
        x[fixed] = vals
        x[free] = np.linalg.solve(K[np.ix_(free, free)],
                                  rhs[free] - K[np.ix_(free, fixed)] @ vals)
        K2, rhs2 = apply_dirichlet(Ks, rhs, problem)
        assert np.allclose(np.linalg.solve(K2.toarray(), rhs2), x, rtol=1e-12)

    def test_no_boundary_data_leaves_the_system(self, small_material):
        # a new Discretization has empty boundary data: elimination is a copy
        _, K = self.clamped(small_material, np.zeros)
        problem = Discretization(rect_mesh(1.0, 1.0, 0.5), small_material)
        assert problem.bc.dofs.size == 0 and problem.bc.values.size == 0
        rhs = np.ones(problem.n_udofs)
        K2, rhs2 = apply_dirichlet(K, rhs, problem)
        assert np.array_equal(K2.toarray(), K.toarray())
        assert np.array_equal(rhs2, rhs)

    def test_impose_sets_the_constrained_dofs(self, small_material):
        problem, _ = self.clamped(small_material, lambda n: np.arange(1.0, n + 1))
        state = State.zeros(problem.mesh)
        state.u[:] = -7.0
        impose_dirichlet(state, problem)
        assert np.array_equal(state.u[problem.bc.dofs], problem.bc.values)
        free = np.setdiff1d(np.arange(problem.n_udofs), problem.bc.dofs)
        assert np.all(state.u[free] == -7.0)

    def test_conflicting_values_rejected(self):
        with pytest.raises(ValueError):
            DirichletBC(np.array([2, 2]), np.array([1.0, 2.0]))

    def test_duplicate_consistent_values_merged(self):
        bc = DirichletBC(np.array([2, 2, 5]), np.array([1.0, 1.0, 3.0]))
        assert np.array_equal(bc.dofs, [2, 5])

    def test_combine_bcs(self):
        a = DirichletBC(np.array([0]), np.array([1.0]))
        b = DirichletBC(np.array([3]), np.array([2.0]))
        c = combine_bcs(a, b)
        assert np.array_equal(c.dofs, [0, 3])
        assert np.array_equal(c.values, [1.0, 2.0])


class TestFixedPattern:
    """Fixed-pattern assembly and precomputed elimination against the naive
    COO oracle and elimination by diagonal products."""

    @staticmethod
    def _bcs(mesh):
        clamp = np.concatenate([boundary_dofs(mesh, "left", "displacement_x1"),
                                boundary_dofs(mesh, "bottom", "displacement_x2")])
        top = np.unique(np.concatenate([boundary_dofs(mesh, "top", "displacement_x1"),
                              boundary_dofs(mesh, "top", "displacement_x2"),
                              boundary_dofs(mesh, "right", "displacement_x2")]))
        rng = np.random.default_rng(30)
        return [DirichletBC(d, rng.standard_normal(d.size)) for d in (clamp, top)]

    @staticmethod
    def _close(K, oracle):
        scale = abs(oracle).max()
        assert K.shape == oracle.shape
        assert abs(K - oracle).max() <= 1e-14 * scale

    @pytest.fixture
    def problem(self, small_material):
        problem = Discretization(rect_mesh(1.0, 0.5, 0.125), small_material)
        problem.eps0 = np.random.default_rng(31).standard_normal(
            (problem.mesh.n_triangles, 3)) * 0.01
        return problem

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_blocks_match_coo_oracle(self, problem, seed):
        state = random_feasible_state(problem, np.random.default_rng(seed))
        Kuu, Kua, Kaa = coo_hessian_blocks(state, problem)
        self._close(assemble_Kuu(state, problem, apply_bc=False), Kuu)
        self._close(assemble_Kua(state, problem, apply_bc=False), Kua)
        self._close(assemble_Kaa(state, problem), Kaa)
        problem.bc = self._bcs(problem.mesh)[0]
        self._close(assemble_Kuu(state, problem, apply_bc=True),
                    diag_product_elimination(Kuu, problem.bc.dofs))
        self._close(assemble_Kua(state, problem, apply_bc=True),
                    diag_product_elimination(Kua, problem.bc.dofs, columns=False))

    def test_eliminated_pattern_matches_diag_products(self, problem):
        state = random_feasible_state(problem, np.random.default_rng(3))
        problem.bc = self._bcs(problem.mesh)[0]
        K = assemble_Kuu(state, problem, apply_bc=True)
        full = assemble_Kuu(state, problem, apply_bc=False)
        for oracle in (diag_product_elimination(coo_hessian_blocks(state, problem)[0],
                                                problem.bc.dofs),
                       eliminate_dirichlet(full, problem)):
            assert np.array_equal(K.indptr, oracle.indptr)
            assert np.array_equal(K.indices, oracle.indices)

    def test_pattern_has_no_structural_zeros(self, problem):
        # entries that vanish in every element's B^T D B get no slot
        state = random_feasible_state(problem, np.random.default_rng(4))
        K = assemble_Kuu(state, problem, apply_bc=False)
        assert np.all(K.data != 0.0)
        assert K.nnz < coo_hessian_blocks(state, problem)[0].nnz

    def test_two_dof_sets_on_one_discretization(self, problem):
        state = random_feasible_state(problem, np.random.default_rng(5))
        Kuu, Kua, _ = coo_hessian_blocks(state, problem)
        first, second = self._bcs(problem.mesh)
        for bc in (first, second, first):
            problem.bc = bc
            self._close(assemble_Kuu(state, problem, apply_bc=True),
                        diag_product_elimination(Kuu, bc.dofs))
            self._close(assemble_Kua(state, problem, apply_bc=True),
                        diag_product_elimination(Kua, bc.dofs, columns=False))
            K, rhs = apply_dirichlet(assemble_Kuu(state, problem, apply_bc=False),
                                     np.ones(problem.n_udofs), problem)
            g = np.zeros(problem.n_udofs)
            g[bc.dofs] = bc.values
            rhs0 = np.ones(problem.n_udofs) - Kuu @ g
            rhs0[bc.dofs] = bc.values
            K0 = diag_product_elimination(Kuu, bc.dofs)
            self._close(K, K0)
            assert np.allclose(rhs, rhs0, rtol=1e-13, atol=0.0)

    def test_matrix_off_the_pattern_is_rejected(self, problem):
        # the COO oracle keeps the entries that vanish in every element, so
        # its entry count differs from the pattern's
        state = random_feasible_state(problem, np.random.default_rng(7))
        problem.bc = self._bcs(problem.mesh)[0]
        Kuu, Kua, _ = coo_hessian_blocks(state, problem)
        assert Kuu.nnz != problem.pattern("uu").nnz
        with pytest.raises(ValueError, match="pattern"):
            eliminate_dirichlet(Kuu, problem)
        with pytest.raises(ValueError, match="pattern"):
            apply_dirichlet(Kuu, np.ones(problem.n_udofs), problem)
        with pytest.raises(ValueError, match="pattern"):
            eliminate_dirichlet(Kua[:, :-1], problem, "ua")

    def test_construction_builds_no_pattern(self, small_material, monkeypatch):
        built = []
        real = fem.BlockPattern

        def spy(*args, **kwargs):
            built.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(fem, "BlockPattern", spy)
        problem = Discretization(rect_mesh(1.0, 0.5, 0.25), small_material)
        assert built == []
        state = State.zeros(problem.mesh)
        assemble_Kuu(state, problem, apply_bc=False)
        assemble_Kuu(state, problem, apply_bc=False)
        assert len(built) == 1

    @pytest.mark.parametrize("case, jitter", [("surfing", None), ("thermal", 0.21),
                                              ("thermal", 0.25), ("thermal", 0.29)])
    def test_uu_pattern_matches_the_einsum_product(self, case, jitter):
        # the "uu" pattern is defined by exact zeros of B_e^T D B_e, so the
        # matmul product must keep the zeros of the three-operand einsum; the
        # meshes are those of the benchmark workloads
        if case == "surfing":
            problem = setup_surfing(Material(ell=0.1), h=0.02).problem
        else:
            problem = setup_thermal_shock(Material(ell=1.0), L=10.0, H=4.0, h=0.25,
                                          jitter=jitter).problem
        old = np.einsum("eki,kl,elj->eij", problem.B, problem.D, problem.B)
        ref = BlockPattern(problem.udofs, problem.udofs, (problem.n_udofs,) * 2, weights=old)
        pat = problem.pattern("uu")
        assert np.array_equal(pat.indptr, ref.indptr)
        assert np.array_equal(pat.indices, ref.indices)

    def test_results_do_not_share_index_arrays(self, problem):
        state = random_feasible_state(problem, np.random.default_rng(6))
        K1 = assemble_Kaa(state, problem)
        K1.indices[:] = 0
        K1.indptr[:] = 0
        K2 = assemble_Kaa(state, problem)
        self._close(K2, coo_hessian_blocks(state, problem)[2])


class TestElementOperators:
    """Residuals and energies by constant sparse operators, against a loop
    over elements, and the lifetime of the operators' cache."""

    OPERATORS = {"Bg", "Mg", "Lap", "BgT", "MgT"}

    def test_vector_kernels_match_element_loop(self, small_material):
        problem = Discretization(rect_mesh(1.0, 0.5, 0.125), small_material)
        rng = np.random.default_rng(41)
        problem.eps0 = rng.standard_normal((problem.mesh.n_triangles, 3)) * 0.02
        state = random_feasible_state(problem, rng)
        ru, ra, f, energy = element_loop_vectors(state, problem)
        for got, want in ((assemble_residual_u(state, problem, apply_bc=False), ru),
                          (assemble_residual_alpha(state, problem), ra),
                          (assemble_load_u(state, problem), f)):
            assert abs(got - want).max() <= 1e-12 * abs(want).max()
        got = assemble_energy(state, problem)
        for g, w in zip(got, energy):
            assert g == pytest.approx(w, rel=1e-12, abs=0.0)

    def test_shared_strains_give_the_same_results(self, small_material):
        problem = Discretization(rect_mesh(1.0, 0.5, 0.125), small_material)
        rng = np.random.default_rng(43)
        problem.eps0 = rng.standard_normal((problem.mesh.n_triangles, 3)) * 0.02
        state = random_feasible_state(problem, rng)
        strains = element_strains(state, problem)
        for kernel in (assemble_residual_u, assemble_residual_alpha, assemble_energy):
            assert np.array_equal(kernel(state, problem, strains=strains),
                                  kernel(state, problem))
        assert (abs(assemble_Kaa(state, problem, strains)
                    - assemble_Kaa(state, problem)).max() == 0.0)

    def test_transposes_are_the_operators_transposed(self, tiny_problem):
        for op, opT in ((tiny_problem.Bg, tiny_problem.BgT), (tiny_problem.Mg, tiny_problem.MgT)):
            assert opT.format == "csr" and opT.has_canonical_format
            assert abs(opT - op.T).max() == 0.0

    def test_operators_built_on_first_use_and_freed_without_gc(self, small_material):
        problem = Discretization(rect_mesh(1.0, 0.5, 0.25), small_material)
        assert not self.OPERATORS & set(vars(problem))
        assert problem._patterns == {}
        problem.bc = DirichletBC(np.array([0, 1, 3]), np.array([0.0, 0.1, 0.2]))
        state = random_feasible_state(problem, np.random.default_rng(42))
        assemble_energy(state, problem)
        assemble_residual_u(state, problem)
        assemble_residual_alpha(state, problem)
        assemble_load_u(state, problem)
        assemble_Kua(state, problem)
        assemble_Kaa(state, problem)
        apply_dirichlet(assemble_Kuu(state, problem, apply_bc=False),
                        np.ones(problem.n_udofs), problem)
        impose_dirichlet(state, problem)
        assert self.OPERATORS <= set(vars(problem))
        assert set(problem._patterns) == {"uu", "ua", "aa"}
        ref = weakref.ref(problem)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del problem
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


class TestState:
    def test_copy_is_deep_for_fields(self, tiny_problem):
        state = State.zeros(tiny_problem.mesh)
        other = state.copy()
        other.alpha[:] = 0.5
        assert np.all(state.alpha == 0.0)
