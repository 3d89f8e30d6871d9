"""Load-step solvers: half-steps, alternate minimization, Newton, composition."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import block_csr, random_spd

import phasefrac.linalg
import phasefrac.solver
from phasefrac.cases import StepFailureError, run_quasistatic, setup_surfing, setup_traction
from phasefrac.fem import (State, apply_dirichlet, assemble_energy, assemble_Kuu, assemble_load_u,
                           assemble_residual_alpha, impose_dirichlet)
from phasefrac.linalg import (BlockJacobian, FieldSplitPreconditioner, LaggedFactorization,
                              LinearSolverError, SingularOperatorError, inner_direct,
                              minres_solve)
from phasefrac.model import Material
from phasefrac.solver import (FIELDSPLIT_RTOL, LAGGED_ATOL_FACTOR, LAGGED_CG_ITERATIONS,
                              MAX_NEWTON_ITERATIONS, NonlinearReport, SolverConfig,
                              _coupled_linear_solve, _inactive_blocks, am_solve,
                              coupled_mcp, coupled_newton_solve, damage_step, elastic_step,
                              first_order_residual, inactive_block_jacobian, oram_n_solve,
                              residual_norm, solve_load_step)
from phasefrac.vi import classify_active, rsls_solve

MAT = Material(ell=0.1)


@pytest.fixture(scope="module")
def traction():
    return setup_traction(MAT, h=0.05, n_steps=4)


def loaded_state(setup, factor):
    state = State.zeros(setup.mesh)
    t = factor * setup.params["critical_traction"]
    setup.apply_load(setup.problem, state, t)
    return state


def cracking_state(setup, factor=1.4):
    # the uncracked branch is metastable past the critical traction; merge
    # the setup's seed perturbation so the solvers actually leave it
    state = loaded_state(setup, factor)
    state.u[setup.problem.bc.dofs] = setup.problem.bc.values
    state.alpha = np.maximum(state.alpha, setup.seed_alpha)
    return state


class TestConfigValidation:
    @pytest.mark.parametrize("omega", [0.0, 2.0, 2.5, -1.0])
    def test_omega_outside_open_interval_rejected(self, omega):
        with pytest.raises(ValueError):
            SolverConfig(omega=omega)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(method="fancy")

    def test_unknown_linear_choices_rejected(self):
        for inner in ("lu", "chebyshev"):
            with pytest.raises(ValueError, match="fieldsplit_inner"):
                SolverConfig(fieldsplit_inner=inner)
        for coupled in ("amg", "direct"):
            with pytest.raises(ValueError, match="coupled"):
                SolverConfig(coupled=coupled)


class TestElasticStep:
    def test_zero_load_gives_zero_displacement(self, traction):
        state = loaded_state(traction, 0.0)
        u = elastic_step(state, traction.problem)
        assert np.max(np.abs(u)) == 0.0

    def test_matches_eliminated_dense_solve(self, traction):
        state = loaded_state(traction, 0.4)
        rng = np.random.default_rng(0)
        state.alpha = rng.uniform(0.0, 0.3, traction.mesh.n_vertices)
        u = elastic_step(state, traction.problem)
        K = assemble_Kuu(state, traction.problem, apply_bc=False)
        f = assemble_load_u(state, traction.problem)
        Kb, fb = apply_dirichlet(K, f, traction.problem)
        assert np.allclose(u, np.linalg.solve(Kb.toarray(), fb), rtol=1e-9)

    def test_homogeneous_solution_is_exact(self, traction):
        # u = (t x1, -nu t x2) is representable by linear elements
        state = loaded_state(traction, 0.4)
        u = elastic_step(state, traction.problem)
        v = traction.mesh.vertices
        t = 0.4 * traction.params["critical_traction"]
        assert np.allclose(u[0::2], t * v[:, 0], atol=1e-10)
        assert np.allclose(u[1::2], -MAT.nu * t * v[:, 1], atol=1e-10)


class TestDamageStep:
    def test_unloaded_stays_at_lower_bound(self, traction):
        state = State.zeros(traction.mesh)
        alpha, rep = damage_step(state, traction.problem, SolverConfig())
        assert rep.converged
        assert np.max(alpha) == 0.0

    def test_raised_lower_bound_is_respected_and_tight(self, traction):
        state = State.zeros(traction.mesh)
        state.alpha_lb[:] = 0.3
        state.alpha[:] = 0.3
        alpha, rep = damage_step(state, traction.problem, SolverConfig())
        assert rep.converged
        assert alpha.min() >= 0.3 - 1e-12
        assert alpha.max() <= 0.3 + 1e-10  # no elastic drive at u = 0

    def test_subcritical_strain_keeps_damage_zero(self, traction):
        state = loaded_state(traction, 0.5)
        state.u = elastic_step(state, traction.problem)
        alpha, _ = damage_step(state, traction.problem, SolverConfig())
        assert np.max(alpha) == 0.0

    def test_supercritical_strain_grows_damage(self, traction):
        state = loaded_state(traction, 1.4)
        state.u = elastic_step(state, traction.problem)
        alpha, _ = damage_step(state, traction.problem, SolverConfig())
        assert np.max(alpha) > 0.1
        assert np.max(alpha) <= 1.0 + 1e-12


class TestAlternateMinimization:
    def test_subcritical_converges_without_damage(self, traction):
        state = loaded_state(traction, 0.4)
        rep = am_solve(state, traction.problem, SolverConfig())
        assert rep.converged
        assert rep.final_residual_norm <= 1e-7
        assert np.max(state.alpha) == 0.0

    def test_converged_state_is_fixed_point(self, traction):
        state = loaded_state(traction, 0.4)
        am_solve(state, traction.problem, SolverConfig())
        again = state.copy()
        rep = am_solve(again, traction.problem, SolverConfig())
        assert rep.am_iterations == 1
        assert np.max(np.abs(again.u - state.u)) == 0.0
        assert np.max(np.abs(again.alpha - state.alpha)) == 0.0

    def test_unrelaxed_energy_monotone(self):
        setup = setup_traction(MAT, h=0.05, n_steps=8)
        records = run_quasistatic(setup, SolverConfig(omega=1.0),
                                  snapshot_stride=0)
        for rec in records:
            report = rec.report
            totals = [report.entry_energy] + [it.total for it in report.iterations]
            drops = np.diff(totals)
            assert np.all(drops <= 1e-12 * (1.0 + abs(totals[0])))

    def test_no_backtracking_at_unit_relaxation(self):
        setup = setup_traction(MAT, h=0.05, n_steps=8)
        records = run_quasistatic(setup, SolverConfig(omega=1.0),
                                  snapshot_stride=0)
        assert all(rec.report.omega_bar_min == 1.0 for rec in records)

    def test_relaxed_iterates_stay_feasible(self):
        setup = setup_traction(MAT, h=0.05, n_steps=8)
        records = run_quasistatic(setup, SolverConfig(omega=1.6),
                                  snapshot_stride=1)
        for rec in records:
            assert rec.alpha.min() >= -1e-15
            assert rec.alpha.max() <= 1.0 + 1e-12
        assert all(rec.report.converged for rec in records)

    def test_damage_irreversible_across_steps(self):
        setup = setup_traction(MAT, h=0.05, n_steps=8)
        records = run_quasistatic(setup, SolverConfig(omega=1.0),
                                  snapshot_stride=1)
        for prev, cur in zip(records, records[1:]):
            assert np.all(cur.alpha >= prev.alpha - 1e-12)

    def test_iteration_budget_honoured(self, traction):
        state = loaded_state(traction, 1.4)
        rep = am_solve(state, traction.problem,
                       SolverConfig(max_am_iterations=2))
        assert rep.am_iterations <= 2

    def test_nonfinite_residual_fails_the_step_after_one_sweep(self):
        setup = setup_traction(MAT, h=0.05, n_steps=4)
        apply_load = setup.apply_load

        def nan_strain(problem, state, t):
            apply_load(problem, state, t)
            problem.eps0 = np.full((setup.mesh.n_triangles, 3), np.nan)

        setup.apply_load = nan_strain
        with pytest.raises(StepFailureError) as failure:
            run_quasistatic(setup, SolverConfig(), snapshot_stride=0)
        assert failure.value.step == 0
        assert failure.value.report.am_iterations == 1
        assert not np.isfinite(failure.value.report.final_residual_norm)


class TestLaggedElasticSolve:
    @staticmethod
    def surfing_am(monkeypatch):
        """Short surfing ORAM run; returns (records, elastic factorizations,
        (u_star boundary rows, boundary data) per sweep)."""
        factorizations, in_elastic_step = [], []
        for module in (phasefrac.solver, phasefrac.linalg):
            def counted(*args, _factorize=module.direct_factorize, **kwargs):
                if in_elastic_step:   # the damage LUs go through linalg too
                    factorizations.append(1)
                return _factorize(*args, **kwargs)

            monkeypatch.setattr(module, "direct_factorize", counted)
        boundary_rows = []

        def capture(state, problem, *args):
            in_elastic_step.append(1)
            try:
                u = elastic_step(state, problem, *args)
            finally:
                in_elastic_step.pop()
            boundary_rows.append((u[problem.bc.dofs], problem.bc.values.copy()))
            return u

        monkeypatch.setattr(phasefrac.solver, "elastic_step", capture)
        setup = setup_surfing(MAT, h=0.05, n_steps=3, t_end=0.1)
        records = run_quasistatic(setup, SolverConfig(omega=1.6), snapshot_stride=0)
        return records, len(factorizations), boundary_rows

    def test_fewer_factorizations_than_sweeps(self, monkeypatch):
        records, factorizations, _ = self.surfing_am(monkeypatch)
        sweeps = sum(rec.report.am_iterations for rec in records)
        assert len(records) <= factorizations < sweeps

    def test_matches_refactoring_every_sweep(self, monkeypatch):
        lagged, _, _ = self.surfing_am(monkeypatch)
        monkeypatch.setattr(phasefrac.solver, "LAGGED_CG_ITERATIONS", 0)
        exact, factorizations, _ = self.surfing_am(monkeypatch)
        assert factorizations == sum(rec.report.am_iterations for rec in exact)
        assert ([rec.report.am_iterations for rec in lagged]
                == [rec.report.am_iterations for rec in exact])
        for a, b in zip(lagged, exact):
            assert abs(a.energy.total - b.energy.total) <= 1e-10 * abs(b.energy.total)

    def test_dirichlet_rows_exact_after_every_sweep(self, monkeypatch):
        records, _, boundary_rows = self.surfing_am(monkeypatch)
        assert len(boundary_rows) == sum(rec.report.am_iterations for rec in records)
        for u_bc, ubar in boundary_rows:
            assert u_bc.tobytes() == ubar.tobytes()


class TestLaggedDamageSolve:
    @pytest.fixture(scope="class")
    def recorded(self):
        """A short surfing ORAM run: (problem, records, damage-step inputs,
        post-sweep damage residuals, LU counts seen by ``direct_factorize``)."""
        steps, residuals, counts, in_elastic_step = [], [], {"all": 0, "elastic": 0}, []
        damage = phasefrac.solver.damage_step
        norm = phasefrac.solver.residual_norm
        elastic = phasefrac.solver.elastic_step

        def record_step(state, problem, config, system=None, lagged=None):
            steps.append((state.copy(), system))
            return damage(state, problem, config, system, lagged)

        def record_norm(state, problem, strains=None, residual_alpha=None):
            if residual_alpha is not None:
                residuals.append((state.copy(), residual_alpha))
            return norm(state, problem, strains, residual_alpha)

        def marked(*args):
            in_elastic_step.append(1)
            try:
                return elastic(*args)
            finally:
                in_elastic_step.pop()

        with pytest.MonkeyPatch.context() as mp:
            for module in (phasefrac.solver, phasefrac.linalg):
                def counted(*args, _factorize=module.direct_factorize, **kwargs):
                    counts["all"] += 1
                    counts["elastic"] += bool(in_elastic_step)
                    return _factorize(*args, **kwargs)

                mp.setattr(module, "direct_factorize", counted)
            mp.setattr(phasefrac.solver, "damage_step", record_step)
            mp.setattr(phasefrac.solver, "residual_norm", record_norm)
            mp.setattr(phasefrac.solver, "elastic_step", marked)
            setup = setup_surfing(MAT, h=0.05, n_steps=3, t_end=0.1)
            records = run_quasistatic(setup, SolverConfig(omega=1.6), snapshot_stride=0)
        return setup.problem, records, steps, residuals, counts

    def test_report_counts_the_factorizations(self, recorded):
        _, records, steps, _, counts = recorded
        elastic = sum(rec.report.elastic_factorizations for rec in records)
        damage = sum(rec.report.damage_factorizations for rec in records)
        assert elastic == counts["elastic"]
        assert damage == counts["all"] - counts["elastic"]
        assert 0 < damage < len(steps)

    def test_post_sweep_residual_is_the_assembled_one(self, recorded):
        problem, _, _, residuals, _ = recorded
        assert residuals
        for state, got in residuals:
            want = assemble_residual_alpha(state, problem)
            assert abs(got - want).max() <= 1e-12 * abs(want).max()

    def test_lagged_steps_match_fresh_steps(self, recorded, monkeypatch):
        # replay the recorded damage steps with one lagged holder and with a
        # fresh LU per Newton step; CG stops at LAGGED_ATOL_FACTOR * outer_atol
        # (1e-11) on the reduced residual, which moves alpha by ~5e-11 here
        problem, _, steps, _, _ = recorded
        config = SolverConfig(omega=1.6)
        lagged = LaggedFactorization(LAGGED_ATOL_FACTOR * config.outer_atol,
                                     LAGGED_CG_ITERATIONS)
        solves = []
        solver = phasefrac.solver.reduced_direct_solver

        def recording(J, inactive, rhs, lagged=None):
            before = None if lagged is None else lagged.factorizations
            out = solver(J, inactive, rhs, lagged=lagged)
            if lagged is not None:
                solves.append((inactive, lagged.factorizations - before))
            return out

        monkeypatch.setattr(phasefrac.solver, "reduced_direct_solver", recording)
        for state, system in steps:
            a_lagged, rep_lagged = damage_step(state, problem, config, system, lagged)
            a_fresh, rep_fresh = damage_step(state, problem, config, system)
            assert rep_lagged.iterations == rep_fresh.iterations
            assert abs(a_lagged - a_fresh).max() <= 1e-9
            e_lagged, e_fresh = (assemble_energy(State(state.u, a, state.alpha_lb), problem).total
                                 for a in (a_lagged, a_fresh))
            assert e_lagged == pytest.approx(e_fresh, rel=1e-12, abs=0.0)
        assert solves[0][1] == 1
        for (prev, _), (inactive, refactored) in zip(solves, solves[1:]):
            if not np.array_equal(prev, inactive):
                assert refactored == 1
        assert lagged.factorizations == sum(r for _, r in solves) < len(solves)


class TestResidualAndBlocks:
    def test_zero_at_trivial_state(self, traction):
        state = loaded_state(traction, 0.0)
        assert residual_norm(state, traction.problem) <= 1e-14

    def test_zero_at_converged_state(self, traction):
        state = loaded_state(traction, 0.4)
        am_solve(state, traction.problem, SolverConfig())
        assert residual_norm(state, traction.problem) <= 1e-7

    def test_stacked_layout(self, traction):
        state = loaded_state(traction, 0.4)
        r = first_order_residual(state, traction.problem)
        nu = traction.problem.n_udofs
        assert r.size == nu + traction.mesh.n_vertices
        # the displacement half vanishes after a solve, boundary rows included
        state.u = elastic_step(state, traction.problem)
        r = first_order_residual(state, traction.problem)
        assert np.max(np.abs(r[:nu])) <= 1e-10

    def test_dirichlet_rows_carry_the_boundary_mismatch(self, traction):
        state = loaded_state(traction, 0.4)
        bc = traction.problem.bc
        r = first_order_residual(state, traction.problem)
        assert np.any(bc.values != 0.0)
        assert np.array_equal(r[bc.dofs], state.u[bc.dofs] - bc.values)
        impose_dirichlet(state, traction.problem)
        assert np.all(first_order_residual(state, traction.problem)[bc.dofs] == 0.0)

    def test_residual_grows_with_load(self, traction):
        # impose the boundary values first, so that the residual measures the
        # interior response rather than the boundary mismatch
        def snapped(factor):
            state = loaded_state(traction, factor)
            impose_dirichlet(state, traction.problem)
            return residual_norm(state, traction.problem)

        lo, hi = snapped(0.2), snapped(0.8)
        assert hi > lo > 0.0

    def test_inactive_block_shapes_consistent(self, traction):
        state = loaded_state(traction, 1.4)
        am_solve(state, traction.problem, SolverConfig())
        J, iu, ia = inactive_block_jacobian(state, traction.problem)
        assert J.A.shape == (iu.size, iu.size)
        assert J.C.shape == (ia.size, ia.size)
        assert J.B.shape == (iu.size, ia.size)
        assert J.nu == iu.size and J.na == ia.size
        # the block operator is symmetric
        x = np.random.default_rng(1).standard_normal(iu.size + ia.size)
        y = np.random.default_rng(2).standard_normal(iu.size + ia.size)
        assert x @ (J @ y) == pytest.approx(y @ (J @ x), rel=1e-10)

    def test_a_block_is_the_jacobian_block_when_every_u_dof_is_inactive(self, traction):
        state = cracking_state(traction)
        am_solve(state, traction.problem, SolverConfig(),
                 target=0.1 * residual_norm(state, traction.problem))
        mcp = coupled_mcp(state, traction.problem)
        x = np.concatenate([state.u, state.alpha])
        J = mcp.jacobian(x)
        nu = traction.problem.n_udofs
        # no displacement dof has a bound, so none is ever frozen, whatever
        # the residual's sign and however wide the slack
        F = np.random.default_rng(3).choice([-1.0, 1.0], x.size)
        part = classify_active(x, F, mcp.lower, mcp.upper, 1e300)
        assert np.array_equal(part.inactive[:nu], np.arange(nu))
        inactive = np.concatenate([np.arange(nu), nu + np.arange(0, J.na, 2)])
        red, iu, ia = _inactive_blocks(J, inactive)
        assert red.A is J.A and iu.size == nu
        assert red.C.shape == (ia.size, ia.size) and red.B.shape == (nu, ia.size)

    def test_inactive_block_is_newtons_first_system(self, traction, monkeypatch):
        # inactive_block_jacobian and rsls_solve share one active-set slack,
        # so the block studied is the one Newton's first step solves
        state = cracking_state(traction)
        am_solve(state, traction.problem, SolverConfig(),
                 target=0.1 * residual_norm(state, traction.problem))
        J, iu, ia = inactive_block_jacobian(state, traction.problem)
        assert 0 < ia.size < traction.problem.n_vertices
        seen = []
        blocks = phasefrac.solver._inactive_blocks
        monkeypatch.setattr(phasefrac.solver, "_inactive_blocks",
                            lambda J, inactive: seen.append(inactive) or blocks(J, inactive))
        report = NonlinearReport()
        coupled_newton_solve(state, traction.problem, SolverConfig(), report=report)
        assert report.newton_iterations >= 1
        nu = traction.problem.n_udofs
        assert np.array_equal(seen[0], np.concatenate([iu, nu + ia]))


class TestCoupledNewton:
    def test_no_op_from_converged_state(self, traction):
        state = loaded_state(traction, 0.4)
        am_solve(state, traction.problem, SolverConfig())
        report = NonlinearReport()
        out = coupled_newton_solve(state, traction.problem, SolverConfig(), report=report)
        assert report.converged
        assert report.newton_iterations <= 1
        assert np.max(np.abs(out.u - state.u)) <= 1e-9

    def test_polishes_loose_am_state(self, traction):
        state = cracking_state(traction)
        am_solve(state, traction.problem, SolverConfig(),
                 target=1e-2 * residual_norm(state, traction.problem))
        report = NonlinearReport()
        out = coupled_newton_solve(state, traction.problem, SolverConfig(), report=report)
        assert report.converged
        assert report.final_residual_norm <= 1e-7
        assert residual_norm(out, traction.problem) <= 1e-6

    def test_direct_and_fieldsplit_agree(self, traction):
        # reference: the same active-set Newton with a sparse direct solve of
        # the assembled inactive block in place of field-split MINRES
        def direct(J, inactive, rhs):
            return spla.spsolve(block_csr(J)[inactive][:, inactive].tocsc(), rhs)

        state = cracking_state(traction)
        am_solve(state, traction.problem, SolverConfig(),
                 target=1e-2 * residual_norm(state, traction.problem))
        x_d, rep_d = rsls_solve(coupled_mcp(state, traction.problem),
                                np.concatenate([state.u, state.alpha]),
                                abs_tol=SolverConfig().outer_atol,
                                max_iterations=MAX_NEWTON_ITERATIONS, linear_solver=direct)
        rep_f = NonlinearReport()
        out_f = coupled_newton_solve(state, traction.problem, SolverConfig(), report=rep_f)
        assert rep_d.converged and rep_f.converged
        assert rep_f.total_krylov_iterations > 0
        alpha_d = x_d[traction.problem.n_udofs:]
        scale = 1.0 + np.max(np.abs(alpha_d))
        assert np.allclose(out_f.alpha, alpha_d, atol=1e-5 * scale)

    def test_merit_history_nonincreasing(self, traction):
        state = cracking_state(traction)
        am_solve(state, traction.problem, SolverConfig(),
                 target=1e-1 * residual_norm(state, traction.problem))
        report = NonlinearReport()
        coupled_newton_solve(state, traction.problem, SolverConfig(), report=report)
        hist = np.asarray([r.residual for r in report.iterations if r.phase == "newton"])
        assert hist.size >= 2
        assert np.all(np.diff(hist) <= 1e-12 * hist[0])

    def test_krylov_count_is_converged_minres_iterations(self, traction, monkeypatch):
        # the first MINRES solve is reported stalled: Newton falls back to
        # steepest descent for that step, and its iterations are not counted
        calls = []
        minres = phasefrac.solver.minres_solve

        def flaky(*args, **kwargs):
            x, rep = minres(*args, **kwargs)
            if not calls:
                rep = dataclasses.replace(rep, converged=False)
            calls.append(rep)
            return x, rep

        monkeypatch.setattr(phasefrac.solver, "minres_solve", flaky)
        state = cracking_state(traction)
        report = solve_load_step(state, traction.problem, SolverConfig(method="oram_newton"))
        assert report.converged and report.newton_iterations > 1 and len(calls) > 1
        assert not calls[0].converged and calls[0].iterations > 0
        assert report.total_krylov_iterations == sum(r.iterations for r in calls if r.converged)


def indefinite_schur_block(seed=21, nu=30, na=12):
    """A random block with SPD A and C whose Schur complement C - B^T A^-1 B
    is indefinite: C0 is shifted by the mean of the smallest eigenvalues of C0
    and of C0 - B^T A^-1 B, which then lie on either side of 0."""
    rng = np.random.default_rng(seed)
    A, C0 = random_spd(rng, nu), random_spd(rng, na)
    B = rng.standard_normal((nu, na))
    lo_c = np.linalg.eigvalsh(C0)[0]
    lo_s = np.linalg.eigvalsh(C0 - B.T @ np.linalg.solve(A, B))[0]
    C = C0 - 0.5 * (lo_c + lo_s) * np.eye(na)
    S = C - B.T @ np.linalg.solve(A, B)
    assert np.linalg.eigvalsh(C)[0] > 0.0 > np.linalg.eigvalsh(S)[0]
    return BlockJacobian(sp.csr_matrix(A), sp.csr_matrix(B), sp.csr_matrix(C))


@pytest.fixture(scope="module")
def surfing_block():
    setup = setup_surfing(h=0.05, n_steps=4)
    records = run_quasistatic(setup, SolverConfig(method="am", omega=1.6))
    state = State(records[-1].u, records[-1].alpha, records[-2].alpha)
    J, iu, ia = inactive_block_jacobian(state, setup.problem)
    assert iu.size and ia.size
    return J


def fieldsplit_from_displacement_solve(J, b, maxit=None):
    """Reference: field-split MINRES on the whole block, started at (A^-1 b_u, 0)."""
    solve_a = inner_direct(J.A)
    y = solve_a(b[:J.nu])
    r0 = np.concatenate([np.zeros(J.nu), b[J.nu:] - J.Bt @ y])
    x, rep = minres_solve(J, r0, precond=FieldSplitPreconditioner(J, solve_a, inner_direct(J.C)),
                          rtol=FIELDSPLIT_RTOL, maxit=maxit)
    x[:J.nu] += y
    return x, rep


class TestCoupledLinearSolve:
    @staticmethod
    def production(J, b, monkeypatch, maxit=None, inactive=None):
        """``_coupled_linear_solve`` on ``inactive`` (default: all) of J, with
        its MINRES report; at ``maxit`` an unconverged solve gives x = None."""
        reports = []

        def capture(*args, **kwargs):
            x, rep = minres_solve(*args, **kwargs, maxit=maxit)
            reports.append(rep)
            return x, rep

        monkeypatch.setattr(phasefrac.solver, "minres_solve", capture)
        inactive = np.arange(J.shape[0]) if inactive is None else inactive
        try:
            x = _coupled_linear_solve(J, inactive, b, NonlinearReport())
        except LinearSolverError:
            x = None
        return x, reports[0]

    @pytest.mark.parametrize("block", ["indefinite", "surfing"])
    def test_reproduces_fieldsplit_minres_from_the_displacement_solve(
            self, block, surfing_block, monkeypatch):
        J = indefinite_schur_block() if block == "indefinite" else surfing_block
        b = np.random.default_rng(22).standard_normal(J.shape[0])
        x_ref, rep_ref = fieldsplit_from_displacement_solve(J, b)
        x, rep = self.production(J, b, monkeypatch)
        assert rep_ref.converged and rep.converged and rep.iterations > 0
        assert abs(rep.iterations - rep_ref.iterations) <= 1
        assert np.linalg.norm(x - x_ref) <= 1e-9 * np.linalg.norm(x_ref)
        for k in range(1, 6):
            _, rep_ref = fieldsplit_from_displacement_solve(J, b, maxit=k)
            _, rep = self.production(J, b, monkeypatch, maxit=k)
            assert rep.iterations == rep_ref.iterations == k
            assert rep.final_residual_norm == pytest.approx(rep_ref.final_residual_norm,
                                                            rel=1e-8)

    @staticmethod
    def spy_lu_solves(monkeypatch):
        """The sizes of the LU solves made, in order."""
        sizes = []
        solve = phasefrac.linalg.DirectFactorization.solve
        monkeypatch.setattr(phasefrac.linalg.DirectFactorization, "solve",
                            lambda self, b, *start: sizes.append(len(b)) or solve(self, b, *start))
        return sizes

    def test_one_displacement_solve_per_iteration(self, monkeypatch):
        J = indefinite_schur_block()
        b = np.random.default_rng(23).standard_normal(J.shape[0])
        sizes = self.spy_lu_solves(monkeypatch)
        x, rep = self.production(J, b, monkeypatch)
        assert rep.converged and rep.iterations > 0
        assert sizes.count(J.nu) == rep.iterations + 2
        assert sizes.count(J.na) == rep.iterations + 1
        assert len(sizes) == 2 * rep.iterations + 3
        assert np.allclose(block_csr(J) @ x, b, atol=1e-4 * np.linalg.norm(b))

    def test_empty_damage_set_is_one_displacement_solve(self, monkeypatch):
        J = indefinite_schur_block()
        b = np.random.default_rng(24).standard_normal(J.nu)
        sizes = self.spy_lu_solves(monkeypatch)
        x, rep = self.production(J, b, monkeypatch, inactive=np.arange(J.nu))
        assert rep.iterations == 0 and rep.converged
        assert sizes == [J.nu]
        assert np.allclose(x, np.linalg.solve(J.A.toarray(), b), rtol=1e-12, atol=1e-14)


class TestHeldDisplacementFactor:
    @staticmethod
    def solve(J, b, held):
        return _coupled_linear_solve(J, np.arange(J.shape[0]), b, NonlinearReport(), held)

    def test_reached_rows_are_eliminated_last(self, surfing_block):
        held = []
        self.solve(surfing_block, np.ones(surfing_block.shape[0]), held)
        n = surfing_block.nu
        reach = np.flatnonzero(np.diff(surfing_block.B.indptr))
        assert 0 < reach.size < n
        first = {False: reach.min(), True: n - 1 - reach.max()}
        assert first[held[0].flip] == max(first.values())

    def test_tail_solves_change_no_bit(self, surfing_block, monkeypatch):
        b = np.random.default_rng(25).standard_normal(surfing_block.shape[0])
        x = self.solve(surfing_block, b, [])
        solve = phasefrac.linalg.DirectFactorization.solve
        monkeypatch.setattr(phasefrac.linalg.DirectFactorization, "solve",
                            lambda self, b, start=0: solve(self, b))
        assert np.array_equal(self.solve(surfing_block, b, []), x)

    def test_refactored_factor_solves_like_a_fresh_one(self, surfing_block):
        J = surfing_block
        b = np.random.default_rng(26).standard_normal(J.shape[0])
        held = []
        self.solve(J, b, held)
        factor = held[0]
        # D A D, D < 1 on the later half of the elimination order
        order = np.arange(J.nu)[::-1] if factor.flip else np.arange(J.nu)
        d = np.where(order >= J.nu // 2, np.sqrt(0.9), 1.0)
        damaged = J.A.copy()
        damaged.data *= d[np.repeat(np.arange(J.nu), np.diff(damaged.indptr))] * d[damaged.indices]
        J2 = BlockJacobian(damaged, J.B, J.C)
        before = factor.band[:, :J.nu // 4].copy()
        x = self.solve(J2, b, held)
        assert held[0].band is factor.band
        assert np.array_equal(factor.band[:, :J.nu // 4], before)
        x_fresh = self.solve(J2, b, [])
        assert np.linalg.norm(x - x_fresh) <= 1e-10 * np.linalg.norm(x_fresh)

    def test_failed_refactor_empties_the_holder(self, surfing_block):
        J = surfing_block
        b = np.random.default_rng(27).standard_normal(J.shape[0])
        held = []
        x = self.solve(J, b, held)
        bad = J.A.copy()
        last = 0 if held[0].flip else J.nu - 1   # the row eliminated last
        bad.data[np.flatnonzero(bad.indices == last)[-1 if last else 0]] = -1.0
        with pytest.raises(SingularOperatorError):
            self.solve(BlockJacobian(bad, J.B, J.C), b, held)
        assert held == []
        assert np.array_equal(self.solve(J, b, held), x)


class TestComposedSolver:
    def test_matches_am_in_elastic_regime(self, traction):
        s1 = loaded_state(traction, 0.5)
        s2 = loaded_state(traction, 0.5)
        r1 = am_solve(s1, traction.problem, SolverConfig())
        r2 = oram_n_solve(s2, traction.problem, SolverConfig(method="oram_newton"))
        assert r1.converged and r2.converged
        e1 = assemble_energy(s1, traction.problem).total
        e2 = assemble_energy(s2, traction.problem).total
        assert e2 == pytest.approx(e1, rel=1e-10, abs=1e-14)

    def test_reaches_tight_tolerance_on_cracking_step(self, traction):
        state = cracking_state(traction)
        rep = oram_n_solve(state, traction.problem,
                           SolverConfig(method="oram_newton"))
        assert rep.converged
        assert rep.final_residual_norm <= 1e-7
        assert rep.newton_attempts >= 1

    def test_accepted_newton_never_raises_energy(self, traction):
        # acceptance requires energy <= the AM hand-off energy
        state = cracking_state(traction)
        handoff = cracking_state(traction)
        am_solve(handoff, traction.problem, SolverConfig(method="oram_newton"),
                 target=1e-1 * residual_norm(handoff, traction.problem))
        e_handoff = assemble_energy(handoff, traction.problem).total
        rep = oram_n_solve(state, traction.problem,
                           SolverConfig(method="oram_newton"))
        e_final = assemble_energy(state, traction.problem).total
        assert e_final <= e_handoff + 1e-10 * (1.0 + abs(e_handoff))

    def test_one_residual_evaluation_at_each_cycle_start(self, traction, monkeypatch):
        # a one-cycle step evaluates the residual at its start (which also
        # sets the hand-off target), after every sweep, and at its end
        calls = []
        norm = phasefrac.solver.residual_norm
        monkeypatch.setattr(phasefrac.solver, "residual_norm",
                            lambda *args, **kwargs: calls.append(1) or norm(*args, **kwargs))
        report = oram_n_solve(cracking_state(traction), traction.problem,
                              SolverConfig(method="oram_newton"))
        assert report.converged and report.newton_attempts == 1
        assert {r.cycle for r in report.iterations} == {0} and report.am_iterations > 1
        assert len(calls) == report.am_iterations + 2

class TestDispatch:
    def test_newton_only_matches_am_below_critical(self):
        setup = setup_traction(MAT, h=0.05, n_steps=5, load_max_factor=0.8)
        rec_n = run_quasistatic(setup, SolverConfig(method="newton_only"),
                                snapshot_stride=0)
        setup2 = setup_traction(MAT, h=0.05, n_steps=5, load_max_factor=0.8)
        rec_a = run_quasistatic(setup2, SolverConfig(method="am"),
                                snapshot_stride=0)
        assert all(r.report.converged for r in rec_n)
        assert rec_n[-1].energy.dissipated == 0.0
        assert rec_n[-1].energy.total == pytest.approx(
            rec_a[-1].energy.total, rel=1e-10)

    def test_method_routing(self, traction):
        state = loaded_state(traction, 0.4)
        rep = solve_load_step(state, traction.problem, SolverConfig(method="am"))
        assert rep.am_iterations > 0 and rep.newton_iterations == 0
        state = loaded_state(traction, 0.4)
        rep = solve_load_step(state, traction.problem,
                              SolverConfig(method="newton_only"))
        assert rep.am_iterations == 0 and rep.newton_attempts == 1
        # no relaxed damage update is taken, whatever omega is
        state = loaded_state(traction, 0.4)
        rep = solve_load_step(state, traction.problem,
                              SolverConfig(method="newton_only", omega=1.6))
        assert rep.newton_attempts == 1 and rep.omega_bar_min == 1.0

    def test_newton_only_hands_newton_exact_boundary_rows(self, monkeypatch):
        # the coupled Newton solve needs exact Dirichlet rows; the LU
        # presolve of the eliminated system returns them exactly
        setup = setup_surfing(MAT, h=0.05, n_steps=2, t_end=0.05)
        seen = []

        def capture(state, problem, config, **kwargs):
            seen.append((state.u[problem.bc.dofs].copy(), problem.bc.values.copy()))
            return coupled_newton_solve(state, problem, config, **kwargs)

        monkeypatch.setattr(phasefrac.solver, "coupled_newton_solve", capture)
        run_quasistatic(setup, SolverConfig(method="newton_only"),
                        snapshot_stride=0)
        assert len(seen) == 2
        for u_bc, ubar in seen:
            assert np.array_equal(u_bc, ubar)
