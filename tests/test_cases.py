"""Benchmark problem setups, closed-form boundary data, and the run driver."""

import mpmath
import numpy as np
import pytest
from scipy.special import erfc

from phasefrac.cases import (StepFailureError, crack_band_count,
                             run_quasistatic, setup_surfing,
                             setup_thermal_shock, setup_traction,
                             surfing_displacement, thermal_strain)
from phasefrac.fem import State
from phasefrac.mesh import rect_mesh
from phasefrac.model import Material, critical_shock, critical_traction
from phasefrac.solver import SolverConfig


class TestSurfingDisplacement:
    MAT = Material(E=1.0, nu=0.3, ell=0.1)

    def test_zero_at_tip(self):
        tip = np.array([0.05 + 1.0 * 0.3, 0.0])
        u = surfing_displacement(tip, 0.3, self.MAT, K_I=1.0)
        assert np.max(np.abs(u)) == 0.0

    def test_closed_form_ahead_of_tip(self):
        # r = 2*pi, theta = 0: amplitude (K/2mu)(kappa - 1) = K (1 + nu)(2 - 2nu)/(1 + nu)
        #                                                   = 2 K (1 - nu) ... = 1.4 for nu = 0.3, K = 1
        pt = np.array([0.05 + 2.0 * np.pi, 0.0])
        u = surfing_displacement(pt, 0.0, self.MAT, K_I=1.0)
        assert u[0] == pytest.approx(1.4, abs=1e-12)
        assert u[1] == pytest.approx(0.0, abs=1e-15)

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(0)
        t = 0.2
        tip = np.array([0.05 + t, 0.0])
        r = rng.uniform(0.1, 2.0, 20)
        th = rng.uniform(-np.pi, np.pi, 20)
        above = tip + np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        below = tip + np.stack([r * np.cos(th), -r * np.sin(th)], axis=1)
        ua = surfing_displacement(above, t, self.MAT)
        ub = surfing_displacement(below, t, self.MAT)
        assert np.allclose(ua[:, 0], ub[:, 0], atol=1e-13)
        assert np.allclose(ua[:, 1], -ub[:, 1], atol=1e-13)

    def test_linear_in_intensity_factor(self):
        pts = np.array([[1.0, 0.5], [0.3, -0.7]])
        u1 = surfing_displacement(pts, 0.1, self.MAT, K_I=1.0)
        u2 = surfing_displacement(pts, 0.1, self.MAT, K_I=2.0)
        assert np.allclose(u2, 2.0 * u1, rtol=1e-14)

    def test_default_intensity_is_griffith_critical(self):
        pts = np.array([[1.5, 0.2]])
        u_def = surfing_displacement(pts, 0.0, self.MAT)
        K = np.sqrt(self.MAT.Gc * self.MAT.E)
        u_k = surfing_displacement(pts, 0.0, self.MAT, K_I=K)
        assert np.allclose(u_def, u_k, rtol=1e-15)

    def test_tip_translates_with_time(self):
        probe = np.array([1.0, 0.4])
        u_early = surfing_displacement(probe, 0.0, self.MAT)
        shifted = probe + np.array([0.25, 0.0])
        u_late = surfing_displacement(shifted, 0.25, self.MAT)
        assert np.allclose(u_early, u_late, rtol=1e-14)


class TestErfc:
    def test_anchor_values(self):
        assert erfc(0.0) == pytest.approx(1.0, abs=1e-15)
        assert erfc(1.0) == pytest.approx(0.15729920705028513, abs=1e-16)
        assert float(erfc(np.inf)) == 0.0

    def test_reflection_identity(self):
        z = np.linspace(-4.0, 4.0, 33)
        assert np.allclose(erfc(-z), 2.0 - erfc(z), atol=1e-14)

    def test_against_arbitrary_precision(self):
        z = np.linspace(-6.0, 6.0, 61)
        ours = erfc(z)
        ref = np.array([float(mpmath.erfc(mpmath.mpf(float(v)))) for v in z])
        assert np.allclose(ours, ref, rtol=1e-12, atol=1e-300)


class TestThermalStrain:
    MAT = Material(E=1.0, nu=0.3, ell=1.0, beta=1.0)

    def test_face_value_and_shape(self):
        x2 = np.array([0.0, 0.5, 10.0])
        eps = thermal_strain(x2, tau=1.0, material=self.MAT, delta_T=2.0)
        assert eps.shape == (3, 3)
        assert eps[0, 0] == pytest.approx(-2.0, abs=1e-14)
        assert eps[0, 1] == pytest.approx(-2.0, abs=1e-14)
        assert np.all(eps[:, 2] == 0.0)

    def test_decays_into_the_body(self):
        eps = thermal_strain(np.array([8.0]), tau=1.0, material=self.MAT,
                             delta_T=1.0)
        assert abs(eps[0, 0]) < 1e-13

    def test_front_position_scales_with_tau(self):
        # at x2 = ell * tau the argument is 1 for any tau
        for tau in (0.2, 1.0, 3.0):
            eps = thermal_strain(np.array([self.MAT.ell * tau]), tau=tau,
                                 material=self.MAT, delta_T=1.0)
            assert eps[0, 0] == pytest.approx(-0.15729920705028513, rel=1e-12)

    def test_nonpositive_tau_rejected(self):
        for tau in (0.0, -1.0):
            with pytest.raises(ValueError):
                thermal_strain(np.zeros(2), tau=tau, material=self.MAT,
                               delta_T=1.0)

    def test_proportional_to_shock_amplitude(self):
        x2 = np.linspace(0, 3, 7)
        e1 = thermal_strain(x2, 0.7, self.MAT, delta_T=1.0)
        e3 = thermal_strain(x2, 0.7, self.MAT, delta_T=3.0)
        assert np.allclose(e3, 3.0 * e1, rtol=1e-14)


class TestTractionSetup:
    MAT = Material(ell=0.1)

    def test_schedule_spans_past_critical(self):
        setup = setup_traction(self.MAT)
        tc = critical_traction(self.MAT)
        assert setup.schedule.size == 30
        assert np.all(np.diff(setup.schedule) > 0)
        assert setup.schedule[0] > 0.0
        assert setup.schedule[-1] == pytest.approx(1.5 * tc, rel=1e-14)
        assert setup.seed_threshold == pytest.approx(tc, rel=1e-15)

    def test_seed_is_one_interior_column(self):
        setup = setup_traction(self.MAT, h=0.05, seed_level=0.07)
        cols = np.unique(setup.mesh.vertices[setup.seed_alpha > 0, 0])
        assert cols.size == 1
        assert 0.3 < cols[0] < 0.7
        assert setup.seed_alpha.max() == pytest.approx(0.07)

    def test_subcritical_run_is_exactly_elastic(self):
        setup = setup_traction(self.MAT, h=0.05, n_steps=2,
                               load_max_factor=0.5)
        records = run_quasistatic(setup, SolverConfig(), snapshot_stride=0)
        t = setup.schedule[-1]
        expected = 0.5 * self.MAT.E * t * t * 1.0 * 0.3 * (1.0 + 1e-6)
        assert records[-1].energy.dissipated == 0.0
        assert records[-1].energy.elastic == pytest.approx(expected, rel=1e-12)

    def test_cracked_run_dissipates_about_one_band(self):
        setup = setup_traction(self.MAT, h=0.05, n_steps=8)
        records = run_quasistatic(setup, SolverConfig(), snapshot_stride=0)
        diss = records[-1].energy.dissipated
        # a straight transverse crack costs about Gc * H
        assert 0.5 * self.MAT.Gc * 0.3 < diss < 2.0 * self.MAT.Gc * 0.3


class TestSurfingSetup:
    MAT = Material(ell=0.1)

    def test_schedule_starts_at_zero(self):
        setup = setup_surfing(self.MAT, h=0.1)
        assert setup.schedule[0] == 0.0
        assert setup.schedule[-1] == pytest.approx(1.0)

    def test_boundary_data_matches_closed_form(self):
        setup = setup_surfing(self.MAT, h=0.1)
        state = State.zeros(setup.mesh)
        t = 0.4
        setup.apply_load(setup.problem, state, t)
        bc = setup.problem.bc
        bverts = setup.mesh.all_boundary_vertices()
        assert bc.dofs.size == 2 * bverts.size
        expect = surfing_displacement(setup.mesh.vertices[bverts], t, self.MAT,
                                      K_I=setup.params["K_I"])
        got = np.zeros((setup.mesh.n_vertices, 2))
        got[bc.dofs[0::2] // 2, 0] = bc.values[0::2]
        got[bc.dofs[1::2] // 2, 1] = bc.values[1::2]
        assert np.allclose(got[bverts], expect, atol=1e-12)

    def test_initial_crack_is_pinned_at_full_damage(self):
        setup = setup_surfing(self.MAT, h=0.1)
        lb = setup.initial_alpha_lb
        v = setup.mesh.vertices
        seeded = lb == 1.0
        assert seeded.any()
        h = setup.params["h"]
        assert np.all(v[seeded, 0] <= setup.params["L_c"] + h + 1e-12)
        assert np.all(np.abs(v[seeded, 1]) <= h + 1e-12)
        assert lb[~seeded].max() == 0.0

    def test_banded_mesh_refines_crack_corridor(self):
        setup = setup_surfing(self.MAT, h=0.05, h_coarse=0.2,
                              band_halfwidth=0.2)
        v = setup.mesh.vertices
        in_band = np.abs(v[:, 1]) <= 0.2 + 1e-9
        # vertical spacing inside the band is the fine h
        ys = np.unique(np.round(v[in_band, 1], 12))
        assert np.min(np.diff(ys)) <= 0.05 + 1e-9
        coarse_ys = np.unique(np.round(v[~in_band, 1], 12))
        assert np.min(np.diff(coarse_ys)) > 0.05 + 1e-9


class TestThermalShockSetup:
    MAT = Material(E=1.0, nu=0.3, Gc=1.0, ell=1.0, beta=1.0)

    def test_shock_amplitude_recorded(self):
        setup = setup_thermal_shock(self.MAT, h=0.5, dT_factor=2.0)
        dtc = critical_shock(self.MAT)
        assert setup.params["critical_shock"] == pytest.approx(dtc, rel=1e-15)
        assert setup.params["delta_T"] == pytest.approx(2.0 * dtc, rel=1e-15)

    def test_schedule_is_geometric_in_time(self):
        setup = setup_thermal_shock(self.MAT, h=0.5, n_steps=6,
                                    tau_min=0.05, tau_max=3.0)
        ratios = setup.schedule[1:] / setup.schedule[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-12)
        assert setup.schedule[0] == pytest.approx(0.05)
        assert setup.schedule[-1] == pytest.approx(3.0)

    def test_jitter_is_deterministic(self):
        a = setup_thermal_shock(self.MAT, h=0.5)
        b = setup_thermal_shock(self.MAT, h=0.5)
        assert np.array_equal(a.mesh.vertices, b.mesh.vertices)

    def test_jitter_moves_interior(self):
        jig = setup_thermal_shock(self.MAT, h=0.5)
        flat = setup_thermal_shock(self.MAT, h=0.5, jitter=0.0)
        assert jig.mesh.n_vertices == flat.mesh.n_vertices
        assert not np.allclose(jig.mesh.vertices, flat.mesh.vertices)

    def test_quenched_face_strain_enters_load(self):
        setup = setup_thermal_shock(self.MAT, h=0.5, dT_factor=1.0)
        state = State.zeros(setup.mesh)
        setup.apply_load(setup.problem, state, 1.0)
        eps0 = setup.problem.eps0
        assert eps0 is not None and eps0.shape == (setup.mesh.n_triangles, 3)
        assert eps0[:, 0].min() < -1e-3   # compression at the cold face
        assert np.all(eps0[:, 2] == 0.0)


class TestCrackBandCount:
    def synthetic(self, columns, top_only=False):
        mesh = rect_mesh(2.0, 1.0, 0.25)
        alpha = np.zeros(mesh.n_vertices)
        v = mesh.vertices
        for x0 in columns:
            band = np.abs(v[:, 0] - x0) < 0.01
            if top_only:
                band &= v[:, 1] > 0.4
            alpha[band] = 1.0
        return mesh, alpha

    def test_two_separate_bands(self):
        mesh, alpha = self.synthetic([0.5, 1.5])
        assert crack_band_count(mesh, alpha) == 2

    def test_band_not_touching_boundary_excluded(self):
        mesh, alpha = self.synthetic([0.5], top_only=True)
        assert crack_band_count(mesh, alpha) == 0
        assert crack_band_count(mesh, alpha, boundary_tag="top") == 1

    def test_no_damage_no_bands(self):
        mesh, alpha = self.synthetic([])
        assert crack_band_count(mesh, alpha) == 0

    def test_threshold_respected(self):
        mesh, alpha = self.synthetic([0.5])
        alpha *= 0.8
        assert crack_band_count(mesh, alpha, threshold=0.9) == 0
        assert crack_band_count(mesh, alpha, threshold=0.5) == 1


class TestRunDriver:
    MAT = Material(ell=0.1)

    def test_snapshot_stride(self):
        setup = setup_traction(self.MAT, h=0.05, n_steps=5,
                               load_max_factor=0.5)
        records = run_quasistatic(setup, SolverConfig(), snapshot_stride=2)
        have = [r.alpha is not None for r in records]
        assert have == [True, False, True, False, True]
        records = run_quasistatic(setup, SolverConfig(), snapshot_stride=0)
        assert all(r.alpha is None and r.u is None for r in records)

    def test_failure_carries_partial_records(self):
        setup = setup_traction(self.MAT, h=0.05, n_steps=8)
        config = SolverConfig(max_am_iterations=1, outer_atol=1e-12)
        with pytest.raises(StepFailureError) as err:
            run_quasistatic(setup, config, snapshot_stride=0)
        e = err.value
        assert e.step == len(e.records) - 1
        assert not e.records[-1].report.converged
        assert e.state.alpha.shape == (setup.mesh.n_vertices,)
        assert "did not converge" in str(e)

    def test_loads_recorded_in_schedule_order(self):
        setup = setup_traction(self.MAT, h=0.05, n_steps=4,
                               load_max_factor=0.5)
        records = run_quasistatic(setup, SolverConfig(), snapshot_stride=0)
        assert [r.load for r in records] == list(setup.schedule)
