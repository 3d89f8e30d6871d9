"""Material laws: degradation/dissipation pair, plane stress, critical loads."""

import math

import numpy as np
import pytest

from phasefrac.model import (C_W, Material, critical_shock, critical_traction,
                             degradation, dissipation)


class TestDamagePair:
    @pytest.mark.parametrize("alpha,expected", [
        (0.0, (1.0 + 1e-6, -2.0, 2.0)),
        (1.0, (1e-6, 0.0, 2.0)),
        (0.5, (0.25 + 1e-6, -1.0, 2.0)),
    ])
    def test_degradation_values(self, alpha, expected):
        a, da, dda = degradation(alpha, k_ell=1e-6)
        assert np.allclose((a, da, dda), expected, rtol=0, atol=1e-15)

    def test_dissipation_values(self):
        w, dw, ddw = dissipation(np.array([0.0, 1.0, 0.3]))
        assert np.array_equal(w, [0.0, 1.0, 0.3])
        assert np.array_equal(dw, [1.0, 1.0, 1.0])
        assert np.array_equal(ddw, [0.0, 0.0, 0.0])

    def test_normalization_constant(self):
        # 4 * integral_0^1 sqrt(alpha) d alpha = 8/3
        assert C_W == pytest.approx(8.0 / 3.0, rel=0, abs=0)

    def test_second_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(7)
        alphas = rng.uniform(0.05, 0.95, 20)
        h = 1e-6
        for al in alphas:
            _, dap, _ = degradation(al + h)
            _, dam, _ = degradation(al - h)
            _, _, dda = degradation(al)
            assert dda == pytest.approx((dap - dam) / (2 * h), abs=1e-6)
            _, dwp, _ = dissipation(al + h)
            _, dwm, _ = dissipation(al - h)
            _, _, ddw = dissipation(al)
            assert ddw == pytest.approx((dwp - dwm) / (2 * h), abs=1e-6)


class TestPlaneStress:
    def test_identity_strain_decoupled(self):
        m = Material(E=1.0, nu=0.0)
        assert np.allclose(m.stress(np.eye(2)), np.eye(2))

    def test_identity_strain_poisson(self):
        m = Material(E=1.0, nu=0.3)
        sig = m.stress(np.eye(2))
        expected = (1.0 / 0.91) * 1.3  # E/(1-nu^2) * (1 - nu + 2 nu)
        assert np.allclose(sig, expected * np.eye(2), rtol=1e-12)
        assert sig[0, 0] == pytest.approx(1.42857, abs=1e-5)

    def test_pure_shear(self):
        m = Material(E=2.3, nu=0.27)
        s = 0.4
        eps = np.array([[0.0, s], [s, 0.0]])
        sig = m.stress(eps)
        assert sig[0, 1] == pytest.approx(2.0 * m.mu * s, rel=1e-12)
        assert sig[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_voigt_matrix_consistent_with_tensor_map(self):
        m = Material(E=1.7, nu=0.21)
        D = m.stiffness_matrix()
        rng = np.random.default_rng(3)
        for _ in range(5):
            e11, e22, e12 = rng.standard_normal(3)
            eps = np.array([[e11, e12], [e12, e22]])
            sig = m.stress(eps)
            voigt = D @ np.array([e11, e22, 2 * e12])
            assert np.allclose([sig[0, 0], sig[1, 1], sig[0, 1]], voigt, rtol=1e-12)

    def test_shear_modulus(self):
        m = Material(E=2.0, nu=0.25)
        assert m.mu == pytest.approx(2.0 / (2 * 1.25), rel=1e-15)


class TestCriticalLoads:
    def test_traction_threshold_value(self):
        m = Material(E=1.0, Gc=1.0, ell=0.1)
        assert critical_traction(m) == pytest.approx(math.sqrt(3.75), rel=1e-15)
        assert critical_traction(m) == pytest.approx(1.936492, abs=1e-6)

    def test_traction_scales_with_toughness(self):
        m1 = Material(Gc=1.0, ell=0.2)
        m4 = Material(Gc=4.0, ell=0.2)
        assert critical_traction(m4) == pytest.approx(2 * critical_traction(m1),
                                                      rel=1e-15)

    def test_traction_unity_arrangement(self):
        assert critical_traction(Material(E=1.0, Gc=1.0, ell=3.0 / 8.0)) == \
            pytest.approx(1.0, rel=1e-15)

    def test_shock_threshold_is_critical_strain_over_beta(self):
        # the erfc quench reaches surface stress E*beta*dT, so the threshold
        # equals the uniaxial critical strain divided by beta
        m = Material(E=1.0, Gc=1.0, ell=1.0, beta=1.0)
        assert critical_shock(m) == pytest.approx(critical_traction(m), rel=1e-15)
        assert critical_shock(m) == pytest.approx(0.6123724356957945, rel=1e-15)

    def test_shock_threshold_with_stiffness_not_one(self):
        # t_c is a strain, so dT_c = t_c/beta; t_c/(E beta) would give 0.121
        m = Material(E=4.0, beta=2.0)
        t_c = (3.0 / (8.0 * 4.0 * 0.1)) ** 0.5
        assert critical_traction(m) == pytest.approx(t_c, rel=1e-15)
        assert critical_shock(m) == pytest.approx(t_c / 2.0, rel=1e-15)
        assert critical_shock(m) == pytest.approx(0.4841229182759271, rel=1e-15)

    def test_shock_scales_inverse_beta(self):
        m1 = Material(ell=1.0, beta=1.0)
        m2 = Material(ell=1.0, beta=2.0)
        assert critical_shock(m2) == pytest.approx(critical_shock(m1) / 2, rel=1e-15)

    def test_shock_requires_positive_beta(self):
        with pytest.raises(ValueError):
            critical_shock(Material(beta=-1.0))

    def test_round_trip_strength(self):
        Gc, E, sigma_c = 2.0, 3.0, 0.7
        ell = 0.375 * Gc * E / sigma_c**2   # the length that reproduces sigma_c
        m = Material(E=E, Gc=Gc, ell=ell)
        # the strain threshold of the bar equals sigma_c / E by construction
        assert critical_traction(m) == pytest.approx(sigma_c / E, rel=1e-12)


class TestMaterialValidation:
    def test_positive_moduli_required(self):
        with pytest.raises(ValueError):
            Material(E=-1.0)
        with pytest.raises(ValueError):
            Material(Gc=0.0)
        with pytest.raises(ValueError):
            Material(ell=0.0)

    def test_poisson_range(self):
        with pytest.raises(ValueError):
            Material(nu=0.5)
        with pytest.raises(ValueError):
            Material(nu=-1.0)

    def test_frozen(self):
        m = Material()
        with pytest.raises(Exception):
            m.E = 2.0
