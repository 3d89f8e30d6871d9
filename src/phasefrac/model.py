"""Material data and the linear-softening gradient damage model.

The damage pair is ``w(alpha) = alpha`` (linear dissipation, giving an elastic
phase before damage onset) and ``a(alpha) = (1 - alpha)^2 + k_ell`` (quadratic
stiffness degradation with a small residual k_ell).  The normalization
constant ``c_w = 4 * integral_0^1 sqrt(w) = 8/3`` makes the dissipated energy
of a fully developed band equal to Gc per unit crack length.

Elasticity is isotropic plane stress throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: normalization constant of the linear-dissipation model, 4*int_0^1 sqrt(w)
C_W = 8.0 / 3.0


@dataclass(frozen=True)
class Material:
    """Isotropic plane-stress material with fracture properties.

    beta is the thermal expansion coefficient per unit temperature (only
    exercised by the thermal-shock case).
    """

    E: float = 1.0
    nu: float = 0.3
    Gc: float = 1.0
    ell: float = 0.1
    k_ell: float = 1e-6
    beta: float = 1.0

    def __post_init__(self):
        for name in ("E", "Gc", "ell", "beta"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)!r}")
        if not 0.0 <= self.k_ell < math.inf:
            raise ValueError(f"k_ell must be nonnegative and finite, got {self.k_ell!r}")
        if not -1.0 < self.nu < 0.5:
            raise ValueError(f"nu={self.nu!r} out of the admissible range (-1, 0.5)")

    @property
    def mu(self) -> float:
        """Shear modulus E / (2(1 + nu))."""
        return self.E / (2.0 * (1.0 + self.nu))

    def stiffness_matrix(self) -> np.ndarray:
        """3x3 plane-stress stiffness in Voigt order (e11, e22, gamma12)."""
        E, nu = self.E, self.nu
        c = E / (1.0 - nu * nu)
        return c * np.array([[1.0, nu, 0.0],
                             [nu, 1.0, 0.0],
                             [0.0, 0.0, 0.5 * (1.0 - nu)]])

    def stress(self, eps: np.ndarray) -> np.ndarray:
        """Plane-stress map on a 2x2 strain: E/(1-nu^2) [(1-nu) eps + nu tr(eps) I]."""
        eps = np.asarray(eps, dtype=float)
        c = self.E / (1.0 - self.nu * self.nu)
        return c * ((1.0 - self.nu) * eps + self.nu * np.trace(eps) * np.eye(2))


def degradation(alpha, k_ell: float = 1e-6):
    """Return (a, a', a'') of a(alpha) = (1 - alpha)^2 + k_ell."""
    alpha = np.asarray(alpha, dtype=float)
    one_m = 1.0 - alpha
    return one_m * one_m + k_ell, -2.0 * one_m, np.full_like(alpha, 2.0)


def dissipation(alpha):
    """Return (w, w', w'') of w(alpha) = alpha."""
    alpha = np.asarray(alpha, dtype=float)
    return alpha.copy(), np.ones_like(alpha), np.zeros_like(alpha)


def critical_traction(material: Material) -> float:
    """Homogeneous damage-onset strain of a uniaxial bar, sqrt(3 Gc / (8 E ell)).

    The onset condition at alpha = 0 is E t^2 = (3/8) Gc / ell; the matching
    uniaxial strength is sigma_c = E t_c.
    """
    m = material
    return math.sqrt(3.0 * m.Gc / (8.0 * m.E * m.ell))


def critical_shock(material: Material) -> float:
    """Temperature-jump threshold below which an erfc-profile shock stays elastic.

    The surface stress of the shock is sigma = E beta dT (plane stress, laterally
    constrained slab), so the threshold is sigma_c/(E beta) = t_c/beta: beta * dT_c
    equals the critical traction strain t_c at the same (E, Gc, ell).
    """
    return critical_traction(material) / material.beta
