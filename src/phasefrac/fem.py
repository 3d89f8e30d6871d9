"""P1 assembly of the coupled displacement/damage energy on triangle meshes.

The discrete energy of a state (u, alpha) is

    E(u, alpha) = sum_e A_e * [ 1/2 a(ab_e) (B_e u_e - eps0_e)^T D (B_e u_e - eps0_e)
                                + (Gc/c_w) ( w(ab_e)/ell + ell |G_e alpha_e|^2 ) ]

with one-point (centroid) quadrature: ab_e is the mean of the three nodal
damage values, B_e the constant Voigt strain-displacement matrix, G_e the
constant P1 gradient, and eps0_e an optional inelastic (thermal) strain per
element.  All residuals and Hessian blocks below are exact derivatives of this
discrete functional, so finite-difference consistency holds to round-off.

Each kernel is linear in one per-element coefficient, so each is one product
with a constant sparse operator that ``Discretization`` builds on first use:
the strains ``Bg @ u``, the centroid damage ``Mg @ alpha``, the gradient term
``Lap`` and, per Hessian block, the map ``pattern(block).P`` from element
coefficients to matrix data.

Voigt convention: (e11, e22, gamma12) with engineering shear gamma12 = 2 e12.

Dirichlet data is read only here: ``impose_dirichlet``, ``eliminate_dirichlet``
and ``apply_dirichlet`` take it from ``Discretization.bc`` and eliminate it
from matrices assembled on their block's fixed pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh
from .model import C_W, Material, degradation, dissipation


class EnergyBreakdown(NamedTuple):
    elastic: float
    dissipated: float
    total: float


@dataclass
class State:
    """Solution fields plus the irreversibility floor."""

    u: np.ndarray
    alpha: np.ndarray
    alpha_lb: np.ndarray

    @classmethod
    def zeros(cls, mesh: Mesh, alpha_lb: Optional[np.ndarray] = None) -> "State":
        n = mesh.n_vertices
        lb = np.zeros(n) if alpha_lb is None else np.asarray(alpha_lb, dtype=float).copy()
        return cls(u=np.zeros(2 * n), alpha=lb.copy(), alpha_lb=lb)

    def copy(self) -> "State":
        return State(self.u.copy(), self.alpha.copy(), self.alpha_lb.copy())


@dataclass
class DirichletBC:
    """Prescribed values on a set of displacement dofs.

    Duplicate dofs are tolerated when their values agree (shared corners) and
    rejected otherwise.
    """

    dofs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        dofs = np.asarray(self.dofs, dtype=np.intp)
        values = np.asarray(self.values, dtype=float)
        if dofs.shape != values.shape:
            raise ValueError("dofs and values must have matching shapes")
        order = np.argsort(dofs, kind="stable")
        dofs, values = dofs[order], values[order]
        dup = dofs[1:] == dofs[:-1]
        if np.any(dup):
            bad = dup & (values[1:] != values[:-1])
            if np.any(bad):
                j = dofs[1:][bad][0]
                raise ValueError(f"conflicting Dirichlet values on dof {j}")
            keep = np.concatenate([[True], ~dup])
            dofs, values = dofs[keep], values[keep]
        self.dofs, self.values = dofs, values


def combine_bcs(*bcs: DirichletBC) -> DirichletBC:
    """Merge boundary conditions; conflicting duplicates raise."""
    return DirichletBC(np.concatenate([b.dofs for b in bcs]),
                       np.concatenate([b.values for b in bcs]))


class Discretization:
    """Mesh + material with precomputed element geometry and mutable load data.

    ``bc`` (displacement Dirichlet data, empty at first) and ``eps0`` (per-element inelastic
    strain in Voigt form) are set per load step by the drivers; all assembly
    routines are pure functions of (state, problem attributes).
    """

    def __init__(self, mesh: Mesh, material: Material):
        self.mesh = mesh
        self.material = material
        self.bc = DirichletBC((), ())

        tri = mesh.triangles
        xy = mesh.vertices
        p1, p2, p3 = xy[tri[:, 0]], xy[tri[:, 1]], xy[tri[:, 2]]
        det = ((p2[:, 0] - p1[:, 0]) * (p3[:, 1] - p1[:, 1])
               - (p2[:, 1] - p1[:, 1]) * (p3[:, 0] - p1[:, 0]))
        if np.any(det <= 0):
            raise ValueError("mesh contains non-CCW or degenerate triangles")
        self.area = 0.5 * det
        self.centroids = (p1 + p2 + p3) / 3.0

        # P1 basis gradients: grad(lambda_m) = (b_m, c_m) / det
        b = np.stack([p2[:, 1] - p3[:, 1], p3[:, 1] - p1[:, 1], p1[:, 1] - p2[:, 1]], axis=1)
        c = np.stack([p3[:, 0] - p2[:, 0], p1[:, 0] - p3[:, 0], p2[:, 0] - p1[:, 0]], axis=1)
        b = b / det[:, None]
        c = c / det[:, None]
        T = tri.shape[0]
        self.G = np.stack([b, c], axis=1)  # (T, 2, 3)

        # Voigt strain-displacement matrix (T, 3, 6)
        B = np.zeros((T, 3, 6))
        B[:, 0, 0::2] = b
        B[:, 1, 1::2] = c
        B[:, 2, 0::2] = c
        B[:, 2, 1::2] = b
        self.B = B

        self.D = material.stiffness_matrix()

        self.adofs = tri.astype(np.intp)  # (T, 3)
        ud = np.empty((T, 6), dtype=np.intp)
        ud[:, 0::2] = 2 * tri
        ud[:, 1::2] = 2 * tri + 1
        self.udofs = ud

        self.n_vertices = mesh.n_vertices
        self.n_udofs = 2 * mesh.n_vertices
        self.eps0 = np.zeros((T, 3))
        self._patterns: dict = {}
        self._eliminations: dict = {}

    # -- fixed sparsity ----------------------------------------------------

    def pattern(self, block: str) -> "BlockPattern":
        """CSR pattern of Hessian block ``"uu"``, ``"ua"`` or ``"aa"``, built on first use."""
        if block not in self._patterns:
            nu, na = self.n_udofs, self.n_vertices
            if block == "uu":
                BtDB = self.B.transpose(0, 2, 1) @ self.D @ self.B
                pat = BlockPattern(self.udofs, self.udofs, (nu, nu), weights=BtDB)
            elif block == "ua":
                pat = BlockPattern(self.udofs, self.adofs, (nu, na))
            elif block == "aa":
                pat = BlockPattern(self.adofs, self.adofs, (na, na),
                                   weights=np.full((self.adofs.shape[0], 3, 3), 1.0 / 9.0))
            else:
                raise ValueError(f"unknown Hessian block {block!r}")
            self._patterns[block] = pat
        return self._patterns[block]

    # -- constant element operators, built on first use --------------------

    @cached_property
    def Bg(self) -> sp.csr_matrix:
        """Element strains ``(Bg @ u).reshape(-1, 3)``: B_e scattered to (3T x 2n)."""
        T, cols = self.B.shape[0], np.repeat(self.udofs, 3, axis=0).astype(np.int32)
        Bg = sp.csr_matrix((self.B.flatten(), cols.ravel(),
                            np.arange(0, 18 * T + 1, 6, dtype=np.int32)), shape=(3 * T, self.n_udofs))
        Bg.eliminate_zeros()
        return Bg

    @cached_property
    def Mg(self) -> sp.csr_matrix:
        """Centroid damage ``ab = Mg @ alpha``: (T x n), entries 1/3."""
        T, cols = self.adofs.shape[0], self.adofs.astype(np.int32)
        return sp.csr_matrix((np.full(3 * T, 1.0 / 3.0), cols.ravel(),
                              np.arange(0, 3 * T + 1, 3, dtype=np.int32)),
                             shape=(T, self.n_vertices))

    @cached_property
    def BgT(self) -> sp.csr_matrix:
        """``Bg.T`` as CSR: ``Bg.T`` itself is a new matrix on every use."""
        return self.Bg.T.tocsr()

    @cached_property
    def MgT(self) -> sp.csr_matrix:
        """``Mg.T`` as CSR."""
        return self.Mg.T.tocsr()

    @cached_property
    def Lap(self) -> sp.csr_matrix:
        """2 (Gc/c_w) ell sum_e A_e G_e^T G_e on the ``"aa"`` pattern: the gradient term."""
        pat, m = self.pattern("aa"), self.material
        Ke = (2.0 * (m.Gc / C_W) * m.ell * self.area)[:, None, None] * np.einsum(
            "eki,ekj->eij", self.G, self.G)
        return pat.matrix(np.bincount(pat.slots, weights=Ke.ravel(), minlength=pat.nnz))


# -- energy and residuals ---------------------------------------------------


def element_strains(state: State, problem: Discretization):
    """(sig, q): element stresses ``eps D`` and energy densities ``sig . eps``, with
    ``eps = B u - eps0``; the kernels below accept them for ``state.u`` as ``strains``."""
    eps = (problem.Bg @ state.u).reshape(-1, 3) - problem.eps0
    sig = eps @ problem.D
    return sig, np.einsum("ei,ei->e", sig, eps)


def assemble_energy(state: State, problem: Discretization, strains=None) -> EnergyBreakdown:
    """Elastic / dissipated / total energy of the state."""
    m = problem.material
    ab = problem.Mg @ state.alpha
    a, _, _ = degradation(ab, m.k_ell)
    w, _, _ = dissipation(ab)
    _, q = element_strains(state, problem) if strains is None else strains
    elastic = 0.5 * float(np.dot(problem.area * a, q))
    dissipated = ((m.Gc / C_W) / m.ell * float(np.dot(problem.area, w))
                  + 0.5 * float(state.alpha @ (problem.Lap @ state.alpha)))
    return EnergyBreakdown(elastic, dissipated, elastic + dissipated)


def assemble_residual_u(state: State, problem: Discretization,
                        apply_bc: bool = True, strains=None) -> np.ndarray:
    """Gradient of the energy in u; Dirichlet rows replaced by (u - ubar)."""
    a, _, _ = degradation(problem.Mg @ state.alpha, problem.material.k_ell)
    sig, _ = element_strains(state, problem) if strains is None else strains
    r = problem.BgT @ ((a * problem.area)[:, None] * sig).ravel()
    if apply_bc:
        r[problem.bc.dofs] = state.u[problem.bc.dofs] - problem.bc.values
    return r


def assemble_load_u(state: State, problem: Discretization) -> np.ndarray:
    """Inelastic-strain load vector f with residual_u(u) = Kuu u - f (no BC)."""
    a, _, _ = degradation(problem.Mg @ state.alpha, problem.material.k_ell)
    sig0 = problem.eps0 @ problem.D
    return problem.BgT @ ((a * problem.area)[:, None] * sig0).ravel()


def assemble_residual_alpha(state: State, problem: Discretization, strains=None) -> np.ndarray:
    """Gradient of the energy in alpha (no Dirichlet data on damage)."""
    m = problem.material
    ab = problem.Mg @ state.alpha
    _, ap, _ = degradation(ab, m.k_ell)
    _, wp, _ = dissipation(ab)
    _, q = element_strains(state, problem) if strains is None else strains
    nodal = (0.5 * ap * q + (m.Gc / C_W) * wp / m.ell) * problem.area
    return problem.MgT @ nodal + problem.Lap @ state.alpha


# -- Hessian blocks ----------------------------------------------------------


class BlockPattern:
    """Fixed CSR sparsity of one Hessian block and the slot of each element entry.

    Entry (i, j) of element e adds into ``data[slots[e, i, j]]`` (flattened).
    With per-element ``weights`` (T, k, m), entries of weight zero point one
    past the end and are dropped, so a position is in the pattern only if some
    element adds a nonzero there (no structural zeros), and ``P`` is the
    constant (nnz x T) map ``data = P @ c`` for which element e adds
    ``weights[e, i, j] * c[e]`` into its slot (i, j).
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, shape: tuple,
                 weights: Optional[np.ndarray] = None):
        k, m = rows.shape[1], cols.shape[1]
        key = (np.repeat(rows, m, axis=1).astype(np.int64) * shape[1]
               + np.tile(cols, (1, k))).ravel()
        if weights is not None:
            key[weights.ravel() == 0] = shape[0] * shape[1]   # sorts after every real slot
        uniq, inv = np.unique(key, return_inverse=True)
        if weights is not None and uniq.size and uniq[-1] == shape[0] * shape[1]:
            uniq = uniq[:-1]
        self.shape = shape
        self.nnz = uniq.size
        self.slots = inv.astype(np.int32)
        self.indices = (uniq % shape[1]).astype(np.int32)
        self.indptr = np.searchsorted(uniq // shape[1],
                                      np.arange(shape[0] + 1)).astype(np.int32)
        if weights is not None:
            keep = self.slots < self.nnz
            elements = np.repeat(np.arange(rows.shape[0], dtype=np.int32), k * m)
            self.P = sp.csr_matrix((weights.ravel()[keep], (self.slots[keep], elements[keep])),
                                   shape=(self.nnz, rows.shape[0]))

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """The block with ``data`` (one value per slot) on this pattern."""
        return _csr(data, self.indices, self.indptr, self.shape)


def _csr(data, indices, indptr, shape) -> sp.csr_matrix:
    # index arrays are copied: callers may restructure the result in place
    K = sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=shape)
    K.has_canonical_format = True
    return K


def assemble_Kuu(state: State, problem: Discretization, apply_bc: bool = True) -> sp.csr_matrix:
    """Damage-degraded elasticity matrix; Dirichlet rows/cols eliminated."""
    a, _, _ = degradation(problem.Mg @ state.alpha, problem.material.k_ell)
    pat = problem.pattern("uu")
    K = pat.matrix(pat.P @ (a * problem.area))
    if apply_bc:
        K = eliminate_dirichlet(K, problem)
    return K


def assemble_Kua(state: State, problem: Discretization, apply_bc: bool = True,
                 strains=None) -> sp.csr_matrix:
    """Mixed block d(residual_u)/d(alpha); Dirichlet rows dropped."""
    _, ap, _ = degradation(problem.Mg @ state.alpha, problem.material.k_ell)
    sig, _ = element_strains(state, problem) if strains is None else strains
    v = (ap * problem.area / 3.0)[:, None] * np.einsum("eik,ei->ek", problem.B, sig)
    pat, data = problem.pattern("ua"), np.repeat(v, 3)  # identical columns per node
    K = pat.matrix(np.bincount(pat.slots, weights=data, minlength=pat.nnz))
    if apply_bc:
        K = eliminate_dirichlet(K, problem, "ua")
    return K


def assemble_Kaa(state: State, problem: Discretization, strains=None) -> sp.csr_matrix:
    """Damage block: strain-energy reaction + (Gc/c_w) ell Laplacian (w'' = 0)."""
    _, _, app = degradation(problem.Mg @ state.alpha, problem.material.k_ell)
    _, q = element_strains(state, problem) if strains is None else strains
    pat = problem.pattern("aa")
    return pat.matrix(pat.P @ (0.5 * app * q * problem.area) + problem.Lap.data)


# -- Dirichlet elimination ----------------------------------------------------


class DirichletElimination:
    """Precomputed gather from a block pattern to its Dirichlet-eliminated form.

    Rows of ``dofs`` are dropped; with ``columns`` their columns are dropped
    too and each constrained row keeps only a unit diagonal.  Applying it to a
    data array on the source pattern is one gather and one scatter of ones.
    """

    def __init__(self, pattern: BlockPattern, dofs: np.ndarray, columns: bool = True):
        indptr, indices, shape = pattern.indptr, pattern.indices, pattern.shape
        self.dofs = np.array(dofs, dtype=np.intp)
        self.shape = shape
        fixed = np.zeros(shape[0], dtype=bool)
        fixed[self.dofs] = True
        rows = np.repeat(np.arange(shape[0]), np.diff(indptr))
        keep = ~fixed[rows]
        if columns:
            keep &= ~fixed[indices]
        src = np.flatnonzero(keep)
        r, c = rows[src], indices[src]
        if columns:
            unit = np.unique(self.dofs)
            r, c = np.concatenate([r, unit]), np.concatenate([c, unit])
            src = np.concatenate([src, np.full(unit.size, -1)])
            order = np.lexsort((c, r))
            r, c, src = r[order], c[order], src[order]
        self.unit = np.flatnonzero(src < 0).astype(np.int32)
        src[src < 0] = 0
        self.src = src.astype(np.int32)
        self.indices = c.astype(np.int32)
        self.indptr = np.searchsorted(r, np.arange(shape[0] + 1)).astype(np.int32)

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        out = data[self.src]
        out[self.unit] = 1.0
        return _csr(out, self.indices, self.indptr, self.shape)


def eliminate_dirichlet(K: sp.csr_matrix, problem: Discretization,
                        block: str = "uu") -> sp.csr_matrix:
    """Eliminate ``problem.bc`` from a block assembled on ``problem.pattern(block)``.

    ``"uu"`` zeroes the constrained rows and columns and puts 1 on their
    diagonal; ``"ua"`` zeroes the constrained rows.  A matrix whose entry
    count differs from the pattern's was not assembled on it and is rejected.
    The elimination is kept until the dof set changes: boundary values move
    every load step, the constrained dofs do not.
    """
    nnz = problem.pattern(block).nnz
    if K.nnz != nnz:
        raise ValueError(f"matrix has {K.nnz} entries, the {block!r} pattern {nnz}")
    elim, dofs = problem._eliminations.get(block), problem.bc.dofs
    if elim is None or not np.array_equal(elim.dofs, dofs):
        elim = DirichletElimination(problem.pattern(block), dofs, columns=block == "uu")
        problem._eliminations[block] = elim
    return elim.matrix(K.data)


def apply_dirichlet(K: sp.csr_matrix, rhs: np.ndarray, problem: Discretization):
    """Symmetric elimination of ``problem.bc`` from the system K x = rhs (block ``"uu"``).

    Returns (K', rhs') with K'[j, :] = K'[:, j] = e_j and rhs'[j] = value_j for
    constrained j, and rhs adjusted on free rows so the solution is unchanged.
    """
    bc = problem.bc
    g = np.zeros(K.shape[0])
    g[bc.dofs] = bc.values
    rhs2 = rhs - K @ g
    rhs2[bc.dofs] = bc.values
    return eliminate_dirichlet(K, problem), rhs2


def impose_dirichlet(state: State, problem: Discretization) -> None:
    """Set the constrained displacement dofs of ``state`` to their values."""
    state.u[problem.bc.dofs] = problem.bc.values
