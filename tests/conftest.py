"""Shared fixtures and independent oracles for the test suite.

The oracles here are deliberately naive (dense linear algebra, brute-force
enumeration, central finite differences) so they cannot share bugs with the
library's optimized implementations.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from phasefrac.fem import Discretization, EnergyBreakdown, State
from phasefrac.mesh import rect_mesh
from phasefrac.model import C_W, Material, degradation, dissipation


def fd_gradient(f, x: np.ndarray, rel_step: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    g = np.zeros_like(x)
    for i in range(x.size):
        h = rel_step * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def fd_jacobian(F, x: np.ndarray, rel_step: float = 1e-6) -> np.ndarray:
    """Central finite-difference Jacobian of a vector function, column by column."""
    cols = []
    for i in range(x.size):
        h = rel_step * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((F(xp) - F(xm)) / (2.0 * h))
    return np.column_stack(cols)


def qp_enumerate(H: np.ndarray, c: np.ndarray, lower: np.ndarray,
                 upper: np.ndarray) -> np.ndarray:
    """Solve min 1/2 x'Hx + c'x over [lower, upper] by active-set enumeration.

    Tries all 3^n assignments of each coordinate to {lower, free, upper},
    solves the free block exactly, and returns the assignment satisfying
    primal feasibility and the KKT sign conditions.  Only sensible for SPD H
    and small n, which is exactly what an oracle needs to be.
    """
    n = H.shape[0]
    best = None
    best_val = np.inf
    for assignment in itertools.product((-1, 0, 1), repeat=n):
        a = np.array(assignment)
        x = np.where(a == -1, lower, np.where(a == 1, upper, 0.0))
        free = np.flatnonzero(a == 0)
        fixed = np.flatnonzero(a != 0)
        if free.size:
            rhs = -(c[free] + H[np.ix_(free, fixed)] @ x[fixed])
            try:
                x[free] = np.linalg.solve(H[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError:
                continue
        tol = 1e-9
        if np.any(x < lower - tol) or np.any(x > upper + tol):
            continue
        g = H @ x + c
        if np.any(g[a == -1] < -tol) or np.any(g[a == 1] > tol):
            continue
        if free.size and np.any(np.abs(g[free]) > 1e-7 * (1 + np.abs(g[free]))):
            continue
        val = 0.5 * x @ H @ x + c @ x
        if val < best_val - 1e-15:
            best_val = val
            best = np.clip(x, lower, upper)
    assert best is not None, "enumeration oracle found no KKT point"
    return best


def coo_hessian_blocks(state: State, problem: Discretization):
    """(Kuu, Kua, Kaa) without boundary conditions, assembled one element at
    a time into COO triplets that scipy sums on conversion to CSR."""
    m = problem.material
    nu, na = problem.n_udofs, problem.n_vertices
    trip = {"uu": ([], [], []), "ua": ([], [], []), "aa": ([], [], [])}

    def add(block, rows, cols, Ke):
        r, c, v = trip[block]
        for i, row in enumerate(rows):
            for j, col in enumerate(cols):
                r.append(row)
                c.append(col)
                v.append(Ke[i, j])

    for e in range(problem.mesh.n_triangles):
        ud, ad = problem.udofs[e], problem.adofs[e]
        ab = np.array([state.alpha[ad].mean()])
        a, ap, app = (float(v[0]) for v in degradation(ab, m.k_ell))
        area, Be, Ge = problem.area[e], problem.B[e], problem.G[e]
        eps = Be @ state.u[ud] - problem.eps0[e]
        sig = problem.D @ eps
        add("uu", ud, ud, a * area * Be.T @ problem.D @ Be)
        add("ua", ud, ad, np.outer(ap * area / 3.0 * (Be.T @ sig), np.ones(3)))
        add("aa", ad, ad, 0.5 * app * float(eps @ sig) * area / 9.0 * np.ones((3, 3))
            + 2.0 * (m.Gc / C_W) * m.ell * area * Ge.T @ Ge)
    shapes = {"uu": (nu, nu), "ua": (nu, na), "aa": (na, na)}
    return tuple(sp.coo_matrix((v, (r, c)), shape=shapes[b]).tocsr()
                 for b, (r, c, v) in trip.items())


def element_loop_vectors(state: State, problem: Discretization):
    """(residual_u without boundary conditions, residual_alpha, load_u, energy
    breakdown), accumulated one element at a time."""
    m = problem.material
    gc = m.Gc / C_W
    ru, f = np.zeros(problem.n_udofs), np.zeros(problem.n_udofs)
    ra = np.zeros(problem.n_vertices)
    elastic = dissipated = 0.0
    for e in range(problem.mesh.n_triangles):
        ud, ad = problem.udofs[e], problem.adofs[e]
        ab = np.array([state.alpha[ad].mean()])
        a, ap, _ = (float(v[0]) for v in degradation(ab, m.k_ell))
        w, wp, _ = (float(v[0]) for v in dissipation(ab))
        area, Be, Ge = problem.area[e], problem.B[e], problem.G[e]
        eps = Be @ state.u[ud] - problem.eps0[e]
        sig = problem.D @ eps
        grad = Ge @ state.alpha[ad]
        ru[ud] += a * area * Be.T @ sig
        f[ud] += a * area * Be.T @ problem.D @ problem.eps0[e]
        ra[ad] += ((0.5 * ap * float(eps @ sig) + gc * wp / m.ell) * area / 3.0
                   + 2.0 * gc * m.ell * area * Ge.T @ grad)
        elastic += 0.5 * a * float(eps @ sig) * area
        dissipated += gc * (w / m.ell + m.ell * float(grad @ grad)) * area
    return ru, ra, f, EnergyBreakdown(elastic, dissipated, elastic + dissipated)


def diag_product_elimination(K: sp.csr_matrix, dofs: np.ndarray,
                             columns: bool = True) -> sp.csr_matrix:
    """Dirichlet elimination by sparse diagonal products: zero the rows (and
    columns) of ``dofs``, put 1 on their diagonal, drop exact zeros."""
    n = K.shape[0]
    mask = np.ones(n)
    mask[dofs] = 0.0
    if not columns:
        out = (sp.diags(mask) @ K).tocsr()
    else:
        ones = np.zeros(n)
        ones[dofs] = 1.0
        out = (sp.diags(mask) @ K @ sp.diags(mask) + sp.diags(ones)).tocsr()
    out.eliminate_zeros()
    out.sort_indices()
    return out


def block_csr(J) -> sp.csr_matrix:
    """The assembled matrix [[A, B], [B^T, C]] of a BlockJacobian."""
    return sp.bmat([[J.A, J.B], [J.B.T, J.C]], format="csr")


def random_spd(rng: np.random.Generator, n: int, shift: float = 1.0) -> np.ndarray:
    A = rng.standard_normal((n, n))
    return A @ A.T + shift * np.eye(n)


def random_feasible_state(problem: Discretization,
                          rng: np.random.Generator,
                          lb_scale: float = 0.3) -> State:
    """Random displacement and a random damage field strictly inside its box."""
    nv = problem.n_vertices
    lb = rng.uniform(0.0, lb_scale, nv)
    alpha = lb + rng.uniform(0.0, 1.0, nv) * (1.0 - lb)
    u = rng.standard_normal(problem.n_udofs) * 0.1
    assert np.all(lb <= alpha) and np.all(alpha <= 1.0)
    return State(u=u, alpha=alpha, alpha_lb=lb)


@pytest.fixture(scope="session")
def small_material() -> Material:
    return Material(E=1.0, nu=0.3, Gc=1.0, ell=0.1, k_ell=1e-6)


@pytest.fixture(scope="session")
def tiny_problem(small_material) -> Discretization:
    """4x4-cell unit-square discretization used by derivative checks."""
    mesh = rect_mesh(1.0, 1.0, 0.25)
    return Discretization(mesh, small_material)
