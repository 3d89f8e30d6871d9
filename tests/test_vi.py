"""Fischer-Burmeister residuals and the reduced-space active-set solver."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, strategies as st

from conftest import fd_gradient, qp_enumerate, random_spd

from phasefrac.vi import (MCProblem, _merit_gradient, active_set_slack,
                          classify_active, fb_composite, fb_phi, rsls_solve)


@st.composite
def boxed_points(draw, max_size=30):
    """(x, F, lower, upper): rows bounded below by 0 or not, above by 1 or
    not, with x inside its bounds and F of either sign (zero included)."""
    rows = draw(st.lists(st.tuples(st.booleans(), st.booleans(),
                                   st.floats(-0.2, 1.2), st.floats(-3.0, 3.0)),
                         min_size=1, max_size=max_size))
    lo, up, x, F = (np.array(c) for c in zip(*rows))
    lower = np.where(lo, 0.0, -np.inf)
    upper = np.where(up, 1.0, np.inf)
    return np.clip(x, lower, upper), F.astype(float), lower, upper


@st.composite
def edge_points(draw):
    """``boxed_points`` with some rows moved exactly onto a finite bound and
    some forces set to exactly 0."""
    x, F, lower, upper = draw(boxed_points())
    n = x.size
    snap = np.array(draw(st.lists(st.sampled_from("-lu"), min_size=n, max_size=n)))
    x = np.where((snap == "l") & np.isfinite(lower), lower, x)
    x = np.where((snap == "u") & np.isfinite(upper), upper, x)
    zero = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return x, np.where(zero, 0.0, F), lower, upper


# The four-bound-kind residual and merit gradient that vi.py replaced with one
# formula, kept as the oracle the one formula must reproduce bit for bit.

def _four_way_masks(lower, upper):
    lo, up = np.isfinite(lower), np.isfinite(upper)
    return (~lo & ~up), (lo & ~up), (~lo & up), (lo & up)


def _finite_fb_phi(a, b):
    return np.hypot(a, b) - a - b


def _finite_fb_partials(a, b):
    rho = np.hypot(a, b)
    safe = rho > 0.0
    r = np.where(safe, rho, 1.0)
    return (np.where(safe, a / r - 1.0, 1.0 / np.sqrt(2.0) - 1.0),
            np.where(safe, b / r - 1.0, 1.0 / np.sqrt(2.0) - 1.0))


def four_way_composite(x, F, lower, upper):
    free, lonly, uonly, both = _four_way_masks(lower, upper)
    phi = np.empty_like(F)
    phi[free] = F[free]
    phi[lonly] = _finite_fb_phi(x[lonly] - lower[lonly], F[lonly])
    phi[uonly] = -_finite_fb_phi(upper[uonly] - x[uonly], -F[uonly])
    inner = _finite_fb_phi(upper[both] - x[both], -F[both])
    phi[both] = _finite_fb_phi(x[both] - lower[both], inner)
    return phi


def four_way_merit_gradient(x, F, phi, J, lower, upper):
    free, lonly, uonly, both = _four_way_masks(lower, upper)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    q[free] = 1.0
    p[lonly], q[lonly] = _finite_fb_partials(x[lonly] - lower[lonly], F[lonly])
    p[uonly], q[uonly] = _finite_fb_partials(upper[uonly] - x[uonly], -F[uonly])
    s = upper[both] - x[both]
    pa_o, pb_o = _finite_fb_partials(x[both] - lower[both],
                                     _finite_fb_phi(s, -F[both]))
    pa_i, pb_i = _finite_fb_partials(s, -F[both])
    p[both] = pa_o - pb_o * pa_i
    q[both] = -pb_o * pb_i
    return 2.0 * (p * phi + J.T @ (q * phi))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def qp_problem(H, c, lower, upper):
    Hs = sp.csr_matrix(H)
    return MCProblem(residual=lambda x: Hs @ x + c,
                     jacobian=lambda x: Hs,
                     lower=np.asarray(lower, dtype=float),
                     upper=np.asarray(upper, dtype=float))


class TestFischerBurmeister:
    def test_point_values(self):
        assert fb_phi(0.0, 0.0) == 0.0
        assert fb_phi(3.0, 4.0) == pytest.approx(-2.0, abs=1e-14)
        assert fb_phi(-1.0, 0.0) == pytest.approx(2.0, abs=1e-14)
        # an absent bound is an infinite distance: phi(+inf, b) is its limit -b
        for b in (-2.5, 0.0, 3.0):
            assert fb_phi(np.inf, b) == -b

    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    @example(0.0, 0.0)
    @example(0.0, 5.0)
    @example(7.0, 0.0)
    def test_zero_iff_complementarity(self, a, b):
        # phi(a, b) = 0 exactly when a >= 0, b >= 0, ab = 0; for a, b >= 0,
        # |phi| <= min(a, b), so "ab = 0" is judged by min(a, b), not by ab
        comp = a >= 0 and b >= 0 and min(a, b) <= 1e-15
        if comp:
            assert abs(fb_phi(a, b)) <= 1e-12
        elif abs(fb_phi(a, b)) <= 1e-12:
            assert a >= -1e-10 and b >= -1e-10 and abs(a * b) <= 1e-10

    @given(edge_points(), st.integers(0, 2**32 - 1))
    def test_one_formula_matches_four_bound_kinds_bitwise(self, point, seed):
        x, F, lower, upper = point
        phi = fb_composite(x, F, lower, upper)
        assert same_bits(phi, four_way_composite(x, F, lower, upper))
        J = sp.random(x.size, x.size, density=0.3, random_state=seed, format="csr")
        assert same_bits(_merit_gradient(x, F, phi, J, lower, upper),
                         four_way_merit_gradient(x, F, phi, J, lower, upper))

    @pytest.mark.parametrize("seed", range(3))
    def test_merit_gradient_matches_finite_differences(self, seed):
        # two rows of each bound kind: free, lower only, upper only, both
        inf = np.inf
        lower = np.array([-inf, -inf, 0.0, 0.0, -inf, -inf, 0.0, 0.0])
        upper = np.array([inf, inf, inf, inf, 1.0, 1.0, 1.0, 1.0])
        rng = np.random.default_rng(seed)
        A = sp.csr_matrix(rng.standard_normal((8, 8)))
        c = rng.standard_normal(8)
        x = rng.uniform(0.1, 0.9, 8)
        F = A @ x + c
        # away from the kink of phi at (0, 0), where it is not differentiable
        inner = fb_phi(upper - x, -F)
        for a, b in ((x - lower, inner), (upper - x, -F)):
            assert np.all(np.minimum(np.abs(a), np.abs(b)) > 1e-3)

        def merit(y):
            phi = fb_composite(y, A @ y + c, lower, upper)
            return float(phi @ phi)

        got = _merit_gradient(x, F, fb_composite(x, F, lower, upper), A, lower, upper)
        assert np.allclose(got, fd_gradient(merit, x), rtol=1e-6, atol=1e-8)

    def test_composite_one_sided_matches_simple(self):
        # with upper = +inf the two-sided residual reduces to phi(x-l, F)
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 2, size=8)
        F = rng.standard_normal(8)
        lower = np.zeros(8)
        upper = np.full(8, np.inf)
        got = fb_composite(x, F, lower, upper)
        want = np.array([fb_phi(xi, fi) for xi, fi in zip(x - lower, F)])
        assert np.allclose(got, want, atol=1e-14)

    def test_composite_zero_at_box_solution(self):
        H = np.array([[2.0, 0.0], [0.0, 2.0]])
        # minimize x'Hx/2 + c'x on [0,1]^2 with c = (-4, 1):
        # x0 hits upper bound 1 (F0 = 2-4 = -2 < 0), x1 hits lower 0 (F1 = 1 > 0)
        c = np.array([-4.0, 1.0])
        x = np.array([1.0, 0.0])
        r = fb_composite(x, H @ x + c, np.zeros(2), np.ones(2))
        assert np.max(np.abs(r)) <= 1e-14


class TestMCPResidual:
    def test_interior_root(self):
        p = qp_problem(np.eye(1), np.array([-2.0]), [0.0], [np.inf])
        x = np.array([2.0])
        assert abs(fb_composite(x, p.residual(x), p.lower, p.upper)[0]) <= 1e-14

    def test_active_lower_root(self):
        p = qp_problem(np.eye(1), np.array([2.0]), [0.0], [np.inf])
        x = np.array([0.0])
        assert abs(fb_composite(x, p.residual(x), p.lower, p.upper)[0]) <= 1e-14

    def test_zero_at_enumerated_qp_solution(self):
        rng = np.random.default_rng(2)
        H = random_spd(rng, 4)
        c = rng.standard_normal(4) * 2
        lower, upper = np.zeros(4), np.ones(4)
        x_star = qp_enumerate(H, c, lower, upper)
        p = qp_problem(H, c, lower, upper)
        assert np.max(np.abs(fb_composite(x_star, p.residual(x_star), p.lower,
                                          p.upper))) <= 1e-8


class TestClassifyActive:
    def test_lower_active_needs_positive_force(self):
        x = np.array([0.0, 0.5])
        F = np.array([2.0, 0.0])
        part = classify_active(x, F, np.zeros(2), np.full(2, np.inf), zeta=1e-10)
        assert list(part.lower) == [0]
        assert list(part.upper) == []
        assert list(part.inactive) == [1]

    def test_upper_active_needs_negative_force(self):
        x = np.array([1.0, 1.0])
        F = np.array([-3.0, 3.0])
        part = classify_active(x, F, np.zeros(2), np.ones(2), zeta=1e-10)
        assert list(part.upper) == [0]
        assert list(part.inactive) == [1]

    def test_touching_bound_with_wrong_sign_stays_inactive(self):
        x = np.array([0.0])
        F = np.array([-1.0])
        part = classify_active(x, F, np.zeros(1), np.full(1, np.inf), zeta=1e-10)
        assert list(part.inactive) == [0]

    @given(boxed_points())
    def test_partition_is_exhaustive_and_disjoint(self, point):
        x, F, lower, upper = point
        part = classify_active(x, F, lower, upper, zeta=1e-9)
        all_idx = np.sort(np.concatenate([part.lower, part.upper, part.inactive]))
        assert np.array_equal(all_idx, np.arange(x.size))

    @given(boxed_points(), st.floats(0.0, 10.0))
    def test_infinite_bounds_are_never_active(self, point, zeta):
        x, F, lower, upper = point
        part = classify_active(x, F, lower, upper, zeta=zeta)
        assert np.all(np.isfinite(lower[part.lower]))
        assert np.all(np.isfinite(upper[part.upper]))
        free = np.flatnonzero(np.isinf(lower) & np.isinf(upper))
        assert np.isin(free, part.inactive).all()


    def test_slack_scales_with_the_iterate(self):
        assert active_set_slack(np.zeros(0)) == 1e-10
        assert active_set_slack(np.array([0.5, -3.0])) == 1e-10 * 4.0


class TestRSLS:
    def test_scalar_interior(self):
        p = qp_problem(np.eye(1), np.array([-2.0]), [0.0], [np.inf])
        x, rep = rsls_solve(p, np.array([0.5]))
        assert rep.converged
        assert x[0] == pytest.approx(2.0, abs=1e-10)

    def test_scalar_bound(self):
        p = qp_problem(np.eye(1), np.array([2.0]), [0.0], [np.inf])
        x, rep = rsls_solve(p, np.array([0.5]))
        assert rep.converged
        assert x[0] == pytest.approx(0.0, abs=1e-10)

    def test_box_qp_matches_enumeration(self):
        rng = np.random.default_rng(4)
        H = random_spd(rng, 6)
        c = rng.standard_normal(6) * 2
        lower, upper = np.zeros(6), np.ones(6)
        x_star = qp_enumerate(H, c, lower, upper)
        x, rep = rsls_solve(qp_problem(H, c, lower, upper), np.full(6, 0.5))
        assert rep.converged
        assert np.allclose(x, x_star, atol=1e-8)

    def test_iterates_exactly_feasible(self):
        rng = np.random.default_rng(5)
        H = random_spd(rng, 10)
        c = rng.standard_normal(10) * 3
        lower, upper = np.zeros(10), np.ones(10)
        seen = []

        def spy(x):
            seen.append(x.copy())
            return sp.csr_matrix(H)

        p = MCProblem(residual=lambda x: H @ x + c, jacobian=spy,
                      lower=lower, upper=upper)
        x, rep = rsls_solve(p, np.full(10, 0.5))
        assert rep.converged
        for xk in seen + [x]:
            assert np.all(xk >= lower) and np.all(xk <= upper)

    def test_merit_nonincreasing(self):
        rng = np.random.default_rng(6)
        H = random_spd(rng, 12)
        c = rng.standard_normal(12) * 3
        p = qp_problem(H, c, np.zeros(12), np.ones(12))
        _, rep = rsls_solve(p, np.full(12, 0.5))
        assert rep.converged
        hist = np.asarray(rep.residual_history)
        assert np.all(np.diff(hist) <= 1e-12 * hist[0])

    def test_large_affine_problem_fast(self):
        rng = np.random.default_rng(7)
        n = 200
        H = random_spd(rng, n, shift=float(n))
        c = rng.standard_normal(n) * 5
        p = qp_problem(H, c, np.zeros(n), np.full(n, np.inf))
        x, rep = rsls_solve(p, np.zeros(n))
        assert rep.converged
        assert rep.iterations <= 30
        assert np.max(np.abs(fb_composite(x, p.residual(x), p.lower, p.upper))) <= 1e-7

    def test_infeasible_start_is_clipped(self):
        p = qp_problem(np.eye(2), np.array([-0.5, -0.5]), [0.0, 0.0], [1.0, 1.0])
        x, rep = rsls_solve(p, np.array([5.0, -5.0]))
        assert rep.converged
        assert np.allclose(x, [0.5, 0.5], atol=1e-10)

    def test_two_sided_box_with_mixed_activity(self):
        H = np.diag([1.0, 1.0, 1.0])
        c = np.array([-5.0, 5.0, -0.25])
        p = qp_problem(H, c, np.zeros(3), np.ones(3))
        x, rep = rsls_solve(p, np.full(3, 0.5))
        assert rep.converged
        assert np.allclose(x, [1.0, 0.0, 0.25], atol=1e-10)

    def test_invalid_bounds_raise(self):
        with pytest.raises(ValueError):
            MCProblem(residual=lambda x: x, jacobian=lambda x: sp.eye(2),
                      lower=np.array([0.0, 2.0]), upper=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("lower, upper", [([np.nan, 0.0], [1.0, 1.0]),
                                              ([0.0, 0.0], [1.0, np.nan])])
    def test_nan_bounds_raise(self, lower, upper):
        # NaN compares False with everything, so it would pass the ordering check
        with pytest.raises(ValueError, match="NaN"):
            MCProblem(residual=lambda x: x - 0.5, jacobian=lambda x: sp.eye(2),
                      lower=lower, upper=upper)

    @pytest.mark.parametrize("n", [3, 2100])
    def test_non_finite_jacobian_is_a_linear_failure(self, n):
        # the LU rejects the block with a typed error, which rsls_solve counts
        # and answers with a gradient step instead of crashing
        H = sp.eye(n, format="lil")
        H[0, 0] = np.nan
        p = MCProblem(residual=lambda x: x - 0.5, jacobian=lambda x: H.tocsr(),
                      lower=np.zeros(n), upper=np.ones(n))
        _, rep = rsls_solve(p, np.full(n, 0.25), max_iterations=2)
        assert rep.linear_failures >= 1

    def test_indefinite_jacobian_is_a_linear_failure(self):
        # the Cholesky factor meets a negative pivot on the inactive block
        H = sp.diags([1.0, -1.0, 1.0]).tocsr()
        p = MCProblem(residual=lambda x: H @ x - 0.5, jacobian=lambda x: H,
                      lower=np.zeros(3), upper=np.ones(3))
        _, rep = rsls_solve(p, np.full(3, 0.25), max_iterations=2)
        assert rep.linear_failures >= 1

    def test_config_knobs_respected(self):
        p = qp_problem(np.eye(1), np.array([-2.0]), [0.0], [np.inf])
        _, rep = rsls_solve(p, np.array([0.0]), max_iterations=1)
        assert rep.iterations <= 1
