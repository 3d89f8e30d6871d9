"""End-to-end acceptance gate.

One test per acceptance criterion, in order.  Each prints a single
``criterion NN [...]: PASS/FAIL`` line (visible even under capture) before
asserting, so a full run always yields one verdict line per criterion.

The quasistatic benchmark runs are shared module-scoped fixtures:

  * traction bar, ell/5 mesh, 30 steps to 1.5x the critical traction
    (omega = 1 reference run, plus an omega sweep, plus an ell/10 rerun);
  * surfing crack, ell/5 mesh, steady window covered, solved three ways
    (plain alternate minimization, over-relaxed, over-relaxed + Newton);
  * thermal shock slab at 0.9x and 4x the critical shock amplitude.

The whole gate costs a few minutes of CPU; everything else in the suite is
fast.  Tolerances quoted inline are part of the acceptance contract and must
not be loosened to make a failing criterion pass.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (fd_gradient, fd_jacobian, qp_enumerate,
                      random_feasible_state, random_spd)

from phasefrac.cases import (crack_band_count, run_quasistatic, setup_surfing,
                             setup_thermal_shock, setup_traction)
from phasefrac.fem import (State, assemble_energy, assemble_Kaa, assemble_Kua,
                           assemble_Kuu, assemble_residual_alpha,
                           assemble_residual_u)
from phasefrac.linalg import (FieldSplitPreconditioner, inner_direct,
                              minres_solve)
from phasefrac.model import Material
from phasefrac.runio import ConfigError, parse_config
from phasefrac.solver import SolverConfig, inactive_block_jacobian
from phasefrac.vi import MCProblem, rsls_solve

MAT = Material(E=1.0, nu=0.3, Gc=1.0, ell=0.1)
TRACTION_H = 0.3  # bar height; Gc * TRACTION_H is the full-break surface energy
SURFING = dict(h=MAT.ell / 5.0, n_steps=30, t_end=1.45)  # tip sweeps 0.05 -> 1.5
THERMAL_MAT = Material(E=1.0, nu=0.3, Gc=1.0, ell=1.0, beta=1.0)


def verdict(capsys, num: int, label: str, ok: bool, detail: str) -> None:
    """Print the one-line criterion verdict, then enforce it."""
    with capsys.disabled():
        print(f"\ncriterion {num:02d} [{label}]: {'PASS' if ok else 'FAIL'} "
              f"-- {detail}")
    assert ok, f"criterion {num:02d} [{label}] {detail}"


def mismatch(a: np.ndarray, b: np.ndarray, rtol: float = 1e-5,
             atol: float = 1e-8) -> float:
    """Worst elementwise |a-b| / (atol + rtol|b|); <= 1 means a matches b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / (atol + rtol * np.abs(b))))


def final_state(setup, records) -> State:
    """Reconstruct the converged final state of a snapshotted run."""
    state = State(u=records[-1].u.copy(), alpha=records[-1].alpha.copy(),
                  alpha_lb=records[-2].alpha.copy())
    setup.apply_load(setup.problem, state, records[-1].load)
    return state


def loads_of(records) -> np.ndarray:
    return np.array([r.load for r in records])


def dissipated_of(records) -> np.ndarray:
    return np.array([r.energy.dissipated for r in records])


def am_total(records) -> int:
    return sum(r.report.am_iterations for r in records)


# -- shared benchmark runs -----------------------------------------------------


@pytest.fixture(scope="module")
def traction_run():
    """Reference traction run: ell/5 mesh, 30 uniform steps, omega = 1."""
    setup = setup_traction(MAT, L=1.0, H=TRACTION_H, h=MAT.ell / 5.0,
                           n_steps=30)
    records = run_quasistatic(setup, SolverConfig(method="am", omega=1.0),
                              snapshot_stride=1)
    return setup, records


@pytest.fixture(scope="module")
def traction_omega_runs():
    """The same traction problem swept over the other relaxation weights."""
    runs = {}
    for w in (0.8, 1.2, 1.4, 1.6):
        setup = setup_traction(MAT, L=1.0, H=TRACTION_H, h=MAT.ell / 5.0,
                               n_steps=30)
        runs[w] = run_quasistatic(setup, SolverConfig(method="am", omega=w),
                                  snapshot_stride=1)
    return runs


@pytest.fixture(scope="module")
def traction_fine_run():
    """Traction rerun on the ell/10 mesh (preconditioner scaling study)."""
    setup = setup_traction(MAT, L=1.0, H=TRACTION_H, h=MAT.ell / 10.0,
                           n_steps=30)
    records = run_quasistatic(setup, SolverConfig(method="am", omega=1.0),
                              snapshot_stride=1)
    return setup, records


@pytest.fixture(scope="module")
def surfing_runs():
    """One surfing problem, solved by the three nonlinear methods."""
    configs = {
        "am_w1": SolverConfig(method="am", omega=1.0),
        "oram_w16": SolverConfig(method="am", omega=1.6),
        "oram_newton": SolverConfig(method="oram_newton", omega=1.6),
    }
    runs = {}
    for key, cfg in configs.items():
        setup = setup_surfing(MAT, **SURFING)
        runs[key] = (setup, run_quasistatic(setup, cfg, snapshot_stride=1))
    return runs


@pytest.fixture(scope="module")
def thermal_runs():
    """Thermal-shock slab below and far above the critical amplitude."""
    runs = {}
    for key, factor, cfg in (
            ("below", 0.9, SolverConfig(method="am", omega=1.0)),
            ("above", 4.0, SolverConfig(method="am", omega=1.6))):
        setup = setup_thermal_shock(THERMAL_MAT, L=10.0, H=4.0, h=0.25,
                                    dT_factor=factor)
        runs[key] = (setup, run_quasistatic(setup, cfg, snapshot_stride=1))
    return runs


# -- criteria -------------------------------------------------------------------


def test_criterion_01_derivative_consistency(capsys):
    """Residuals are exact gradients of the energy and Hessian blocks exact
    Jacobians of the residuals, to finite-difference accuracy, on random
    feasible states of a 4x4-cell traction discretization."""
    t0 = time.perf_counter()
    setup = setup_traction(MAT, L=1.0, H=1.0, h=0.25, n_steps=1)
    problem = setup.problem
    rng = np.random.default_rng(2024)

    def energy(u, alpha):
        return assemble_energy(
            State(u=u, alpha=alpha, alpha_lb=np.zeros_like(alpha)),
            problem).total

    def res_u(u, alpha):
        return assemble_residual_u(
            State(u=u, alpha=alpha, alpha_lb=np.zeros_like(alpha)),
            problem, apply_bc=False)

    def res_a(u, alpha):
        return assemble_residual_alpha(
            State(u=u, alpha=alpha, alpha_lb=np.zeros_like(alpha)),
            problem)

    worst = 0.0
    for _ in range(20):
        state = random_feasible_state(problem, rng)
        u, alpha = state.u, state.alpha

        worst = max(worst, mismatch(
            assemble_residual_u(state, problem, apply_bc=False),
            fd_gradient(lambda v: energy(v, alpha), u)))
        worst = max(worst, mismatch(
            assemble_residual_alpha(state, problem),
            fd_gradient(lambda a: energy(u, a), alpha)))

        Kuu = assemble_Kuu(state, problem, apply_bc=False).toarray()
        Kua = assemble_Kua(state, problem, apply_bc=False).toarray()
        Kaa = assemble_Kaa(state, problem).toarray()
        worst = max(worst, mismatch(
            Kuu, fd_jacobian(lambda v: res_u(v, alpha), u)))
        worst = max(worst, mismatch(
            Kua, fd_jacobian(lambda a: res_u(u, a), alpha)))
        worst = max(worst, mismatch(
            Kua.T, fd_jacobian(lambda v: res_a(v, alpha), u)))
        worst = max(worst, mismatch(
            Kaa, fd_jacobian(lambda a: res_a(u, a), alpha)))

    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 10.0
    verdict(capsys, 1, "derivative consistency", ok,
            f"20 states, worst mismatch ratio {worst:.2e} (<=1 at rtol 1e-5),"
            f" {elapsed:.1f}s (<10s)")


def test_criterion_02_vi_solver_matches_enumeration(capsys):
    """The active-set Newton solver reproduces brute-force enumeration on
    random bound-constrained convex QPs."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        H = random_spd(rng, n, shift=float(n))
        c = 2.0 * rng.standard_normal(n)
        lower = rng.uniform(-1.5, 0.0, n)
        upper = lower + rng.uniform(0.2, 2.0, n)
        x_ref = qp_enumerate(H, c, lower, upper)

        Hs = sp.csr_matrix(H)
        problem = MCProblem(residual=lambda x, H=H, c=c: H @ x + c,
                            jacobian=lambda x, Hs=Hs: Hs,
                            lower=lower, upper=upper)
        x0 = np.clip(rng.uniform(-2.0, 2.0, n), lower, upper)
        x, report = rsls_solve(problem, x0)
        assert report.converged
        worst = max(worst, float(np.max(np.abs(x - x_ref))))

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    verdict(capsys, 2, "VI solver vs enumeration", ok,
            f"100 QPs (dim <= 8), worst |x - x_ref| {worst:.2e} (<=1e-8), "
            f"{elapsed:.1f}s (<30s)")


def test_criterion_03_traction_critical_load(traction_run, capsys):
    """No dissipation below the closed-form critical traction; the crack
    appears within one load increment of it."""
    setup, records = traction_run
    tc = setup.params["critical_traction"]
    loads = loads_of(records)
    diss = dissipated_of(records)
    dt = loads[1] - loads[0]
    threshold = 0.1 * MAT.Gc * TRACTION_H

    below = diss[loads < tc * (1.0 - 1e-9)]
    max_below = float(below.max()) if below.size else 0.0
    exceeding = loads[diss > threshold]
    first = float(exceeding[0]) if exceeding.size else np.inf

    ok = (abs(tc - 1.9365) < 5e-4 and max_below < 1e-6
          and np.isfinite(first) and abs(first - tc) <= dt * (1.0 + 1e-9))
    verdict(capsys, 3, "traction critical load", ok,
            f"t_c {tc:.4f}, max dissipated below t_c {max_below:.1e} (<1e-6), "
            f"first exceedance at t {first:.4f} (within dt {dt:.4f} of t_c)")


def test_criterion_04_fracture_energy_quantization(traction_run, capsys):
    """Breaking the bar dissipates the toughness times the cross-section,
    up to the known mesh-induced overestimate."""
    _, records = traction_run
    ratio = records[-1].energy.dissipated / (MAT.Gc * TRACTION_H)
    ok = 0.95 <= ratio <= 1.15
    verdict(capsys, 4, "fracture energy quantization", ok,
            f"final dissipated / (Gc*H) = {ratio:.4f} (in [0.95, 1.15])")


def test_criterion_05_griffith_dissipation_rate(surfing_runs, capsys):
    """Steady crack propagation dissipates Gc per unit advance: the slope of
    dissipated energy vs time matches Gc*v over the steady window."""
    setup, records = surfing_runs["am_w1"]
    ts = loads_of(records)
    diss = dissipated_of(records)
    tip = setup.params["L_c"] + setup.params["v"] * ts
    window = (tip >= 0.5) & (tip <= 1.5)
    A = np.column_stack([ts[window], np.ones(int(window.sum()))])
    slope = float(np.linalg.lstsq(A, diss[window], rcond=None)[0][0])
    target = MAT.Gc * setup.params["v"]
    ok = 0.85 * target <= slope <= 1.15 * target
    verdict(capsys, 5, "Griffith dissipation rate", ok,
            f"LS slope {slope:.4f} over {int(window.sum())} steady steps "
            f"(target {target:.2f} within 15%)")


def test_criterion_06_overrelaxation_speedup(traction_run, traction_omega_runs,
                                             surfing_runs, capsys):
    """Over-relaxation pays off on propagation (surfing) and hurts on the
    bursty nucleation problem (traction)."""
    surf_w1 = am_total(surfing_runs["am_w1"][1])
    surf_w16 = am_total(surfing_runs["oram_w16"][1])
    trac_base = am_total(traction_run[1])
    trac_others = {w: am_total(rec) for w, rec in traction_omega_runs.items()}

    ok_surf = surf_w16 <= 0.7 * surf_w1
    ok_trac = all(trac_base <= n for n in trac_others.values())
    others = ", ".join(f"w={w:g}: {n}" for w, n in sorted(trac_others.items()))
    verdict(capsys, 6, "over-relaxation speedup", ok_surf and ok_trac,
            f"surfing {surf_w16} @w=1.6 vs {surf_w1} @w=1.0 (need <=0.7x); "
            f"traction {trac_base} @w=1.0 vs {others} (need min)")


def test_criterion_07_composite_solver_benefit(surfing_runs, capsys):
    """Finishing with Newton beats over-relaxation alone at equal accuracy,
    under a 3x per-iteration cost premium for the coupled solves."""
    _, oram_rec = surfing_runs["oram_w16"]
    _, comp_rec = surfing_runs["oram_newton"]
    oram_am = am_total(oram_rec)
    comp_am = am_total(comp_rec)
    comp_newton = sum(r.report.newton_iterations for r in comp_rec)
    proxy = comp_am + 3 * comp_newton

    e_oram = oram_rec[-1].energy.total
    e_comp = comp_rec[-1].energy.total
    rel = abs(e_comp - e_oram) / abs(e_oram)
    ok = proxy <= oram_am and rel <= 1e-4
    verdict(capsys, 7, "composite solver benefit", ok,
            f"cost proxy {comp_am}+3*{comp_newton}={proxy} vs {oram_am} AM"
            f" alone; final energies differ by {rel:.1e} rel (<=1e-4)")


def test_criterion_08_relaxation_weight_rejected_at_parse_time(capsys):
    """Relaxation weights outside (0, 2) never reach a solver: the config
    parser rejects them."""
    template = ("[case]\nname = traction\nell = 0.1\n"
                "[solver]\nmethod = am\nomega = {w}\n")
    rejected = []
    for w in (0.0, 2.0, 2.5):
        try:
            parse_config(template.format(w=w))
        except ConfigError:
            rejected.append(w)
    ok = rejected == [0.0, 2.0, 2.5]
    verdict(capsys, 8, "relaxation weight gate", ok,
            f"omega in {{0, 2, 2.5}} all rejected at parse time: {rejected}")


def test_criterion_09_fieldsplit_preconditioner_scaling(traction_run,
                                                        traction_fine_run,
                                                        capsys):
    """Field-split preconditioned MINRES on converged-state Jacobians: few
    iterations, growing slowly under mesh refinement."""
    rng = np.random.default_rng(0)
    iters = {}
    for label, (setup, records) in (("ell/5", traction_run),
                                    ("ell/10", traction_fine_run)):
        state = final_state(setup, records)
        block, _, _ = inactive_block_jacobian(state, setup.problem)
        precond = FieldSplitPreconditioner(block, inner_direct(block.A),
                                           inner_direct(block.C))
        b = rng.standard_normal(block.shape[0])
        _, report = minres_solve(block, b, precond=precond, rtol=1e-8)
        assert report.converged
        iters[label] = report.iterations

    ok = (iters["ell/5"] <= 40 and iters["ell/10"] <= 40
          and iters["ell/10"] <= 2 * iters["ell/5"])
    verdict(capsys, 9, "field-split MINRES scaling", ok,
            f"iterations {iters['ell/5']} (ell/5) -> {iters['ell/10']} "
            f"(ell/10); both <=40 and growth <=2x")


def test_criterion_10_thermal_shock_thresholds(thermal_runs, capsys):
    """Below the critical shock the slab stays elastic; far above it a
    multi-band crack array forms and dissipation grows monotonically."""
    _, below_rec = thermal_runs["below"]
    max_alpha_below = float(below_rec[-1].alpha.max())

    setup_above, above_rec = thermal_runs["above"]
    bands = crack_band_count(setup_above.mesh, above_rec[-1].alpha,
                             threshold=0.9, boundary_tag="bottom")
    diss = dissipated_of(above_rec)
    nondecreasing = bool(np.all(np.diff(diss) >= -1e-12))

    ok = (max_alpha_below < 1e-3 and bands >= 3
          and diss[-1] > 0.0 and nondecreasing)
    verdict(capsys, 10, "thermal shock thresholds", ok,
            f"0.9x shock: max alpha {max_alpha_below:.1e} (<1e-3); 4x shock: "
            f"{bands} bands (>=3), dissipated {diss[-1]:.3f} "
            f"{'nondecreasing' if nondecreasing else 'NON-MONOTONE'}")


def test_criterion_11_monotonicity_suite(traction_run, traction_omega_runs,
                                         traction_fine_run, surfing_runs,
                                         thermal_runs, capsys):
    """Across every benchmark run above: energy never increases within an
    omega = 1 alternate-minimization solve, damage never decreases between
    steps, and the optimality residual never increases across accepted
    Newton iterates."""
    runs = [("traction w1.0", 1.0, traction_run[1]),
            ("traction ell/10", 1.0, traction_fine_run[1])]
    runs += [(f"traction w{w:g}", w, rec)
             for w, rec in sorted(traction_omega_runs.items())]
    runs += [("surfing w1.0", 1.0, surfing_runs["am_w1"][1]),
             ("surfing w1.6", 1.6, surfing_runs["oram_w16"][1]),
             ("surfing oram+newton", 1.6, surfing_runs["oram_newton"][1]),
             ("thermal 0.9x", 1.0, thermal_runs["below"][1]),
             ("thermal 4x", 1.6, thermal_runs["above"][1])]

    energy_bad, alpha_bad, newton_bad = [], [], []
    n_energy = n_alpha = n_newton = 0
    for name, omega, records in runs:
        if omega == 1.0:
            for rec in records:
                totals = [rec.report.entry_energy] + [
                    it.total for it in rec.report.iterations if it.phase == "am"]
                n_energy += 1
                slack = 1e-10 * (1.0 + abs(totals[0]))
                if np.any(np.diff(totals) > slack):
                    energy_bad.append(f"{name} step {rec.step}")

        snaps = [r.alpha for r in records if r.alpha is not None]
        for a_prev, a_next in zip(snaps, snaps[1:]):
            n_alpha += 1
            if np.min(a_next - a_prev) < -1e-12:
                alpha_bad.append(name)
                break

        for rec in records:
            hists = []   # one residual history per Newton phase, from its iteration 0
            for it in rec.report.iterations:
                if it.phase == "newton":
                    if it.iteration == 0:
                        hists.append([])
                    hists[-1].append(it.residual)
            for hist in hists:
                n_newton += 1
                slack = 1e-12 * (1.0 + hist[0])
                if np.any(np.diff(hist) > slack):
                    newton_bad.append(f"{name} step {rec.step}")

    ok = not (energy_bad or alpha_bad or newton_bad)
    problems = "; ".join(energy_bad + alpha_bad + newton_bad) or "none"
    verdict(capsys, 11, "monotonicity suite", ok,
            f"{n_energy} w=1 AM energy histories, {n_alpha} damage step "
            f"pairs, {n_newton} Newton residual histories checked across "
            f"{len(runs)} runs; violations: {problems}")
