#!/usr/bin/env python3
"""Benchmarking the nonlinear solver stack on one propagation problem.

The package exists to compare ways of solving the same nonconvex,
bound-constrained energy minimization at each load step:

  * am          — alternate minimization (block Gauss-Seidel on u and alpha);
                  robust, safe, and slow when cracks move far per step.
  * am, omega≠1 — ORAM: the same sweep over-relaxed by omega in (0, 2); the
                  feasibility backtracking keeps iterates in the box.
  * oram_newton — over-relaxed sweeps until the step has nearly settled, then
                  a reduced-space semismooth Newton solve on the coupled
                  system polishes it to tight tolerance (and is accepted only
                  if it converged without raising the energy).

This script runs one coarse surfing problem with all three (omega = 1.0,
1.4, 1.6, and the composite) and prints the cost table: alternate
minimization sweeps, coupled Newton iterations, a 3x-weighted cost proxy
(one coupled solve costs roughly three block sweeps), and the final energy
— identical across solvers, which is the point.

Runs in about fifteen seconds, most of them spent by plain omega = 1.0.
"""

import time

from phasefrac.cases import run_quasistatic, setup_surfing
from phasefrac.model import Material
from phasefrac.solver import SolverConfig


def main() -> None:
    material = Material(E=1.0, nu=0.3, Gc=1.0, ell=0.1)

    configs = [
        ("am omega=1.0", SolverConfig(method="am", omega=1.0)),
        ("am omega=1.4", SolverConfig(method="am", omega=1.4)),
        ("am omega=1.6", SolverConfig(method="am", omega=1.6)),
        ("oram_newton 1.6", SolverConfig(method="oram_newton", omega=1.6)),
    ]

    print("surfing strip, h = 0.05, 12 load steps; cost proxy = AM + 3*Newton\n")
    print(f"{'solver':<16} {'AM':>6} {'Newton':>7} {'proxy':>6} "
          f"{'final energy':>14} {'wall':>7}")
    for name, config in configs:
        setup = setup_surfing(material, h=0.05, n_steps=12, t_end=1.0)
        t0 = time.perf_counter()
        records = run_quasistatic(setup, config, snapshot_stride=0)
        wall = time.perf_counter() - t0
        am = sum(r.report.am_iterations for r in records)
        newton = sum(r.report.newton_iterations for r in records)
        energy = records[-1].energy.total
        print(f"{name:<16} {am:>6} {newton:>7} {am + 3 * newton:>6} "
              f"{energy:>14.8f} {wall:>6.1f}s")

    print("\nOver-relaxation cuts the sweep count roughly in half on this\n"
          "problem, and handing the settled iterate to Newton cuts it again;\n"
          "all solvers land on the same energy to ~8 digits.")


if __name__ == "__main__":
    main()
