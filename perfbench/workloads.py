"""The benchmark's three quasi-static workloads and their correctness checks.

Each workload is one complete run through phasefrac's public API, with the
accuracy users ask for (``outer_atol = 1e-7``):

* ``surfing_oram`` -- the surfing crack on the acceptance gate's mesh
  (h = ell/5, 3,535 vertices), 3 load steps of increment 0.05 from t = 0,
  over-relaxed alternate minimization (omega = 1.6) with direct elastic
  solves.  Every step is a propagation step, so sparse LU of the elastic
  block dominates, and elastic assembly and Dirichlet elimination follow.
* ``thermal_oram`` -- the gate's 4 x dT_c quench of a 10 x 4 slab on a
  jittered mesh of 697 vertices, 40 steps, ORAM with omega = 1.6.  About
  1,600 sweeps on a small mesh with bursty nucleation steps: the fixed cost
  of each sweep (assembly, elimination, residuals) weighs more than LU.
* ``surfing_newton_cli`` -- ``phasefrac run`` driven in-process through
  ``phasefrac.cli.main`` on an INI written here: the surfing mesh and
  increment, 8 steps, coupled Newton with field-split MINRES and direct inner
  solves, one VTK snapshot per step.  The only workload that parses a config
  and writes artifacts; the alternate-minimization path barely runs.

A seed picks one of ``N_VARIANTS`` input variants.  Variant 0 is the
configuration above; the others move one input the public set-up already
takes -- the surfing pre-crack length ``L_c``, the thermal mesh ``jitter``
amplitude, and (the INI has no pre-crack key) the CLI case's Poisson ratio --
leaving mesh size, step count and solver settings unchanged.  Every variant
has a stored reference energy in ``reference.json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from phasefrac import cases, cli, runio
from phasefrac.model import Material
from phasefrac.solver import SolverConfig

N_VARIANTS = 16
#: Relative tolerance on the final total energy against its reference
#: (ROADMAP item 2 holds performance changes to 1e-10).
ENERGY_RTOL = 1e-10
#: Criterion 10 of the acceptance gate: the 4 x dT_c quench forms >= 3 bands.
MIN_THERMAL_BANDS = 3
REFERENCE_FILE = Path(__file__).with_name("reference.json")


def variant(seed: int) -> int:
    return seed % N_VARIANTS


def offset(seed: int) -> float:
    """Signed perturbation in [-1, 1] of a seed's variant; 0 for variant 0."""
    v = variant(seed)
    return (1.0 if v % 2 else -1.0) * ((v + 1) // 2) / 8.0 if v else 0.0


@dataclass
class Outcome:
    """What a run produced, read back after the timed region."""

    energies: list                    # total energy per load step
    alphas: list                      # damage field per load step
    converged: bool
    am_sweeps: int
    newton_steps: int
    krylov_iters: int
    omega_bar_min: float
    bands: Optional[int] = None
    artifact_bytes: int = 0
    problems: list = field(default_factory=list)  # artifact defects

    def counts(self) -> dict:
        """The counts that must repeat exactly from run to run."""
        return {"am_sweeps": self.am_sweeps, "newton_steps": self.newton_steps,
                "krylov_iters": self.krylov_iters,
                "final_energy": self.energies[-1] if self.energies else None}


def _outcome_from_records(records: list) -> Outcome:
    return Outcome(
        energies=[r.energy.total for r in records],
        alphas=[r.alpha for r in records],
        converged=all(r.report.converged for r in records),
        am_sweeps=sum(r.report.am_iterations for r in records),
        newton_steps=sum(r.report.newton_iterations for r in records),
        krylov_iters=sum(r.report.total_krylov_iterations for r in records),
        omega_bar_min=min(r.report.omega_bar_min for r in records))


class Workload:
    """One benchmark workload: a timed set-up, a timed run, and checks."""

    name = ""
    n_steps = 0
    describe = ""   # the inputs, as printed with the result

    def __init__(self, seed: int, reference: Optional[float] = None):
        self.seed = seed
        self.reference = reference

    def prepare(self, workdir: Path) -> None:
        """Write any input files once, before anything is timed."""

    def clean(self) -> None:
        """Remove what the previous run left behind (untimed)."""

    def setup(self):
        raise NotImplementedError

    def run(self):
        raise NotImplementedError

    def outcome(self, result) -> Outcome:
        raise NotImplementedError

    def check(self, out: Outcome) -> list:
        """Failed checks of one run, as messages; empty when it passed."""
        errors = list(out.problems)
        if not out.converged:
            errors.append("a load step did not converge")
        if len(out.energies) != self.n_steps:
            errors.append(f"{len(out.energies)} load steps recorded, expected {self.n_steps}")
        for k in range(1, len(out.alphas)):
            if np.any(out.alphas[k] < out.alphas[k - 1]):
                errors.append(f"damage decreased between steps {k - 1} and {k}")
                break
        if self.reference is None:
            errors.append(f"no reference energy for variant {variant(self.seed)}")
        elif out.energies:
            got = out.energies[-1]
            if not abs(got - self.reference) <= ENERGY_RTOL * abs(self.reference):
                errors.append(f"final energy {got!r} differs from reference "
                              f"{self.reference!r} by more than {ENERGY_RTOL:g} relative")
        return errors


class SurfingOram(Workload):
    name = "surfing_oram"

    def __init__(self, seed: int, reference: Optional[float] = None,
                 h: float = 0.02, n_steps: int = 3):
        super().__init__(seed, reference)
        self.h = h
        self.n_steps = n_steps
        self.L_c = 0.05 + 0.004 * offset(seed)
        self.describe = f"h={h} n_steps={n_steps} L_c={self.L_c!r} method=am omega=1.6"

    def setup(self):
        return cases.setup_surfing(Material(ell=0.1), h=self.h, L_c=self.L_c,
                                   n_steps=self.n_steps,
                                   t_end=0.05 * (self.n_steps - 1))

    def run(self):
        # stride 1 keeps each step's fields in memory for the damage check;
        # copying them costs well under 0.1 % of a step
        return cases.run_quasistatic(self.setup(), SolverConfig(method="am", omega=1.6),
                                     snapshot_stride=1)

    def outcome(self, result) -> Outcome:
        return _outcome_from_records(result)


class ThermalOram(Workload):
    name = "thermal_oram"

    def __init__(self, seed: int, reference: Optional[float] = None,
                 h: float = 0.25, n_steps: int = 40,
                 min_bands: int = MIN_THERMAL_BANDS):
        super().__init__(seed, reference)
        self.h = h
        self.n_steps = n_steps
        self.min_bands = min_bands
        self.jitter = 0.25 + 0.04 * offset(seed)
        self.describe = (f"L=10 H=4 h={h} dT_factor=4 n_steps={n_steps} "
                         f"jitter={self.jitter!r} method=am omega=1.6")
        self._mesh = None

    def setup(self):
        return cases.setup_thermal_shock(Material(ell=1.0, beta=1.0), L=10.0, H=4.0,
                                         h=self.h, dT_factor=4.0,
                                         n_steps=self.n_steps, jitter=self.jitter)

    def run(self):
        setup = self.setup()
        self._mesh = setup.mesh
        return cases.run_quasistatic(setup, SolverConfig(method="am", omega=1.6),
                                     snapshot_stride=1)

    def outcome(self, result) -> Outcome:
        out = _outcome_from_records(result)
        out.bands = cases.crack_band_count(self._mesh, out.alphas[-1],
                                           threshold=0.9, boundary_tag="bottom")
        return out

    def check(self, out: Outcome) -> list:
        errors = super().check(out)
        if out.bands is None or out.bands < self.min_bands:
            errors.append(f"{out.bands} crack bands, expected at least {self.min_bands}")
        return errors


class SurfingNewtonCli(Workload):
    name = "surfing_newton_cli"
    ARTIFACTS = ("energies.csv", "iterations.csv", "provenance.txt")

    def __init__(self, seed: int, reference: Optional[float] = None,
                 h: float = 0.02, n_steps: int = 8):
        super().__init__(seed, reference)
        self.h = h
        self.n_steps = n_steps
        self.nu = 0.3 + 0.01 * offset(seed)
        self.describe = (f"h={h} n_steps={n_steps} nu={self.nu!r} method=newton_only "
                         "coupled=fieldsplit fieldsplit_inner=direct snapshot_stride=1")
        self.ini = None
        self.out_dir = None

    def ini_text(self) -> str:
        # [case] name is the key the parser accepts; the README's `kind` is not
        return "\n".join([
            "[case]", "name = surfing", "ell = 0.1", f"h = {self.h!r}",
            f"n_steps = {self.n_steps}", f"t_end = {0.05 * (self.n_steps - 1)!r}",
            f"nu = {self.nu!r}",
            "[solver]", "method = newton_only", "outer_atol = 1e-07",
            "[linear]", "coupled = fieldsplit", "fieldsplit_inner = direct",
            "[output]", "snapshot_stride = 1", ""])

    def prepare(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.ini = workdir / "surfing_newton.ini"
        self.ini.write_text(self.ini_text())
        self.out_dir = workdir / "out"

    def clean(self) -> None:
        if self.out_dir.exists():
            for path in self.out_dir.iterdir():
                path.unlink()

    def setup(self):
        cfg = runio.parse_config(self.ini.read_text())
        return runio.build_setup(cfg)

    def run(self):
        return cli.main(["run", str(self.ini), "--output-dir", str(self.out_dir)])

    def outcome(self, result) -> Outcome:
        problems = []
        if result != 0:
            problems.append(f"phasefrac run exited {result}")
        missing = [n for n in self.ARTIFACTS if not (self.out_dir / n).is_file()]
        if missing:
            problems.append(f"missing artifacts: {', '.join(missing)}")
            return Outcome([], [], False, 0, 0, 0, math.nan, problems=problems)
        rows = _read_csv(self.out_dir / "energies.csv")
        n_log = len(_read_csv(self.out_dir / "iterations.csv"))
        newton = sum(int(r["newton_iters"]) for r in rows)
        # one log row per Newton residual, including the starting one
        if n_log != newton + len(rows):
            problems.append(f"iterations.csv has {n_log} rows, expected {newton + len(rows)}")
        vtk = sorted(self.out_dir.glob("step_*.vtk"))
        if len(vtk) != self.n_steps:
            problems.append(f"{len(vtk)} VTK files, expected {self.n_steps}")
        return Outcome(
            energies=[float(r["total"]) for r in rows],
            alphas=[_vtk_alpha(p) for p in vtk],
            converged=result == 0 and not (self.out_dir / "FAILED.txt").exists(),
            am_sweeps=sum(int(r["am_iters"]) for r in rows),
            newton_steps=newton,
            krylov_iters=sum(int(r["krylov_iters"]) for r in rows),
            omega_bar_min=min((float(r["omega_bar_min"]) for r in rows), default=math.nan),
            artifact_bytes=sum(p.stat().st_size for p in self.out_dir.iterdir()),
            problems=problems)


def _read_csv(path: Path) -> list:
    header, *lines = path.read_text().splitlines()
    keys = header.split(",")
    return [dict(zip(keys, line.split(","))) for line in lines]


def _vtk_alpha(path: Path) -> np.ndarray:
    """The damage point data of a legacy VTK snapshot written by runio."""
    lines = path.read_text().splitlines()
    start = lines.index("SCALARS alpha double 1") + 2
    stop = lines.index("VECTORS displacement double")
    return np.array([float(v) for v in lines[start:stop]])


WORKLOADS = {w.name: w for w in (SurfingOram, ThermalOram, SurfingNewtonCli)}
