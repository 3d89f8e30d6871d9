"""Configuration parsing, run orchestration, and artifact emission.

Configs are INI files, parsed case-sensitively with no interpolation.  Every
key is optional and validated; unknown sections or keys are errors.  The
README's "Full grammar" block lists every key with its default, plus the
[sweep] section of a sweep file; a test checks it against
``echo_config(RunConfig())``.

``run`` writes into the output directory: ``energies.csv`` (one row per load
step, columns step,load,elastic,dissipated,total,am_iters,newton_iters,
krylov_iters,omega_bar_min; krylov_iters counts the MINRES iterations of the
coupled Newton solves, 0 for ``am``), ``iterations.csv`` (one row per
``solver.Iteration`` of each step, a failed step's included: AM sweeps counted
from 1, Newton iterates from 0, the starting residual, with NaN energies),
``step_NNNN.vtk`` legacy ASCII snapshots, and ``provenance.txt``
(version and config echo; no timestamps, so reruns are bitwise identical),
plus ``FAILED.txt`` when a load step fails.  The ``FAILED.txt`` and snapshots
of an earlier run in the same directory are removed first.  ``sweep`` runs one
sub-run per value and writes ``summary.csv``.

The keys of [solver] and [linear] are the fields of ``SolverConfig``; those of
[case] and [output] are the other fields of ``RunConfig``.
"""

from __future__ import annotations

import configparser
import csv
import dataclasses
import io
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .cases import (ProblemSetup, StepFailureError, run_quasistatic,
                    setup_surfing, setup_thermal_shock, setup_traction)
from .model import Material
from .solver import Iteration, SolverConfig


class ConfigError(ValueError):
    """Invalid or unparsable configuration (CLI exit code 2)."""


_CASE_DEFAULTS = {
    "traction": {"ell": 0.1, "L": 1.0, "H": 0.3, "n_steps": 30},
    "surfing": {"ell": 0.1, "L": 2.0, "H": 1.0, "n_steps": 25},
    "thermal_shock": {"ell": 1.0, "L": 20.0, "H": 10.0, "n_steps": 40},
}
_OUTPUT = {"section": "output"}


@dataclass
class RunConfig:
    """A run: the [case] and [output] values and the solver settings.

    INI keys are field names.  RunConfig's fields belong to [case] unless
    their metadata names another section; the fields of ``solver`` are read
    from [solver] and [linear].  ``configure`` checks a config.
    """

    name: str = "traction"
    ell: float = 0.1
    h: float = 0.02
    L: float = 1.0
    H: float = 0.3
    n_steps: int = 30
    E: float = 1.0
    nu: float = 0.3
    Gc: float = 1.0
    k_ell: float = 1e-6
    beta: float = 1.0
    load_max_factor: float = 1.5
    t_end: float = 1.0
    dT_factor: float = 1.0
    tau_min: float = 0.05
    tau_max: float = 3.0
    solver: SolverConfig = field(default_factory=SolverConfig)
    directory: str = field(default="out", metadata=_OUTPUT)
    snapshot_stride: int = field(default=1, metadata=_OUTPUT)


def _schema() -> dict:
    """INI section -> fields, with SolverConfig's in place of ``RunConfig.solver``."""
    schema: dict = {}
    for f in dataclasses.fields(RunConfig):
        nested = f.name == "solver"
        for g in dataclasses.fields(SolverConfig) if nested else (f,):
            section = g.metadata.get("section", "solver" if nested else "case")
            schema.setdefault(section, []).append(g)
    return schema


_SECTIONS = _schema()
_SOLVER_KEYS = frozenset(f.name for f in dataclasses.fields(SolverConfig))
_SWEEPABLE = ("omega", "ell", "h", "dT_factor")
_PARSE = {"float": float, "int": int, "str": str.strip}   # by annotation (a string)


def configure(base: RunConfig, **changes) -> RunConfig:
    """``base`` with ``changes`` applied, checked: the one gate for configs.

    Keys name fields of RunConfig or of its SolverConfig.  SolverConfig
    checks the solver values and Material the material constants; the case,
    geometry, schedule and output values are checked here.  Every failure is
    a ConfigError.
    """
    solver = {k: changes.pop(k) for k in list(changes) if k in _SOLVER_KEYS}
    try:
        cfg = dataclasses.replace(
            base, solver=dataclasses.replace(base.solver, **solver), **changes)
        build_material(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.name not in _CASE_DEFAULTS:
        raise ConfigError(
            f"[case] name must be one of {tuple(_CASE_DEFAULTS)}, got {cfg.name!r}")
    for key in ("h", "L", "H", "load_max_factor", "t_end", "dT_factor",
                "tau_min", "tau_max"):
        if not 0.0 < getattr(cfg, key) < math.inf:
            raise ConfigError(
                f"[case] {key} must be positive and finite, got {getattr(cfg, key)!r}")
    if not cfg.tau_min < cfg.tau_max:
        raise ConfigError("[case] tau_min must be smaller than tau_max")
    if cfg.n_steps < 1:
        raise ConfigError(f"[case] n_steps must be at least 1, got {cfg.n_steps!r}")
    if cfg.snapshot_stride < 0:
        raise ConfigError(
            f"[output] snapshot_stride must be nonnegative, got {cfg.snapshot_stride!r}")
    return cfg


@dataclass
class SweepSpec:
    """One swept parameter, its values, and the base configuration."""

    parameter: str
    values: list
    base: RunConfig

    def __post_init__(self):
        if self.parameter not in _SWEEPABLE:
            raise ConfigError(
                f"sweep parameter must be one of {_SWEEPABLE}, got {self.parameter!r}")
        if not self.values:
            raise ConfigError("sweep values list must not be empty")
        names = [_row_dirname(self.parameter, v) for v in self.values]
        if len(set(names)) < len(names):
            raise ConfigError(f"sweep values {self.values} share the output directories {names}")
        for value in self.values:   # every row's config is checked before any row runs
            configure(self.base, **{self.parameter: value})


def _row_dirname(parameter: str, value) -> str:
    return f"{parameter}_{value:g}"


def _read_ini(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    return parser


def _parse_sections(parser: configparser.ConfigParser,
                    extra_sections: tuple = ()) -> RunConfig:
    unknown_sections = [s for s in parser.sections()
                        if s not in _SECTIONS and s not in extra_sections]
    if unknown_sections:
        raise ConfigError(f"unknown config sections: {', '.join(unknown_sections)}")

    values = {}
    for section, fields in _SECTIONS.items():
        if not parser.has_section(section):
            continue
        kinds = {f.name: f.type for f in fields}
        unknown = [k for k in parser[section] if k not in kinds]
        if unknown:
            raise ConfigError(
                f"unknown keys in [{section}]: {', '.join(sorted(unknown))}")
        for key, raw in parser[section].items():
            try:
                values[key] = _PARSE[kinds[key]](raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc

    # case-dependent defaults, then the generic mesh-size rule h = ell/5
    values = {**_CASE_DEFAULTS.get(values.get("name", RunConfig.name), {}), **values}
    values.setdefault("h", values.get("ell", RunConfig.ell) / 5.0)
    return configure(RunConfig(), **values)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a run configuration; all defaults are resolved."""
    return _parse_sections(_read_ini(text))


def parse_sweep(text: str) -> SweepSpec:
    """Parse a sweep file: a [sweep] section plus a base run configuration."""
    parser = _read_ini(text)
    if not parser.has_section("sweep"):
        raise ConfigError("sweep file requires a [sweep] section")
    known = {"parameter", "values"}
    unknown = [k for k in parser["sweep"] if k not in known]
    if unknown:
        raise ConfigError(f"unknown keys in [sweep]: {', '.join(sorted(unknown))}")
    if not parser.has_option("sweep", "parameter"):
        raise ConfigError("[sweep] parameter is required")
    parameter = parser.get("sweep", "parameter").strip()
    raw_values = parser.get("sweep", "values", fallback="")
    tokens = [tok for tok in raw_values.replace(",", " ").split() if tok]
    try:
        sweep_values = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise ConfigError(f"[sweep] values: cannot parse {raw_values!r}") from exc
    base = _parse_sections(parser, extra_sections=("sweep",))
    return SweepSpec(parameter=parameter, values=sweep_values, base=base)


def _fmt(value) -> str:
    """A float's shortest round-trip text (numpy scalars included), else str."""
    return repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)


def echo_config(cfg: RunConfig) -> str:
    """Canonical INI text of a config; parse(echo(cfg)) == cfg."""
    lines = []
    for section, fields in _SECTIONS.items():
        owner = cfg.solver if fields[0].name in _SOLVER_KEYS else cfg
        lines.append(f"[{section}]")
        lines.extend(f"{f.name} = {_fmt(getattr(owner, f.name))}" for f in fields)
        lines.append("")
    return "\n".join(lines)


# -- building the pieces a run needs --------------------------------------------


def build_material(cfg: RunConfig) -> Material:
    return Material(E=cfg.E, nu=cfg.nu, Gc=cfg.Gc, ell=cfg.ell,
                    k_ell=cfg.k_ell, beta=cfg.beta)


def build_setup(cfg: RunConfig) -> ProblemSetup:
    material = build_material(cfg)
    if cfg.name == "traction":
        return setup_traction(material, L=cfg.L, H=cfg.H, h=cfg.h,
                              n_steps=cfg.n_steps,
                              load_max_factor=cfg.load_max_factor)
    if cfg.name == "surfing":
        return setup_surfing(material, L=cfg.L, H=cfg.H, h=cfg.h,
                             n_steps=cfg.n_steps, t_end=cfg.t_end)
    return setup_thermal_shock(material, L=cfg.L, H=cfg.H, h=cfg.h,
                               dT_factor=cfg.dT_factor, n_steps=cfg.n_steps,
                               tau_min=cfg.tau_min, tau_max=cfg.tau_max)


# -- artifact writers -------------------------------------------------------------

ENERGY_COLUMNS = ("step", "load", "elastic", "dissipated", "total",
                  "am_iters", "newton_iters", "krylov_iters", "omega_bar_min")
ITERATION_COLUMNS = ("step", *Iteration._fields)


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _write_csv(path: Path, columns, rows) -> None:
    """A header of ``columns``, then one line per row with each value ``_fmt``-ed."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(map(_fmt, row) for row in rows)
    _write_text(path, out.getvalue())


def write_energies_csv(path: Path, records: list) -> None:
    _write_csv(path, ENERGY_COLUMNS, (
        (rec.step, rec.load, *rec.energy, rec.report.am_iterations,
         rec.report.newton_iterations, rec.report.total_krylov_iterations,
         rec.report.omega_bar_min) for rec in records))


def write_iterations_csv(path: Path, reports: dict) -> None:
    """One row per ``Iteration`` of each report; ``reports`` maps step -> report."""
    _write_csv(path, ITERATION_COLUMNS, ((step, *it) for step, report in reports.items()
                                         for it in report.iterations))


def write_vtk(path: Path, mesh, alpha: np.ndarray, u: np.ndarray,
              title: str = "snapshot") -> None:
    """Legacy ASCII VTK unstructured grid with damage and displacement."""
    n = mesh.n_vertices
    T = mesh.n_triangles
    _write_text(path, "".join([
        f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n",
        f"POINTS {n} double\n", *(f"{x!r} {y!r} 0.0\n" for x, y in mesh.vertices.tolist()),
        f"CELLS {T} {4 * T}\n", *(f"3 {a} {b} {c}\n" for a, b, c in mesh.triangles.tolist()),
        f"CELL_TYPES {T}\n", "5\n" * T,
        f"POINT_DATA {n}\nSCALARS alpha double 1\nLOOKUP_TABLE default\n",
        *(f"{v!r}\n" for v in alpha.tolist()),
        "VECTORS displacement double\n",
        *(f"{x!r} {y!r} 0.0\n" for x, y in u.reshape(-1, 2).tolist())]))


def write_provenance(path: Path, cfg: RunConfig, setup: ProblemSetup) -> None:
    lines = [f"phasefrac {__version__}",
             "elastic_regime = plane_stress",
             f"case = {setup.name}"]
    for key in sorted(setup.params):
        lines.append(f"{key} = {_fmt(setup.params[key])}")
    lines.append("")
    lines.append("--- config echo ---")
    lines.append(echo_config(cfg))
    _write_text(path, "\n".join(lines))


# -- run / sweep -------------------------------------------------------------------


def _execute(cfg: RunConfig):
    """Run a config and write its artifacts.  Returns (records, error)."""
    setup = build_setup(cfg)
    error: Optional[StepFailureError] = None
    try:
        records = run_quasistatic(setup, cfg.solver, snapshot_stride=cfg.snapshot_stride)
    except StepFailureError as exc:
        records, error = exc.records, exc
    reports = {rec.step: rec.report for rec in records}
    if error is not None:   # a linear-solver failure left its step without a record
        reports[error.step] = error.report
    out = Path(cfg.directory)
    for stale in [out / "FAILED.txt", *out.glob("step_[0-9][0-9][0-9][0-9].vtk")]:
        stale.unlink(missing_ok=True)
    write_provenance(out / "provenance.txt", cfg, setup)
    write_energies_csv(out / "energies.csv", records)
    write_iterations_csv(out / "iterations.csv", reports)
    for rec in records:
        if rec.alpha is not None:
            write_vtk(out / f"step_{rec.step:04d}.vtk", setup.mesh,
                      rec.alpha, rec.u, title=f"{setup.name} step {rec.step}")
    if error is not None:
        _write_text(out / "FAILED.txt", f"{error}\n")
    return records, error


def run(cfg: RunConfig, output_dir: Optional[str] = None,
        snapshot_stride: Optional[int] = None) -> int:
    """Execute a run and write its artifacts.

    Returns 0 on full convergence, 3 when the solver failed at some step
    (partial outputs and ``FAILED.txt`` are still written).  Identical
    configs produce bitwise identical energies/iterations/VTK files.
    """
    overrides = {"directory": output_dir, "snapshot_stride": snapshot_stride}
    cfg = configure(cfg, **{k: v for k, v in overrides.items() if v is not None})
    _, error = _execute(cfg)
    if error is not None:
        print(f"solver failure: {error}", file=sys.stderr)
        return 3
    return 0


SUMMARY_COLUMNS = ("parameter", "value", "total_am_iters", "total_newton_iters",
                   "avg_krylov_per_newton", "wall_time_s", "reduction", "status",
                   "error")


def _sweep_row(args) -> dict:
    """Worker for one sweep row (module-level so process pools can pickle it).

    A failed row does not abort the sweep: its ``error`` names the exception
    or the failed step, and is echoed to stderr.
    """
    cfg, parameter, value = args
    row = {"parameter": parameter, "value": value, "total_am_iters": 0,
           "total_newton_iters": 0, "avg_krylov_per_newton": 0.0,
           "wall_time_s": 0.0, "reduction": 0.0, "status": "failed", "error": ""}
    start = time.perf_counter()
    try:
        row_cfg = configure(cfg, **{parameter: value}, directory=str(
            Path(cfg.directory) / _row_dirname(parameter, value)))
        records, error = _execute(row_cfg)
        am = sum(r.report.am_iterations for r in records)
        newton = sum(r.report.newton_iterations for r in records)
        krylov = sum(r.report.total_krylov_iterations for r in records)
        row.update(total_am_iters=am, total_newton_iters=newton,
                   avg_krylov_per_newton=(krylov / newton if newton else 0.0),
                   status="ok" if error is None else "failed",
                   error="" if error is None else str(error))
    except Exception as exc:  # noqa: BLE001 - reported in the row
        row["error"] = f"{type(exc).__name__}: {exc}"
    if row["error"]:
        print(f"sweep {parameter} = {value:g}: {row['error']}", file=sys.stderr)
    row["wall_time_s"] = time.perf_counter() - start
    return row


def sweep(spec: SweepSpec, threads: int = 1,
          output_dir: Optional[str] = None) -> int:
    """Run one sub-run per swept value and write ``summary.csv``.

    The reduction column compares total AM iterations against the reference
    row (the omega = 1 row when sweeping omega, otherwise the first row);
    positive values mean fewer iterations.  Failed rows are recorded with
    status 'failed' and their error, and do not abort the sweep.  At most
    ``threads`` rows run at once.
    """
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads!r}")
    base = spec.base
    if output_dir is not None:
        base = dataclasses.replace(base, directory=output_dir)
    jobs = [(base, spec.parameter, float(v)) for v in spec.values]
    workers = min(threads, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, jobs))
    else:
        rows = [_sweep_row(job) for job in jobs]

    ref = next((row for row in rows if spec.parameter == "omega" and row["value"] == 1.0
                and row["status"] == "ok"), rows[0])
    ref_am = ref["total_am_iters"]
    for row in rows:   # every row starts with reduction 0.0
        if ref["status"] == "ok" and row["status"] == "ok" and ref_am > 0:
            row["reduction"] = 1.0 - row["total_am_iters"] / ref_am

    _write_csv(Path(base.directory) / "summary.csv", SUMMARY_COLUMNS,
               ([row[c] for c in SUMMARY_COLUMNS] for row in rows))
    return 0
