"""Outside-in benchmark of phasefrac's quasi-static solvers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload surfing_oram --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py            # every workload, one process each

One process runs one workload as a closed loop: a single caller makes one
complete run at a time (set-up, every load step solved to outer_atol = 1e-7,
artifacts where the workload writes them) until ``--seconds`` are used, and
checks every run.  With ``--trace 0`` it reports the end-to-end metrics
``run_s``, ``setup_s`` and ``peak_rss_mb``; with ``--trace 1`` it alternates
untraced and traced runs and reports the per-layer metrics of the traced
ones (see ``tracing.py``).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

BLAS/OpenMP threads are pinned to 1 before numpy is imported.  The program
is imported from ``src/`` next to this directory and nowhere else.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Set-up time drifts by a third over a few seconds on a shared host, so the
# set-ups are timed in batches spread over the process: one before the first
# run and one after each run.
SETUP_BATCH = 10
RUN_LIMIT_S = 150   # never start a run expected to end later than this

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _import_program():
    """Import phasefrac from this checkout's src/, or exit 1 without a result.

    ``workloads`` and ``tracing`` import phasefrac, so the functions below
    import them only after this has run.
    """
    if not (SRC / "phasefrac" / "__init__.py").is_file():
        sys.exit(f"perfbench: no phasefrac sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import phasefrac
    if not Path(phasefrac.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported phasefrac from {phasefrac.__file__}, not {SRC}")


@dataclass
class Run:
    """One timed run: wall time, outcome, failed checks, trace (if traced)."""

    traced: bool
    seconds: float
    outcome: object = None
    errors: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    tracer: object = None


def one_run(wl, traced: bool) -> Run:
    from tracing import Tracer, counting_factorizations

    wl.clean()
    counter = {"factorizations": 0}
    tracer = Tracer() if traced else None
    result, error = None, None
    with tracer.installed() if traced else counting_factorizations(counter):
        start = time.perf_counter()
        try:
            result = wl.run()
        except Exception as exc:  # a failed run is counted; the loop goes on
            traceback.print_exc()
            error = f"run raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    run = Run(traced, seconds, tracer=tracer)
    if error:
        run.errors.append(error)
        return run
    try:
        run.outcome = wl.outcome(result)
        run.errors += wl.check(run.outcome)
    except Exception as exc:  # unreadable output fails the check, not the loop
        traceback.print_exc()
        run.errors.append(f"reading the outcome raised {type(exc).__name__}: {exc}")
        return run
    run.counts = dict(run.outcome.counts(),
                      factorizations=(tracer.counts if traced else counter)["factorizations"])
    return run


def check_determinism(runs: list) -> None:
    """Counts and final energies must repeat exactly, traced or not."""
    done = [r for r in runs if r.counts]
    for run in done[1:]:
        diff = {k: (done[0].counts[k], v) for k, v in run.counts.items()
                if v != done[0].counts[k]}
        if diff:
            run.errors.append(f"not deterministic (first run, this run): {diff}")


def measure(name: str, seed: int, seconds: float, trace: bool):
    from workloads import REFERENCE_FILE, WORKLOADS, variant

    refs = json.loads(REFERENCE_FILE.read_text())
    wl = WORKLOADS[name](seed, reference=refs.get(name, {}).get(str(variant(seed))))
    workdir = WORK / f"{name}-{os.getpid()}"
    wl.prepare(workdir)
    setup_times, runs = [], []
    # a trace run needs one untraced and one traced run
    min_runs = 2 if trace else 1

    def time_setups():
        for _ in range(SETUP_BATCH):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)

    try:
        start = time.perf_counter()
        wl.setup()  # untimed warm-up
        time_setups()
        while True:
            runs.append(one_run(wl, traced=trace and len(runs) % 2 == 1))
            time_setups()
            elapsed = time.perf_counter() - start
            expected = elapsed + statistics.median(r.seconds for r in runs)
            if expected > RUN_LIMIT_S or (len(runs) >= min_runs and expected > seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another process
            WORK.rmdir()
    check_determinism(runs)
    return wl, setup_times, runs


# -- metrics ---------------------------------------------------------------------


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def _timed_runs(runs: list, traced: bool) -> list:
    """Wall times of the runs of one kind that completed (all, if none did)."""
    kind = [r for r in runs if r.traced == traced]
    return [r.seconds for r in kind if r.outcome is not None] or [r.seconds for r in kind]


def end_to_end(runs: list, setup_times: list) -> dict:
    return {"run_s": _median(_timed_runs(runs, False)),
            "setup_s": _median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


#: (metric, unit) of every per-layer metric, in the order they are printed.
PER_LAYER = (
    ("mesh.build_s", "s"), ("fem.discretization_s", "s"),
    ("fem.assemble_Kuu.calls", "count"), ("fem.assemble_Kuu.self_s", "s"),
    ("fem.assemble_Kaa.calls", "count"), ("fem.assemble_Kaa.self_s", "s"),
    ("fem.assemble_Kua.calls", "count"), ("fem.assemble_Kua.self_s", "s"),
    ("fem.apply_dirichlet.self_s", "s"), ("fem.residual.self_s", "s"),
    ("fem.assemble_energy.self_s", "s"),
    ("linalg.factorize.elastic.calls", "count"), ("linalg.factorize.elastic.self_s", "s"),
    ("linalg.factorize.elastic.fill_nnz", "count"),
    ("linalg.factorize.damage.calls", "count"), ("linalg.factorize.damage.self_s", "s"),
    ("linalg.inner_direct.calls", "count"), ("linalg.inner_direct.self_s", "s"),
    ("linalg.lu_solve.calls", "count"), ("linalg.lu_solve.self_s", "s"),
    ("linalg.minres.calls", "count"), ("linalg.minres.iters", "count"),
    ("linalg.minres.self_s", "s"),
    ("linalg.fieldsplit_apply.calls", "count"), ("linalg.fieldsplit_apply.self_s", "s"),
    ("linalg.extract_submatrix.self_s", "s"),
    ("vi.rsls.calls", "count"), ("vi.rsls.iters", "count"), ("vi.rsls.self_s", "s"),
    ("vi.rsls.merit_evals_per_iter", "ratio"),
    ("vi.rsls.steepest_descent_steps", "count"), ("vi.rsls.linear_failures", "count"),
    ("solver.am_sweeps", "count"), ("solver.newton_steps", "count"),
    ("solver.krylov_iters", "count"), ("solver.omega_bar_min", "ratio"),
    ("solver.load_step.self_s", "s"), ("solver.elastic_step.self_s", "s"),
    ("solver.damage_step.self_s", "s"), ("solver.residual_norm.self_s", "s"),
    ("solver.coupled_newton.self_s", "s"),
    ("cases.steps", "count"), ("cases.step_s.p50", "s"), ("cases.step_s.p90", "s"),
    ("cases.self_s", "s"),
    ("runio.parse_s", "s"), ("runio.self_s", "s"),
    ("runio.write_vtk.calls", "count"), ("runio.write_vtk.self_s", "s"),
    ("runio.write_csv.self_s", "s"), ("runio.artifact_bytes", "bytes"),
    ("cli.self_s", "s"),
    ("trace.coverage", "ratio"), ("trace.overhead", "ratio"),
)


def layers_of_run(run: Run) -> dict:
    """Per-layer values of one traced run, without the cross-run ones."""
    t, out = run.tracer, run.outcome
    m = {"mesh.build_s": t.total_s["mesh.build"],
         "fem.discretization_s": t.total_s["fem.discretization"]}
    for span in ("fem.assemble_Kuu", "fem.assemble_Kaa", "fem.assemble_Kua",
                 "linalg.factorize.elastic", "linalg.factorize.damage",
                 "linalg.inner_direct", "linalg.lu_solve", "linalg.minres",
                 "linalg.fieldsplit_apply", "vi.rsls", "runio.write_vtk"):
        m[f"{span}.calls"] = t.calls[span]
    for span in ("fem.assemble_Kuu", "fem.assemble_Kaa", "fem.assemble_Kua",
                 "fem.apply_dirichlet", "fem.residual", "fem.assemble_energy",
                 "linalg.factorize.elastic", "linalg.factorize.damage",
                 "linalg.inner_direct", "linalg.lu_solve", "linalg.minres",
                 "linalg.fieldsplit_apply", "linalg.extract_submatrix", "vi.rsls",
                 "solver.load_step", "solver.elastic_step", "solver.damage_step",
                 "solver.residual_norm", "solver.coupled_newton",
                 "runio.write_vtk", "runio.write_csv"):
        m[f"{span}.self_s"] = t.self_s[span]
    iters = t.counts["vi.rsls.iters"]
    m.update({
        "linalg.factorize.elastic.fill_nnz": t.fill_nnz or 0,
        "linalg.minres.iters": t.counts["linalg.minres.iters"],
        "vi.rsls.iters": iters,
        "vi.rsls.merit_evals_per_iter": t.counts["vi.rsls.merit_evals"] / iters if iters else 0.0,
        "vi.rsls.steepest_descent_steps": t.counts["vi.rsls.steepest_descent_steps"],
        "vi.rsls.linear_failures": t.counts["vi.rsls.linear_failures"],
        "solver.am_sweeps": out.am_sweeps, "solver.newton_steps": out.newton_steps,
        "solver.krylov_iters": out.krylov_iters, "solver.omega_bar_min": out.omega_bar_min,
        "cases.steps": len(out.energies),
        "cases.self_s": t.self_s["cases.setup"] + t.self_s["cases.run_quasistatic"],
        "runio.parse_s": t.total_s["runio.parse"],
        "runio.self_s": t.self_s["runio.run"],
        "runio.artifact_bytes": out.artifact_bytes,
        "cli.self_s": t.self_s["cli.main"],
        "trace.coverage": sum(t.self_s.values()) / run.seconds,
    })
    return m


def per_layer(runs: list) -> dict:
    traced = [r for r in runs if r.traced and r.outcome is not None]
    if not traced:
        return {name: 0.0 for name, _ in PER_LAYER}
    per_run = [layers_of_run(r) for r in traced]
    m = {k: _median(r[k] for r in per_run) for k in per_run[0]}
    steps = [d for r in traced for d in r.tracer.step_s]
    m["cases.step_s.p50"] = float(np.percentile(steps, 50))
    m["cases.step_s.p90"] = float(np.percentile(steps, 90))
    m["trace.overhead"] = (_median(_timed_runs(runs, True))
                           / _median(_timed_runs(runs, False)) - 1.0)
    return {name: m[name] for name, _ in PER_LAYER}


# -- reporting ------------------------------------------------------------------------


def environment() -> dict:
    import scipy

    def blas(module):
        dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        top, sha = (git.stdout.split() + ["", ""])[:2]
        sha = sha if git.returncode == 0 and Path(top).resolve() == ROOT else "none"
    except (OSError, subprocess.SubprocessError):
        sha = "none"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "numpy_blas": blas(np),
            "scipy": scipy.__version__, "scipy_blas": blas(scipy), "git_sha": sha,
            **{var: os.environ.get(var) for var in THREAD_VARS}}


def report(wl, seed: int, trace: bool, setup_times: list, runs: list) -> dict:
    from workloads import variant

    print(f"# perfbench workload={wl.name} seed={seed} variant={variant(seed)} "
          f"trace={int(trace)} closed loop, 1 caller, 1 process")
    print(f"# inputs: {wl.describe}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in environment().items()))
    for i, run in enumerate(runs):
        status = "ok" if not run.errors else "FAILED: " + "; ".join(run.errors)
        print(f"# run {i} {'traced' if run.traced else 'untraced'} "
              f"{run.seconds:.4f} s {run.counts} {status}")
    failed = sum(1 for r in runs if r.errors)
    if trace:
        metrics = per_layer(runs)
        n = sum(1 for r in runs if r.traced)
        for name, unit in PER_LAYER:
            print(f"{name:36s} {metrics[name]:14.6g} {unit:6s} (median of {n} traced runs)")
    else:
        metrics = end_to_end(runs, setup_times)
        n_runs = len(_timed_runs(runs, False))
        samples = {"run_s": f"median of {n_runs} runs",
                   "setup_s": f"median of {len(setup_times)} set-ups",
                   "peak_rss_mb": "ru_maxrss of 1 process"}
        for name, unit in END_TO_END:
            print(f"{name:12s} {metrics[name]:12.6g} {unit:3s} ({samples[name]})")
    print(f"{'fail_rate':12s} {failed / len(runs):12.6g} {'':3s} ({failed} of {len(runs)} runs)")
    units = dict(PER_LAYER if trace else END_TO_END)
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        sys.stdout.write(child.stdout)
        lines = child.stdout.strip().splitlines()
        ok = child.returncode == 0 and lines and json.loads(lines[-1])["correct"]
        status = status or (0 if ok else 1)
    return status


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one workload; all of them, in turn, when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    if args.workload is None:
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}")
    wl, setup_times, runs = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report(wl, args.seed, bool(args.trace), setup_times, runs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
