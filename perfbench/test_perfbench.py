"""Tests of the benchmark's own machinery, on problems small enough to run fast.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import phasefrac.fem  # noqa: E402
import phasefrac.solver  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import SurfingNewtonCli, SurfingOram, ThermalOram  # noqa: E402


def tiny_workloads(workdir: Path):
    """One coarse instance of each workload; together they reach every span."""
    out = [SurfingOram(0, h=0.05, n_steps=2),
           ThermalOram(0, h=0.5, n_steps=4, min_bands=0),
           SurfingNewtonCli(0, h=0.05, n_steps=2)]
    for wl in out:
        wl.prepare(workdir / wl.name)
    return out


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(workload, untraced Run, traced Run) for each tiny workload."""
    workdir = tmp_path_factory.mktemp("perfbench")
    return [(wl, run.one_run(wl, traced=False), run.one_run(wl, traced=True))
            for wl in tiny_workloads(workdir)]


def test_every_named_span_fires(runs):
    fired = set()
    for _, _, traced in runs:
        fired |= {name for name, n in traced.tracer.calls.items() if n}
    assert fired == set(tracing.SPAN_NAMES)


def test_traced_results_equal_untraced(runs):
    for wl, plain, traced in runs:
        assert plain.counts == traced.counts, wl.name
        assert plain.outcome.energies == traced.outcome.energies, wl.name
        for a, b in zip(plain.outcome.alphas, traced.outcome.alphas):
            np.testing.assert_array_equal(a, b)


def test_checks_pass_apart_from_the_missing_reference(runs):
    for wl, plain, traced in runs:
        for r in (plain, traced):
            assert r.errors == ["no reference energy for variant 0"], wl.name


def test_self_times_add_up_to_the_run(runs):
    for wl, _, traced in runs:
        m = run.layers_of_run(traced)
        assert 0.95 <= m["trace.coverage"] <= 1.0 + 1e-9, wl.name
        assert all(v >= -1e-9 for v in traced.tracer.self_s.values()), wl.name


def test_wrappers_are_removed_on_exit():
    with tracing.Tracer().installed():
        assert phasefrac.solver.assemble_Kuu is not phasefrac.fem.assemble_Kuu
    assert phasefrac.solver.assemble_Kuu is phasefrac.fem.assemble_Kuu
    assert "solve" in vars(phasefrac.linalg.DirectFactorization)


def test_a_wrong_energy_fails_the_check(runs):
    wl, plain, _ = runs[0]
    wl.reference = plain.outcome.energies[-1] * (1.0 + 1e-9)
    try:
        assert any("differs from reference" in e for e in wl.check(plain.outcome))
    finally:
        wl.reference = None


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == ["surfing_oram", "thermal_oram",
                                                      "surfing_newton_cli"]
