"""Config grammar, run artifacts, parameter sweeps, and the command line."""

import csv
import io
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import phasefrac.linalg
import phasefrac.runio
import phasefrac.solver
from phasefrac import cli
from phasefrac.cases import setup_surfing, setup_thermal_shock, setup_traction
from phasefrac.linalg import SingularOperatorError
from phasefrac.mesh import Mesh, rect_mesh
from phasefrac.runio import (ConfigError, ENERGY_COLUMNS, ITERATION_COLUMNS,
                             SUMMARY_COLUMNS, RunConfig, build_setup,
                             echo_config, parse_config, parse_sweep, run, sweep,
                             vtk_grid, write_vtk)
from phasefrac.solver import CHOICES, SolverConfig

TRACTION_SMOKE = """
[case]
name = traction
ell = 0.1
h = 0.05
n_steps = 6

[solver]
method = am
omega = 1.4

[output]
directory = {out}
snapshot_stride = 3
"""

SURFING_NEWTON_SMOKE = """
[case]
name = surfing
ell = 0.1
h = 0.05
n_steps = 2
t_end = 0.05

[solver]
method = oram_newton
omega = 1.6

[output]
directory = {out}
snapshot_stride = 0
"""


SETUPS = {"traction": setup_traction, "surfing": setup_surfing,
          "thermal_shock": setup_thermal_shock}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestParsing:
    def test_minimal_config_resolves_defaults(self):
        cfg = parse_config("[case]\nname = traction\n")
        assert cfg.name == "traction"
        assert cfg.ell == 0.1
        assert cfg.h == pytest.approx(cfg.ell / 5.0)
        assert cfg.solver.method == "am" and cfg.solver.omega == 1.0
        assert cfg.directory == "out"

    def test_readme_minimal_config_parses(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        minimal = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = parse_config(minimal)
        assert cfg.name == "traction" and cfg.ell == 0.1

    def test_readme_python_example_runs(self, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        example = readme.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(example, "README.md", "exec"), {})
        assert "dissipated=" in capsys.readouterr().out

    def test_readme_grammar_lists_every_key(self):
        # the grammar block is not INI: take the names left of "=", split on ","
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        grammar = readme.split("```ini\n")[2].split("```", 1)[0]

        def keys(text):
            found, section = set(), None
            for line in text.splitlines():
                line = line.split("#", 1)[0].strip()
                if line.startswith("["):
                    section = line.strip("[]")
                elif "=" in line and section in ("case", "solver", "linear", "output"):
                    found |= {(section, k.strip()) for k in line.split("=", 1)[0].split(",")}
            return found

        assert keys(grammar) == keys(echo_config(RunConfig()))
        # and every choice key's line ("key = a | b | c", or "key = a" for a
        # single value) lists exactly the admissible values
        listed = {}
        for line in grammar.splitlines():
            key, _, rhs = line.split("#", 1)[0].partition("=")
            if key.strip() in CHOICES:
                listed[key.strip()] = tuple(v.split("(")[0].strip() for v in rhs.split("|"))
        assert listed == CHOICES

    def test_case_specific_defaults(self):
        th = parse_config("[case]\nname = thermal_shock\n")
        assert (th.ell, th.L, th.H, th.n_steps) == (1.0, 20.0, 10.0, 40)
        assert th.h == pytest.approx(0.2)
        sf = parse_config("[case]\nname = surfing\n")
        assert (sf.L, sf.H, sf.n_steps) == (2.0, 1.0, 25)

    def test_echo_round_trip(self):
        cfg = parse_config("[case]\nname = surfing\nell = 0.05\n"
                           "[solver]\nmethod = oram_newton\nomega = 1.6\n")
        assert parse_config(echo_config(cfg)) == cfg

    @pytest.mark.parametrize("omega", ["0", "2", "2.5", "-0.3"])
    def test_omega_outside_open_interval_rejected(self, omega):
        with pytest.raises(ConfigError, match="omega"):
            parse_config(f"[solver]\nmethod = am\nomega = {omega}\n")

    @pytest.mark.parametrize("method", ["oram", "oram_n"])
    def test_retired_method_names_rejected(self, method):
        # over-relaxation is method am with omega != 1; the composite is oram_newton
        with pytest.raises(ConfigError, match="method"):
            parse_config(f"[solver]\nmethod = {method}\nomega = 1.3\n")

    def test_cg_inner_solve_retired(self):
        # the field-split blocks are inverted by LU; the inexact inner solves are gone
        for inner in ("cg", "chebyshev"):
            with pytest.raises(ConfigError, match="fieldsplit_inner"):
                parse_config(f"[linear]\nfieldsplit_inner = {inner}\n")
        with pytest.raises(ConfigError, match="fieldsplit_cg_budget"):
            parse_config("[linear]\nfieldsplit_cg_budget = 5\n")

    @pytest.mark.parametrize("section,line", [
        ("solver", "am_rtol = 0.5"), ("solver", "max_newton_iterations = 10"),
        ("solver", "max_outer_cycles = 5"), ("linear", "fieldsplit_rtol = 1e-8")])
    def test_retired_newton_keys_rejected(self, section, line):
        # constants of phasefrac.solver (AM_RTOL, MAX_NEWTON_ITERATIONS, ...), not keys
        key = line.split(" =")[0]
        with pytest.raises(ConfigError, match=rf"unknown keys in \[{section}\]: {key}"):
            parse_config(f"[{section}]\n{line}\n")

    @pytest.mark.parametrize("name", ["traction", "surfing", "thermal_shock"])
    def test_case_defaults_match_setup_defaults(self, name):
        # a config naming only the case builds the setup its Python API
        # builds with every default
        from_config = build_setup(parse_config(f"[case]\nname = {name}\n"))
        from_api = SETUPS[name]()
        assert from_config.mesh.n_vertices == from_api.mesh.n_vertices
        assert np.array_equal(from_config.schedule, from_api.schedule)
        assert from_config.params == from_api.params

    @pytest.mark.parametrize("line", ["elastic_precond = ssor", "fieldsplit_degree = 3",
                                      "elastic = cg", "elastic_rtol = 1e-10",
                                      "coupled = direct"])
    def test_retired_linear_keys_rejected(self, line):
        # the elastic half-step is always a sparse LU solve; the inexact
        # field-split inner solves are gone; field-split MINRES is the only
        # coupled Newton solve
        with pytest.raises(ConfigError, match=line.split(" =")[0]):
            parse_config(f"[linear]\n{line}\n")

    def test_am_takes_a_relaxation_weight(self):
        cfg = parse_config("[solver]\nmethod = am\nomega = 1.3\n")
        assert (cfg.solver.method, cfg.solver.omega) == ("am", 1.3)

    @pytest.mark.parametrize("key,section", [
        ("E", "case"), ("ell", "case"), ("k_ell", "case"), ("h", "case"),
        ("nu", "case"), ("tau_max", "case"), ("omega", "solver"),
        ("outer_atol", "solver"), ("dT_factor", "case")])
    def test_nan_rejected(self, key, section):
        with pytest.raises(ConfigError, match=key):
            parse_config(f"[{section}]\n{key} = nan\n")

    def test_seed_key_retired(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("[output]\nseed = 0\n")

    def test_unknown_key_listed(self):
        with pytest.raises(ConfigError, match="wavelength"):
            parse_config("[case]\nwavelength = 3\n")

    def test_unknown_section_listed(self):
        with pytest.raises(ConfigError, match="resonance"):
            parse_config("[resonance]\nq = 3\n")

    def test_unknown_case_rejected(self):
        with pytest.raises(ConfigError, match="bending"):
            parse_config("[case]\nname = bending\n")

    def test_nonpositive_mesh_size_rejected(self):
        with pytest.raises(ConfigError, match="h"):
            parse_config("[case]\nh = -0.1\n")

    def test_build_setup_honours_geometry(self):
        cfg = parse_config("[case]\nname = traction\nL = 2.0\nH = 0.5\n"
                           "h = 0.1\nn_steps = 4\n")
        setup = build_setup(cfg)
        v = setup.mesh.vertices
        assert v[:, 0].max() == pytest.approx(2.0)
        assert v[:, 1].max() == pytest.approx(0.5)
        assert setup.schedule.size == 4


# (section, key, default text) of every INI key, read off the echoed defaults
INI_KEYS = []
for _block in echo_config(RunConfig()).split("[")[1:]:
    _section, *_lines = _block.strip().splitlines()
    INI_KEYS += [(_section[:-1], *line.split(" = ")) for line in _lines]
NUMERIC_KEYS = [(s, k) for s, k, v in INI_KEYS if v[0].isdigit()]
CHOICE_KEYS = {"name": ("traction", "surfing", "thermal_shock"), **CHOICES}

positive = st.floats(min_value=1e-6, max_value=1e6)
counts = st.integers(min_value=1, max_value=10**6)


@st.composite
def run_configs(draw):
    tau_min, tau_max = sorted(draw(st.lists(positive, min_size=2, max_size=2, unique=True)))
    solver = SolverConfig(
        **{key: draw(st.sampled_from(choices)) for key, choices in CHOICES.items()},
        omega=draw(st.floats(0.0, 2.0, exclude_min=True, exclude_max=True)),
        outer_atol=draw(positive), max_am_iterations=draw(counts))
    return RunConfig(
        name=draw(st.sampled_from(CHOICE_KEYS["name"])),
        **{key: draw(positive) for key in ("ell", "h", "L", "H", "E", "Gc", "beta",
                                           "load_max_factor", "t_end", "dT_factor")},
        n_steps=draw(counts), tau_min=tau_min, tau_max=tau_max,
        nu=draw(st.floats(-1.0, 0.5, exclude_min=True, exclude_max=True)),
        k_ell=draw(st.floats(0.0, 1.0)), solver=solver,
        directory=draw(st.text("abcXYZ019_-./", min_size=1, max_size=12)),
        snapshot_stride=draw(st.integers(0, 10**6)))


class TestConfigProperties:
    @given(run_configs())
    def test_echo_round_trip(self, cfg):
        assert parse_config(echo_config(cfg)) == cfg

    @given(st.sampled_from(NUMERIC_KEYS), st.sampled_from(["nan", "inf", "-inf", "NaN"]))
    def test_nonfinite_values_rejected(self, where, raw):
        section, key = where
        with pytest.raises(ConfigError):
            parse_config(f"[{section}]\n{key} = {raw}\n")

    @given(st.sampled_from(sorted(CHOICE_KEYS)),
           st.one_of(st.sampled_from(["oram", "oram_n", "lu", "amg"]),
                     st.text("abcdefghijklmnopqrstuvwxyz_", max_size=12)))
    def test_bad_choices_rejected(self, key, raw):
        assume(raw not in CHOICE_KEYS[key])
        section = next(s for s, k, _ in INI_KEYS if k == key)
        with pytest.raises(ConfigError):
            parse_config(f"[{section}]\n{key} = {raw}\n")

    @given(st.sampled_from(INI_KEYS),
           st.one_of(st.text(max_size=20), st.floats().map(repr),
                     st.integers(-10**6, 10**6).map(str)))
    def test_any_value_parses_or_raises_config_error(self, where, raw):
        section, key, _ = where
        try:
            parse_config(f"[{section}]\n{key} = {raw}\n")
        except ConfigError:
            pass


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts") / "run1"
    cfg = parse_config(TRACTION_SMOKE.format(out=out))
    assert run(cfg) == 0
    return out


@pytest.fixture(scope="module")
def newton_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts") / "newton"
    assert run(parse_config(SURFING_NEWTON_SMOKE.format(out=out))) == 0
    return out


class TestRunArtifacts:

    def test_expected_files(self, run_dir):
        names = {p.name for p in run_dir.iterdir()}
        assert {"energies.csv", "iterations.csv", "provenance.txt",
                "step_0000.vtk", "step_0003.vtk", "step_0005.vtk"} == names

    def test_energies_layout_and_content(self, run_dir):
        rows = read_csv(run_dir / "energies.csv")
        assert tuple(rows[0].keys()) == ENERGY_COLUMNS
        assert len(rows) == 6
        loads = [float(r["load"]) for r in rows]
        assert loads == sorted(loads)
        diss = [float(r["dissipated"]) for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(diss, diss[1:]))
        for r in rows:
            total = float(r["elastic"]) + float(r["dissipated"])
            assert float(r["total"]) == pytest.approx(total, rel=1e-12)

    def test_iterations_log_layout(self, run_dir):
        rows = read_csv(run_dir / "iterations.csv")
        assert tuple(rows[0].keys()) == ITERATION_COLUMNS
        assert {r["phase"] for r in rows} <= {"am", "newton"}
        by_step = {}
        for r in rows:
            by_step.setdefault(int(r["step"]), []).append(float(r["residual"]))
        assert set(by_step) == set(range(6))

    def test_provenance_pins_version_and_regime(self, run_dir):
        text = (run_dir / "provenance.txt").read_text()
        assert text.startswith("phasefrac ")
        assert "elastic_regime = plane_stress" in text
        assert "critical_traction" in text
        assert "[case]" in text  # full config echoed

    def test_vtk_snapshot_is_parsable(self, run_dir):
        lines = (run_dir / "step_0005.vtk").read_text().splitlines()
        assert lines[0].startswith("# vtk DataFile")
        npts = next(int(l.split()[1]) for l in lines if l.startswith("POINTS"))
        ncel = next(int(l.split()[1]) for l in lines if l.startswith("CELLS"))
        cfg = parse_config(TRACTION_SMOKE.format(out="ignored"))
        setup = build_setup(cfg)
        assert npts == setup.mesh.n_vertices
        assert ncel == setup.mesh.n_triangles
        i = lines.index(next(l for l in lines if l.startswith("SCALARS alpha")))
        data = []
        for l in lines[i + 2:]:
            if not l or l[0].isalpha() or l[0] == "#":
                break
            data.extend(float(x) for x in l.split())
        assert len(data) == npts
        assert min(data) >= 0.0 and max(data) <= 1.0 + 1e-12

    @pytest.mark.parametrize("out, newton", [("run_dir", False), ("newton_dir", True)])
    def test_iteration_rows_match_step_counts(self, out, newton, request):
        # per step: one am row per sweep, one newton row per iterate plus the
        # starting residual (iteration 0) of each Newton phase
        out = request.getfixturevalue(out)
        rows = read_csv(out / "iterations.csv")
        counted = Counter((r["step"], r["phase"]) for r in rows
                          if r["phase"] == "am" or int(r["iteration"]) > 0)
        steps = read_csv(out / "energies.csv")
        for s in steps:
            assert counted[s["step"], "am"] == int(s["am_iters"])
            assert counted[s["step"], "newton"] == int(s["newton_iters"])
        sweeps = {}   # AM sweeps count from 1 in each phase
        for r in rows:
            if r["phase"] == "am":
                sweeps.setdefault((r["step"], r["cycle"]), []).append(int(r["iteration"]))
        assert all(n == list(range(1, len(n) + 1)) for n in sweeps.values())
        assert (sum(int(s["newton_iters"]) for s in steps) > 0) == newton

    def test_numpy_scalars_written_as_plain_floats(self, newton_dir):
        out = newton_dir
        rows = read_csv(out / "iterations.csv")
        assert any(r["phase"] == "newton" for r in rows)
        for r in rows:
            for column in ITERATION_COLUMNS:
                if column != "phase":
                    float(r[column])
        assert "\nK_I = 1.0\n" in (out / "provenance.txt").read_text()

    def test_vtk_bytes_match_per_value_writer(self, tmp_path):
        # the previous writer, one StringIO.write per value, as the oracle
        def oracle(mesh, alpha, u, title):
            n, T = mesh.n_vertices, mesh.n_triangles
            out = io.StringIO()
            out.write(f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n")
            out.write(f"POINTS {n} double\n")
            for x, y in mesh.vertices:
                out.write(f"{float(x)!r} {float(y)!r} 0.0\n")
            out.write(f"CELLS {T} {4 * T}\n")
            for a, b, c in mesh.triangles:
                out.write(f"3 {a} {b} {c}\n")
            out.write(f"CELL_TYPES {T}\n")
            for _ in range(T):
                out.write("5\n")
            out.write(f"POINT_DATA {n}\nSCALARS alpha double 1\nLOOKUP_TABLE default\n")
            for v in alpha:
                out.write(f"{float(v)!r}\n")
            out.write("VECTORS displacement double\n")
            for i in range(n):
                out.write(f"{float(u[2 * i])!r} {float(u[2 * i + 1])!r} 0.0\n")
            return out.getvalue().encode()

        mesh = rect_mesh(1.0, 0.5, 0.1, origin_x2=-0.25, jitter=0.3)
        rng = np.random.default_rng(19)
        alpha = rng.uniform(0.0, 1.0, mesh.n_vertices)
        u = rng.standard_normal(2 * mesh.n_vertices) * 10.0 ** rng.integers(-5, 5, 2 * mesh.n_vertices)
        alpha[:4] = [0.0, 1.0, 1e-300, 5e-324]
        u[:6] = [-1e-300, -0.0, 3.0, -2.0, 1e300, -7.0]
        path = tmp_path / "snapshot.vtk"
        write_vtk(path, vtk_grid(mesh), alpha, u, title="jittered")
        assert path.read_bytes() == oracle(mesh, alpha, u, "jittered")

    def test_vtk_of_two_triangles(self, tmp_path):
        mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.5], [0.0, 0.5]]),
                    np.array([[0, 1, 2], [0, 2, 3]]))
        path = tmp_path / "two.vtk"
        write_vtk(path, vtk_grid(mesh), np.array([0.0, 1.0, 0.25, 1e-300]),
                  np.array([0.0, -0.0, 0.1, 2.0, -3.5, 1e300, 0.0, 0.0]), title="two")
        assert path.read_text() == (
            "# vtk DataFile Version 3.0\ntwo\nASCII\nDATASET UNSTRUCTURED_GRID\n"
            "POINTS 4 double\n0.0 0.0 0.0\n1.0 0.0 0.0\n1.0 0.5 0.0\n0.0 0.5 0.0\n"
            "CELLS 2 8\n3 0 1 2\n3 0 2 3\n"
            "CELL_TYPES 2\n5\n5\n"
            "POINT_DATA 4\nSCALARS alpha double 1\nLOOKUP_TABLE default\n"
            "0.0\n1.0\n0.25\n1e-300\n"
            "VECTORS displacement double\n"
            "0.0 -0.0 0.0\n0.1 2.0 0.0\n-3.5 1e+300 0.0\n0.0 0.0 0.0\n")

    def test_rerun_is_bitwise_identical(self, run_dir, tmp_path):
        out2 = tmp_path / "run2"
        cfg = parse_config(TRACTION_SMOKE.format(out=out2))
        assert run(cfg) == 0
        for name in ("energies.csv", "iterations.csv", "step_0005.vtk"):
            assert (run_dir / name).read_bytes() == (out2 / name).read_bytes()


class TestFailureArtifacts:
    def test_linear_solver_error_keeps_artifacts(self, tmp_path, monkeypatch):
        factorize = phasefrac.linalg.direct_factorize
        elastic_step = phasefrac.solver.elastic_step
        calls, in_elastic_step = [], []

        def failing_after_10(*args, **kwargs):
            if in_elastic_step:   # only the elastic LUs count and fail
                calls.append(1)
                if len(calls) > 10:
                    raise SingularOperatorError("injected zero pivot")
            return factorize(*args, **kwargs)

        def marked(*args, **kwargs):
            in_elastic_step.append(1)
            try:
                return elastic_step(*args, **kwargs)
            finally:
                in_elastic_step.pop()

        monkeypatch.setattr(phasefrac.linalg, "direct_factorize", failing_after_10)
        monkeypatch.setattr(phasefrac.solver, "elastic_step", marked)
        out = tmp_path / "f"
        cfgfile = tmp_path / "config.ini"
        cfgfile.write_text(TRACTION_SMOKE.format(out=out))
        assert cli.main(["run", str(cfgfile)]) == 3
        rows = read_csv(out / "energies.csv")
        # steps 0 and 1 take 8 elastic factorizations; step 2 fails at a
        # refactorization after a missed CG budget
        assert [r["step"] for r in rows] == ["0", "1"]
        # the sweeps step 2 ran before the injected error are kept
        step2 = [r for r in read_csv(out / "iterations.csv") if r["step"] == "2"]
        assert step2 and {r["phase"] for r in step2} == {"am"}
        assert [int(r["iteration"]) for r in step2] == list(range(1, len(step2) + 1))
        failed = (out / "FAILED.txt").read_text()
        assert "at step 2 " in failed
        assert "SingularOperatorError: injected zero pivot" in failed

    def test_rerun_removes_stale_failure_and_snapshots(self, tmp_path):
        out = tmp_path / "r"
        failing = TRACTION_SMOKE.format(out=out).replace(
            "omega = 1.4", "omega = 1.4\nmax_am_iterations = 1")
        assert run(parse_config(failing)) == 3
        assert (out / "FAILED.txt").exists() and list(out.glob("step_*.vtk"))
        (out / "notes.txt").write_text("kept")
        assert run(parse_config(TRACTION_SMOKE.format(out=out)), snapshot_stride=0) == 0
        assert not (out / "FAILED.txt").exists()
        assert not list(out.glob("*.vtk"))
        assert (out / "notes.txt").read_text() == "kept"


class TestSweep:
    SPEC = """
[sweep]
parameter = omega
values = 1.0, 1.4

[case]
name = traction
ell = 0.1
h = 0.05
n_steps = 6

[solver]
method = am
"""

    def test_summary_layout_and_reduction(self, tmp_path):
        spec = parse_sweep(self.SPEC)
        assert spec.parameter == "omega"
        assert spec.values == [1.0, 1.4]
        assert sweep(spec, output_dir=str(tmp_path)) == 0
        rows = read_csv(tmp_path / "summary.csv")
        assert tuple(rows[0].keys()) == SUMMARY_COLUMNS
        assert [float(r["value"]) for r in rows] == [1.0, 1.4]
        assert all(r["status"] == "ok" for r in rows)
        # the omega = 1 row is the reference: reduction 0 by definition
        assert float(rows[0]["reduction"]) == 0.0
        base = int(rows[0]["total_am_iters"])
        other = int(rows[1]["total_am_iters"])
        expected = 1.0 - other / base
        assert float(rows[1]["reduction"]) == pytest.approx(expected, abs=1e-6)

    def test_parallel_matches_serial(self, tmp_path):
        spec = parse_sweep(self.SPEC)
        assert sweep(spec, threads=1, output_dir=str(tmp_path / "s")) == 0
        assert sweep(spec, threads=2, output_dir=str(tmp_path / "p")) == 0
        a = (tmp_path / "s" / "summary.csv").read_text().splitlines()
        b = (tmp_path / "p" / "summary.csv").read_text().splitlines()
        # wall time differs; everything else must not
        strip = lambda lines: [",".join(v for i, v in enumerate(l.split(","))
                                        if SUMMARY_COLUMNS[min(i, len(SUMMARY_COLUMNS)-1)] != "wall_time_s")
                               for l in lines]
        assert strip(a) == strip(b)

    def test_failed_value_isolated(self, tmp_path):
        # omega -> 2 makes the relaxed iteration contract arbitrarily slowly,
        # so that row exhausts its budget while the others still succeed
        spec = parse_sweep("""
[sweep]
parameter = omega
values = 1.0, 1.999

[case]
name = traction
ell = 0.1
h = 0.05
n_steps = 6

[solver]
method = am
max_am_iterations = 200
""")
        assert sweep(spec, output_dir=str(tmp_path)) == 0
        rows = read_csv(tmp_path / "summary.csv")
        assert [r["status"] for r in rows] == ["ok", "failed"]
        assert rows[0]["error"] == ""
        assert "did not converge" in rows[1]["error"]

    def test_workers_capped_by_value_count(self, tmp_path, monkeypatch):
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(phasefrac.runio, "ProcessPoolExecutor", SerialPool)
        assert sweep(parse_sweep(self.SPEC), threads=64, output_dir=str(tmp_path)) == 0
        assert started == [2]

    def test_nonpositive_threads_rejected(self, tmp_path):
        cfgfile = tmp_path / "sweep.ini"
        cfgfile.write_text(self.SPEC)
        for threads in ("0", "-3"):
            assert cli.main(["sweep", str(cfgfile), "--threads", threads,
                             "--output-dir", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("values", ["1.0, 1.0", "1.2345671, 1.2345672"])
    def test_values_sharing_a_directory_rejected(self, values):
        with pytest.raises(ConfigError, match="share the output directories"):
            parse_sweep(f"[sweep]\nparameter = omega\nvalues = {values}\n")

    @pytest.mark.parametrize("parameter,values", [("omega", "1.0, 2.5"), ("h", "0.1, -1")])
    def test_invalid_value_rejected_before_any_row_runs(self, tmp_path, parameter, values):
        text = f"[sweep]\nparameter = {parameter}\nvalues = {values}\n[case]\nname = traction\n"
        with pytest.raises(ConfigError, match=parameter):
            parse_sweep(text)
        cfgfile = tmp_path / "sweep.ini"
        cfgfile.write_text(text)
        assert cli.main(["sweep", str(cfgfile), "--output-dir", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_unknown_sweep_parameter_rejected(self):
        with pytest.raises(ConfigError, match="wavelength"):
            parse_sweep("[sweep]\nparameter = wavelength\nvalues = 1, 2\n")


class TestCommandLine:
    def cli(self, *args, cwd=None):
        return subprocess.run([sys.executable, "-m", "phasefrac", *args],
                              capture_output=True, text=True, cwd=cwd)

    def write(self, tmp_path, text):
        p = tmp_path / "config.ini"
        p.write_text(text)
        return p

    def test_run_and_validate_exit_zero(self, tmp_path):
        cfgfile = self.write(tmp_path, TRACTION_SMOKE.format(out=tmp_path / "o"))
        res = self.cli("validate", str(cfgfile))
        assert res.returncode == 0
        assert "[case]" in res.stdout
        res = self.cli("run", str(cfgfile))
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "o" / "energies.csv").exists()

    def test_output_dir_flag_overrides(self, tmp_path):
        cfgfile = self.write(tmp_path, TRACTION_SMOKE.format(out=tmp_path / "a"))
        res = self.cli("run", str(cfgfile), "--output-dir", str(tmp_path / "b"),
                       "--snapshot-stride", "0")
        assert res.returncode == 0, res.stderr
        assert not (tmp_path / "a").exists()
        assert (tmp_path / "b" / "energies.csv").exists()
        assert not list((tmp_path / "b").glob("*.vtk"))

    @pytest.mark.parametrize("argv", [
        ["validate", "x.ini", "--threads", "4"],
        ["validate", "x.ini", "--snapshot-stride", "7"],
        ["validate", "x.ini", "--output-dir", "elsewhere"],
        ["run", "x.ini", "--threads", "4"],
        ["sweep", "x.ini", "--snapshot-stride", "0"]])
    def test_flag_of_another_subcommand_exits_2(self, argv, capsys):
        # each flag is registered only where it takes effect
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert argv[2] in capsys.readouterr().err

    def test_config_error_exits_2(self, tmp_path):
        cfgfile = self.write(tmp_path, "[solver]\nmethod = am\nomega = 2.5\n")
        res = self.cli("run", str(cfgfile))
        assert res.returncode == 2
        assert "omega" in res.stderr

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_non_utf8_file_is_a_config_error(self, tmp_path, command, capsys):
        cfgfile = tmp_path / "bad.ini"
        cfgfile.write_bytes(b"\xff\xfe[case]\n")
        assert cli.main([command, str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "UTF-8" in err

    def test_missing_file_exits_4(self, tmp_path):
        res = self.cli("run", str(tmp_path / "absent.ini"))
        assert res.returncode == 4

    def test_solver_failure_exits_3(self, tmp_path):
        cfgfile = self.write(tmp_path, """
[case]
name = traction
ell = 0.1
h = 0.05
n_steps = 6

[solver]
max_am_iterations = 1

[output]
directory = {}
""".format(tmp_path / "f"))
        res = self.cli("run", str(cfgfile))
        assert res.returncode == 3
        assert "converge" in (res.stderr + res.stdout).lower()

    def test_sweep_subcommand(self, tmp_path):
        spec = tmp_path / "sweep.ini"
        spec.write_text(TestSweep.SPEC)
        res = self.cli("sweep", str(spec), "--output-dir", str(tmp_path / "sw"),
                       "--threads", "2")
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "sw" / "summary.csv").exists()
