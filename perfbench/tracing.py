"""Spans around the calls into each phasefrac module, installed from outside.

Every phasefrac module imports the names it calls (``from .fem import
assemble_Kuu``), so patching only the defining module records nothing: the
wrapper has to replace the name in the namespace where it is looked up.
``TARGETS`` lists each (module, attribute) pair that is replaced and the span
it records.  Nothing under ``src/`` changes; ``Tracer.installed()`` puts the
original objects back on exit.

A span's self time is its duration minus the durations of the spans it
directly encloses, so self times add up to the wall time of the root call.
Spans are aggregated by name as they close, rather than stored one by one.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict

# (module, attribute, span name).  Class attributes are written "Class.method".
TARGETS = (
    # benchmark entry points, looked up by the benchmark itself
    ("phasefrac.cases", "setup_surfing", "cases.setup"),
    ("phasefrac.cases", "setup_thermal_shock", "cases.setup"),
    ("phasefrac.cases", "run_quasistatic", "cases.run_quasistatic"),
    ("phasefrac.cli", "main", "cli.main"),
    # set-up: meshes and element geometry
    ("phasefrac.cases", "banded_rect_mesh", "mesh.build"),
    ("phasefrac.cases", "rect_mesh", "mesh.build"),
    ("phasefrac.cases", "Discretization", "fem.discretization"),
    # the calls made by run_quasistatic
    ("phasefrac.cases", "solve_load_step", "solver.load_step"),
    ("phasefrac.cases", "assemble_energy", "fem.assemble_energy"),
    # the solver's calls into fem, linalg and vi, and into itself
    ("phasefrac.solver", "elastic_step", "solver.elastic_step"),
    ("phasefrac.solver", "damage_step", "solver.damage_step"),
    ("phasefrac.solver", "residual_norm", "solver.residual_norm"),
    ("phasefrac.solver", "coupled_newton_solve", "solver.coupled_newton"),
    ("phasefrac.solver", "assemble_Kuu", "fem.assemble_Kuu"),
    ("phasefrac.solver", "assemble_Kaa", "fem.assemble_Kaa"),
    ("phasefrac.solver", "assemble_Kua", "fem.assemble_Kua"),
    ("phasefrac.solver", "apply_dirichlet", "fem.apply_dirichlet"),
    ("phasefrac.solver", "assemble_residual_u", "fem.residual"),
    ("phasefrac.solver", "assemble_residual_alpha", "fem.residual"),
    ("phasefrac.solver", "assemble_load_u", "fem.residual"),
    ("phasefrac.solver", "assemble_energy", "fem.assemble_energy"),
    ("phasefrac.solver", "direct_factorize", "linalg.factorize"),
    ("phasefrac.solver", "extract_submatrix", "linalg.extract_submatrix"),
    ("phasefrac.solver", "inner_direct", "linalg.inner_direct"),
    ("phasefrac.solver", "minres_solve", "linalg.minres"),
    ("phasefrac.solver", "rsls_solve", "vi.rsls"),
    # Dirichlet elimination inside assemble_Kuu(apply_bc=True)
    ("phasefrac.fem", "eliminate_dirichlet", "fem.apply_dirichlet"),
    # the reduced-space solver's own LU of the damage block, and the LUs of
    # the field-split inner blocks
    ("phasefrac.vi", "direct_factorize", "linalg.factorize"),
    ("phasefrac.linalg", "direct_factorize", "linalg.factorize"),
    ("phasefrac.vi", "extract_submatrix", "linalg.extract_submatrix"),
    # methods, looked up on the class at call time
    ("phasefrac.linalg", "DirectFactorization.solve", "linalg.lu_solve"),
    ("phasefrac.linalg", "FieldSplitPreconditioner.matvec", "linalg.fieldsplit_apply"),
    # the CLI run and its artifacts
    ("phasefrac.cli", "parse_config", "runio.parse"),
    ("phasefrac.cli", "run", "runio.run"),
    ("phasefrac.runio", "setup_surfing", "cases.setup"),
    ("phasefrac.runio", "run_quasistatic", "cases.run_quasistatic"),
    ("phasefrac.runio", "write_vtk", "runio.write_vtk"),
    ("phasefrac.runio", "write_energies_csv", "runio.write_csv"),
    ("phasefrac.runio", "write_iterations_csv", "runio.write_csv"),
)

#: Factorizations are split by the solver half-step that asked for them.  One
#: made anywhere else (the reduced blocks of ``inner_direct``) is part of its
#: caller's span and opens none of its own.
_FACTORIZE_KINDS = (("solver.elastic_step", "linalg.factorize.elastic"),
                    ("solver.damage_step", "linalg.factorize.damage"))

SPAN_NAMES = tuple(sorted({span for _, _, span in TARGETS} - {"linalg.factorize"}
                          | {kind for _, kind in _FACTORIZE_KINDS}))


def _resolve(module_name: str, attr: str):
    """(owner object, attribute name) for a TARGETS entry."""
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


@contextlib.contextmanager
def _patched(replacements):
    """Set (owner, attr, value) triples, restoring the originals on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Tracer:
    """Per-name totals of spans, self times and counters over traced calls."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.step_s = []                    # duration of each solver.load_step call
        self.fill_nnz = None                # L+U nonzeros of the first elastic LU
        self._stack = []                    # open spans: [name, time in child spans]

    def _enter(self, name):
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, frame, start):
        dt = time.perf_counter() - start
        self._stack.pop()
        name = frame[0]
        self.calls[name] += 1
        self.total_s[name] += dt
        self.self_s[name] += dt - frame[1]
        if self._stack:
            self._stack[-1][1] += dt
        if name == "solver.load_step":
            self.step_s.append(dt)

    def _wrap(self, fn, span):
        def traced(*args, **kwargs):
            frame, start = self._enter(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, start)

        return traced

    def _wrap_factorize(self, fn):
        def traced(*args, **kwargs):
            self.counts["factorizations"] += 1
            open_spans = [frame[0] for frame in self._stack]
            kind = next((k for parent, k in _FACTORIZE_KINDS if parent in open_spans), None)
            if kind is None:
                return fn(*args, **kwargs)
            frame, start = self._enter(kind)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(frame, start)
            if kind == "linalg.factorize.elastic" and self.fill_nnz is None:
                lu = out._lu
                self.fill_nnz = int(lu.L.nnz + lu.U.nnz)
            return out

        return traced

    def _wrap_minres(self, fn):
        traced = self._wrap(fn, "linalg.minres")

        def counted(*args, **kwargs):
            x, report = traced(*args, **kwargs)
            self.counts["linalg.minres.iters"] += report.iterations
            return x, report

        return counted

    def _wrap_rsls(self, fn):
        traced = self._wrap(fn, "vi.rsls")

        def counted(problem, *args, **kwargs):
            residual = problem.residual

            def counted_residual(x):
                self.counts["vi.rsls.merit_evals"] += 1
                return residual(x)

            problem.residual = counted_residual
            try:
                x, report = traced(problem, *args, **kwargs)
            finally:
                problem.residual = residual
            # the first evaluation sets the starting merit; the rest are trials
            self.counts["vi.rsls.merit_evals"] -= 1
            self.counts["vi.rsls.iters"] += report.iterations
            self.counts["vi.rsls.steepest_descent_steps"] += report.steepest_descent_steps
            self.counts["vi.rsls.linear_failures"] += report.linear_failures
            return x, report

        return counted

    def _wrapper(self, fn, span):
        if span == "linalg.factorize":
            return self._wrap_factorize(fn)
        if span == "linalg.minres":
            return self._wrap_minres(fn)
        if span == "vi.rsls":
            return self._wrap_rsls(fn)
        return self._wrap(fn, span)

    def installed(self):
        """Context manager that installs every wrapper in TARGETS."""
        replacements = []
        for module_name, attr, span in TARGETS:
            owner, leaf = _resolve(module_name, attr)
            replacements.append((owner, leaf, self._wrapper(getattr(owner, leaf), span)))
        return _patched(replacements)


@contextlib.contextmanager
def counting_factorizations(counter: dict):
    """Count LU factorizations without timing anything (for untraced runs).

    ``counter["factorizations"]`` ends as the number of ``direct_factorize``
    calls, looked up in the same places a Tracer wraps.
    """
    replacements = []
    for module_name in ("phasefrac.solver", "phasefrac.vi", "phasefrac.linalg"):
        owner, leaf = _resolve(module_name, "direct_factorize")
        fn = getattr(owner, leaf)

        def counted(*args, _fn=fn, **kwargs):
            counter["factorizations"] += 1
            return _fn(*args, **kwargs)

        replacements.append((owner, leaf, counted))
    with _patched(replacements):
        yield
