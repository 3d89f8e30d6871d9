"""Benchmark problem definitions and the quasi-static loading driver.

Three classical phase-field fracture benchmarks on rectangles:

* ``setup_surfing`` -- a Mode-I crack dragged across the domain by imposing
  the asymptotic crack-tip displacement field on the whole boundary; the
  dissipated energy should grow affinely with slope Gc * (tip speed).
* ``setup_traction`` -- a bar stretched end-to-end; the response is purely
  elastic up to the critical traction and snaps to a single transverse
  crack band of energy ~ Gc * H beyond it.
* ``setup_thermal_shock`` -- a slab quenched from the bottom surface through
  an error-function temperature profile; above the critical shock amplitude
  an array of parallel crack bands nucleates.

``run_quasistatic`` advances a state through a setup's loading schedule with
componentwise irreversibility (the damage lower bound is the previous step's
damage) and warm starting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.special import erfc

from .fem import (Discretization, DirichletBC, EnergyBreakdown, State,
                  assemble_energy, combine_bcs, impose_dirichlet)
from .linalg import LinearSolverError
from .mesh import Mesh, banded_rect_mesh, boundary_dofs, rect_mesh
from .model import Material, critical_shock, critical_traction
from .solver import NonlinearReport, SolverConfig, solve_load_step


def surfing_displacement(points, t: float, material: Material,
                         K_I: Optional[float] = None, v: float = 1.0,
                         L_c: float = 0.05) -> np.ndarray:
    """Asymptotic Mode-I displacement about a tip moving along y = 0.

    The tip sits at (L_c + v*t, 0); polar coordinates (r, theta) are taken
    about it with theta in (-pi, pi] from the positive x-axis, so the crack
    lies along theta = +-pi.  Uses the plane-stress Kolosov constant
    kappa = (3 - nu)/(1 + nu); the value at r = 0 is zero.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    K = np.sqrt(material.Gc * material.E) if K_I is None else K_I
    kappa = (3.0 - material.nu) / (1.0 + material.nu)
    dx = pts[:, 0] - (L_c + v * t)
    dy = pts[:, 1]
    r = np.hypot(dx, dy)
    theta = np.arctan2(dy, dx)
    amp = (K / (2.0 * material.mu)) * np.sqrt(r / (2.0 * np.pi)) * (kappa - np.cos(theta))
    out = np.stack([amp * np.cos(0.5 * theta), amp * np.sin(0.5 * theta)], axis=1)
    return out[0] if single else out


def thermal_strain(x2, tau: float, material: Material, delta_T: float) -> np.ndarray:
    """Isotropic inelastic strain of a quench front at depth x2, time tau.

    Returns the engineering (Voigt) components (e, e, 0) with
    e = -beta * delta_T * erfc(x2 / (ell * tau)); the shear component is zero
    because the strain is a multiple of the identity.
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    x2 = np.asarray(x2, dtype=float)
    e = -material.beta * delta_T * erfc(x2 / (material.ell * tau))
    out = np.zeros(x2.shape + (3,))
    out[..., 0] = e
    out[..., 1] = e
    return out


@dataclass
class ProblemSetup:
    """A benchmark: mesh, discretization, loading program, optional seeding.

    ``apply_load(problem, state, t)`` installs the Dirichlet data and the
    inelastic strain for load value ``t``.  ``seed_alpha`` (if any) is merged
    into the damage iterate -- not the irreversibility bound -- at the first
    schedule value strictly beyond ``seed_threshold``; this provides the
    deterministic perturbation needed to leave a metastable uncracked branch.
    """

    name: str
    mesh: Mesh
    problem: Discretization
    schedule: np.ndarray
    apply_load: Callable[[Discretization, State, float], None]
    initial_alpha_lb: Optional[np.ndarray] = None
    seed_threshold: Optional[float] = None
    seed_alpha: Optional[np.ndarray] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.schedule = np.asarray(self.schedule, dtype=float)
        if self.schedule.ndim != 1:
            raise ValueError("schedule must be a 1D array of load values")
        if np.any(np.diff(self.schedule) <= 0.0):
            raise ValueError("schedule must be strictly increasing")


def setup_surfing(material: Optional[Material] = None, L: float = 2.0,
                  H: float = 1.0, h: Optional[float] = None,
                  h_coarse: Optional[float] = None,
                  band_halfwidth: Optional[float] = None,
                  K_I: Optional[float] = None, v: float = 1.0,
                  L_c: float = 0.05, n_steps: int = 25,
                  t_end: float = 1.0) -> ProblemSetup:
    """Boundary-driven steady crack propagation on [0, L] x [-H/2, H/2].

    The full crack-tip displacement field is imposed on every boundary vertex
    and translated rightward with speed ``v``.  A pre-crack of length ``L_c``
    is seeded by fixing the damage lower bound to 1 within one mesh size of
    the segment {x2 = 0, 0 <= x1 <= L_c}.  The mesh is refined in a
    horizontal band of half-width ~2*ell around the crack path.
    """
    material = material or Material(ell=0.1)
    h = material.ell / 5.0 if h is None else h
    h_coarse = 5.0 * h if h_coarse is None else h_coarse
    band_halfwidth = 2.0 * material.ell if band_halfwidth is None else band_halfwidth
    mesh = banded_rect_mesh(L, H, h, h_coarse, band_halfwidth)
    problem = Discretization(mesh, material)
    K = np.sqrt(material.Gc * material.E) if K_I is None else K_I

    bverts = mesh.all_boundary_vertices()
    bdofs = np.column_stack([2 * bverts, 2 * bverts + 1]).ravel()
    bxy = mesh.vertices[bverts]

    def apply_load(problem: Discretization, state: State, t: float) -> None:
        vals = surfing_displacement(bxy, t, material, K_I=K, v=v, L_c=L_c)
        problem.bc = DirichletBC(bdofs, vals.ravel())

    xy = mesh.vertices
    nearest_x = np.clip(xy[:, 0], 0.0, L_c)
    dist = np.hypot(xy[:, 0] - nearest_x, xy[:, 1])
    lb = np.where(dist <= h * (1.0 + 1e-9), 1.0, 0.0)

    schedule = np.linspace(0.0, t_end, n_steps)
    return ProblemSetup("surfing", mesh, problem, schedule, apply_load,
                        initial_alpha_lb=lb,
                        params={"K_I": K, "v": v, "L_c": L_c, "h": h})


def setup_traction(material: Optional[Material] = None, L: float = 1.0,
                   H: float = 0.3, h: Optional[float] = None,
                   n_steps: int = 30, load_max_factor: float = 1.5,
                   seed_level: float = 0.05) -> ProblemSetup:
    """End-displacement stretching of a bar on [0, L] x [0, H].

    u1 = 0 on the left edge, u1 = t*L on the right edge, u2 pinned at the
    vertex nearest the origin; the homogeneous solution u = (t x1, -nu t x2)
    is exact for linear elements.  To leave the metastable uncracked branch
    past the critical traction, a one-column damage perturbation of height
    ``seed_level`` at mid-bar is merged into the iterate at the first load
    beyond t_c.
    """
    material = material or Material(ell=0.1)
    h = material.ell / 5.0 if h is None else h
    mesh = rect_mesh(L, H, h)
    problem = Discretization(mesh, material)
    tc = critical_traction(material)
    schedule = np.linspace(0.0, load_max_factor * tc, n_steps + 1)[1:]

    left = boundary_dofs(mesh, "left", "displacement_x1")
    right = boundary_dofs(mesh, "right", "displacement_x1")
    pin_vertex = int(np.argmin(np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])))
    pin = np.array([2 * pin_vertex + 1], dtype=np.intp)

    def apply_load(problem: Discretization, state: State, t: float) -> None:
        problem.bc = combine_bcs(
            DirichletBC(left, np.zeros(left.size)),
            DirichletBC(right, np.full(right.size, t * L)),
            DirichletBC(pin, np.zeros(1)))

    xcols = np.unique(mesh.vertices[:, 0])
    xstar = xcols[np.argmin(np.abs(xcols - 0.5 * L))]
    seed = np.where(np.abs(mesh.vertices[:, 0] - xstar) < 0.5 * h,
                    seed_level, 0.0)

    return ProblemSetup("traction", mesh, problem, schedule, apply_load,
                        seed_threshold=tc, seed_alpha=seed,
                        params={"critical_traction": tc, "h": h})


def setup_thermal_shock(material: Optional[Material] = None, L: float = 20.0,
                        H: float = 10.0, h: Optional[float] = None,
                        dT_factor: float = 1.0, n_steps: int = 40,
                        tau_min: float = 0.05, tau_max: float = 3.0,
                        jitter: float = 0.25) -> ProblemSetup:
    """Quench of a slab on [0, L] x [0, H] from its bottom surface.

    The inelastic strain follows the error-function temperature profile with
    front depth ~ ell * tau; the schedule is geometric in tau.  The bottom
    (shocked) surface is traction-free; u1 = 0 on the lateral sides, u2 = 0 on
    the top.  The shock amplitude is ``dT_factor`` times the critical value
    below which the slab stays elastic.

    The mesh vertices are jittered (deterministically) because the periodic
    crack pattern emerges by symmetry breaking: on a perfectly structured
    grid the uniform damage layer is an exact solver fixed point and the
    pattern never forms.
    """
    material = material or Material(ell=1.0)
    h = material.ell / 5.0 if h is None else h
    mesh = rect_mesh(L, H, h, jitter=jitter)
    problem = Discretization(mesh, material)
    dTc = critical_shock(material)
    dT = dT_factor * dTc

    bc = combine_bcs(*(DirichletBC(dofs, np.zeros(dofs.size)) for dofs in (
        boundary_dofs(mesh, "left", "displacement_x1"),
        boundary_dofs(mesh, "right", "displacement_x1"),
        boundary_dofs(mesh, "top", "displacement_x2"))))
    depth = problem.centroids[:, 1]

    def apply_load(problem: Discretization, state: State, tau: float) -> None:
        problem.bc = bc
        problem.eps0 = thermal_strain(depth, tau, material, dT)

    schedule = np.geomspace(tau_min, tau_max, n_steps)
    return ProblemSetup("thermal_shock", mesh, problem, schedule, apply_load,
                        params={"delta_T": dT, "critical_shock": dTc, "h": h})


# -- quasi-static driver --------------------------------------------------------


@dataclass
class StepRecord:
    """Converged outcome of a single load step (fields copied if snapshotted)."""

    step: int
    load: float
    energy: EnergyBreakdown
    report: NonlinearReport
    u: Optional[np.ndarray] = None
    alpha: Optional[np.ndarray] = None


class StepFailureError(RuntimeError):
    """Nonlinear solve failed at one load step; carries the partial run.

    ``report`` is the failed step's, filled up to the failure; after a linear
    solver raised ``cause`` mid-step, ``records`` has no entry for that step.
    """

    def __init__(self, step: int, load: float, records: list, state: State,
                 report: NonlinearReport, cause: Optional[Exception] = None):
        if cause is None:
            why = f"final residual {report.final_residual_norm:.3e}"
        else:
            why = f"{type(cause).__name__}: {cause}"
        super().__init__(f"solver did not converge at step {step} (load {load:g}); {why}")
        self.step = step
        self.load = load
        self.records = records
        self.state = state
        self.report = report


def run_quasistatic(setup: ProblemSetup, config: SolverConfig,
                    snapshot_stride: int = 1) -> list:
    """March a fresh state through the loading schedule.

    Per step: the damage lower bound becomes the previous step's damage
    (irreversibility), boundary data and inelastic strain are refreshed, the
    displacement is warm-started with the new boundary values, the one-time
    seed perturbation is merged in when the threshold is first exceeded, and
    the configured nonlinear solver runs.  Field snapshots are stored every
    ``snapshot_stride`` steps (always on the final step); ``snapshot_stride=0``
    disables them.  The solver fills each step's ``NonlinearReport`` in place;
    its ``iterations`` are the AM sweeps, counted from 1, and the Newton
    iterates, counted from 0 (the starting residual) with NaN energies.
    Non-convergence and linear-solver errors raise StepFailureError carrying
    the records accumulated so far and the failed step's report.  Every step
    refactors one elastic-block factor, held for this run only (see ``solver``).
    """
    state = State.zeros(setup.mesh, setup.initial_alpha_lb)
    held: list = []   # the run's elastic-block factor; dies with the run
    records: list = []
    seeded = False
    n = setup.schedule.shape[0]
    for k in range(n):
        t = float(setup.schedule[k])
        state.alpha_lb = state.alpha.copy()
        setup.apply_load(setup.problem, state, t)
        impose_dirichlet(state, setup.problem)
        if (setup.seed_threshold is not None and not seeded
                and t > setup.seed_threshold * (1.0 + 1e-12)):
            state.alpha = np.maximum(state.alpha, setup.seed_alpha)
            seeded = True

        report = NonlinearReport()
        try:
            solve_load_step(state, setup.problem, config, report, held)
        except LinearSolverError as exc:
            raise StepFailureError(k, t, records, state, report, cause=exc) from exc
        energy = assemble_energy(state, setup.problem)
        snap = snapshot_stride > 0 and (k % snapshot_stride == 0 or k == n - 1)
        records.append(StepRecord(
            step=k, load=t, energy=energy, report=report,
            u=state.u.copy() if snap else None,
            alpha=state.alpha.copy() if snap else None))
        if not report.converged:
            raise StepFailureError(k, t, records, state, report)
    return records


def crack_band_count(mesh: Mesh, alpha: np.ndarray, threshold: float = 0.9,
                     boundary_tag: str = "bottom") -> int:
    """Number of connected components of {alpha > threshold} touching a side.

    Connectivity is through mesh edges whose two endpoints both exceed the
    threshold; a component counts if it contains a vertex of the tagged
    boundary.  Used to count distinct crack bands in the quench benchmark.
    """
    mask = alpha > threshold
    if not mask.any():
        return 0
    tri = mesh.triangles
    edges = np.vstack([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
    keep = mask[edges[:, 0]] & mask[edges[:, 1]]
    edges = edges[keep]
    n = mesh.n_vertices
    graph = sp.coo_matrix((np.ones(edges.shape[0]), (edges[:, 0], edges[:, 1])),
                          shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    touch = np.zeros(n, dtype=bool)
    touch[mesh.boundary_vertices(boundary_tag)] = True
    return int(np.unique(labels[mask & touch]).size)
