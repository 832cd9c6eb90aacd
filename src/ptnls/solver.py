"""Split-step Fourier integrator for the complex field q = u + iv.

The real system cataloged per case is equivalent to

    i q_t = -1/2 q_xx + (a(x) + i eps b(x)) q - 2 sigma mu^2 e^{-alpha x^2} |q|^2 q

and that complex form is what the stepper integrates: Strang splitting with
the kinetic half-steps applied exactly in Fourier space and the pointwise
potential/nonlinear flow applied exactly too: |q|^2 grows by e^{2 eps b t},
so the phase integrates in closed form (Weideman & Herbst, SIAM J. Numer.
Anal. 23, 1986).  Only the splitting error is left, and at eps = 0 the
discrete L2 norm is conserved to rounding.

Every run steps an ensemble: members that differ only in eps are the rows
of one (members, N) array, and a single run is an ensemble of one.  Each
row's arithmetic is that of a run of its own, bit for bit.

The grid is periodic on [-L, L) with nodes offset by half a cell so that
x = 0 is never a node; several cataloged densities carry 1/x^k prefactors
and stay finite only as limits there.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .catalog import CaseId, load_catalog
from .jetexpr import Jet, JetBatch, ParamValues, eval_expr

__all__ = [
    "Grid", "FieldState", "Gaussian", "GroundState", "SolverConfig", "Stepper",
    "Trajectory", "BlowUpError", "BoundaryContaminationError",
    "initial_condition", "make_stepper", "run", "run_members", "integrate", "resample",
    "jet_values", "write_trajectory_csv",
]

BOUNDARY_WARN = 1e-8
BOUNDARY_ERROR = 1e-4


class BlowUpError(Exception):
    """The field stopped being finite."""

    def __init__(self, t: float):
        super().__init__(f"field blew up at t = {t:.6g}")
        self.t = t


class BoundaryContaminationError(Exception):
    """Mass reached the edge of the periodic box; results would wrap."""

    def __init__(self, t: float, level: float):
        super().__init__(
            f"boundary amplitude reached {level:.3e} of the field maximum at t = {t:.6g}; "
            "enlarge L or shorten T_final")
        self.t = t
        self.level = level


@dataclass
class Grid:
    """Periodic grid on [-L, L) with half-cell offset nodes."""

    L: float = 20.0
    N: int = 512

    def __post_init__(self):
        if not (math.isfinite(self.L) and self.L > 0):
            raise ValueError(f"L must be positive and finite, got {self.L}")
        if self.N < 64 or self.N & (self.N - 1):
            raise ValueError("N must be a power of two, at least 64")

    @cached_property
    def dx(self) -> float:
        return 2.0 * self.L / self.N

    @cached_property
    def x(self) -> np.ndarray:
        j = np.arange(self.N)
        return -self.L + (j + 0.5) * self.dx

    @cached_property
    def k(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.N, d=self.dx)


@dataclass
class FieldState:
    """The field q = u + iv on the grid at time t.  q may stack rows as
    (rows, N): ensemble members at one time, or snapshots with t a
    (rows, 1) column of their times."""

    t: float
    q: np.ndarray
    grid: Grid


@dataclass(frozen=True)
class Gaussian:
    """A e^{-(x-x0)^2 / (2 w^2)}, real and nodeless."""

    amplitude: float = 1.0
    width: float = 1.0
    center: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.width <= 0:
            raise ValueError(f"width must be positive and finite, got {self.width}")


@dataclass(frozen=True)
class GroundState:
    """pi^{-1/4} e^{-x^2/2}: the harmonic ground state, stationary up to a
    phase when eps = mu = 0 and a = x^2/2."""


InitialData = Union[Gaussian, GroundState]


@dataclass
class SolverConfig:
    case_id: CaseId = CaseId.CASE1A
    params: ParamValues = field(default_factory=ParamValues)
    dt: float = 1e-3
    T_final: float = 5.0
    grid: Grid = field(default_factory=Grid)
    initial: InitialData = field(default_factory=GroundState)

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.T_final) and self.T_final >= 0):
            raise ValueError(f"T_final must be nonnegative and finite, got {self.T_final}")
        steps = self.T_final / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError("T_final must be an integer multiple of dt")

    @property
    def steps(self) -> int:
        return int(round(self.T_final / self.dt))


def initial_condition(cfg: SolverConfig) -> FieldState:
    x = cfg.grid.x
    if isinstance(cfg.initial, GroundState):
        q = math.pi ** -0.25 * np.exp(-x ** 2 / 2.0)
    elif isinstance(cfg.initial, Gaussian):
        g = cfg.initial
        q = g.amplitude * np.exp(-(x - g.center) ** 2 / (2.0 * g.width ** 2))
    else:
        raise TypeError(f"unsupported initial data: {cfg.initial!r}")
    return FieldState(0.0, q.astype(complex), cfg.grid)


class Stepper:
    """One Strang step: exact kinetic half, exact pointwise flow, exact
    kinetic half.

    Built either from a case (arrays evaluated from the catalog) or from raw
    arrays (a, b, nonlinear coefficient) for contrived test systems.  With
    a vector of M eps values the field is (M, N), one member per row.  The
    pointwise flow of q_t = (g - i (a + nl |q|^2)) q, g = eps b, is exact:
    q <- lin q e^{-i cub |q|^2}, lin = e^{(g - i a) dt}, cub = nl dt phi(2 g dt)
    with phi(z) = expm1(z) / z and phi(0) = 1.
    """

    def __init__(self, grid: Grid, dt: float, a: np.ndarray, b: np.ndarray,
                 nl: np.ndarray, eps):
        self.dt = dt
        gdt = np.asarray(eps, float)[..., None] * b * dt  # g dt, one row per member
        phi = np.ones_like(gdt)
        np.divide(np.expm1(2.0 * gdt), 2.0 * gdt, out=phi, where=gdt != 0.0)
        self.lin = np.exp(gdt - 1j * a * dt)
        self.cub = nl * dt * phi
        self.kinetic_half = np.exp(-0.25j * grid.k ** 2 * dt)

    def step(self, state: FieldState) -> FieldState:
        q = np.fft.ifft(self.kinetic_half * np.fft.fft(state.q))
        # e^{-i phase} built from cos and sin: cheaper than a complex exp
        phase = self.cub * (q.real ** 2 + q.imag ** 2)
        rot = np.empty_like(q)
        np.cos(phase, out=rot.real)
        np.sin(-phase, out=rot.imag)
        q = np.fft.ifft(self.kinetic_half * np.fft.fft(self.lin * q * rot))
        return FieldState(state.t + self.dt, q, state.grid)


def make_stepper(cfg: SolverConfig, eps) -> Stepper:
    """The stepper of `cfg` for one eps value, or for a vector of members,
    with a, b and the nonlinear coefficient evaluated from the catalog."""
    case, grid, params = load_catalog().case(cfg.case_id), cfg.grid, cfg.params
    batch = JetBatch(np.zeros(grid.N), grid.x, 0,
                     {Jet("u", 0, 0): np.zeros(grid.N),
                      Jet("v", 0, 0): np.zeros(grid.N)})
    a, b, coeff = (np.broadcast_to(np.asarray(eval_expr(e, batch, params), float), (grid.N,))
                   for e in (case.a, case.b, case.nonlinearity_coeff))
    return Stepper(grid, cfg.dt, a, b, -params.mu ** 2 * coeff, eps)


@dataclass
class Trajectory:
    cfg: SolverConfig
    snapshots: list[FieldState]

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])

    def __iter__(self):
        return iter(self.snapshots)

    def __len__(self) -> int:
        return len(self.snapshots)


def _check_boundary(t: float, q: np.ndarray, warned: list) -> Optional[Exception]:
    """The boundary error that ends the member whose field is q, if any; `warned` is its own."""
    amax = float(np.max(np.abs(q)))
    if amax == 0.0:
        return None
    edge = max(float(np.max(np.abs(q[:2]))), float(np.max(np.abs(q[-2:]))))
    level = edge / amax
    if level > BOUNDARY_ERROR:
        return BoundaryContaminationError(t, level)
    if level > BOUNDARY_WARN and not warned:
        warned.append(t)
        warnings.warn(
            f"boundary amplitude at {level:.3e} of the field maximum at t = {t:.6g}",
            RuntimeWarning, stacklevel=4)
    return None


MemberResult = Union[Trajectory, BlowUpError, BoundaryContaminationError]


def run_members(cfg: SolverConfig, eps_values: Sequence[float],
                sample_every: int = 50) -> list[MemberResult]:
    """Integrate `cfg` once per eps value, the members stepped together.
    Each member's result is its Trajectory (a snapshot every `sample_every`
    steps, plus the initial and final states), or the error that ended it
    while the others went on: a BlowUpError at the step where its field
    stopped being finite, a BoundaryContaminationError at a snapshot.
    All snapshots share one array; a trajectory's fields are row views."""
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    grid, members, steps = cfg.grid, len(eps_values), cfg.steps
    stepper = make_stepper(cfg, eps_values)
    state = FieldState(0.0, np.tile(initial_condition(cfg).q, (members, 1)), grid)
    snapshots = np.empty((steps // sample_every + 2, members, grid.N), complex)
    times: list[float] = []
    alive = np.arange(members)  # the member of each row of state.q
    errors: list = [None] * members
    warned: list[list] = [[] for _ in range(members)]
    for n in range(steps + 1):
        if n:
            state = stepper.step(state)
            # walltime drift of repeated addition is avoided: t from the count
            state.t = n * cfg.dt
        finite = np.isfinite(state.q.view(float)).all(axis=-1)
        sample = n % sample_every == 0 or n == steps
        if not sample and finite.all():
            continue
        for row, m in enumerate(alive):
            errors[m] = (BlowUpError(state.t) if not finite[row] else
                         _check_boundary(state.t, state.q[row], warned[m]) if sample else None)
        keep = [row for row, m in enumerate(alive) if errors[m] is None]
        if not keep:
            break
        alive, state.q = alive[keep], state.q[keep]
        stepper.lin, stepper.cub = stepper.lin[keep], stepper.cub[keep]
        if sample:
            snapshots[len(times), alive] = state.q
            times.append(state.t)
    return [errors[m] or Trajectory(replace(cfg, params=cfg.params.replace(eps=float(e))),
                                        [FieldState(t, snapshots[k, m], grid)
                                         for k, t in enumerate(times)])
            for m, e in enumerate(eps_values)]


def run(cfg: SolverConfig, sample_every: int = 50) -> Trajectory:
    """Integrate to T_final, keeping a snapshot every `sample_every` steps
    (plus the initial and final states); an ensemble of one."""
    (result,) = run_members(cfg, [cfg.params.eps], sample_every)
    if isinstance(result, Exception):
        raise result
    return result


def integrate(grid: Grid, values: np.ndarray):
    """Trapezoid rule on the periodic grid (all weights equal dx) along the
    last axis: a float for one row of values, an array for a stack of rows."""
    return grid.dx * np.sum(values, axis=-1)


def resample(state: FieldState, grid: Grid) -> FieldState:
    """Evaluate the trigonometric interpolant of the state on another grid
    with the same box.  Exact for resolved fields; the half-cell offset
    means grids of different N share no nodes, so comparisons across
    resolutions go through this."""
    src = state.grid
    if grid.L != src.L:
        raise ValueError("resample requires the same box half-width L")
    c = np.fft.fft(state.q) / src.N
    # samples live at src.x[0] + j dx, so the interpolant is
    # sum_k c_k e^{i k (y - src.x[0])}
    phase = np.exp(1j * np.outer(grid.x - src.x[0], src.k))
    return FieldState(state.t, phase @ c, grid)


def jet_values(state: FieldState) -> dict[Jet, np.ndarray]:
    """The x-jets of the field on the grid, to order 2, taken spectrally.
    A density's t-jets are eliminated on shell through the catalog's E1/E2
    (`PdeSystem.on_shell`) before it is evaluated on these.  Each row of a
    stacked state gives the same row of every array."""
    grid = state.grid
    qh = np.fft.fft(state.q)
    dq = np.fft.ifft(1j * grid.k * qh)
    d2q = np.fft.ifft(-grid.k ** 2 * qh)
    return {
        Jet("u", 0, 0): state.q.real, Jet("v", 0, 0): state.q.imag,
        Jet("u", 0, 1): dq.real, Jet("v", 0, 1): dq.imag,
        Jet("u", 0, 2): d2q.real, Jet("v", 0, 2): d2q.imag,
    }


def _fmt(value: float) -> str:
    return format(value, ".17g")


def write_trajectory_csv(traj: Trajectory, path, header_lines=()) -> None:
    """Long-format CSV: one row per (snapshot, node), 17 significant digits."""
    cfg = traj.cfg
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(f"# case={cfg.case_id.value} N={cfg.grid.N} L={_fmt(cfg.grid.L)}"
                 f" dt={_fmt(cfg.dt)} T_final={_fmt(cfg.T_final)}\n")
        p = cfg.params
        fh.write(f"# eps={_fmt(p.eps)} mu={_fmt(p.mu)} sigma={_fmt(p.sigma)}"
                 f" alpha={_fmt(p.alpha)} g={_fmt(p.g)}\n")
        fh.write("t,x,re_q,im_q\n")
        # one %-format per snapshot; "%.17g" prints what format(v, ".17g") does
        rows = [f",{_fmt(xj)},%.17g,%.17g\n" for xj in cfg.grid.x]
        for state in traj.snapshots:
            t = _fmt(state.t)
            fh.write((t + t.join(rows)) % tuple(state.q.view(float).tolist()))
