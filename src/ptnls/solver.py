"""Split-step Fourier integrator for the complex field q = u + iv.

The real system cataloged per case is equivalent to

    i q_t = -1/2 q_xx + (a(x) + i eps b(x)) q - 2 sigma mu^2 e^{-alpha x^2} |q|^2 q

and that complex form is what the stepper integrates: a symmetric splitting
with the kinetic flows applied exactly in Fourier space and the pointwise
potential/nonlinear flow applied exactly too: |q|^2 grows by e^{2 eps b t},
so the phase integrates in closed form (Weideman & Herbst, SIAM J. Numer.
Anal. 23, 1986).  Only the splitting error is left, and at eps = 0 the
discrete L2 norm is conserved to rounding.  The scheme is Strang splitting
(second order) or Yoshida's symmetric composition of three Strang steps
(fourth order; Yoshida, Phys. Lett. A 150, 262, 1990).

Every run steps an ensemble: members that differ only in eps are the rows
of one (members, N) array, and a single run is an ensemble of one.  Each
row's arithmetic is that of a run of its own, bit for bit.

Stepping is a stream: `stream_members` yields each sample of the live
members as it is reached and holds only the current step, whatever T_final
or the sample count.  It holds the field's spectrum: a step maps spectrum
to spectrum in 2 FFTs per substep (2 for Strang, 6 for Yoshida), and the
field is transformed back once per sample.  Consumers that reduce samples
as they come (the drift scans, `ptnls simulate`) keep memory at that bound.
`run` collects one member's stream into a Trajectory.  No command calls it
or `write_trajectory_csv`: the benchmark's tracer wraps them by name.

The grid is periodic on [-L, L) with nodes offset by half a cell so that
x = 0 is never a node; several cataloged densities carry 1/x^k prefactors
and stay finite only as limits there.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .catalog import CaseId, load_catalog
from .jetexpr import Jet, JetBatch, ParamValues, eval_expr

__all__ = [
    "Grid", "FieldState", "Gaussian", "GroundState", "SCHEMES", "SolverConfig", "Stepper",
    "Trajectory", "Sample", "BlowUpError", "BoundaryContaminationError",
    "initial_condition", "make_stepper", "stream_members", "run",
    "integrate", "resample", "jet_values", "TrajectoryWriter", "write_trajectory_csv",
]

BOUNDARY_WARN = 1e-8
BOUNDARY_ERROR = 1e-4

_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
# the substep weights of each splitting scheme, as fractions of dt
SCHEMES = {"strang": (1.0,), "yoshida4": (_W1, 1.0 - 2.0 * _W1, _W1)}


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
    scheme: str = "strang"  # a key of SCHEMES

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.T_final) and self.T_final >= 0):
            raise ValueError(f"T_final must be nonnegative and finite, got {self.T_final}")
        steps = self.T_final / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(f"T_final must be an integer multiple of dt, got "
                             f"T_final={self.T_final!r} and dt={self.dt!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {', '.join(map(repr, SCHEMES))}, "
                             f"got {self.scheme!r}")

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
    """One step of a symmetric splitting: the pointwise flow for each
    substep weight w (fractions of dt; `SCHEMES`), between exact kinetic
    flows.  The kinetic flows of neighbouring substeps are merged, so a step
    of s substeps is s + 1 kinetic flows: with weights (1,) it is Strang's
    K(1/2) N(1) K(1/2), with Yoshida's (w1, w0, w1) it is
    K(w1/2) N(w1) K((w1 + w0)/2) N(w0) K((w1 + w0)/2) N(w1) K(w1/2).
    `step` maps the spectrum q-hat to the spectrum one step later; the
    kinetic flows are products in Fourier space and each pointwise flow
    runs on the nodes between an inverse and a forward FFT, so a step of s
    substeps is 2 s FFTs.

    Built either from a case (arrays evaluated from the catalog) or from raw
    arrays (a, b, nonlinear coefficient) for contrived test systems.  With
    a vector of M eps values the field is (M, N), one member per row.  The
    pointwise flow of q_t = (g - i (a + nl |q|^2)) q, g = eps b, over h = w dt
    is exact: q <- lin q e^{-i cub |q|^2}, lin = e^{(g - i a) h},
    cub = nl h phi(2 g h) with phi(z) = expm1(z) / z and phi(0) = 1.
    """

    def __init__(self, grid: Grid, dt: float, a: np.ndarray, b: np.ndarray,
                 nl: np.ndarray, eps, weights: Sequence[float] = SCHEMES["strang"]):
        self.lin, self.cub = [], []  # one array of each per substep
        for w in weights:
            h = w * dt
            gdt = np.asarray(eps, float)[..., None] * b * h  # g h, one row per member
            phi = np.ones_like(gdt)
            np.divide(np.expm1(2.0 * gdt), 2.0 * gdt, out=phi, where=gdt != 0.0)
            self.lin.append(np.exp(gdt - 1j * a * h))
            self.cub.append(nl * h * phi)
        # e^{-i c k^2 dt / 2} for each merged kinetic fraction c; -0.5j * 0.5 is
        # -0.25j exactly, so Strang's halves keep their old bits
        merged = [(u + w) / 2.0 for u, w in zip((0.0, *weights), (*weights, 0.0))]
        self.kinetic = [np.exp(-0.5j * c * grid.k ** 2 * dt) for c in merged]

    def keep(self, rows: Sequence[int]) -> None:
        """Keep only the members in `rows` (row indices, ascending), in
        every substep's arrays."""
        self.lin = [lin[rows] for lin in self.lin]
        self.cub = [cub[rows] for cub in self.cub]

    def step(self, qhat: np.ndarray) -> np.ndarray:
        """The spectrum one step after `qhat`: each substep is an inverse FFT
        of the kinetic flow, the pointwise flow on the nodes and a forward
        FFT, 2 FFTs, and the closing kinetic flow stays in Fourier space."""
        for kinetic, lin, cub in zip(self.kinetic, self.lin, self.cub):
            q = np.fft.ifft(kinetic * qhat)
            # e^{-i phase} built from cos and sin: cheaper than a complex exp
            phase = cub * (q.real ** 2 + q.imag ** 2)
            rot = np.empty_like(q)
            np.cos(phase, out=rot.real)
            np.sin(-phase, out=rot.imag)
            qhat = np.fft.fft(lin * q * rot)
        return self.kinetic[-1] * qhat


def make_stepper(cfg: SolverConfig, eps) -> Stepper:
    """The stepper of `cfg` for one eps value, or for a vector of members,
    with a, b and the nonlinear coefficient evaluated from the catalog."""
    case, grid, params = load_catalog().case(cfg.case_id), cfg.grid, cfg.params
    batch = JetBatch(np.zeros(grid.N), grid.x, 0,
                     {Jet("u", 0, 0): np.zeros(grid.N),
                      Jet("v", 0, 0): np.zeros(grid.N)})
    a, b, coeff = (np.broadcast_to(np.asarray(eval_expr(e, batch, params), float), (grid.N,))
                   for e in (case.a, case.b, case.nonlinearity_coeff))
    return Stepper(grid, cfg.dt, a, b, -params.mu ** 2 * coeff, eps, SCHEMES[cfg.scheme])


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


# the modules that step and reduce the stream; a solver warning names the
# first frame outside them: the caller of run or drift_scan, or the loop over
# stream_members
_STREAM_MODULES = (__name__, f"{__package__}.analysis")


def _warn(message: str) -> None:
    """A RuntimeWarning attributed to the innermost caller outside
    _STREAM_MODULES, however many of their frames (generators included) lie
    between."""
    frame, level = sys._getframe(), 1
    while frame is not None and frame.f_globals.get("__name__") in _STREAM_MODULES:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, RuntimeWarning, stacklevel=level)


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
        _warn(
            f"boundary amplitude at {level:.3e} of the field maximum at t = {t:.6g}")
    return None


@dataclass(frozen=True)
class Sample:
    """The live members' fields at one sampled time: row r of q, (rows, N),
    is member members[r] (indices into the stream's eps values, ascending)."""

    t: float
    members: np.ndarray
    q: np.ndarray


def stream_members(cfg: SolverConfig, eps_values: Sequence[float], sample_every: int,
                   errors: list) -> Iterator[Sample]:
    """Integrate `cfg` once per eps value, the members stepped together, and
    yield a Sample every `sample_every` steps, plus the initial and final
    states.  `errors` holds one slot per member; the error that ends a
    member is put in its slot where it happens, while the others go on: a
    BlowUpError at the step where its field stopped being finite, a
    BoundaryContaminationError at a sample.  A failed member is in no later
    Sample, and the stream ends early once every member has failed.

    Only the current step's spectrum is held, so memory does not grow with
    T_final or the sample count: one FFT of the initial data, then 2 FFTs
    per substep of each step and one inverse FFT per later sample.  The
    t = 0 sample is the initial data itself.  A Sample's q is never written
    after it is yielded: a consumer may keep it."""
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    steps = cfg.steps
    stepper = make_stepper(cfg, eps_values)
    q = np.tile(initial_condition(cfg).q, (len(eps_values), 1))  # the t = 0 sample
    qhat = np.fft.fft(q)
    alive = np.arange(len(eps_values))  # the member of each row of qhat and q
    warned: list[list] = [[] for _ in eps_values]
    for n in range(steps + 1):
        # walltime drift of repeated addition is avoided: t from the count
        t = n * cfg.dt
        if n:
            qhat = stepper.step(qhat)
        # a non-finite node spreads to every mode, so q-hat shows a blow-up
        finite = np.isfinite(qhat.view(float)).all(axis=-1)
        sample = n % sample_every == 0 or n == steps
        if not sample and finite.all():
            continue
        if sample:
            if n:
                q = np.fft.ifft(qhat)
            # the inverse FFT of a finite spectrum can still overflow
            finite &= np.isfinite(q.view(float)).all(axis=-1)
        for row, m in enumerate(alive):
            errors[m] = (BlowUpError(t) if not finite[row] else
                         _check_boundary(t, q[row], warned[m]) if sample else None)
        keep = [row for row, m in enumerate(alive) if errors[m] is None]
        if not keep:
            return
        if len(keep) < len(alive):
            alive, qhat, q = alive[keep], qhat[keep], q[keep]
            stepper.keep(keep)
        if sample:
            yield Sample(t, alive, q)


def run(cfg: SolverConfig, sample_every: int = 50) -> Trajectory:
    """Integrate to T_final, keeping a snapshot every `sample_every` steps
    (plus the initial and final states): the stream of an ensemble of one,
    collected whole.  The error that ends the run is raised."""
    errors = [None]
    snapshots = [FieldState(s.t, s.q[0], cfg.grid)
                 for s in stream_members(cfg, [cfg.params.eps], sample_every, errors)]
    if errors[0] is not None:
        raise errors[0]
    return Trajectory(cfg, snapshots)


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


class TrajectoryWriter:
    """Long-format CSV on an open text file: the header at construction, then
    one row per node of each snapshot given to `write`, 17 significant
    digits."""

    def __init__(self, fh, cfg: SolverConfig, header_lines=()):
        self.fh = fh
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(f"# case={cfg.case_id.value} N={cfg.grid.N} L={_fmt(cfg.grid.L)}"
                 f" dt={_fmt(cfg.dt)} T_final={_fmt(cfg.T_final)}\n")
        p = cfg.params
        fh.write(f"# eps={_fmt(p.eps)} mu={_fmt(p.mu)} sigma={_fmt(p.sigma)}"
                 f" alpha={_fmt(p.alpha)} g={_fmt(p.g)}\n")
        fh.write("t,x,re_q,im_q\n")
        # one %-format per snapshot; "%.17g" prints what format(v, ".17g") does
        self.rows = [f",{_fmt(xj)},%.17g,%.17g\n" for xj in cfg.grid.x]

    def write(self, t: float, q: np.ndarray) -> None:
        """The rows of the snapshot q, one field of N nodes, at time t."""
        t = _fmt(t)
        self.fh.write((t + t.join(self.rows)) % tuple(q.view(float).tolist()))


def write_trajectory_csv(traj: Trajectory, path, header_lines=()) -> None:
    """A trajectory's snapshots as a TrajectoryWriter CSV."""
    with open(path, "w") as fh:
        writer = TrajectoryWriter(fh, traj.cfg, header_lines)
        for state in traj.snapshots:
            writer.write(state.t, state.q)
