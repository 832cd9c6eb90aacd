"""Split-step Fourier integrator for the complex field q = u + iv.

The real system cataloged per case is equivalent to

    i q_t = -1/2 q_xx + (a(x) + i eps b(x)) q - 2 sigma mu^2 e^{-alpha x^2} |q|^2 q

and that complex form is what the stepper integrates: a symmetric splitting
with the kinetic flows applied exactly in Fourier space and the pointwise
potential/nonlinear flow applied exactly too: |q|^2 grows by e^{2 eps b t},
so the phase integrates in closed form (Weideman & Herbst, SIAM J. Numer.
Anal. 23, 1986).  Only the splitting error is left, and at eps = 0 the
discrete L2 norm is conserved to rounding.  The scheme is Strang splitting
(second order) or Suzuki's symmetric composition of five Strang steps with
weights (w, w, 1 - 4w, w, w), w = 1/(4 - 4^{1/3}) (fourth order; Suzuki,
Phys. Lett. A 146, 319, 1990; McLachlan, SIAM J. Sci. Comput. 16, 151,
1995).  Its error constant is far smaller than that of Yoshida's triple
jump, whose middle weight is -1.70, so its two extra substeps pay for
themselves: the drift scans step on it.

Every run steps an ensemble: members that differ only in eps are the rows
of one (members, N) array, and a single run is an ensemble of one.  Each
row's arithmetic is that of a run of its own, bit for bit.  A sampled field
is a `Sample` everywhere; the field helpers (`initial_condition`,
`jet_values`, `resample`) take and return plain arrays.

Stepping is a stream: `stream_members` yields each sample of the live
members as it is reached and holds only the current step, whatever T_final
or the sample count.  It holds the field's spectrum: a step maps spectrum
to spectrum in 2 FFTs per substep (2 for Strang, 10 for Suzuki), and the
field is transformed back once per sample.  Consumers that reduce samples
as they come (the drift scans, `ptnls simulate`) keep memory at that bound.
`run` collects one member's stream into a Trajectory, a list of the
one-member Samples it yields.  No command calls it or
`write_trajectory_csv`: the benchmark's tracer wraps them by name.

`TrajectoryWriter` writes a sample's rows as it comes, 17 significant
digits per value.  The digits come from `fmt17_array`, which gives what
`fmt17` gives for every element of a float64 array, but with array
arithmetic: one longdouble product per value, with Python's own
formatting (what `fmt17` gives) only for the few values near a rounding
boundary (about 2%) and for zeros and non-finite values, all of those in
one call.  The writer formats a snapshot with one `fmt17_array` call and
one write of bytes to a binary file, at a traced peak of 2.9 MB at
N = 4096.

The grid is periodic on [-L, L) with nodes offset by half a cell so that
x = 0 is never a node; several cataloged densities carry 1/x^k prefactors
and stay finite only as limits there.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from dataclasses import dataclass, field, fields
from functools import cache, cached_property
from typing import Collection, Iterator, Sequence

import numpy as np

from .catalog import CaseId, load_catalog
from .jetexpr import Jet, JetBatch, ParamValues, eval_expr

__all__ = [
    "Grid", "Gaussian", "SCHEMES", "SolverConfig", "Stepper",
    "Trajectory", "Sample", "BlowUpError", "BoundaryContaminationError",
    "initial_condition", "make_stepper", "stream_members", "run",
    "integrate", "resample", "jet_values", "TrajectoryWriter", "write_trajectory_csv", "fmt17",
    "fmt17_array",
]

BOUNDARY_WARN = 1e-8
BOUNDARY_ERROR = 1e-4

# Suzuki's outer weight: 4 w^3 + (1 - 4 w)^3 = 0 makes the composition fourth order
_WS = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
# the substep weights of each splitting scheme, as fractions of dt
SCHEMES = {"strang": (1.0,), "suzuki4": (_WS, _WS, 1.0 - 4.0 * _WS, _WS, _WS)}
# below this |phase| the pointwise flow's rotation is (1, -phase) exactly
_EXACT_PHASE = 2.0 ** -27


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


@dataclass
class SolverConfig:
    case_id: CaseId = CaseId.CASE1A
    params: ParamValues = field(default_factory=ParamValues)
    dt: float = 1e-3
    T_final: float = 5.0
    grid: Grid = field(default_factory=Grid)
    # pi^{-1/4} e^{-x^2/2}: the harmonic ground state, stationary up to a
    # phase when eps = mu = 0 and a = x^2/2
    initial: Gaussian = field(default_factory=lambda: Gaussian(math.pi ** -0.25))
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


def initial_condition(cfg: SolverConfig) -> np.ndarray:
    """The field q = u + iv at t = 0 on the grid's nodes, complex (N,)."""
    g = cfg.initial
    if not isinstance(g, Gaussian):
        raise TypeError(f"unsupported initial data: {g!r}")
    q = g.amplitude * np.exp(-(cfg.grid.x - g.center) ** 2 / (2.0 * g.width ** 2))
    return q.astype(complex)


class Stepper:
    """One step of a symmetric splitting: the pointwise flow for each
    substep weight w (fractions of dt; `SCHEMES`), between exact kinetic
    flows.  The kinetic flows of neighbouring substeps are merged, so a step
    of s substeps is s + 1 kinetic flows: with weights (1,) it is Strang's
    K(1/2) N(1) K(1/2), with Suzuki's (w, w, w0, w, w) it is
    K(w/2) N(w) K(w) N(w) K((w + w0)/2) N(w0) K((w + w0)/2) N(w) K(w) N(w) K(w/2).
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
        FFT, 2 FFTs, and the closing kinetic flow stays in Fourier space.
        `qhat` is not written; the pointwise flow runs in place in the array
        the inverse FFT returns and the closing kinetic flow in the one the
        forward FFT returns, with every complex product's operands in the
        order lin q rot and kinetic qhat (numpy's complex multiply is not
        bit-commutative).  The FFTs are out of place: numpy.fft takes `out`
        only from numpy 2.0.

        The rotation e^{-i phase} is (cos phase, -sin phase), cheaper than
        a complex exp.  Where |phase| < 2^-27 the correctly rounded values
        are (1, -phase) exactly (phase^2 / 2 and phase^2 / 6 stay below half
        an ulp of 1 and of phase).  numpy 2.4's float64 cos and sin on an
        x86-64 build gave exactly those on 2.0e6 draws, so there the
        shortcut changes no bit; numpy can dispatch them to other SIMD loops
        on other CPUs, and where such a loop is not correctly rounded the
        two differ in the last bit.  On the default grids most nodes lie out
        in the tails, below that bound, so cos and sin are taken only on the
        window of columns that spans every other node; NaN and inf fail the
        test and go through them too."""
        for kinetic, lin, cub in zip(self.kinetic, self.lin, self.cub):
            q = np.fft.ifft(kinetic * qhat)
            phase = cub * (q.real ** 2 + q.imag ** 2)
            rot = np.empty_like(q)
            rot.real = 1.0
            np.negative(phase, out=rot.imag)
            wide = ~(np.abs(phase) < _EXACT_PHASE)
            cols = wide.reshape(-1, wide.shape[-1]).any(axis=0)
            if cols.any():
                lo, hi = cols.argmax(), len(cols) - cols[::-1].argmax()
                np.cos(phase[..., lo:hi], out=rot.real[..., lo:hi])
                np.sin(-phase[..., lo:hi], out=rot.imag[..., lo:hi])
            np.multiply(lin, q, out=q)
            q *= rot
            qhat = np.fft.fft(q)
        return np.multiply(self.kinetic[-1], qhat, out=qhat)


def make_stepper(cfg: SolverConfig, eps) -> Stepper:
    """The stepper of `cfg` for one eps value, or for a vector of members,
    with a, b and the nonlinear coefficient evaluated from the catalog."""
    case, grid, params = load_catalog().case(cfg.case_id), cfg.grid, cfg.params
    # the catalog keeps jet coordinates out of a, b and the coefficient
    batch = JetBatch(np.zeros(grid.N), grid.x, {})
    a, b, coeff = eval_expr((case.a, case.b, case.nonlinearity_coeff), batch, params)
    # the C library's pow, as Python's float `**`, but an overflow is inf
    # (and the field's blow-up), not an OverflowError
    mu2 = np.float_power(params.mu, 2)
    return Stepper(grid, cfg.dt, a, b, -mu2 * coeff, eps, SCHEMES[cfg.scheme])


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


@dataclass(frozen=True)
class Sample:
    """The live members' fields at one sampled time: row r of q, (rows, N),
    is member members[r] (indices into the stream's eps values, ascending).
    A collected run (`Trajectory`) is a list of one-member Samples."""

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
    q = np.tile(initial_condition(cfg), (len(eps_values), 1))  # the t = 0 sample
    qhat = np.fft.fft(q)
    alive = np.arange(len(eps_values))  # the member of each row of qhat and q
    warned = [False] * len(eps_values)  # whether each member has had its boundary warning
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
        level = np.zeros(len(alive))  # each row's boundary level, 0 between samples
        if sample:
            if n:
                q = np.fft.ifft(qhat)
            # the inverse FFT of a finite spectrum can still overflow
            finite &= np.isfinite(q.view(float)).all(axis=-1)
            # a finite row's largest amplitude on the edge nodes (two at
            # either end) over its largest amplitude; 0 for a zero field
            aq = np.abs(q)
            amax = aq.max(axis=-1)
            np.divide(aq[:, [0, 1, -2, -1]].max(axis=-1), amax, out=level,
                      where=finite & (amax > 0.0))
        for row, m in enumerate(alive):
            errors[m] = (BlowUpError(t) if not finite[row] else
                         BoundaryContaminationError(t, float(level[row]))
                         if level[row] > BOUNDARY_ERROR else None)
            if errors[m] is None and level[row] > BOUNDARY_WARN and not warned[m]:
                warned[m] = True
                _warn(f"boundary amplitude at {level[row]:.3e} of the field maximum "
                      f"at t = {t:.6g}")
        keep = [row for row, m in enumerate(alive) if errors[m] is None]
        if not keep:
            return
        if len(keep) < len(alive):
            alive, qhat, q = alive[keep], qhat[keep], q[keep]
            stepper.keep(keep)
        if sample:
            yield Sample(t, alive, q)


@dataclass
class Trajectory:
    """A collected run: the one-member Samples of its stream, in time order."""

    cfg: SolverConfig
    snapshots: list[Sample]


def run(cfg: SolverConfig, sample_every: int = 50) -> Trajectory:
    """Integrate to T_final, keeping a snapshot every `sample_every` steps
    (plus the initial and final states): the stream of an ensemble of one,
    collected whole as its one-member Samples (the field is `q[0]`).  The
    error that ends the run is raised."""
    errors = [None]
    snapshots = list(stream_members(cfg, [cfg.params.eps], sample_every, errors))
    if errors[0] is not None:
        raise errors[0]
    return Trajectory(cfg, snapshots)


def integrate(grid: Grid, values: np.ndarray):
    """Trapezoid rule on the periodic grid (all weights equal dx) along the
    last axis: a float for one row of values, an array for a stack of rows."""
    return grid.dx * np.sum(values, axis=-1)


def resample(q: np.ndarray, src: Grid, grid: Grid) -> np.ndarray:
    """Evaluate the trigonometric interpolant of the field q on `src` at the
    nodes of another grid with the same box.  Exact for resolved fields; the
    half-cell offset means grids of different N share no nodes, so
    comparisons across resolutions go through this.  Each row of a stacked
    q, (rows, src.N), gives the same row of the (rows, grid.N) result.
    Two FFTs: O(N log N) time and O(N) memory in the larger N."""
    if grid.L != src.L:
        raise ValueError("resample requires the same box half-width L")
    # samples live at src.x[0] + j dx, so the interpolant is
    # sum_k c_k e^{i k (y - src.x[0])}.  At the node y_m = grid.x[0] + m grid.dx
    # the mode k = pi n / L is c_k e^{i k (grid.x[0] - src.x[0])} e^{2 pi i n m / grid.N}:
    # a phase per mode, then destination mode n mod grid.N of one inverse FFT
    # (on a coarser grid several modes share one)
    c = np.fft.fft(q) / src.N * np.exp(1j * src.k * (grid.x[0] - src.x[0]))
    n = np.rint(src.k * (src.L / math.pi)).astype(int)
    d = np.zeros(c.shape[:-1] + (grid.N,), complex)
    np.add.at(d, (..., n % grid.N), c)
    return np.fft.ifft(d) * grid.N


def jet_values(q: np.ndarray, grid: Grid, orders: Collection[int] = (0, 1, 2)
               ) -> dict[Jet, np.ndarray]:
    """The x-jets of the field q on the grid of each x-derivative order in
    `orders` (0, 1 or 2), taken spectrally: order 0 is q itself, with no
    FFT, and orders 1 and 2 take one forward FFT between them and one
    inverse FFT each.  `DensityAccumulator` asks only for the orders its
    monomials read, so a charge block takes no FFT.  A density's t-jets are
    eliminated on shell through the catalog's E1/E2 (`PdeSystem.on_shell`)
    before it is evaluated on these.  Each row of a stacked q, (..., N),
    gives the same row of every array, so a Sample's q, or a block of every
    member's samples, (members, rows, N), goes in as it is."""
    if not set(orders) <= {0, 1, 2}:
        raise ValueError(f"jet orders must be 0, 1 or 2, got {sorted(orders)}")
    out = {Jet("u", 0, 0): q.real, Jet("v", 0, 0): q.imag} if 0 in orders else {}
    qh = np.fft.fft(q) if 1 in orders or 2 in orders else None
    for order, factor in ((1, 1j * grid.k), (2, -grid.k ** 2)):
        if order in orders:
            d = np.fft.ifft(factor * qh)
            out[Jet("u", 0, order)], out[Jet("v", 0, order)] = d.real, d.imag
    return out


def fmt17(value: float) -> str:
    """A float in 17 significant digits, which round-trips it."""
    return format(value, ".17g")


# the decimal exponents E of the finite nonzero doubles
_E_MIN, _E_MAX = -324, 308
# the columns of a value's source row in fmt17_array: its 17 digits, the
# exponent's magnitude in four digits (the first is always 0), then these
# characters and a NUL
_ZERO, _EXP, _MINUS, _DOT, _E, _PLUS, _NUL = 17, 18, 21, 22, 23, 24, 25
_CHARS = b"-.e+\0"


@cache
def _fmt17_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tables fmt17_array reads, built on first use.

    Rows of powers and forms are indexed by E - _E_MIN.  powers holds
    10^(16 - E) correctly rounded to the longdouble (parsed from a string).
    quads[i] is the ASCII of i in four digits, 0 <= i < 10^4, as one
    uint32.  layouts[(negative * 25 + form) * 18 + k] lists the source
    columns of the 24 output bytes of a value with k significant digits
    (trailing zeros stripped), NUL-padded, and forms holds 18 times the
    form of each E: form 0..20 is fixed notation at E = form - 4, 21..24
    is d.ddde-XX, d.ddde-XXX, d.ddde+XX and d.ddde+XXX."""
    exponents = range(_E_MIN, _E_MAX + 1)
    powers = np.array([np.longdouble(f"1e{16 - e}") for e in exponents])
    quads = np.array([f"{i:04d}".encode() for i in range(10 ** 4)]).view(np.uint32)
    forms = np.array([18 * (e + 4 if -4 <= e <= 16 else 21 + 2 * (e > 0) + (abs(e) >= 100))
                      for e in exponents])
    layouts = np.full((2, 25, 18, 24), _NUL, np.uint8)
    for negative, form, k in itertools.product((0, 1), range(25), range(1, 18)):
        if form <= 20:
            e = form - 4
            whole = [*range(e + 1)] or [_ZERO]
            frac, suffix = [_ZERO] * (-e - 1) + [*range(max(e + 1, 0), k)], []
        else:
            sign, width = [_MINUS, _MINUS, _PLUS, _PLUS][form - 21], 2 + (form - 21) % 2
            whole, frac = [0], [*range(1, k)]
            suffix = [_E, sign, *range(_EXP + 3 - width, _EXP + 3)]
        cols = [_MINUS] * negative + whole + ([_DOT, *frac] if frac else []) + suffix
        layouts[negative, form, k, :len(cols)] = cols
    tables = powers, quads, layouts.reshape(-1, 24), forms
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


def fmt17_array(values: np.ndarray) -> np.ndarray:
    """format(v, ".17g") of each element of a float64 array, flattened, as
    ASCII in a NUL-padded S24 array (`tolist` gives the bytes): the digits
    `_fmt17_digits` gets right with array arithmetic, and every other
    element (0, inf, nan, exact ties, the decade edges, and all of them
    where the longdouble is a double) as `fmt17` formats it, by one "%.17g"
    over all of them.  The result is exact everywhere and only the speed
    varies."""
    v = np.ravel(np.asarray(values, float))
    out, fast = _fmt17_digits(v)
    slow = np.flatnonzero(~fast)
    if len(slow):
        out[slow] = ("%.17g," * len(slow) % tuple(v[slow].tolist())).encode().split(b",")[:-1]
    return out


def _fmt17_digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """fmt17_array's array arithmetic on a flat float64 array: its S24
    output, and the mask of the elements that output is exact for.

    With E = floor(log10|v|), X = |v| 10^(16 - E) lies in [1e16, 1e17)
    and its 17 digits are D = X rounded to an integer, X taken as one
    longdouble product (Adams, "Ryu revisited: printf floating point
    conversion", OOPSLA 2019, does the same with wider integers).  Two
    roundings, each within eps/2 relative (eps of the longdouble), put the
    product within 2 eps X of the exact X, at most 0.022 on x86-64; D is
    taken only where that margin cannot move X across a rounding boundary:
    the fraction of X clear of 1/2 and 1e16 < D < 1e17, which also catches
    an E that log10's rounding put one off next to a power of ten."""
    powers, quads, layouts, forms = _fmt17_tables()
    n = len(v)
    a = np.abs(v)
    fast = np.isfinite(a) & (a > 0.0)
    a[~fast] = 1.0  # a stand-in, formatted but not used
    row = np.floor(np.log10(a)).astype(np.intp) - _E_MIN  # E's row in the tables
    x = a.astype(np.longdouble) * powers[row]
    d = x.astype(np.int64)
    frac = (x - d).astype(float)  # exact
    fast &= np.abs(frac - 0.5) > 2.0 * float(np.finfo(np.longdouble).eps) * x.astype(float)
    d += frac > 0.5
    fast &= (d > 10 ** 16) & (d < 10 ** 17)

    src = np.empty((n, 26), np.uint8)
    groups = np.empty((n, 4), np.int64)  # digits 1-4, 5-8, 9-12 and 13-16
    for col in range(3, -1, -1):
        d, groups[:, col] = np.divmod(d, 10 ** 4)
    src[:, 0] = d + ord("0")
    src[:, 1:17] = quads.take(groups).view(np.uint8)
    src[:, _ZERO:_MINUS] = quads.take(np.abs(row + _E_MIN)).view(np.uint8).reshape(n, 4)
    src[:, _MINUS:] = np.frombuffer(_CHARS, np.uint8)
    k = 17 - np.argmax(src[:, 16::-1] != ord("0"), axis=1)
    index = (layouts.take((v < 0) * (25 * 18) + forms.take(row) + k, axis=0)
             + np.arange(0, src.size, src.shape[1])[:, None])
    out = src.ravel().take(index).view("S24").ravel()
    return out, fast


class TrajectoryWriter:
    """Long-format CSV on a file open in binary mode: the header at
    construction, then one row per node of each snapshot given to `write`,
    17 significant digits.  Header text is written as UTF-8."""

    def __init__(self, fh, cfg: SolverConfig, header_lines=()):
        self.fh = fh
        for line in header_lines:
            fh.write(f"# {line}\n".encode())
        fh.write(f"# case={cfg.case_id.value} N={cfg.grid.N} L={fmt17(cfg.grid.L)}"
                 f" dt={fmt17(cfg.dt)} T_final={fmt17(cfg.T_final)}\n".encode())
        p = cfg.params
        fh.write(f"# eps={fmt17(p.eps)} mu={fmt17(p.mu)} sigma={fmt17(p.sigma)}"
                 f" alpha={fmt17(p.alpha)} g={fmt17(p.g)}\n".encode())
        fh.write(b"t,x,re_q,im_q\n")
        # each node's row after t, filled with the formatted re and im of q
        self.rows = [b",%s,%%s,%%s\n" % xj for xj in fmt17_array(cfg.grid.x).tolist()]

    def write(self, t: float, q: np.ndarray) -> None:
        """The rows of the snapshot q, one field of N nodes, at time t: one
        fmt17_array call and one write."""
        t = fmt17(t).encode()
        self.fh.write((t + t.join(self.rows)) % tuple(fmt17_array(q.view(float)).tolist()))


def write_trajectory_csv(traj: Trajectory, path, header_lines=()) -> None:
    """A trajectory's snapshots as a TrajectoryWriter CSV."""
    with open(path, "wb") as fh:
        writer = TrajectoryWriter(fh, traj.cfg, header_lines)
        for s in traj.snapshots:
            writer.write(s.t, s.q[0])
