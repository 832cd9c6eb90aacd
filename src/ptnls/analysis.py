"""Conserved-density timeseries and drift scans over trajectories.

Q(t) is the trapezoid integral of a cataloged density along a solver
trajectory.  The density is put on shell first: its t-jets are eliminated
through the catalog's E1/E2 (`PdeSystem.on_shell`), so it needs only the
x-jets the solver takes spectrally.  It is then evaluated through its
polynomial normal form (`to_poly`): coefficients in x, computed for every
member of a scan in one walk, times jet monomials and powers of t, formed
per block of samples (`DensityAccumulator`).  The drift of Q over a run,
normalized by max(|Q(0)|, 1e-12), is scanned over a grid of eps values;
because every cataloged euler residual carries a factor eps, the drift
should scale linearly, and the scan fits that exponent.  The eps = 0 run
sets the numerical noise floor: only members at least 10x above it enter
the fit, and at least four must qualify for the slope to be reported.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from html import escape
from typing import Optional, Sequence, Union

import numpy as np

from . import __version__
from .catalog import CaseId, Kind, load_catalog
from .jetexpr import EVAL_BLOCK_POINTS, Expr, Jet, JetBatch, Monomial, Var, eval_expr, to_poly
from .solver import (Gaussian, Grid, Sample, SolverConfig, Trajectory, fmt17, fmt17_array,
                     integrate, jet_values, stream_members)

__all__ = [
    "DensityUnavailableError", "DensityTimeseries", "DensityAccumulator", "DriftMember",
    "DriftReport",
    "density_expr", "density_timeseries", "drift_from_timeseries", "drift_scan",
    "default_scan_config", "fit_loglog_slope", "emit_report",
    "write_drift_csv", "write_slope_csv", "write_timeseries_csv",
    "DRIFT_CSV_HEADER", "SLOPE_CSV_HEADER",
]

DRIFT_CSV_HEADER = "case,kind,eps,mu,sigma,alpha,g,N,L,dt,T_final,Q0,drift_abs,drift_rel"
SLOPE_CSV_HEADER = "case,kind,slope,intercept,fit_residual,floor"
TIMESERIES_CSV_HEADER = "case,kind,form,eps,t,Q"

DRIFT_FLOOR_FACTOR = 10.0
SCAN_SAMPLE_INTERVAL = 0.05  # time between a scan's snapshots unless sample_every is given
MIN_FIT_MEMBERS = 4


@dataclass
class DensityTimeseries:
    case_id: CaseId
    kind: Kind
    form: str  # "Tt" or "PhiT"
    eps: float
    times: np.ndarray
    values: np.ndarray


class DensityUnavailableError(ValueError):
    """The requested density form is not cataloged for the block."""


@functools.cache
def density_expr(case_id: CaseId, kind: Kind, form: str) -> Expr:
    """The block's density in `form`, on shell; reduced once per process
    (the catalog is immutable)."""
    if form not in ("Tt", "PhiT"):
        raise ValueError(f"form must be 'Tt' or 'PhiT', got {form!r}")
    cv = load_catalog().conserved_vector(case_id, kind)
    if cv is None:
        raise DensityUnavailableError(
            f"no conserved density cataloged for {case_id.value}/{kind.value}")
    e = cv.Tt if form == "Tt" else cv.complex_density
    if e is None:
        raise DensityUnavailableError(
            f"form {form} is not cataloged for {case_id.value}/{kind.value}")
    return load_catalog().build_system(case_id).on_shell(e)


@functools.cache
def _density_poly(case_id: CaseId, kind: Kind, form: str) -> dict[Monomial, Expr]:
    """`density_expr`'s normal form (`to_poly`), built once per process."""
    return to_poly(density_expr(case_id, kind, form))


def _power(jets: dict, leaf: Jet, k: int, memo: dict) -> np.ndarray:
    """jets[leaf]^k by squaring, each power taken once per `memo`."""
    if k == 1:
        return jets[leaf]
    if (leaf, k) not in memo:
        half = _power(jets, leaf, k // 2, memo)
        memo[leaf, k] = half * half if k % 2 == 0 else half * half * jets[leaf]
    return memo[leaf, k]


def _monomial(jets: dict, mono: Monomial, memo: dict, shape: tuple[int, int]) -> np.ndarray:
    """The value of a jet monomial on the block's jets, ones for ()."""
    value = None
    for leaf, k in mono:
        f = _power(jets, leaf, k, memo)
        value = f if value is None else value * f
    return np.ones(shape) if value is None else value


def _integrands(jets: dict, classes, coeffs: list, shape: tuple[int, int]) -> dict:
    """{(kind index, power of t): sum_m C_m M_m} on one block's jets: each
    class of monomials, (monomials, uses), summed once and then multiplied
    by the member's coefficient array, (N,), of each (kind, power,
    coefficient index) in its uses.  Of the monomials, only the powers of
    single jets (u^2, u^4, ...) are kept through the block."""
    memo: dict = {}
    out: dict = {}
    tmp = None
    for monos, uses in classes:
        total = _monomial(jets, monos[0], memo, shape)
        for mono in monos[1:]:
            total = total + _monomial(jets, mono, memo, shape)
        for k, p, j in uses:
            if (k, p) in out:
                tmp = np.multiply(total, coeffs[j], out=tmp)
                out[k, p] += tmp
            else:
                out[k, p] = total * coeffs[j]
    return out


class DensityAccumulator:
    """Q(t_k) = dx * sum_j density(t_k, x_j, jets) of each kind's density for
    each member of a `stream_members` stream, fed one Sample at a time.  Each
    member's samples are buffered into blocks of EVAL_BLOCK_POINTS nodes; a
    full block is evaluated for every kind at once and dropped.

    A density is evaluated through its normal form (`to_poly`): coefficients
    C_{m,p}(x), free of jets and t, times jet monomials M_m times t^p.  Every
    coefficient of every kind is evaluated for every member in one
    `eval_expr` walk, on the grid's N nodes against an (members, 1) column
    of eps, with x and eps in np.longdouble; each member's row has the bits
    of a walk at its eps alone, and a coefficient whose 1/x^k terms cancel
    near x = 0 is rounded to float64 once, not term by term.  A block then
    takes only the x-orders the monomials read from `jet_values`, forms
    each distinct monomial once across the kinds, and gives
    Q_k = sum_p t_k^p integrate(sum_m C_{m,p} M_m), the monomials that
    share every coefficient (u^4 and v^4, say) summed once before they are
    multiplied, in elementwise products and sums (no BLAS call, whose
    rounding would depend on its thread count), so a row's bits do not
    depend on the block it is in.
    Memory is one block and the coefficient arrays per member, whatever
    T_final or the sample count, plus the Q values."""

    def __init__(self, cfg: SolverConfig, eps_values: Sequence[float],
                 kinds: Sequence[Kind], form: str = "Tt"):
        self.cfg, self.kinds, self.form = cfg, list(kinds), form
        # each jet monomial's uses over every kind, (kind, power of t,
        # coefficient index); monomials with the same uses share every
        # coefficient, so each such class is summed before it is multiplied
        coeffs: dict[Expr, int] = {}
        uses: dict[Monomial, list[tuple[int, int, int]]] = {}
        for k, kind in enumerate(self.kinds):
            for m, c in _density_poly(cfg.case_id, kind, form).items():
                p = m[0][1] if m and type(m[0][0]) is Var else 0  # t comes first
                uses.setdefault(m[1:] if p else m, []).append(
                    (k, p, coeffs.setdefault(c, len(coeffs))))
        classes: dict[tuple, list[Monomial]] = {}
        for m, u in uses.items():
            classes.setdefault(tuple(sorted(u)), []).append(m)
        self.classes = [(monos, u) for u, monos in classes.items()]
        # each kind's powers of t, ascending
        self.powers = [sorted({p for u in classes for kk, p, _ in u if kk == k})
                       for k in range(len(self.kinds))]
        self.orders = sorted({leaf.x_order for m in uses for leaf, _ in m})
        self.eps = [float(e) for e in eps_values]
        grid = cfg.grid
        at_nodes = JetBatch(np.zeros(grid.N), grid.x.astype(np.longdouble), {})
        column = cfg.params.replace(eps=np.array(self.eps, np.longdouble)[:, None])
        # row m of each (members, N) coefficient array is member m's
        walk = eval_expr(list(coeffs), at_nodes, column)
        self.coeffs = [[c[m] for c in walk] for m in range(len(self.eps))]
        rows = max(1, EVAL_BLOCK_POINTS // grid.N)
        self.block = np.empty((len(eps_values), rows, grid.N), complex)
        self.block_t = np.empty(rows)
        self.fill = 0  # samples in the current block
        self.members = ()  # the members of the last sample
        self.times: list[float] = []
        # blocks[m]: member m's evaluated blocks, each a Q array per kind
        self.blocks: list[list[list[np.ndarray]]] = [[] for _ in eps_values]

    def add(self, sample: Sample) -> None:
        self.block[sample.members, self.fill] = sample.q
        self.block_t[self.fill] = sample.t
        self.fill += 1
        self.times.append(sample.t)
        self.members = sample.members
        if self.fill == len(self.block_t):
            self._evaluate(self.members)

    def _evaluate(self, members) -> None:
        """Evaluate the current block of each of `members`, and empty it:
        Q_k = sum_p t_k^p integrate(sum_m C_{m,p} M_m) of each kind."""
        t, grid = self.block_t[:self.fill], self.cfg.grid
        for m in members if self.kinds else ():  # no kinds: no jets to take
            jets = jet_values(self.block[m, :self.fill], grid, self.orders)
            integrands = _integrands(jets, self.classes, self.coeffs[m], (self.fill, grid.N))
            out = []
            for k, powers in enumerate(self.powers):
                q, tp, power = np.zeros(self.fill), None, 0
                for p in powers:
                    while power < p:
                        tp, power = t if tp is None else tp * t, power + 1
                    s = integrate(grid, integrands[k, p])
                    q += tp * s if p else s
                out.append(q)
            self.blocks[m].append(out)
        self.fill = 0

    def series(self, errors: Sequence) -> list[Optional[list[DensityTimeseries]]]:
        """After the stream: for each member, one timeseries per kind, or
        None for a member whose slot in `errors` holds an error."""
        self._evaluate([m for m in self.members if errors[m] is None])
        times = np.array(self.times)
        return [None if errors[m] is not None else
                [DensityTimeseries(self.cfg.case_id, kind, self.form, eps, times,
                                   np.concatenate([b[k] for b in self.blocks[m]]))
                 for k, kind in enumerate(self.kinds)]
                for m, eps in enumerate(self.eps)]


def density_timeseries(traj: Trajectory, case_id: CaseId, kind: Kind,
                       form: str = "Tt") -> DensityTimeseries:
    """Q(t) along a collected trajectory: its snapshots, one-member Samples,
    fed as they are to a one-member DensityAccumulator.  No command calls
    it: the benchmark's tracer (`perfbench/tracing.py`) wraps it by name."""
    cfg = traj.cfg
    if case_id is not cfg.case_id:
        raise ValueError(f"trajectory was integrated for {cfg.case_id.value}, "
                         f"not {case_id.value}")
    densities = DensityAccumulator(cfg, [cfg.params.eps], [kind], form)
    for sample in traj.snapshots:
        densities.add(sample)
    [[series]] = densities.series([None])
    return series


def drift_from_timeseries(ts: DensityTimeseries) -> tuple[float, float]:
    """(absolute, relative) drift: max_t |Q(t) - Q(0)|, normalized by
    max(|Q(0)|, 1e-12)."""
    q0 = float(ts.values[0])
    drift_abs = float(np.max(np.abs(ts.values - q0)))
    return drift_abs, drift_abs / max(abs(q0), 1e-12)


@dataclass
class DriftMember:
    eps: float
    Q0: float = math.nan
    drift_abs: float = math.nan
    drift_rel: float = math.nan
    failed: bool = False
    error: str = ""  # text of the error that ended a failed member's run


@dataclass
class DriftReport:
    case_id: CaseId
    kind: Kind
    form: str
    cfg: SolverConfig
    members: tuple[DriftMember, ...]  # eps = 0 floor first, then ascending eps
    floor: float
    slope: Optional[float]
    intercept: Optional[float]
    fit_residual: Optional[float]
    fit_members: int
    sample_every: int  # steps between the snapshots the densities were taken at

    @property
    def slope_valid(self) -> bool:
        """Whether at least MIN_FIT_MEMBERS members rose above the floor, so
        a slope was fitted."""
        return self.slope is not None


def default_scan_config(case_id: CaseId) -> SolverConfig:
    """Initial data for scans: an off-center Gaussian.  Centering it would
    start the scan at a symmetry point where the first-order drift integral
    vanishes for the odd gain profiles, hiding the linear scaling.

    Suzuki's fourth-order composition steps at dt = 0.0125 on N = 256
    (energy floors 1.46e-7 on cases 1a and 1b, 1.34e-8 on case 2).  dt and
    N are chosen together: on N = 256 the spectral tail (the share of
    |q-hat|^2 beyond 2/3 of the largest wavenumber) stays below 5e-7 and
    the boundary level below 1e-8 (BOUNDARY_WARN), while at N = 512 the
    same dt = 0.0125 raises the boundary level to 2.4e-8 - 1.3e-7, over
    BOUNDARY_WARN, and N = 128 leaves tails of 6.6e-4 - 1.3e-3.  The
    stride of 4 steps keeps the snapshots at SCAN_SAMPLE_INTERVAL = 0.05
    exactly."""
    return SolverConfig(case_id=case_id, initial=Gaussian(1.0, 1.0, 0.5),
                        scheme="suzuki4", dt=0.0125, grid=Grid(N=256))


def _run_member(eps: float, result: Union[DensityTimeseries, Exception]) -> DriftMember:
    """The DriftMember of one member: its drift along its Q(t), or, if its
    run failed, the error text."""
    if isinstance(result, Exception):
        return DriftMember(eps, failed=True, error=str(result))
    drift_abs, drift_rel = drift_from_timeseries(result)
    return DriftMember(eps, float(result.values[0]), drift_abs, drift_rel)


def _qualifying(members: Sequence[DriftMember], floor: float) -> list[DriftMember]:
    return [m for m in members
            if not m.failed and m.eps > 0
            and m.drift_rel >= DRIFT_FLOOR_FACTOR * max(floor, 1e-300)
            and m.drift_rel > 0]


def drift_scan(case_id: CaseId, kinds: Sequence[Kind], eps_list: Sequence[float],
               cfg: Optional[SolverConfig] = None, form: str = "Tt",
               sample_every: Optional[int] = None) -> list[DriftReport]:
    """Run the solver at eps = 0 and at each eps in eps_list, all members
    stepped together once, evaluate the density of each kind in `kinds`
    along the way, and fit log(drift) against log(eps) over the members
    above the noise floor.  Returns one report per kind, in order.  Samples
    are `sample_every` steps apart, by default the nearest to
    SCAN_SAMPLE_INTERVAL whatever the time step; they are reduced block by
    block as the stream yields them (`DensityAccumulator`), so memory does
    not grow with the sample count.  A failed eps > 0 member is kept, marked
    failed; a failed eps = 0 floor run raises its error."""
    kinds = list(kinds)
    if not kinds:
        raise ValueError("need at least one kind")
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < MIN_FIT_MEMBERS:
        raise ValueError(f"need at least {MIN_FIT_MEMBERS} eps values")
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps values must be positive (the eps = 0 floor runs implicitly)")
    if sorted(eps_list) != eps_list:
        raise ValueError("eps values must be sorted ascending")
    if cfg is None:
        cfg = default_scan_config(case_id)
    if cfg.case_id is not case_id:
        raise ValueError("cfg.case_id does not match the scanned case")
    if sample_every is None:
        sample_every = max(1, round(SCAN_SAMPLE_INTERVAL / cfg.dt))
    eps_all = [0.0] + eps_list
    errors: list = [None] * len(eps_all)
    densities = DensityAccumulator(cfg, eps_all, kinds, form)  # a missing density fails here
    for sample in stream_members(cfg, eps_all, sample_every, errors):
        densities.add(sample)
    # without a floor there is no scan: its failure propagates as raised
    if errors[0] is not None:
        raise errors[0]
    series = densities.series(errors)
    reports = []
    for k, kind in enumerate(kinds):
        members = [_run_member(e, error or ts[k])
                   for e, error, ts in zip(eps_all, errors, series)]
        floor = members[0].drift_rel
        fit = _qualifying(members, floor)
        slope = intercept = residual = None
        if len(fit) >= MIN_FIT_MEMBERS:
            slope, intercept, residual = fit_loglog_slope(
                [m.eps for m in fit], [m.drift_rel for m in fit])
        reports.append(DriftReport(case_id, kind, form, cfg, tuple(members), floor,
                                   slope, intercept, residual, len(fit),
                                   sample_every))
    return reports


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    """Least squares of log(y) on log(x); returns (slope, intercept, rms
    residual).  Rejects non-positive data and fewer than two points."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 2:
        raise ValueError("need at least two points for a slope")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit requires strictly positive data")
    lx, ly = np.log(xs), np.log(ys)
    coeffs, res = np.polyfit(lx, ly, 1, full=True)[:2]
    rms = float(np.sqrt(res[0] / xs.size)) if len(res) else 0.0
    return float(coeffs[0]), float(coeffs[1]), rms


# ---------------------------------------------------------------------------
# report emission


def _config_lines(cfg: SolverConfig, extra: Sequence[str] = ()) -> list[str]:
    p = cfg.params
    return [
        f"version={__version__}",
        f"case={cfg.case_id.value}",
        f"eps={fmt17(p.eps)} mu={fmt17(p.mu)} sigma={fmt17(p.sigma)} alpha={fmt17(p.alpha)}"
        f" g={fmt17(p.g)}",
        f"N={cfg.grid.N} L={fmt17(cfg.grid.L)} dt={fmt17(cfg.dt)} T_final={fmt17(cfg.T_final)}"
        f" scheme={cfg.scheme}",
        f"initial={cfg.initial!r}",
        *extra,
    ]


def _write_comments(fh, reports: Sequence[DriftReport], header_lines: Sequence[str]) -> None:
    for rep in reports:
        for line in _config_lines(rep.cfg, [f"sample_every={rep.sample_every}"]):
            fh.write(f"# {line}\n")
    for line in header_lines:
        fh.write(f"# {line}\n")


def write_drift_csv(reports: Sequence[DriftReport], path,
                    header_lines: Sequence[str] = ()) -> None:
    """A failed member's row holds nan, after a `# failed` line with its error."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_comments(fh, reports, header_lines)
        fh.write(DRIFT_CSV_HEADER + "\n")
        for rep in reports:
            p = rep.cfg.params
            for m in rep.members:
                if m.failed:
                    fh.write(f"# failed eps={fmt17(m.eps)}: {m.error}\n")
                fh.write(",".join([
                    rep.case_id.value, rep.kind.value, fmt17(m.eps), fmt17(p.mu),
                    fmt17(p.sigma), fmt17(p.alpha), fmt17(p.g), str(rep.cfg.grid.N),
                    fmt17(rep.cfg.grid.L), fmt17(rep.cfg.dt), fmt17(rep.cfg.T_final),
                    fmt17(m.Q0), fmt17(m.drift_abs), fmt17(m.drift_rel)]) + "\n")


def write_slope_csv(reports: Sequence[DriftReport], path,
                    header_lines: Sequence[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_comments(fh, reports, header_lines)
        fh.write(SLOPE_CSV_HEADER + "\n")
        for rep in reports:
            if rep.slope_valid:
                row = [rep.case_id.value, rep.kind.value, fmt17(rep.slope),
                       fmt17(rep.intercept), fmt17(rep.fit_residual), fmt17(rep.floor)]
            else:
                row = [rep.case_id.value, rep.kind.value, "nan", "nan", "nan",
                       fmt17(rep.floor)]
            fh.write(",".join(row) + "\n")


def write_timeseries_csv(series: Sequence[DensityTimeseries], path,
                         header_lines: Sequence[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(TIMESERIES_CSV_HEADER + "\n")
        for ts in series:
            lead = ",".join([ts.case_id.value, ts.kind.value, ts.form, fmt17(ts.eps)])
            cols = fmt17_array(np.stack([ts.times, ts.values], axis=-1)).astype(str)
            for t, q in cols.reshape(-1, 2).tolist():
                fh.write(f"{lead},{t},{q}\n")


# SVG emission: hand-rolled line charts, 800x500, config embedded as metadata.

_SVG_W, _SVG_H = 800, 500
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 80, 30, 40, 60
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#e377c2", "#17becf")


def _xml(text: str) -> str:
    """SVG text and metadata with &, < and > escaped."""
    return escape(text, quote=False)


def _svg_open(title: str, meta_lines: Sequence[str]) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f"<metadata>{_xml(chr(10).join(meta_lines))}</metadata>",
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W / 2}" y="24" text-anchor="middle" font-size="16" '
        f'font-family="sans-serif">{_xml(title)}</text>',
    ]


class _Axes:
    """Linear mapping from data coordinates (already logged if need be) to
    the pixel frame, plus tick drawing."""

    def __init__(self, x0, x1, y0, y1):
        if x1 <= x0:
            x0, x1 = x0 - 0.5, x0 + 0.5
        if y1 <= y0:
            y0, y1 = y0 - 0.5, y0 + 0.5
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1

    def px(self, x: float) -> float:
        f = (x - self.x0) / (self.x1 - self.x0)
        return _MARGIN_L + f * (_SVG_W - _MARGIN_L - _MARGIN_R)

    def py(self, y: float) -> float:
        f = (y - self.y0) / (self.y1 - self.y0)
        return _SVG_H - _MARGIN_B - f * (_SVG_H - _MARGIN_T - _MARGIN_B)

    def frame(self, xlabel: str, ylabel: str) -> list[str]:
        left, right = _MARGIN_L, _SVG_W - _MARGIN_R
        top, bottom = _MARGIN_T, _SVG_H - _MARGIN_B
        return [
            f'<rect x="{left}" y="{top}" width="{right - left}" '
            f'height="{bottom - top}" fill="none" stroke="black"/>',
            f'<text x="{(left + right) / 2}" y="{_SVG_H - 15}" text-anchor="middle" '
            f'font-size="13" font-family="sans-serif">{_xml(xlabel)}</text>',
            f'<text x="20" y="{(top + bottom) / 2}" text-anchor="middle" font-size="13" '
            f'font-family="sans-serif" transform="rotate(-90 20 {(top + bottom) / 2})">'
            f"{_xml(ylabel)}</text>",
        ]

    def xticks(self, ticks, labels) -> list[str]:
        out = []
        for t, lab in zip(ticks, labels):
            x = self.px(t)
            y = _SVG_H - _MARGIN_B
            out.append(f'<line x1="{x:.1f}" y1="{y}" x2="{x:.1f}" y2="{y + 5}" stroke="black"/>')
            out.append(f'<text x="{x:.1f}" y="{y + 20}" text-anchor="middle" '
                       f'font-size="11" font-family="sans-serif">{_xml(lab)}</text>')
        return out

    def yticks(self, ticks, labels) -> list[str]:
        out = []
        for t, lab in zip(ticks, labels):
            y = self.py(t)
            out.append(f'<line x1="{_MARGIN_L - 5}" y1="{y:.1f}" x2="{_MARGIN_L}" '
                       f'y2="{y:.1f}" stroke="black"/>')
            out.append(f'<text x="{_MARGIN_L - 8}" y="{y + 4:.1f}" text-anchor="end" '
                       f'font-size="11" font-family="sans-serif">{_xml(lab)}</text>')
        return out


def _polyline(xs, ys, ax: _Axes, color: str, dash: str = "") -> str:
    pts = " ".join(f"{ax.px(x):.2f},{ax.py(y):.2f}" for x, y in zip(xs, ys))
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"{extra}/>'


def _decade_ticks(lo: float, hi: float) -> tuple[list[float], list[str]]:
    """Ticks of a log10 axis from lo to hi: the whole decades inside it, at
    most 13, or its two ends when it spans less than one decade."""
    if hi - lo < 1:
        return [lo, hi], [f"{10 ** v:.2e}" for v in (lo, hi)]
    d0, d1 = math.ceil(lo), math.floor(hi)
    decades = list(range(d0, d1 + 1, max(1, math.ceil((d1 - d0) / 12))))
    return [float(d) for d in decades], [f"1e{d:+d}" for d in decades]


def _linear_ticks(lo: float, hi: float, n: int = 6) -> tuple[list[float], list[str]]:
    ticks = np.linspace(lo, hi, n)
    return list(map(float, ticks)), [f"{t:.3g}" for t in ticks]


def write_drift_svg(report: DriftReport, path,
                    header_lines: Sequence[str] = ()) -> None:
    """Log-log drift chart: members as a marked line, noise floor dashed,
    fitted power law overlaid when valid.  With every eps > 0 member failed
    only the floor is drawn, over the scanned eps values."""
    ok = [m for m in report.members if not m.failed and m.eps > 0]
    lx = np.log10([m.eps for m in ok or report.members[1:]])
    ly = np.log10([max(m.drift_rel, 1e-300) for m in ok])
    floor_y = math.log10(max(report.floor, 1e-300))
    ymin = float(ly.min(initial=floor_y)) - 0.3
    ymax = float(ly.max() if ok else floor_y) + 0.3
    ax = _Axes(float(lx.min()) - 0.1, float(lx.max()) + 0.1, ymin, ymax)

    parts = _svg_open(
        f"drift vs eps: {report.case_id.value} {report.kind.value} ({report.form})",
        _config_lines(report.cfg, extra=[f"sample_every={report.sample_every}",
                                         *header_lines]))
    parts += ax.frame("eps", "relative drift")
    parts += ax.xticks(*_decade_ticks(ax.x0, ax.x1))
    parts += ax.yticks(*_decade_ticks(ax.y0, ax.y1))
    parts.append(_polyline([ax.x0, ax.x1], [floor_y, floor_y], ax, "#888888", dash="6,4"))
    if ok:
        parts.append(_polyline(lx, ly, ax, _COLORS[0]))
    for x, y in zip(lx, ly):
        parts.append(f'<circle cx="{ax.px(x):.2f}" cy="{ax.py(y):.2f}" r="3" '
                     f'fill="{_COLORS[0]}"/>')
    if report.slope_valid:
        ordinate = [(report.slope * math.log(10 ** t) + report.intercept) / math.log(10)
                    for t in (ax.x0, ax.x1)]
        parts.append(_polyline([ax.x0, ax.x1], ordinate, ax, _COLORS[1], dash="2,3"))
        parts.append(f'<text x="{_SVG_W - _MARGIN_R - 10}" y="{_MARGIN_T + 20}" '
                     f'text-anchor="end" font-size="12" font-family="sans-serif">'
                     f"slope = {report.slope:.3f}</text>")
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def write_timeseries_svg(series: Sequence[DensityTimeseries], path,
                         header_lines: Sequence[str] = ()) -> None:
    """Q(t) per series, linear axes, one color per eps/form."""
    if not series:
        raise ValueError("no timeseries to plot")
    tmin = min(float(ts.times.min()) for ts in series)
    tmax = max(float(ts.times.max()) for ts in series)
    qmin = min(float(ts.values.min()) for ts in series)
    qmax = max(float(ts.values.max()) for ts in series)
    pad = 0.05 * max(qmax - qmin, 1e-12)
    ax = _Axes(tmin, tmax, qmin - pad, qmax + pad)

    first = series[0]
    parts = _svg_open(
        f"Q(t): {first.case_id.value} {first.kind.value}", list(header_lines))
    parts += ax.frame("t", "Q")
    parts += ax.xticks(*_linear_ticks(ax.x0, ax.x1))
    parts += ax.yticks(*_linear_ticks(ax.y0, ax.y1))
    for i, ts in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        parts.append(_polyline(ts.times, ts.values, ax, color))
        parts.append(f'<text x="{_MARGIN_L + 10}" y="{_MARGIN_T + 16 + 14 * i}" '
                     f'font-size="11" font-family="sans-serif" fill="{color}">'
                     f"{_xml(f'{ts.form} eps={ts.eps:g}')}</text>")
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def emit_report(reports: Sequence, out_dir, stem: str = "drift",
                header_lines: Sequence[str] = ()) -> list[str]:
    """Write DriftReports (drift + slope tables, one chart per report) or
    DensityTimeseries (a long table and one chart) as CSV, then SVG.
    Returns the written paths."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    timeseries = [r for r in reports if isinstance(r, DensityTimeseries)]
    drifts = [r for r in reports if isinstance(r, DriftReport)]
    if timeseries:
        p = os.path.join(out_dir, f"{stem}_timeseries.csv")
        write_timeseries_csv(timeseries, p, header_lines)
        paths.append(p)
    if drifts or not timeseries:
        p = os.path.join(out_dir, f"{stem}.csv")
        write_drift_csv(drifts, p, header_lines)
        paths.append(p)
        p = os.path.join(out_dir, f"{stem}_slopes.csv")
        write_slope_csv(drifts, p, header_lines)
        paths.append(p)
    if timeseries:
        p = os.path.join(out_dir, f"{stem}_timeseries.svg")
        write_timeseries_svg(timeseries, p, header_lines)
        paths.append(p)
    for rep in drifts:
        p = os.path.join(out_dir, f"{stem}_{rep.case_id.value}_{rep.kind.value}.svg")
        write_drift_svg(rep, p, header_lines)
        paths.append(p)
    return paths
