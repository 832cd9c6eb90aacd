"""Machine checks of the cataloged identities.

Three layers, in increasing independence from the symbolic engine:

  * ``check_residual``: the euler residual of Q1*E1 + Q2*E2, computed by the
    engine, is compared against the cataloged target expression at random
    jet points, and its magnitude is fitted against eps on a log-log grid.
  * ``check_divergence``: where a complete conserved vector (Tt, Tx) is
    cataloged, D_t Tt + D_x Tx is compared with Q.E off solutions.  The
    relation is measured with both orientations (the transcribed vectors
    satisfy it with an overall sign that differs between blocks), and the
    surviving orientation is reported rather than assumed.
  * ``independent_variational_check``: a finite-difference variational
    derivative that never touches euler_operator or total_derivative: embed
    u + s*phi for compactly supported bumps phi, differentiate the action
    integral in s numerically, and recover the pointwise variational
    derivative by polynomial collocation against many bumps.

Raw-vs-corrected readings: every check consults the raw catalog for the
slots it used and attaches a comparison, so the handful of documented
corrections stay visible in the reports they affect.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, Optional

import numpy as np

from .analysis import fit_loglog_slope
from .catalog import CaseId, Catalog, Kind, PdeSystem, load_catalog
from .jetexpr import (EVAL_BLOCK_POINTS, Expr, Jet, JetBatch, JetPoint, JetSampler,
                      ParamValues, add, complete_coords, euler_operator, eval_expr,
                      expr_equiv, mul, sub, total_derivative)

__all__ = [
    "FluxUnavailableError", "ResidualReport", "DivergenceReport", "RawComparison",
    "OracleResult", "euler_residual", "check_residual",
    "divergence_residual", "check_divergence", "independent_variational_check",
    "EPS_GRID", "complete_point",
]

# eps grid for slope fits: log-spaced, close to zero but far above roundoff
EPS_GRID = tuple(np.logspace(-3, -1, 7))

_EULER_MAX_ORDER = 6  # Q.E has order 2; euler intermediates reach 2*2, plus headroom


class FluxUnavailableError(Exception):
    """No complete (Tt, Tx) pair is cataloged for the requested block."""


@dataclass(frozen=True)
class RawComparison:
    """How a slot's as-displayed reading relates to the corrected one."""

    slot: str
    parses: bool
    error: Optional[str] = None
    matches_corrected: Optional[bool] = None
    worst_rel_error: Optional[float] = None
    note: str = ""


@dataclass
class ResidualReport:
    case_id: CaseId
    kind: Kind
    match: bool
    n: int
    tol: float
    worst_rel_error: float
    worst_point: Optional[JetPoint]
    epsilon_slope: float
    slope_fit_residual: float
    target_derived: bool
    residual_u: Expr
    residual_v: Expr
    raw_comparisons: tuple[RawComparison, ...] = ()

    def as_record(self) -> dict:
        return {
            "check": "euler-residual",
            "case": self.case_id.value,
            "kind": self.kind.value,
            "match": self.match,
            "n": self.n,
            "tol": self.tol,
            "worst_rel_error": self.worst_rel_error,
            "worst_point": self.worst_point.named() if self.worst_point else None,
            "epsilon_slope": self.epsilon_slope,
            "slope_fit_residual": self.slope_fit_residual,
            "target_derived": self.target_derived,
            "raw_comparisons": [asdict(rc) for rc in self.raw_comparisons],
        }


@dataclass
class DivergenceReport:
    case_id: CaseId
    kind: Kind
    zero_at_eps0: bool
    orientation: int  # +1: divergence == +Q.E at eps=0; -1: == -Q.E
    worst_rel_error: float
    n: int
    tol: float
    leading_order: float
    slope_fit_residual: float
    discrepancy_terms: tuple[tuple[JetPoint, float], ...]
    raw_comparisons: tuple[RawComparison, ...] = ()

    def as_record(self) -> dict:
        return {
            "check": "divergence",
            "case": self.case_id.value,
            "kind": self.kind.value,
            "zero_at_eps0": self.zero_at_eps0,
            "orientation": self.orientation,
            "worst_rel_error": self.worst_rel_error,
            "n": self.n,
            "tol": self.tol,
            "leading_order": self.leading_order,
            "slope_fit_residual": self.slope_fit_residual,
            "discrepancies": [{"point": p.named(), "value": v}
                              for p, v in self.discrepancy_terms],
            "raw_comparisons": [asdict(rc) for rc in self.raw_comparisons],
        }


def _q_dot_e(q1: Expr, q2: Expr, system: PdeSystem) -> Expr:
    """The action Q1*E1 + Q2*E2 of a multiplier pair on a split system."""
    return add(mul(q1, system.E1), mul(q2, system.E2))


def _eps_slope(exprs: tuple[Expr, ...], sampler: JetSampler,
               order: int) -> tuple[float, float]:
    """(slope, rms residual) of the log-log fit of max |e| over `exprs` and
    50 fixed jet points against eps on EPS_GRID."""
    batch = sampler.batch(50, order)
    mags = []
    for eps in EPS_GRID:
        params = ParamValues(eps=float(eps))
        mags.append(max(float(np.max(np.abs(eval_expr(e, batch, params))))
                        for e in exprs))
    slope, _, fit_res = fit_loglog_slope(EPS_GRID, mags)
    return slope, fit_res


def euler_residual(case, kind: Kind) -> tuple[Expr, Expr]:
    """euler_operator(Q1*E1 + Q2*E2) for one case and multiplier kind."""
    cat = load_catalog()
    mult = cat.multiplier(kind)
    action = _q_dot_e(mult.Q1, mult.Q2, cat.build_system(case))
    return euler_operator(action, max_order=_EULER_MAX_ORDER)


def _raw_target_comparisons(cat: Catalog, case_id: CaseId, kind: Kind,
                            computed: tuple[Expr, Expr], n: int) -> list[RawComparison]:
    out = []
    for slot, comp in (("Ru", computed[0]), ("Rv", computed[1])):
        rec = cat.raw_reading(case_id, kind, slot)
        if rec is None:
            continue
        if rec.expr is None:
            out.append(RawComparison(slot, False, error=rec.error,
                                     note="as-displayed text is not grammatical"))
            continue
        res = expr_equiv(comp, rec.expr, n=n)
        out.append(RawComparison(slot, True, matches_corrected=res.equal,
                                 worst_rel_error=res.worst_rel_error,
                                 note="as-displayed reading vs engine residual"))
    # the case-1c energy block header carries the charge multipliers; applying
    # them reproduces the other block's target, which is the whole discrepancy
    raw_q1 = cat.raw_reading(case_id, kind, "Q1")
    if raw_q1 is not None and raw_q1.expr is not None:
        raw_q2 = cat.raw_reading(case_id, kind, "Q2")
        action = _q_dot_e(raw_q1.expr, raw_q2.expr, cat.build_system(case_id))
        ru_raw, rv_raw = euler_operator(action, max_order=_EULER_MAX_ORDER)
        stated = cat.residual_target(case_id, kind)
        res_u = expr_equiv(ru_raw, stated.Ru, n=n)
        res_v = expr_equiv(rv_raw, stated.Rv, n=n)
        matches = bool(res_u.equal and res_v.equal)
        note = "residual from the block-header multipliers vs this block's target"
        if not matches:
            other = Kind.CHARGE if kind is Kind.ENERGY else Kind.ENERGY
            tgt = cat.residual_target(case_id, other)
            ou = expr_equiv(ru_raw, tgt.Ru, n=n)
            ov = expr_equiv(rv_raw, tgt.Rv, n=n)
            if ou.equal and ov.equal:
                note += f"; it reproduces the {other.value} target instead"
        out.append(RawComparison(
            "Q1/Q2", True, matches_corrected=matches,
            worst_rel_error=max(res_u.worst_rel_error, res_v.worst_rel_error),
            note=note))
    return out


def check_residual(case_id: CaseId, kind: Kind, n: int = 100, tol: float = 1e-10,
                   seed: int = 0) -> ResidualReport:
    """Compare the engine's euler residual against the cataloged target and
    fit its magnitude against eps."""
    cat = load_catalog()
    ru, rv = euler_residual(case_id, kind)
    target = cat.residual_target(case_id, kind)

    sampler = JetSampler(seed=seed)
    res_u = expr_equiv(ru, target.Ru, n=n, tol=tol, sampler=sampler)
    res_v = expr_equiv(rv, target.Rv, n=n, tol=tol, sampler=sampler)
    worse = res_u if res_u.worst_rel_error >= res_v.worst_rel_error else res_v

    # the residuals carry a factor eps, so the fitted exponent should be 1
    # to roundoff
    slope, fit_res = _eps_slope((ru, rv), sampler, max(ru.order, rv.order))

    return ResidualReport(
        case_id=case_id, kind=kind,
        match=bool(res_u.equal and res_v.equal),
        n=n, tol=tol,
        worst_rel_error=max(res_u.worst_rel_error, res_v.worst_rel_error),
        worst_point=worse.witness,
        epsilon_slope=slope, slope_fit_residual=fit_res,
        target_derived=target.derived,
        residual_u=ru, residual_v=rv,
        raw_comparisons=tuple(_raw_target_comparisons(cat, case_id, kind, (ru, rv), n)),
    )


def divergence_residual(case_id: CaseId, kind: Kind) -> tuple[Expr, Expr]:
    """(D_t Tt + D_x Tx, Q1*E1 + Q2*E2) as expressions on the jet space."""
    cat = load_catalog()
    cv = cat.conserved_vector(case_id, kind)
    if cv is None or cv.Tx is None:
        raise FluxUnavailableError(
            f"no complete (Tt, Tx) pair is cataloged for {case_id.value}/{kind.value}")
    divergence = add(total_derivative(cv.Tt, "t", max_order=_EULER_MAX_ORDER),
                     total_derivative(cv.Tx, "x", max_order=_EULER_MAX_ORDER))
    mult = cat.multiplier(kind)
    return divergence, _q_dot_e(mult.Q1, mult.Q2, cat.build_system(case_id))


def _raw_vector_comparisons(cat: Catalog, case_id: CaseId, kind: Kind, n: int) -> list[RawComparison]:
    out = []
    for slot in ("Tt", "Tx", "PhiT"):
        rec = cat.raw_reading(case_id, kind, slot)
        if rec is None:
            continue
        if rec.expr is None:
            out.append(RawComparison(slot, False, error=rec.error,
                                     note="as-displayed text is not grammatical"))
            continue
        corrected = cat.corrected_reading(case_id, kind, slot)
        res = expr_equiv(rec.expr, corrected.expr, n=n)
        out.append(RawComparison(slot, True, matches_corrected=res.equal,
                                 worst_rel_error=res.worst_rel_error,
                                 note="as-displayed reading vs corrected reading"))
    return out


def check_divergence(case_id: CaseId, kind: Kind, n: int = 100, tol: float = 1e-9,
                     seed: int = 0) -> DivergenceReport:
    """Measure D_t Tt + D_x Tx against +/- Q.E at eps=0, then fit the
    surviving residual's magnitude against eps."""
    cat = load_catalog()
    divergence, qe = divergence_residual(case_id, kind)
    order = max(divergence.order, qe.order)
    sampler = JetSampler(seed=seed)
    batch = sampler.batch(n, order)

    p0 = ParamValues(eps=0.0)
    dv = np.asarray(eval_expr(divergence, batch, p0), dtype=float)
    qv = np.asarray(eval_expr(qe, batch, p0), dtype=float)
    scale = np.maximum(1.0, np.maximum(np.abs(dv), np.abs(qv)))
    err_minus = np.abs(dv - qv) / scale
    err_plus = np.abs(dv + qv) / scale
    if float(np.max(err_minus)) <= float(np.max(err_plus)):
        orientation, errs = 1, err_minus
    else:
        orientation, errs = -1, err_plus
    worst = float(np.max(errs))
    zero_at_eps0 = bool(worst <= tol)

    discrepancies = ()
    if not zero_at_eps0:
        top = np.argsort(errs)[-3:][::-1]
        discrepancies = tuple((batch.point(int(i)), float(errs[int(i)])) for i in top)

    residual = sub(divergence, qe) if orientation == 1 else add(divergence, qe)
    slope, fit_res = _eps_slope((residual,), sampler, order)

    return DivergenceReport(
        case_id=case_id, kind=kind, zero_at_eps0=zero_at_eps0,
        orientation=orientation, worst_rel_error=worst, n=n, tol=tol,
        leading_order=slope, slope_fit_residual=fit_res,
        discrepancy_terms=discrepancies,
        raw_comparisons=tuple(_raw_vector_comparisons(cat, case_id, kind, n)),
    )


# ---------------------------------------------------------------------------
# independent variational oracle


def complete_point(p: JetPoint, order: int) -> JetPoint:
    """Extend a jet point with zeros up to `order` (a polynomial background
    of low degree has vanishing higher derivatives)."""
    if order < p.order:
        raise ValueError("cannot reduce a jet point's order")
    values = dict(p.values)
    for c in complete_coords(order):
        values.setdefault(c, 0.0)
    return JetPoint(p.t, p.x, order, values)


_BUMP_WIDTH = 0.15
_DRAW_LOW = (-0.05, -0.05, 0.7, 0.7)
_DRAW_HIGH = (0.05, 0.05, 1.3, 1.3)
# monomial exponents of the quartic collocation model; bumps stay within
# ~0.25 of p, so the degree-5 model remainder is far below 1e-4
_POWERS = [(i, j) for i in range(5) for j in range(5 - i)]


def _bump(z: np.ndarray) -> np.ndarray:
    w = np.clip(1.0 - z * z, 0.0, None)
    return w ** 3


def _bump_d1(z: np.ndarray) -> np.ndarray:
    w = np.clip(1.0 - z * z, 0.0, None)
    return -6.0 * z * w ** 2


def _bump_d2(z: np.ndarray) -> np.ndarray:
    w = np.clip(1.0 - z * z, 0.0, None)
    return -6.0 * w ** 2 + 24.0 * z * z * w


@dataclass
class OracleResult:
    du: float
    dv: float
    engine_du: float
    engine_dv: float
    rel_error: float

    def __iter__(self):
        yield self.du
        yield self.dv


class _PolyBackground:
    """Polynomial fields u0, v0 whose Taylor jets at (t0, x0) equal a given
    jet point; degree = the point's order, so the point determines the full
    jet of the background there (higher derivatives vanish)."""

    def __init__(self, point: JetPoint):
        self.t0, self.x0 = point.t, point.x
        self.degree = max((c.order for c in point.values), default=0)
        self.coeff = {"u": {}, "v": {}}
        for c, val in point.values.items():
            self.coeff[c.dep][(c.t_order, c.x_order)] = (
                val / (math.factorial(c.t_order) * math.factorial(c.x_order)))

    def jets(self, t: np.ndarray, x: np.ndarray,
             coords: Iterable[Jet]) -> dict[Jet, np.ndarray]:
        """(d/dt)^i (d/dx)^j of the field at each coordinate, exactly; the
        powers of t - t0 and x - x0 are taken once for all coordinates, each
        at the shape of its own argument, so t and x given as broadcastable
        factors (a column and a row of a tensor grid) give tables of that
        size, and only the products are the broadcast shape."""
        dt, dx = t - self.t0, x - self.x0
        tp = [dt ** k for k in range(self.degree + 1)]
        xp = [dx ** k for k in range(self.degree + 1)]
        out = {}
        for coord in coords:
            i, j = coord.t_order, coord.x_order
            val = np.zeros_like(dt)
            for (p, q), c in self.coeff[coord.dep].items():
                if p < i or q < j:
                    continue
                fac = (math.factorial(p) // math.factorial(p - i)
                       * math.factorial(q) // math.factorial(q - j))
                val = val + c * fac * tp[p - i] * xp[q - j]
            out[coord] = val
        return out


def _bump_block(e: Expr, params: ParamValues, bg: _PolyBackground, dep: str,
                p: JetPoint, draws: np.ndarray, quad: tuple[np.ndarray, np.ndarray],
                fd_step: float) -> tuple[np.ndarray, np.ndarray]:
    """Collocation rows and stencil derivatives of the action for a block of
    bumps on the (nodes, weights) Gauss-Legendre rule `quad`; row k of
    `draws` is bump k's (t offset, x offset, t width factor, x width factor).

    Bump k's tensor grid is slice k of (bumps, quad_n, quad_n) arrays, t
    along axis 1 and x along axis 2.  A factor of t alone is a
    (bumps, quad_n, 1) array and one of x alone a (bumps, 1, quad_n) array,
    so it is computed on quad_n points and broadcasting builds the products.
    Integrals sum each bump's grid as one C-order row of quad_n^2 values."""
    quad_nodes, quad_weights = quad
    bumps = len(draws)
    tc, xc = p.t + draws[:, 0, None, None], p.x + draws[:, 1, None, None]
    wt, wx = _BUMP_WIDTH * draws[:, 2, None, None], _BUMP_WIDTH * draws[:, 3, None, None]
    T = tc + wt * quad_nodes[:, None]
    X = xc + wx * quad_nodes[None, :]
    w2d = np.outer(quad_weights, quad_weights) * wt * wx

    def row_sums(f: np.ndarray) -> np.ndarray:
        return np.sum(f.reshape(bumps, -1), axis=-1)

    zt, zx = (T - tc) / wt, (X - xc) / wx
    gt, gx = _bump(zt), _bump(zx)
    # float_power is the C library's pow, as Python's float `**` is; numpy's
    # `**` squares by multiplication, which rounds differently in the last bit
    wt2, wx2 = np.float_power(wt, 2), np.float_power(wx, 2)
    phi_jets = {
        (0, 0): gt * gx,
        (1, 0): _bump_d1(zt) / wt * gx,
        (0, 1): gt * _bump_d1(zx) / wx,
        (2, 0): _bump_d2(zt) / wt2 * gx,
        (1, 1): _bump_d1(zt) / wt * _bump_d1(zx) / wx,
        (0, 2): gt * _bump_d2(zx) / wx2,
    }
    background = bg.jets(T, X, complete_coords(2))

    def action(s: float) -> np.ndarray:
        values = dict(background)
        for (i, j), phi in phi_jets.items():
            c = Jet(dep, i, j)
            values[c] = background[c] + s * phi
        vals = np.asarray(eval_expr(e, JetBatch(T, X, 2, values), params), dtype=float)
        return row_sums(w2d * vals)

    h = fd_step
    rhs = (-action(2 * h) + 8 * action(h) - 8 * action(-h) + action(-2 * h)) / (12 * h)
    tp = [(T - p.t) ** i for i in range(5)]
    xp = [(X - p.x) ** j for j in range(5)]
    rows = np.stack([row_sums(w2d * (tp[i] * xp[j]) * phi_jets[(0, 0)])
                     for i, j in _POWERS], axis=-1)
    return rows, rhs


def independent_variational_check(e: Expr, p: JetPoint,
                                  params: Optional[ParamValues] = None,
                                  n_bumps: int = 20, quad_n: int = 24,
                                  fd_step: float = 1e-2, seed: int = 0) -> OracleResult:
    """Pointwise variational derivatives (delta e/delta u, delta e/delta v)
    at p, computed without the symbolic euler machinery.

    Method: realize p as a polynomial background, perturb one field by
    s*phi for compactly supported C^2 bumps phi, differentiate the action
    integral over the bump support in s by a 5-point stencil, and recover
    the value at (p.t, p.x) by least-squares collocation of a quartic model
    of the variational derivative against the bump integrals.  The bumps
    are stacked, up to EVAL_BLOCK_POINTS quadrature points per block, so e
    is evaluated once per stencil point and block.  The t and x nodes stay
    separate factors of each bump's tensor grid, (bumps, quad_n, 1) and
    (bumps, 1, quad_n), so a subexpression of t or x alone is evaluated on
    quad_n points per bump and only the products fill the grid; the
    Gauss-Legendre rule is computed once per call.
    """
    if e.order > 2:
        raise ValueError("oracle requires jet order <= 2")
    if params is None:
        params = ParamValues()
    rng = np.random.default_rng(seed)
    bg = _PolyBackground(p)

    engine_u, engine_v = euler_operator(e, max_order=2 * e.order if e.order else 2)
    point4 = complete_point(p, max(p.order, max(engine_u.order, engine_v.order, 1)))
    engine_vals = {"u": eval_expr(engine_u, point4, params),
                   "v": eval_expr(engine_v, point4, params)}

    quad = np.polynomial.legendre.leggauss(quad_n)
    per_block = max(1, EVAL_BLOCK_POINTS // quad_n ** 2)
    results = {}
    for dep in ("u", "v"):
        # bump by bump: t offset, x offset, t width factor, x width factor
        draws = rng.uniform(_DRAW_LOW, _DRAW_HIGH, size=(n_bumps, 4))
        blocks = [_bump_block(e, params, bg, dep, p, draws[lo:lo + per_block],
                              quad, fd_step)
                  for lo in range(0, n_bumps, per_block)]
        rows, rhs = (np.concatenate(parts) for parts in zip(*blocks))
        coeffs, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
        results[dep] = float(coeffs[0])

    scale = max(1.0, abs(engine_vals["u"]), abs(engine_vals["v"]))
    rel = max(abs(results["u"] - engine_vals["u"]),
              abs(results["v"] - engine_vals["v"])) / scale
    return OracleResult(results["u"], results["v"],
                        engine_vals["u"], engine_vals["v"], rel)
