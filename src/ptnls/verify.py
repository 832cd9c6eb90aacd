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
    u + s*phi, then v + s*phi, for one set of compactly supported bumps phi,
    differentiate the action integral in s numerically, and recover both
    pointwise variational derivatives by polynomial collocation against the
    bumps, in one least-squares solve.  Bumps are separable, a t-factor
    times an x-factor, so the collocation integrals are products of 1-D
    quadrature sums.

Raw-vs-corrected readings: every check consults the raw catalog for the
slots it used and attaches a comparison (one loop over (slot, reference,
note) for the slot readings, and one for the block header's Q1/Q2), so
the handful of documented corrections stay visible in the reports they
affect.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Iterable, Optional

import numpy as np

from .analysis import fit_loglog_slope
from .catalog import CaseId, Catalog, Kind, PdeSystem, load_catalog
from .jetexpr import (DEPENDENTS, EVAL_BLOCK_POINTS, Expr, Jet, JetBatch, JetSampler,
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
    worst_point: Optional[JetBatch]  # a batch of one
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
            "worst_point": self.worst_point.named() if self.worst_point is not None else None,
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
    discrepancy_terms: tuple[tuple[JetBatch, float], ...]  # (a batch of one, error)
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


# every eps of EPS_GRID at once, one row each: an expression evaluated with
# these parameters gives one row of values per eps
_EPS_SWEEP = ParamValues(eps=np.array(EPS_GRID)[:, None])


def _eps_slope(exprs: tuple[Expr, ...], seed: int) -> tuple[float, float]:
    """(slope, rms residual) of the log-log fit of max |e| over `exprs` and
    50 seeded jet points of their jet order against eps on EPS_GRID.  The
    expressions are evaluated in one walk, on the sweep's (eps, point) grid;
    row k holds the values of one evaluation at the k-th eps, bit for bit,
    so the fit is that of a loop over EPS_GRID."""
    batch = JetSampler(seed).batch(50, max(e.order for e in exprs))
    mags = np.maximum.reduce([np.max(np.abs(v), axis=1)
                              for v in eval_expr(exprs, batch, _EPS_SWEEP)])
    slope, _, fit_res = fit_loglog_slope(EPS_GRID, mags)
    return slope, fit_res


def euler_residual(case, kind: Kind) -> tuple[Expr, Expr]:
    """euler_operator(Q1*E1 + Q2*E2) for one case and multiplier kind."""
    cat = load_catalog()
    mult = cat.multiplier(kind)
    action = _q_dot_e(mult.Q1, mult.Q2, cat.build_system(case))
    return euler_operator(action, max_order=_EULER_MAX_ORDER)


def _raw_comparisons(cat: Catalog, case_id: CaseId, kind: Kind,
                     refs: Iterable[tuple[str, Expr, str]], n: int,
                     seed: int) -> list[RawComparison]:
    """For each (slot, reference expression, note) of `refs` whose slot has
    an as-displayed reading in the block: that reading compared with the
    reference."""
    out = []
    for slot, ref, note in refs:
        rec = cat.raw_reading(case_id, kind, slot)
        if rec is None:
            continue
        if rec.expr is None:
            out.append(RawComparison(slot, False, error=rec.error,
                                     note="as-displayed text is not grammatical"))
            continue
        res = expr_equiv(rec.expr, ref, n=n, seed=seed)
        out.append(RawComparison(slot, True, matches_corrected=res.equal,
                                 worst_rel_error=res.worst_rel_error, note=note))
    return out


def _raw_target_comparisons(cat: Catalog, case_id: CaseId, kind: Kind,
                            computed: tuple[Expr, Expr], n: int,
                            seed: int) -> list[RawComparison]:
    note = "as-displayed reading vs engine residual"
    out = _raw_comparisons(cat, case_id, kind,
                           (("Ru", computed[0], note), ("Rv", computed[1], note)), n, seed)
    # the case-1c energy block header carries the charge multipliers; applying
    # them reproduces the other block's target, which is the whole discrepancy
    raw_q1 = cat.raw_reading(case_id, kind, "Q1")
    if raw_q1 is not None and raw_q1.expr is not None:
        raw_q2 = cat.raw_reading(case_id, kind, "Q2")
        action = _q_dot_e(raw_q1.expr, raw_q2.expr, cat.build_system(case_id))
        ru_raw, rv_raw = euler_operator(action, max_order=_EULER_MAX_ORDER)
        stated = cat.residual_target(case_id, kind)
        res_u = expr_equiv(ru_raw, stated.Ru, n=n, seed=seed)
        res_v = expr_equiv(rv_raw, stated.Rv, n=n, seed=seed)
        matches = bool(res_u.equal and res_v.equal)
        note = "residual from the block-header multipliers vs this block's target"
        if not matches:
            other = Kind.CHARGE if kind is Kind.ENERGY else Kind.ENERGY
            tgt = cat.residual_target(case_id, other)
            ou = expr_equiv(ru_raw, tgt.Ru, n=n, seed=seed)
            ov = expr_equiv(rv_raw, tgt.Rv, n=n, seed=seed)
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

    res_u = expr_equiv(ru, target.Ru, n=n, tol=tol, seed=seed)
    res_v = expr_equiv(rv, target.Rv, n=n, tol=tol, seed=seed)
    worse = res_u if res_u.worst_rel_error >= res_v.worst_rel_error else res_v

    # the residuals carry a factor eps, so the fitted exponent should be 1
    # to roundoff
    slope, fit_res = _eps_slope((ru, rv), seed)

    return ResidualReport(
        case_id=case_id, kind=kind,
        match=bool(res_u.equal and res_v.equal),
        n=n, tol=tol,
        worst_rel_error=max(res_u.worst_rel_error, res_v.worst_rel_error),
        worst_point=worse.witness,
        epsilon_slope=slope, slope_fit_residual=fit_res,
        target_derived=target.derived,
        residual_u=ru, residual_v=rv,
        raw_comparisons=tuple(_raw_target_comparisons(cat, case_id, kind, (ru, rv), n, seed)),
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


def check_divergence(case_id: CaseId, kind: Kind, n: int = 100, tol: float = 1e-9,
                     seed: int = 0) -> DivergenceReport:
    """Measure D_t Tt + D_x Tx against +/- Q.E at eps=0, then fit the
    surviving residual's magnitude against eps."""
    cat = load_catalog()
    divergence, qe = divergence_residual(case_id, kind)
    batch = JetSampler(seed).batch(n, max(divergence.order, qe.order))

    dv, qv = eval_expr([divergence, qe], batch, ParamValues(eps=0.0))
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
    slope, fit_res = _eps_slope((residual,), seed)
    note = "as-displayed reading vs corrected reading"
    refs = [(slot, rec.expr, note) for slot in ("Tt", "Tx", "PhiT")
            if (rec := cat.corrected_reading(case_id, kind, slot)) is not None]

    return DivergenceReport(
        case_id=case_id, kind=kind, zero_at_eps0=zero_at_eps0,
        orientation=orientation, worst_rel_error=worst, n=n, tol=tol,
        leading_order=slope, slope_fit_residual=fit_res,
        discrepancy_terms=discrepancies,
        raw_comparisons=tuple(_raw_comparisons(cat, case_id, kind, refs, n, seed)),
    )


# ---------------------------------------------------------------------------
# independent variational oracle


def complete_point(p: JetBatch, order: int) -> JetBatch:
    """Extend a jet point, a batch of one, with zeros up to `order` (a
    polynomial background of low degree has vanishing higher derivatives)."""
    if order < max((c.order for c in p.values), default=0):
        raise ValueError("cannot reduce a jet point's order")
    values = dict(p.values)
    for c in complete_coords(order):
        values.setdefault(c, 0.0)
    return JetBatch(p.t, p.x, values)


_BUMP_WIDTH = 0.15
_FD_STEP = 1e-2  # step of the 5-point stencil in the perturbation size s
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


class _PolyBackground:
    """Polynomial fields u0, v0 whose Taylor jets at (t0, x0) equal a given
    jet point, a batch of one; degree = the point's order, so the point
    determines the full jet of the background there (higher derivatives
    vanish)."""

    def __init__(self, point: JetBatch):
        self.t0, self.x0 = point.t[0], point.x[0]
        self.degree = max((c.order for c in point.values), default=0)
        self.coeff = {"u": {}, "v": {}}
        for c, val in point.values.items():
            self.coeff[c.dep][(c.t_order, c.x_order)] = (
                val[0] / (math.factorial(c.t_order) * math.factorial(c.x_order)))

    def jets(self, t: np.ndarray, x: np.ndarray,
             coords: Iterable[Jet]) -> dict[Jet, np.ndarray]:
        """(d/dt)^i (d/dx)^j of the field at each coordinate, exactly.  The
        powers of t - t0 and x - x0 are taken once for all coordinates, each
        at the shape of its own argument, and a coordinate's terms are
        grouped by their power of t: each group's x-factor is summed at the
        shape of x.  So t and x given as broadcastable factors (a column and
        a row of a tensor grid) give tables of that size, and each power of
        t makes one product of the broadcast shape."""
        dt, dx = t - self.t0, x - self.x0
        tp = [dt ** k for k in range(self.degree + 1)]
        xp = [dx ** k for k in range(self.degree + 1)]
        out = {}
        for coord in coords:
            i, j = coord.t_order, coord.x_order
            x_factors: dict[int, np.ndarray] = {}
            for (p, q), c in self.coeff[coord.dep].items():
                if p < i or q < j:
                    continue
                fac = (math.factorial(p) // math.factorial(p - i)
                       * math.factorial(q) // math.factorial(q - j))
                term = c * fac * xp[q - j]
                x_factors[p] = x_factors[p] + term if p in x_factors else term
            val = np.zeros_like(dt)
            for p, fx in x_factors.items():
                val = val + tp[p - i] * fx
            out[coord] = val
        return out


def _bump_block(e: Expr, params: Optional[ParamValues], bg: _PolyBackground,
                p: JetBatch, draws: np.ndarray,
                quad: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Collocation rows, (bumps, len(_POWERS)), and stencil derivatives of
    the action, (bumps, 2) with u's perturbation in column 0 and v's in
    column 1, for a block of bumps on the (nodes, weights) Gauss-Legendre
    rule `quad`; row k of `draws` is bump k's (t offset, x offset, t width
    factor, x width factor).

    Bump k's tensor grid is slice k of (bumps, quad_n, quad_n) arrays, t
    along axis 1 and x along axis 2.  A factor of t alone is a
    (bumps, quad_n, 1) array and one of x alone a (bumps, 1, quad_n) array,
    so it is computed on quad_n points and broadcasting builds the products.
    Each bump is a t-factor times an x-factor, and so is each of its jets:
    a jet is kept as that pair and enters a perturbed field as
    background + (s * f_t) * f_x.  A collocation row's integrand is
    separable too, so each entry is the product of a t-sum and an x-sum.
    The action's integrand is not: it sums each bump's grid as one C-order
    row of quad_n^2 values, t-major."""
    quad_nodes, quad_weights = quad
    bumps = len(draws)
    t0, x0 = p.t[0], p.x[0]
    tc, xc = t0 + draws[:, 0, None, None], x0 + draws[:, 1, None, None]
    wt, wx = _BUMP_WIDTH * draws[:, 2, None, None], _BUMP_WIDTH * draws[:, 3, None, None]
    T = tc + wt * quad_nodes[:, None]
    X = xc + wx * quad_nodes[None, :]
    w2d = np.outer(quad_weights, quad_weights) * wt * wx

    def row_sums(f: np.ndarray) -> np.ndarray:
        return np.sum(f.reshape(bumps, -1), axis=-1)

    zt, zx = (T - tc) / wt, (X - xc) / wx
    gt, gx = _bump(zt), _bump(zx)
    d1t, d1x = _bump_d1(zt) / wt, _bump_d1(zx) / wx
    # float_power is the C library's pow, as Python's float `**` is; numpy's
    # `**` squares by multiplication, which rounds differently in the last bit
    wt2, wx2 = np.float_power(wt, 2), np.float_power(wx, 2)
    phi_factors = {
        (0, 0): (gt, gx),
        (1, 0): (d1t, gx),
        (0, 1): (gt, d1x),
        (2, 0): (_bump_d2(zt) / wt2, gx),
        (1, 1): (d1t, d1x),
        (0, 2): (gt, _bump_d2(zx) / wx2),
    }
    background = bg.jets(T, X, complete_coords(2))

    def action(dep: str, s: float) -> np.ndarray:
        values = dict(background)
        for (i, j), (f_t, f_x) in phi_factors.items():
            c = Jet(dep, i, j)
            values[c] = background[c] + (s * f_t) * f_x
        return row_sums(w2d * eval_expr(e, JetBatch(T, X, values), params))

    h = _FD_STEP
    rhs = np.stack([(-action(dep, 2 * h) + 8 * action(dep, h) - 8 * action(dep, -h)
                     + action(dep, -2 * h)) / (12 * h) for dep in DEPENDENTS], axis=-1)
    t_sums = [row_sums(quad_weights[:, None] * gt * (T - t0) ** i) for i in range(5)]
    x_sums = [row_sums(quad_weights * gx * (X - x0) ** j) for j in range(5)]
    widths = (wt * wx).ravel()
    rows = np.stack([widths * t_sums[i] * x_sums[j] for i, j in _POWERS], axis=-1)
    return rows, rhs


@functools.cache
def _gauss_legendre(quad_n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (nodes, weights) of the quad_n-point Gauss-Legendre rule on
    [-1, 1], computed once per quad_n and read-only, so every oracle call
    shares them."""
    quad = np.polynomial.legendre.leggauss(quad_n)
    for a in quad:
        a.flags.writeable = False
    return quad


def independent_variational_check(e: Expr, p: JetBatch,
                                  params: Optional[ParamValues] = None,
                                  n_bumps: int = 20, quad_n: int = 24,
                                  seed: int = 0) -> OracleResult:
    """Pointwise variational derivatives (delta e/delta u, delta e/delta v)
    at p, a batch of one, computed without the symbolic euler machinery.

    Method: realize p as a polynomial background, perturb one field at a
    time by s*phi for compactly supported C^2 bumps phi, differentiate the
    action integral over the bump support in s by a 5-point stencil, and
    recover the value at (p.t, p.x) by least-squares collocation of a
    quartic model of the variational derivative against the bump integrals.
    One set of bumps serves both fields: one lstsq solves the collocation
    rows for u's and v's stencil derivatives as two right-hand sides.  The
    bumps are stacked, up to EVAL_BLOCK_POINTS quadrature points per block,
    and each block builds its grids, background and bump jets once for both
    fields, so e is evaluated once per stencil point, field and block.  The
    t and x nodes stay separate factors of each bump's tensor grid,
    (bumps, quad_n, 1) and (bumps, 1, quad_n), so a subexpression of t or x
    alone is evaluated on quad_n points per bump and only the products fill
    the grid; a bump, its jets and its collocation integrands are a t-factor
    times an x-factor, so the rows are products of 1-D sums.  The
    Gauss-Legendre rule is computed once per quad_n and shared by every call.
    """
    if e.order > 2:
        raise ValueError("oracle requires jet order <= 2")
    rng = np.random.default_rng(seed)
    bg = _PolyBackground(p)

    engine_u, engine_v = euler_operator(e, max_order=2 * e.order if e.order else 2)
    point4 = complete_point(p, max(bg.degree, engine_u.order, engine_v.order, 1))
    engine = [float(v[0]) for v in eval_expr([engine_u, engine_v], point4, params)]

    quad = _gauss_legendre(quad_n)
    per_block = max(1, EVAL_BLOCK_POINTS // quad_n ** 2)
    # bump by bump: t offset, x offset, t width factor, x width factor
    draws = rng.uniform(_DRAW_LOW, _DRAW_HIGH, size=(n_bumps, 4))
    blocks = [_bump_block(e, params, bg, p, draws[lo:lo + per_block], quad)
              for lo in range(0, n_bumps, per_block)]
    rows, rhs = (np.concatenate(parts) for parts in zip(*blocks))
    coeffs, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    oracle = coeffs[0].tolist()  # (delta e/delta u, delta e/delta v)

    scale = max(1.0, *(abs(g) for g in engine))
    rel = max(abs(o - g) for o, g in zip(oracle, engine)) / scale
    return OracleResult(*oracle, *engine, rel)
