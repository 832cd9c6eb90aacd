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
from typing import Optional

import numpy as np

from .analysis import fit_loglog_slope
from .catalog import CaseId, Catalog, Kind, load_catalog
from .jetexpr import (Expr, JetBatch, JetCoord, JetPoint, JetSampler, ParamValues,
                      add, euler_operator, eval_expr, expr_equiv, mul, sub,
                      total_derivative)

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


def euler_residual(case, kind: Kind, params: Optional[ParamValues] = None,
                   catalog: Optional[Catalog] = None) -> tuple[Expr, Expr]:
    """euler_operator(Q1*E1 + Q2*E2) for one case and multiplier kind."""
    cat = catalog or load_catalog()
    system = cat.build_system(case, params)
    mult = cat.multiplier(kind)
    action = add(mul(mult.Q1, system.E1), mul(mult.Q2, system.E2))
    return euler_operator(action, max_order=_EULER_MAX_ORDER)


def _max_abs(e: Expr, batch: JetBatch, params: ParamValues) -> float:
    vals = np.asarray(eval_expr(e, batch, params), dtype=float)
    return float(np.max(np.abs(vals))) if vals.ndim else abs(float(vals))


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
        system = cat.build_system(case_id)
        action = add(mul(raw_q1.expr, system.E1), mul(raw_q2.expr, system.E2))
        ru_raw, rv_raw = euler_operator(action, max_order=_EULER_MAX_ORDER)
        stated = cat.any_residual_target(case_id, kind)
        res_u = expr_equiv(ru_raw, stated.Ru, n=n)
        res_v = expr_equiv(rv_raw, stated.Rv, n=n)
        matches = bool(res_u.equal and res_v.equal)
        note = "residual from the block-header multipliers vs this block's target"
        if not matches:
            other = Kind.CHARGE if kind is Kind.ENERGY else Kind.ENERGY
            tgt = cat.any_residual_target(case_id, other)
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
                   seed: int = 0, catalog: Optional[Catalog] = None) -> ResidualReport:
    """Compare the engine's euler residual against the cataloged target and
    fit its magnitude against eps."""
    cat = catalog or load_catalog()
    ru, rv = euler_residual(case_id, kind, catalog=cat)
    target = cat.any_residual_target(case_id, kind)

    sampler = JetSampler(seed=seed)
    res_u = expr_equiv(ru, target.Ru, n=n, tol=tol, sampler=sampler)
    res_v = expr_equiv(rv, target.Rv, n=n, tol=tol, sampler=sampler)
    worse = res_u if res_u.worst_rel_error >= res_v.worst_rel_error else res_v

    # magnitude vs eps at 50 fixed points; the residuals carry a factor eps,
    # so the fitted exponent should be 1 to roundoff
    order = max(ru.order, rv.order)
    batch = sampler.batch(50, order)
    mags = [max(_max_abs(ru, batch, ParamValues(eps=float(e))),
                _max_abs(rv, batch, ParamValues(eps=float(e)))) for e in EPS_GRID]
    slope, _, fit_res = fit_loglog_slope(EPS_GRID, mags)

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


def divergence_residual(case_id: CaseId, kind: Kind,
                        catalog: Optional[Catalog] = None) -> tuple[Expr, Expr]:
    """(D_t Tt + D_x Tx, Q1*E1 + Q2*E2) as expressions on the jet space."""
    cat = catalog or load_catalog()
    cv = cat.conserved_vector(case_id, kind)
    if cv is None or cv.Tx is None:
        raise FluxUnavailableError(
            f"no complete (Tt, Tx) pair is cataloged for {case_id.value}/{kind.value}")
    divergence = add(total_derivative(cv.Tt, "t", max_order=_EULER_MAX_ORDER),
                     total_derivative(cv.Tx, "x", max_order=_EULER_MAX_ORDER))
    system = cat.build_system(case_id)
    mult = cat.multiplier(kind)
    qe = add(mul(mult.Q1, system.E1), mul(mult.Q2, system.E2))
    return divergence, qe


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
                     seed: int = 0, catalog: Optional[Catalog] = None) -> DivergenceReport:
    """Measure D_t Tt + D_x Tx against +/- Q.E at eps=0, then fit the
    surviving residual's magnitude against eps."""
    cat = catalog or load_catalog()
    divergence, qe = divergence_residual(case_id, kind, catalog=cat)
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

    # oriented residual magnitude vs eps
    residual = sub(divergence, qe) if orientation == 1 else add(divergence, qe)
    small = sampler.batch(50, order)
    mags = [_max_abs(residual, small, ParamValues(eps=float(e))) for e in EPS_GRID]
    slope, _, fit_res = fit_loglog_slope(EPS_GRID, mags)

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
    for dep in ("u", "v"):
        for i in range(order + 1):
            for j in range(order + 1 - i):
                values.setdefault(JetCoord(dep, i, j), 0.0)
    return JetPoint(p.t, p.x, order, values)


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
        self.coeff = {"u": {}, "v": {}}
        for c, val in point.values.items():
            self.coeff[c.dep][(c.t_order, c.x_order)] = (
                val / (math.factorial(c.t_order) * math.factorial(c.x_order)))

    def jets(self, dep: str, t: np.ndarray, x: np.ndarray, i: int, j: int) -> np.ndarray:
        """(d/dt)^i (d/dx)^j of the field, exactly."""
        dt, dx = t - self.t0, x - self.x0
        out = np.zeros_like(dt)
        for (p, q), c in self.coeff[dep].items():
            if p < i or q < j:
                continue
            fac = (math.factorial(p) // math.factorial(p - i)
                   * math.factorial(q) // math.factorial(q - j))
            out = out + c * fac * dt ** (p - i) * dx ** (q - j)
        return out


def _field_batch(bg: _PolyBackground, t: np.ndarray, x: np.ndarray, order: int,
                 perturb_dep: Optional[str] = None, s: float = 0.0,
                 phi_jets: Optional[dict] = None) -> JetBatch:
    values = {}
    for dep in ("u", "v"):
        for i in range(order + 1):
            for j in range(order + 1 - i):
                arr = bg.jets(dep, t, x, i, j)
                if dep == perturb_dep and s != 0.0:
                    arr = arr + s * phi_jets[(i, j)]
                values[JetCoord(dep, i, j)] = arr
    return JetBatch(t, x, order, values)


def independent_variational_check(e: Expr, p: JetPoint,
                                  params: Optional[ParamValues] = None,
                                  n_bumps: int = 20, quad_n: int = 24,
                                  fd_step: float = 1e-2, seed: int = 0) -> OracleResult:
    """Pointwise variational derivatives (delta e/delta u, delta e/delta v)
    at p, computed without the symbolic euler machinery.

    Method: realize p as a polynomial background, perturb one field by
    s*phi for compactly supported C^2 bumps phi, differentiate the action
    integral over the bump support in s by a 5-point stencil, and recover
    the value at (p.t, p.x) by least-squares collocation of a cubic model
    of the variational derivative against the bump integrals.
    """
    if e.order > 2:
        raise ValueError("oracle requires jet order <= 2")
    if params is None:
        params = ParamValues()
    rng = np.random.default_rng(seed)
    bg = _PolyBackground(p)

    nodes, weights = np.polynomial.legendre.leggauss(quad_n)
    width = 0.15
    # monomial exponents of the quartic collocation model; bumps stay within
    # ~0.25 of p, so the degree-5 model remainder is far below 1e-4
    powers = [(i, j) for i in range(5) for j in range(5 - i)]

    engine_u, engine_v = euler_operator(e, max_order=2 * e.order if e.order else 2)
    point4 = complete_point(p, max(p.order, max(engine_u.order, engine_v.order, 1)))
    engine_vals = {"u": eval_expr(engine_u, point4, params),
                   "v": eval_expr(engine_v, point4, params)}

    results = {}
    for dep in ("u", "v"):
        rows = np.zeros((n_bumps, len(powers)))
        rhs = np.zeros(n_bumps)
        for k in range(n_bumps):
            tc = p.t + rng.uniform(-0.05, 0.05)
            xc = p.x + rng.uniform(-0.05, 0.05)
            wt = width * rng.uniform(0.7, 1.3)
            wx = width * rng.uniform(0.7, 1.3)
            tg = tc + wt * nodes
            xg = xc + wx * nodes
            T, X = np.meshgrid(tg, xg, indexing="ij")
            Tf, Xf = T.ravel(), X.ravel()
            w2d = (np.outer(weights, weights) * wt * wx).ravel()

            zt, zx = (Tf - tc) / wt, (Xf - xc) / wx
            gt, gx = _bump(zt), _bump(zx)
            phi_jets = {
                (0, 0): gt * gx,
                (1, 0): _bump_d1(zt) / wt * gx,
                (0, 1): gt * _bump_d1(zx) / wx,
                (2, 0): _bump_d2(zt) / wt ** 2 * gx,
                (1, 1): _bump_d1(zt) / wt * _bump_d1(zx) / wx,
                (0, 2): gt * _bump_d2(zx) / wx ** 2,
            }

            def action(s: float) -> float:
                batch = _field_batch(bg, Tf, Xf, 2, dep, s, phi_jets)
                vals = np.asarray(eval_expr(e, batch, params), dtype=float)
                return float(np.sum(w2d * np.broadcast_to(vals, w2d.shape)))

            h = fd_step
            rhs[k] = (-action(2 * h) + 8 * action(h)
                      - 8 * action(-h) + action(-2 * h)) / (12 * h)
            for col, (i, j) in enumerate(powers):
                mono = (Tf - p.t) ** i * (Xf - p.x) ** j
                rows[k, col] = float(np.sum(w2d * mono * phi_jets[(0, 0)]))
        coeffs, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
        results[dep] = float(coeffs[0])

    scale = max(1.0, abs(engine_vals["u"]), abs(engine_vals["v"]))
    rel = max(abs(results["u"] - engine_vals["u"]),
              abs(results["v"] - engine_vals["v"])) / scale
    return OracleResult(results["u"], results["v"],
                        engine_vals["u"], engine_vals["v"], rel)
