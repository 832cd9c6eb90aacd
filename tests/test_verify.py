"""Verification-layer tests: residual reproduction, divergence orientation,
raw-reading comparisons, and the finite-difference variational oracle."""

import math

import numpy as np
import pytest

from ptnls import verify
from ptnls.analysis import fit_loglog_slope
from ptnls.catalog import CaseId, Kind, load_catalog
from ptnls.jetexpr import (JetBatch, JetSampler, ParamValues, add, complete_coords,
                           eval_expr, expr_equiv, parse_expr, sub, total_derivative)
from ptnls.verify import (EPS_GRID, FluxUnavailableError, check_divergence,
                          check_residual, complete_point, divergence_residual,
                          euler_residual, independent_variational_check)

ALL_BLOCKS = [(c, k) for c in CaseId for k in Kind]
FLUX_BLOCKS = [(CaseId.CASE1A, Kind.ENERGY), (CaseId.CASE1A, Kind.CHARGE),
               (CaseId.CASE2, Kind.ENERGY), (CaseId.CASE2, Kind.CHARGE)]


@pytest.fixture(scope="module")
def residual_reports():
    return {(c, k): check_residual(c, k, n=100, tol=1e-10, seed=0)
            for c, k in ALL_BLOCKS}


@pytest.fixture(scope="module")
def divergence_reports():
    return {(c, k): check_divergence(c, k, n=100, tol=1e-9, seed=0)
            for c, k in FLUX_BLOCKS}


@pytest.mark.parametrize("case_id,kind", ALL_BLOCKS)
def test_residuals_match_targets(residual_reports, case_id, kind):
    rep = residual_reports[(case_id, kind)]
    assert rep.match, f"worst {rep.worst_rel_error} at {rep.worst_point}"
    assert rep.worst_rel_error < 1e-10
    assert rep.target_derived == ((case_id, kind) == (CaseId.CASE1B, Kind.CHARGE))


@pytest.mark.parametrize("case_id,kind", ALL_BLOCKS)
def test_residual_epsilon_slope_is_one(residual_reports, case_id, kind):
    rep = residual_reports[(case_id, kind)]
    assert rep.epsilon_slope == pytest.approx(1.0, abs=0.01)
    assert rep.slope_fit_residual < 1e-10


def test_case2_energy_raw_Ru_differs(residual_reports):
    rep = residual_reports[(CaseId.CASE2, Kind.ENERGY)]
    rc = {c.slot: c for c in rep.raw_comparisons}
    assert rc["Ru"].parses
    assert rc["Ru"].matches_corrected is False
    assert rc["Ru"].worst_rel_error > 0.1  # a sign flip, not roundoff


def test_case1c_energy_header_multipliers_give_charge_target(residual_reports):
    rep = residual_reports[(CaseId.CASE1C, Kind.ENERGY)]
    rc = {c.slot: c for c in rep.raw_comparisons}
    assert rc["Q1/Q2"].matches_corrected is False
    assert "charge target instead" in rc["Q1/Q2"].note


def test_derived_1b_charge_target_cross_checked_by_oracle():
    cat = load_catalog()
    system = cat.build_system(CaseId.CASE1B)
    mult = cat.multiplier(Kind.CHARGE)
    from ptnls.jetexpr import add, mul
    action = add(mul(mult.Q1, system.E1), mul(mult.Q2, system.E2))
    tgt = cat.residual_target(CaseId.CASE1B, Kind.CHARGE)
    batch = JetSampler(seed=4).batch(3, 2)
    params = ParamValues(eps=0.07)
    for i in range(3):
        p = batch.point(i)
        res = independent_variational_check(action, p, params)
        want_u = eval_expr(tgt.Ru, complete_point(p, 4), params)
        want_v = eval_expr(tgt.Rv, complete_point(p, 4), params)
        scale = max(1.0, abs(want_u), abs(want_v))
        assert abs(res.du - want_u) / scale < 1e-4
        assert abs(res.dv - want_v) / scale < 1e-4


_EXPECTED_ORIENTATION = {
    (CaseId.CASE1A, Kind.ENERGY): -1,
    (CaseId.CASE1A, Kind.CHARGE): -1,
    (CaseId.CASE2, Kind.ENERGY): +1,
    (CaseId.CASE2, Kind.CHARGE): -1,
}


@pytest.mark.parametrize("case_id,kind", FLUX_BLOCKS)
def test_divergence_identity_at_eps_zero(divergence_reports, case_id, kind):
    rep = divergence_reports[(case_id, kind)]
    assert rep.zero_at_eps0
    assert rep.worst_rel_error < 1e-9
    assert rep.orientation == _EXPECTED_ORIENTATION[(case_id, kind)]
    assert not rep.discrepancy_terms


@pytest.mark.parametrize("case_id,kind", FLUX_BLOCKS)
def test_divergence_residual_is_linear_in_eps(divergence_reports, case_id, kind):
    rep = divergence_reports[(case_id, kind)]
    assert rep.leading_order == pytest.approx(1.0, abs=0.05)


def test_divergence_raw_comparisons(divergence_reports):
    rc = {c.slot: c for c in divergence_reports[(CaseId.CASE1A, Kind.ENERGY)].raw_comparisons}
    assert rc["Tx"].parses is False and "offset" in rc["Tx"].error
    assert rc["PhiT"].parses and rc["PhiT"].matches_corrected is False
    rc2 = {c.slot: c for c in divergence_reports[(CaseId.CASE2, Kind.ENERGY)].raw_comparisons}
    assert rc2["Tx"].parses is False


def test_raw_comparisons_draw_at_the_checks_seed():
    cat = load_catalog()
    rep = check_residual(CaseId.CASE2, Kind.ENERGY, seed=1)
    rc = {c.slot: c for c in rep.raw_comparisons}
    raw_ru = cat.raw_reading(CaseId.CASE2, Kind.ENERGY, "Ru").expr
    want = expr_equiv(rep.residual_u, raw_ru, seed=1).worst_rel_error
    assert rc["Ru"].worst_rel_error == want
    assert want != expr_equiv(rep.residual_u, raw_ru, seed=0).worst_rel_error
    rc = {c.slot: c for c in check_divergence(CaseId.CASE1A, Kind.ENERGY, seed=1).raw_comparisons}
    raw_phi, phi = (read(CaseId.CASE1A, Kind.ENERGY, "PhiT").expr
                    for read in (cat.raw_reading, cat.corrected_reading))
    want = expr_equiv(raw_phi, phi, seed=1).worst_rel_error
    assert rc["PhiT"].worst_rel_error == want
    assert want != expr_equiv(raw_phi, phi, seed=0).worst_rel_error


@pytest.mark.parametrize("case_id", [CaseId.CASE1B, CaseId.CASE1C])
@pytest.mark.parametrize("kind", list(Kind))
def test_divergence_unavailable_without_flux(case_id, kind):
    with pytest.raises(FluxUnavailableError):
        divergence_residual(case_id, kind)
    with pytest.raises(FluxUnavailableError):
        check_divergence(case_id, kind)


def test_divergence_orientation_is_eps_independent():
    # the oriented residual vanishes identically at eps = 0 and stays small
    # relative to eps elsewhere on operating on the eps grid
    div, qe = divergence_residual(CaseId.CASE2, Kind.ENERGY)
    batch = JetSampler(seed=9).batch(30, 3)
    for eps in (EPS_GRID[0], EPS_GRID[-1]):
        params = ParamValues(eps=float(eps))
        r = eval_expr(div, batch, params) - eval_expr(qe, batch, params)
        assert np.max(np.abs(r)) < 10.0 * eps


def _eps_slope_per_eps(exprs, seed, order):
    """Reference for verify._eps_slope: one evaluation per eps of EPS_GRID."""
    batch = JetSampler(seed).batch(50, order)
    mags = []
    for eps in EPS_GRID:
        params = ParamValues(eps=float(eps))
        mags.append(max(float(np.max(np.abs(eval_expr(e, batch, params))))
                        for e in exprs))
    slope, _, fit_res = fit_loglog_slope(EPS_GRID, mags)
    return slope, fit_res


def _slope_inputs(residual_reports, divergence_reports):
    """The residual tuples the checks fit: each block's (Ru, Rv) and each
    flux block's oriented divergence residual."""
    out = []
    for rep in residual_reports.values():
        out.append((rep.residual_u, rep.residual_v))
    for (case_id, kind), rep in divergence_reports.items():
        div, qe = divergence_residual(case_id, kind)
        out.append((sub(div, qe) if rep.orientation == 1 else add(div, qe),))
    return out


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_eps_sweep_is_the_per_eps_loop_bit_for_bit(residual_reports, divergence_reports,
                                                   seed):
    inputs = _slope_inputs(residual_reports, divergence_reports)
    assert len(inputs) == len(ALL_BLOCKS) + len(FLUX_BLOCKS)
    for exprs in inputs:
        order = max(e.order for e in exprs)
        assert verify._eps_slope(exprs, seed) == _eps_slope_per_eps(exprs, seed, order)


def test_eps_sweep_evaluates_each_expression_once(residual_reports, divergence_reports,
                                                  monkeypatch):
    calls = []

    def counted(e, point, params=None):
        calls.append(e)
        return eval_expr(e, point, params)

    monkeypatch.setattr(verify, "eval_expr", counted)
    for exprs in _slope_inputs(residual_reports, divergence_reports):
        calls.clear()
        verify._eps_slope(exprs, 0)
        assert calls == [exprs]  # one call per batch


@pytest.mark.parametrize("case_id,kind", FLUX_BLOCKS)
def test_divergence_evaluates_both_sides_in_one_call(case_id, kind, monkeypatch):
    at_eps0 = []

    def counted(e, point, params=None):
        if params is not None and params.shape == () and params.eps == 0.0:
            at_eps0.append(e)
        return eval_expr(e, point, params)

    monkeypatch.setattr(verify, "eval_expr", counted)
    check_divergence(case_id, kind, n=20, seed=0)
    assert at_eps0 == [list(divergence_residual(case_id, kind))]


@pytest.mark.parametrize("quad_n", [1, 5, 24])
def test_gauss_legendre_rule_is_cached_read_only(quad_n):
    nodes, weights = verify._gauss_legendre(quad_n)
    want_nodes, want_weights = np.polynomial.legendre.leggauss(quad_n)
    assert nodes.tobytes() == want_nodes.tobytes()
    assert weights.tobytes() == want_weights.tobytes()
    for a in (nodes, weights):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    again = verify._gauss_legendre(quad_n)
    assert again[0] is nodes and again[1] is weights


def test_euler_residual_shape():
    ru, rv = euler_residual(CaseId.CASE1A, Kind.ENERGY)
    tgt = load_catalog().residual_target(CaseId.CASE1A, Kind.ENERGY)
    assert expr_equiv(ru, tgt.Ru, n=50, tol=1e-12)
    assert expr_equiv(rv, tgt.Rv, n=50, tol=1e-12)


# ---------------------------------------------------------------------------
# the independent oracle on hand-checked inputs


@pytest.fixture(scope="module")
def sample_points():
    return JetSampler(seed=3).batch(4, 2)


def test_oracle_quadratic_kinetic_term(sample_points):
    e = parse_expr("1/2*u_x^2")
    p = sample_points.point(0)
    res = independent_variational_check(e, p, ParamValues())
    want = -eval_expr(parse_expr("u_xx"), complete_point(p, 2), ParamValues())
    assert res.du == pytest.approx(want, abs=1e-6)
    assert res.dv == pytest.approx(0.0, abs=1e-6)
    assert res.rel_error < 1e-6


def test_oracle_time_kinetic_term(sample_points):
    e = parse_expr("1/2*u_t^2")
    p = sample_points.point(1)
    res = independent_variational_check(e, p, ParamValues())
    want = -eval_expr(parse_expr("u_tt"), complete_point(p, 2), ParamValues())
    assert res.du == pytest.approx(want, abs=1e-6)


def test_oracle_algebraic_coupling(sample_points):
    e = parse_expr("u*v")
    p = sample_points.point(2)
    res = independent_variational_check(e, p, ParamValues())
    assert res.du == pytest.approx(eval_expr(parse_expr("v"), p, ParamValues()), abs=1e-8)
    assert res.dv == pytest.approx(eval_expr(parse_expr("u"), p, ParamValues()), abs=1e-8)


def test_oracle_annihilates_total_divergence(sample_points):
    e = total_derivative(parse_expr("u^2*v"), "x", max_order=3)
    res = independent_variational_check(e, sample_points.point(3), ParamValues())
    assert abs(res.du) < 1e-8 and abs(res.dv) < 1e-8


def test_oracle_rejects_high_order():
    with pytest.raises(ValueError, match="order"):
        independent_variational_check(parse_expr("u_xxx^2"),
                                      JetSampler(seed=0).batch(1, 3).point(0),
                                      ParamValues())


def _per_bump(e, p, params, bg, tc, xc, wt, wx, fd_step, quad_n, indexing="ij"):
    """Collocation row and the stencil derivatives for u and for v of one
    bump.  The bump and its jets are (t-factor, x-factor) pairs; the row's
    entries are products of 1-D sums over the t and x nodes; the action is
    summed on a full-size tensor grid raveled in C order, t along the first
    axis for "ij" (the oracle's layout), x along it for "xy"."""
    nodes, weights = np.polynomial.legendre.leggauss(quad_n)
    ts, xs = tc + wt * nodes, xc + wx * nodes
    zt, zx = (ts - tc) / wt, (xs - xc) / wx
    gt, gx = verify._bump(zt), verify._bump(zx)
    d1t, d1x = verify._bump_d1(zt) / wt, verify._bump_d1(zx) / wx
    phi = {(0, 0): (gt, gx), (1, 0): (d1t, gx), (0, 1): (gt, d1x),
           (2, 0): (verify._bump_d2(zt) / wt ** 2, gx),
           (1, 1): (d1t, d1x),
           (0, 2): (gt, verify._bump_d2(zx) / wx ** 2)}

    def grid(a_t, a_x):
        return tuple(a.ravel() for a in np.meshgrid(a_t, a_x, indexing=indexing))

    Tf, Xf = grid(ts, xs)
    w2d = (np.outer(weights, weights) * wt * wx).ravel()
    background = bg.jets(Tf, Xf, complete_coords(2))

    def action(dep, s):
        values = {}
        for c in complete_coords(2):
            arr = background[c]
            if c.dep == dep:
                f_t, f_x = grid(*phi[(c.t_order, c.x_order)])
                arr = arr + (s * f_t) * f_x
            values[c] = arr
        return float(np.sum(w2d * eval_expr(e, JetBatch(Tf, Xf, values), params)))

    h = fd_step
    rhs = tuple((-action(dep, 2 * h) + 8 * action(dep, h) - 8 * action(dep, -h)
                 + action(dep, -2 * h)) / (12 * h) for dep in ("u", "v"))
    t_sums = [np.sum(weights * gt * (ts - p.t) ** i) for i in range(5)]
    x_sums = [np.sum(weights * gx * (xs - p.x) ** j) for j in range(5)]
    row = [float(wt * wx * t_sums[i] * x_sums[j]) for i in range(5) for j in range(5 - i)]
    return row, rhs


def _oracle_per_bump(e, p, params, seed):
    """Reference for the stacked oracle: one bump at a time, one set of
    bumps for both fields, its scalars drawn and computed as Python floats,
    one eval_expr call per stencil point and field, one 1-D sum per factor
    of a collocation entry, and one lstsq for both fields."""
    rng = np.random.default_rng(seed)
    bg = verify._PolyBackground(p)
    rows, rhs = [], []
    for _ in range(20):
        tc = p.t + rng.uniform(-0.05, 0.05)
        xc = p.x + rng.uniform(-0.05, 0.05)
        wt = 0.15 * rng.uniform(0.7, 1.3)
        wx = 0.15 * rng.uniform(0.7, 1.3)
        row, r = _per_bump(e, p, params, bg, tc, xc, wt, wx, 1e-2, 24)
        rows.append(row)
        rhs.append(r)
    coeffs, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    return tuple(coeffs[0].tolist())


def _q_dot_e(case_id, kind):
    cat = load_catalog()
    mult = cat.multiplier(kind)
    return verify._q_dot_e(mult.Q1, mult.Q2, cat.build_system(case_id))


@pytest.mark.parametrize("index,block", list(enumerate(ALL_BLOCKS)),
                         ids=[f"{c.value}-{k.value}" for c, k in ALL_BLOCKS])
def test_stacked_oracle_matches_per_bump_loop(index, block):
    p = JetSampler(seed=0).batch(len(ALL_BLOCKS), 2).point(index)
    e = _q_dot_e(*block)
    # seed 55, the last block's, draws a bump x-width whose square numpy's
    # `**` rounds apart from the C library's pow (Python's float `**`), and
    # the difference reaches that block's result
    seed = 48 + index
    res = independent_variational_check(e, p, ParamValues(), seed=seed)
    assert (res.du, res.dv) == _oracle_per_bump(e, p, ParamValues(), seed=seed)


@pytest.mark.parametrize("index,block", list(enumerate(ALL_BLOCKS)),
                         ids=[f"{c.value}-{k.value}" for c, k in ALL_BLOCKS])
def test_bump_block_sums_each_grid_t_major(index, block):
    # each bump's action integrals sum its grid with t as the slow axis, as
    # the per-bump reference does; the same sums taken x-major differ in the
    # last bits somewhere, so this pins the orientation of the t and x axes
    p = JetSampler(seed=1).batch(len(ALL_BLOCKS), 2).point(index)
    e = _q_dot_e(*block)
    quad_n = 24
    draws = np.random.default_rng(index).uniform(
        verify._DRAW_LOW, verify._DRAW_HIGH, size=(6, 4))
    bg = verify._PolyBackground(p)
    quad = np.polynomial.legendre.leggauss(quad_n)
    rows, rhs = verify._bump_block(e, ParamValues(), bg, p, draws, quad)
    assert rows.shape == (len(draws), len(verify._POWERS)) and rhs.shape == (len(draws), 2)
    swapped = []
    for k, (dt, dx, ft, fx) in enumerate(draws.tolist()):
        args = (e, p, ParamValues(), bg, p.t + dt, p.x + dx,
                verify._BUMP_WIDTH * ft, verify._BUMP_WIDTH * fx, verify._FD_STEP, quad_n)
        row, r = _per_bump(*args)
        assert rows[k].tolist() == row and tuple(rhs[k].tolist()) == r, k
        swapped.append(_per_bump(*args, indexing="xy"))
    assert any(rows[k].tolist() != row or tuple(rhs[k].tolist()) != r
               for k, (row, r) in enumerate(swapped))


def _full_grid_rows(p, draws, quad):
    """Collocation rows as sums over each bump's full tensor grid of the
    weights times the monomial times the bump, as computed before the rows
    were taken as products of 1-D sums."""
    nodes, weights = quad
    bumps = len(draws)
    t0, x0 = p.t[0], p.x[0]
    tc, xc = t0 + draws[:, 0, None, None], x0 + draws[:, 1, None, None]
    wt = verify._BUMP_WIDTH * draws[:, 2, None, None]
    wx = verify._BUMP_WIDTH * draws[:, 3, None, None]
    T, X = tc + wt * nodes[:, None], xc + wx * nodes[None, :]
    w2d = np.outer(weights, weights) * wt * wx
    phi = verify._bump((T - tc) / wt) * verify._bump((X - xc) / wx)
    return np.stack([np.sum((w2d * ((T - t0) ** i * (X - x0) ** j) * phi).reshape(bumps, -1),
                            axis=-1) for i, j in verify._POWERS], axis=-1)


@pytest.mark.parametrize("index,block", list(enumerate(ALL_BLOCKS)),
                         ids=[f"{c.value}-{k.value}" for c, k in ALL_BLOCKS])
def test_separable_rows_match_full_grid_sums(index, block):
    p = JetSampler(seed=2).batch(len(ALL_BLOCKS), 2).point(index)
    draws = np.random.default_rng(100 + index).uniform(
        verify._DRAW_LOW, verify._DRAW_HIGH, size=(20, 4))
    quad = verify._gauss_legendre(24)
    rows, _ = verify._bump_block(_q_dot_e(*block), ParamValues(),
                                 verify._PolyBackground(p), p, draws, quad)
    want = _full_grid_rows(p, draws, quad)
    assert np.all(np.abs(rows - want) <= 1e-14 * np.max(np.abs(want), axis=0))


def _per_term_jets(bg, t, x, coords):
    """The background's jets summed term by term, each term a product at
    the broadcast shape of t and x."""
    dt, dx = t - bg.t0, x - bg.x0
    out = {}
    for coord in coords:
        i, j = coord.t_order, coord.x_order
        val = np.zeros_like(dt)
        for (p, q), c in bg.coeff[coord.dep].items():
            if p >= i and q >= j:
                fac = (math.factorial(p) // math.factorial(p - i)
                       * math.factorial(q) // math.factorial(q - j))
                val = val + c * fac * dt ** (p - i) * dx ** (q - j)
        out[coord] = val
    return out


@pytest.mark.parametrize("order", [2, 4])
def test_grouped_background_matches_per_term_sum(order):
    nodes, _ = verify._gauss_legendre(24)
    batch = JetSampler(seed=order).batch(len(ALL_BLOCKS), order)
    for k in range(len(ALL_BLOCKS)):
        p = batch.point(k)
        bg = verify._PolyBackground(p)
        t = p.t[0] + 0.2 * nodes[:, None]
        x = p.x[0] + 0.2 * nodes[None, :]
        coords = complete_coords(order)
        got, want = bg.jets(t, x, coords), _per_term_jets(bg, t, x, coords)
        for c in coords:
            assert got[c].shape == want[c].shape
            assert np.max(np.abs(got[c] - want[c])) <= 1e-14 * np.max(np.abs(want[c])), (k, c)


def test_each_block_builds_its_background_once_for_both_fields(monkeypatch):
    jets, lstsq = verify._PolyBackground.jets, np.linalg.lstsq
    calls = {"jets": 0, "lstsq": 0}

    def counted_jets(self, t, x, coords):
        calls["jets"] += 1
        return jets(self, t, x, coords)

    def counted_lstsq(*args, **kwargs):
        calls["lstsq"] += 1
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(verify._PolyBackground, "jets", counted_jets)
    monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
    # the bumps are one batch: one background and one solve for both fields
    p = JetSampler(seed=6).batch(1, 2).point(0)
    independent_variational_check(_q_dot_e(CaseId.CASE2, Kind.ENERGY), p, ParamValues())
    assert calls == {"jets": 1, "lstsq": 1}
