"""Tests for density timeseries, drift scans, the log-log fit, and the CSV
and SVG emitters."""

import inspect
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ptnls import analysis, jetexpr
from ptnls.analysis import (DRIFT_CSV_HEADER, EVAL_BLOCK_POINTS, SCAN_SAMPLE_INTERVAL,
                            SLOPE_CSV_HEADER, TIMESERIES_CSV_HEADER, DensityTimeseries,
                            DensityUnavailableError,
                            default_scan_config, density_timeseries,
                            drift_from_timeseries, drift_scan, emit_report,
                            fit_loglog_slope, write_drift_csv,
                            write_timeseries_csv, write_timeseries_svg)
from ptnls.catalog import CaseId, Kind, load_catalog
from ptnls.jetexpr import EvalError, JetBatch, ParamValues, Unary, eval_expr, nodes
from ptnls.solver import (BOUNDARY_WARN, BlowUpError, BoundaryContaminationError, Gaussian,
                          Grid, Sample, SolverConfig, Trajectory, initial_condition, jet_values,
                          resample, run, stream_members)

from helpers import cataloged_densities, eval_decimal

EPS_LIST = [1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1]


def _short_cfg(case_id=CaseId.CASE1A, **kw):
    base = dict(case_id=case_id, params=ParamValues(), dt=1e-3, T_final=1.0,
                grid=Grid(N=256), initial=Gaussian(1.0, 1.0, 0.5))
    base.update(kw)
    return SolverConfig(**base)


# snapshots every 10 steps, for drift scans and the single runs they are compared with
SAMPLE_EVERY = 10


@pytest.fixture(scope="module")
def charge_scan():
    [rep] = drift_scan(CaseId.CASE1A, [Kind.CHARGE], EPS_LIST, cfg=_short_cfg(),
                       sample_every=SAMPLE_EVERY)
    return rep


# ---------------------------------------------------------------------------
# densities


def test_charge_is_conserved_without_gain():
    cfg = _short_cfg(params=ParamValues(eps=0.0), initial=Gaussian(math.pi ** -0.25, 1.0, 0.0))
    traj = run(cfg)
    ts = density_timeseries(traj, CaseId.CASE1A, Kind.CHARGE)
    assert ts.values[0] == pytest.approx(-0.5, abs=1e-10)
    drift_abs, drift_rel = drift_from_timeseries(ts)
    assert drift_rel < 1e-8


def _density_per_snapshot(traj, case_id, kind, form):
    """Reference for the stacked densities: each snapshot evaluated alone,
    in a block of its own."""
    return np.array([density_timeseries(Trajectory(traj.cfg, [s]), case_id, kind, form).values[0]
                     for s in traj.snapshots])


# (case, kind, form, N, T_final) with a snapshot count (dt = 1e-3, one
# snapshot per step) that fills one block of EVAL_BLOCK_POINTS and part of
# the next: 101 at N = 256, 7 at N = 4096
_STACKS = ([(c, k, f, 256, 0.1) for c, k, f in cataloged_densities()]
           + [(CaseId.CASE2, k, "Tt", 4096, 0.006) for k in (Kind.ENERGY, Kind.CHARGE)])


@pytest.mark.parametrize("case_id,kind,form,n,t_final", _STACKS,
                         ids=[f"{c.value}-{k.value}-{f}-N{n}" for c, k, f, n, _ in _STACKS])
def test_stacked_density_matches_per_snapshot_loop(case_id, kind, form, n, t_final):
    traj = run(_short_cfg(case_id, T_final=t_final, grid=Grid(N=n)), sample_every=1)
    rows = EVAL_BLOCK_POINTS // n
    count = len(traj.snapshots)
    assert count > rows and count % rows  # a full block and a partial one
    ts = density_timeseries(traj, case_id, kind, form)
    assert np.array_equal(ts.times, [s.t for s in traj.snapshots])
    assert np.array_equal(ts.values.view(np.uint64),
                          _density_per_snapshot(traj, case_id, kind, form).view(np.uint64))


@pytest.mark.parametrize("n,eps,t_final", [(512, [0.0, 0.01, 0.1], 0.07), (4096, [0.05], 0.01)],
                         ids=["N512-stacked", "N4096"])
def test_grid_only_factors_are_taken_once_per_member(n, eps, t_final, monkeypatch):
    # every coefficient of the normal form is evaluated once for all
    # members, not once per member or block, and a member's Q(t) from the
    # stacked blocks of several members has the bits of each snapshot
    # evaluated alone
    erf_calls = []
    plain_erf = jetexpr._np_erf
    monkeypatch.setattr(jetexpr, "_np_erf", lambda a: erf_calls.append(a) or plain_erf(a))
    rows = EVAL_BLOCK_POINTS // (len(eps) * n)
    erf_densities = 0
    for case_id, kind, form in cataloged_densities():
        cfg = _short_cfg(case_id, T_final=t_final, grid=Grid(N=n))
        errors = [None] * len(eps)
        samples = list(stream_members(cfg, eps, 1, errors))
        assert errors == [None] * len(eps) and len(samples) > 2 * rows  # three blocks
        e = analysis.density_expr(case_id, kind, form)
        erfs = sum(type(node) is Unary and node.op == "erf" for node in nodes(e))
        erf_densities += erfs > 0
        erf_calls.clear()
        densities = analysis.DensityAccumulator(cfg, eps, [kind], form)
        for sample in samples:
            densities.add(sample)
        series = densities.series(errors)
        assert len(erf_calls) == erfs  # not once per member or block
        for m, (eps_m, [ts]) in enumerate(zip(densities.eps, series)):
            alone = []
            for s in samples:
                one = analysis.DensityAccumulator(cfg, [eps_m], [kind], form)
                one.add(Sample(s.t, np.zeros(1, int), s.q[[m]]))
                [[single]] = one.series([None])
                alone.append(single.values)
            assert np.array_equal(ts.values.view(np.uint64),
                                  np.concatenate(alone).view(np.uint64))
    assert erf_densities >= 4


@pytest.mark.parametrize("members", [1, 3, 8])
def test_accumulator_walks_the_coefficients_once(members, monkeypatch):
    calls = []
    monkeypatch.setattr(analysis, "eval_expr",
                        lambda *args: calls.append(args) or eval_expr(*args))
    analysis.DensityAccumulator(default_scan_config(CaseId.CASE1B),
                                np.linspace(0.0, 0.1, members), [Kind.ENERGY, Kind.CHARGE])
    assert len(calls) == 1


# the six blocks of the default all-blocks scan
_SCAN_BLOCKS = [(c, k) for c in (CaseId.CASE1A, CaseId.CASE1B, CaseId.CASE2)
                for k in (Kind.CHARGE, Kind.ENERGY)]


@pytest.mark.parametrize("case_id,kind", _SCAN_BLOCKS,
                         ids=[f"{c.value}-{k.value}" for c, k in _SCAN_BLOCKS])
def test_accumulator_coefficient_rows_are_the_per_member_walks(case_id, kind):
    # row m of the one walk on the eps column has the bits of a walk at
    # member m's eps alone, on the default scan's eps = 0 and eps grid
    cfg = default_scan_config(case_id)
    eps = [0.0, *map(float, np.logspace(-3, -1, 7))]
    densities = analysis.DensityAccumulator(cfg, eps, [kind])
    coeffs = list(dict.fromkeys(analysis._density_poly(case_id, kind, "Tt").values()))
    at_nodes = JetBatch(np.zeros(cfg.grid.N), cfg.grid.x.astype(np.longdouble), {})
    assert densities.eps == eps and len(densities.coeffs) == len(coeffs)
    assert all(c.shape == (len(eps), 1, cfg.grid.N) for c in densities.coeffs)
    for m, e in enumerate(densities.eps):
        alone = eval_expr(coeffs, at_nodes, cfg.params.replace(eps=e))
        for c, walk in zip(densities.coeffs, alone):
            assert np.array_equal(c[m, 0].view(np.uint64), walk.view(np.uint64))


@pytest.mark.parametrize("members", [1, 3, 8])
def test_a_block_is_one_jet_values_call_for_every_member(members, monkeypatch):
    # a block holds every member's samples, (members, rows, N), so each
    # block takes one jet_values call whatever the member count
    cfg = _short_cfg(CaseId.CASE2, T_final=0.1)
    eps = list(np.linspace(0.0, 0.1, members))
    errors = [None] * members
    samples = list(stream_members(cfg, eps, 1, errors))
    rows = EVAL_BLOCK_POINTS // (members * cfg.grid.N)
    assert len(samples) % rows  # the last block is a partial one
    shapes = []
    monkeypatch.setattr(analysis, "jet_values",
                        lambda q, *args: shapes.append(q.shape) or jet_values(q, *args))
    densities = analysis.DensityAccumulator(cfg, eps, [Kind.ENERGY, Kind.CHARGE])
    for sample in samples:
        densities.add(sample)
    densities.series(errors)
    assert len(shapes) == math.ceil(len(samples) / rows)
    assert shapes[0] == (members, rows, cfg.grid.N)
    assert shapes[-1] == (members, len(samples) % rows, cfg.grid.N)


def _default_scan_samples(cfg, eps):
    """The samples and errors of a scan's stream, at the default spacing."""
    errors = [None] * len(eps)
    samples = list(stream_members(cfg, eps, round(SCAN_SAMPLE_INTERVAL / cfg.dt), errors))
    return samples, errors


def _series(cfg, eps, kinds, samples, errors):
    densities = analysis.DensityAccumulator(cfg, eps, kinds)
    for sample in samples:
        densities.add(sample)
    return densities.series(errors)


@pytest.mark.parametrize("case_id", [CaseId.CASE1A, CaseId.CASE1B, CaseId.CASE2],
                         ids=lambda c: c.value)
def test_charge_bits_do_not_depend_on_the_kinds_requested(case_id):
    # each monomial is multiplied by its own coefficient, so a charge-only
    # accumulator sums the same products as one that also takes the energy
    cfg = default_scan_config(case_id)
    eps = [0.0, *map(float, np.logspace(-3, -1, 7))]
    samples, errors = _default_scan_samples(cfg, eps)
    alone = _series(cfg, eps, [Kind.CHARGE], samples, errors)
    both = _series(cfg, eps, [Kind.ENERGY, Kind.CHARGE], samples, errors)
    for [charge], [_, with_energy] in zip(alone, both):
        assert np.array_equal(charge.values.view(np.uint64),
                              with_energy.values.view(np.uint64))


# the six default scan blocks on the default eps grid, and the case1b scan
# of both kinds in a small box whose largest gains fail
_ENSEMBLES = ([(c, [k], 20.0, [0.0, *map(float, np.logspace(-3, -1, 7))])
               for c, k in _SCAN_BLOCKS]
              + [(CaseId.CASE1B, [Kind.ENERGY, Kind.CHARGE], 8.0,
                  [0.0, *map(float, np.logspace(-2, np.log10(30.0), 6))])])


@pytest.mark.filterwarnings("ignore:boundary amplitude at:RuntimeWarning")
@pytest.mark.parametrize("case_id,kinds,L,eps", _ENSEMBLES,
                         ids=[f"{c.value}-{'-'.join(k.value for k in ks)}-L{L:g}"
                              for c, ks, L, _ in _ENSEMBLES])
def test_each_member_has_the_bits_of_a_one_member_accumulator(case_id, kinds, L, eps):
    # the members share each block, and a failed member's rows hold zeros,
    # yet each surviving member's Q(t) is that of its samples fed alone
    src = default_scan_config(case_id)
    cfg = replace(src, grid=Grid(L, src.grid.N))
    samples, errors = _default_scan_samples(cfg, eps)
    survivors = [m for m, error in enumerate(errors) if error is None]
    assert survivors[0] == 0 and (L == 20.0) == (len(survivors) == len(eps))
    series = _series(cfg, eps, kinds, samples, errors)
    for m in survivors:
        fed = [Sample(s.t, np.zeros(1, int), s.q[s.members == m]) for s in samples]
        alone = _series(cfg, [eps[m]], kinds, fed, [None])[0]
        for ts, one in zip(series[m], alone):
            assert np.array_equal(ts.values.view(np.uint64), one.values.view(np.uint64))
    assert all(series[m] is None for m in range(len(eps)) if m not in survivors)


def _normal_form_density(densities, m, q, t):
    """The per-node density of `densities`' one kind for member m at one
    field q, (1, N), at time t, from its normal form: sum_p t^p sum_m C M,
    on member m's rows of the coefficients."""
    block = q[None]  # (members, rows, N), member m alone
    jets = jet_values(block, densities.cfg.grid, densities.orders)
    coeffs = [c[[m]] for c in densities.coeffs]
    integrands = analysis._integrands(jets, densities.uses, coeffs, block.shape)
    return sum(t ** p * integrands[0, p] for p in densities.powers[0])[0, 0]


# the six default scans on their own grid, and the cancelling densities
# resampled to N = 4096 (with a sample stride that keeps the 40-digit
# reference to a few thousand nodes)
_ACCURACY = ([(c, k, 256, 10) for c in (CaseId.CASE1A, CaseId.CASE1B, CaseId.CASE2)
              for k in (Kind.CHARGE, Kind.ENERGY)]
             + [(c, k, 4096, 50) for c in (CaseId.CASE1B, CaseId.CASE2)
                for k in (Kind.CHARGE, Kind.ENERGY)])


@pytest.mark.parametrize("case_id,kind,n,stride", _ACCURACY,
                         ids=[f"{c.value}-{k.value}-N{n}" for c, k, n, _ in _ACCURACY])
def test_normal_form_density_is_as_accurate_as_the_walk(case_id, kind, n, stride):
    # the per-node density through the normal form against plain eval_expr
    # of the on-shell density (the walk) and a 40-digit reference, on the
    # default scan configuration at eps = 0 and every EPS_LIST value, every
    # `stride`-th sample up to t = 5.  Where |x| >= 1
    # the two agree within 1e-14 of the density's peak.  Nearer x = 0 the
    # 1/x^k coefficients cancel and the walk itself is off by up to 2e-13 at
    # 0.2 <= |x| < 1 (N = 256) and 2e-8 at |x| < 0.2 (N = 4096), so there
    # each is held to the reference: the normal form's largest error at most
    # twice the walk's, in each of the two bands
    src = default_scan_config(case_id)
    cfg = replace(src, grid=Grid(src.grid.L, n))
    grid = cfg.grid
    eps = [0.0] + EPS_LIST
    errors = [None] * len(eps)
    samples = list(stream_members(src, eps, 4 * stride, errors))
    assert errors == [None] * len(eps)
    e = analysis.density_expr(case_id, kind, "Tt")
    densities = analysis.DensityAccumulator(cfg, eps, [kind])
    bands = [np.flatnonzero(np.abs(grid.x) < 0.2),
             np.flatnonzero((np.abs(grid.x) >= 0.2) & (np.abs(grid.x) < 1.0))]
    far = np.abs(grid.x) >= 1.0
    worst = np.zeros((2, 2))  # [band, (walk, normal form)]
    for s in samples:
        for row, m in enumerate(s.members):
            q = s.q[[row]] if n == src.grid.N else resample(s.q[[row]], src.grid, grid)
            params = cfg.params.replace(eps=densities.eps[m])
            jets = jet_values(q[0], grid)
            walk = eval_expr(e, JetBatch(np.full(n, s.t), grid.x, jets), params)
            normal = _normal_form_density(densities, m, q, s.t)
            peak = np.max(np.abs(walk))
            assert np.max(np.abs(normal - walk)[far]) <= 1e-14 * peak
            for b, nodes_in in enumerate(bands):
                ref = np.array([float(eval_decimal(e, s.t, grid.x[j],
                                                   {c: v[j] for c, v in jets.items()}, params))
                                for j in nodes_in])
                worst[b] = np.maximum(worst[b], [np.max(np.abs(walk[nodes_in] - ref)) / peak,
                                                 np.max(np.abs(normal[nodes_in] - ref)) / peak])
    assert np.all(worst[:, 1] <= 2.0 * worst[:, 0]), worst


@pytest.mark.parametrize("kind,ffts", [(Kind.CHARGE, 0), (Kind.ENERGY, 2)])
def test_a_block_takes_only_the_jets_its_monomials_read(kind, ffts, monkeypatch):
    # charge reads u and v alone; energy also u_xx and v_xx: one forward
    # and one inverse FFT, and no u_x
    cfg = _short_cfg(CaseId.CASE2, T_final=0.0)
    densities = analysis.DensityAccumulator(cfg, [0.05], [kind])
    calls = []
    for name in ("fft", "ifft"):
        plain = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda a, plain=plain, name=name:
                            calls.append(name) or plain(a))
    densities.add(Sample(0.5, np.zeros(1, int), initial_condition(cfg)[None]))
    [[ts]] = densities.series([None])
    assert len(calls) == ffts and sorted(set(calls)) == (["fft", "ifft"] if ffts else [])
    assert np.isfinite(ts.values).all()


def test_zero_field_has_zero_density():
    cfg = _short_cfg()
    states = [Sample(0.1 * i, np.zeros(1, int), np.zeros((1, cfg.grid.N), complex))
              for i in range(3)]
    ts = density_timeseries(Trajectory(cfg, states), CaseId.CASE1A, Kind.ENERGY)
    assert np.all(ts.values == 0.0)
    assert drift_from_timeseries(ts) == (0.0, 0.0)


@pytest.mark.parametrize("case_id,kind", [
    (CaseId.CASE1A, Kind.ENERGY),
    (CaseId.CASE1A, Kind.CHARGE),
    (CaseId.CASE2, Kind.CHARGE),
])
def test_density_forms_agree(case_id, kind):
    traj = run(_short_cfg(case_id, T_final=0.2), sample_every=50)
    a = density_timeseries(traj, case_id, kind, form="Tt")
    b = density_timeseries(traj, case_id, kind, form="PhiT")
    assert np.max(np.abs(a.values - b.values)) < 1e-10


def test_density_rejects_mismatched_case():
    traj = run(_short_cfg(T_final=0.0))
    with pytest.raises(ValueError, match="integrated for"):
        density_timeseries(traj, CaseId.CASE2, Kind.CHARGE)


def test_density_rejects_unknown_form_and_missing_densities():
    traj = run(_short_cfg(T_final=0.0))
    with pytest.raises(ValueError, match="form"):
        density_timeseries(traj, CaseId.CASE1A, Kind.CHARGE, form="Tx")
    traj1c = run(_short_cfg(CaseId.CASE1C, T_final=0.0))
    with pytest.raises(ValueError, match="no conserved density"):
        density_timeseries(traj1c, CaseId.CASE1C, Kind.ENERGY)


def test_uncataloged_density_is_typed():
    # a form that is not cataloged for the block raises the typed error,
    # which the CLI skips under --case all; an unknown form name does not
    for case_id, kind, form in [(CaseId.CASE1C, Kind.CHARGE, "Tt"),
                                (CaseId.CASE2, Kind.ENERGY, "PhiT")]:
        with pytest.raises(DensityUnavailableError):
            drift_scan(case_id, [kind], EPS_LIST, form=form)
    with pytest.raises(ValueError) as info:
        drift_scan(CaseId.CASE1A, [Kind.CHARGE], EPS_LIST, form="Tx")
    assert not isinstance(info.value, DensityUnavailableError)


def test_flux_needs_jets_the_solver_does_not_carry():
    # the energy flux involves t-jets, which jet_values does not produce and
    # the on-shell reduction does not reach for mixed t-x derivatives; this
    # is why fluxes are not offered as scan densities
    cfg = _short_cfg(T_final=0.0)
    state = run(cfg).snapshots[0]
    jets = jet_values(state.q[0], cfg.grid)
    batch = JetBatch(np.zeros(cfg.grid.N), cfg.grid.x, jets)
    tx = load_catalog().conserved_vector(CaseId.CASE1A, Kind.ENERGY).Tx
    with pytest.raises(EvalError):
        eval_expr(tx, batch, cfg.params)


# ---------------------------------------------------------------------------
# fits and scans


def test_loglog_fit_recovers_exact_power_law():
    xs = np.logspace(-3, -1, 6)
    ys = 0.3 * xs ** 2.5
    slope, intercept, resid = fit_loglog_slope(xs, ys)
    assert slope == pytest.approx(2.5, abs=1e-12)
    assert intercept == pytest.approx(np.log(0.3), abs=1e-12)
    assert resid < 1e-13


def test_loglog_fit_input_validation():
    with pytest.raises(ValueError, match="two points"):
        fit_loglog_slope([1.0], [1.0])
    with pytest.raises(ValueError, match="positive"):
        fit_loglog_slope([1e-3, 1e-2], [0.0, 1.0])


def test_scan_input_validation():
    with pytest.raises(ValueError, match="at least 4"):
        drift_scan(CaseId.CASE1A, [Kind.CHARGE], [1e-3, 1e-2, 1e-1])
    with pytest.raises(ValueError, match="positive"):
        drift_scan(CaseId.CASE1A, [Kind.CHARGE], [0.0, 1e-3, 1e-2, 1e-1])
    with pytest.raises(ValueError, match="sorted"):
        drift_scan(CaseId.CASE1A, [Kind.CHARGE], [1e-1, 1e-2, 1e-3, 1e-4])
    with pytest.raises(ValueError, match="case"):
        drift_scan(CaseId.CASE2, [Kind.CHARGE], EPS_LIST, cfg=_short_cfg())


def test_scan_without_density_fails_before_stepping(monkeypatch):
    def no_stepping(*args, **kwargs):
        raise AssertionError("members were stepped")

    monkeypatch.setattr(analysis, "stream_members", no_stepping)
    with pytest.raises(ValueError, match="no conserved density"):
        drift_scan(CaseId.CASE1C, [Kind.CHARGE], EPS_LIST)
    with pytest.raises(ValueError, match="form"):
        drift_scan(CaseId.CASE2, [Kind.ENERGY], EPS_LIST, form="PhiT")


def test_scan_of_two_kinds_steps_the_case_once(monkeypatch):
    stepped = []

    def counting(cfg, *args, **kwargs):
        stepped.append(cfg.case_id)
        return stream_members(cfg, *args, **kwargs)

    monkeypatch.setattr(analysis, "stream_members", counting)
    kw = dict(cfg=_short_cfg(T_final=0.5, dt=2e-3))
    both = drift_scan(CaseId.CASE1A, [Kind.ENERGY, Kind.CHARGE], EPS_LIST[:4], **kw)
    assert stepped == [CaseId.CASE1A]
    assert [r.kind for r in both] == [Kind.ENERGY, Kind.CHARGE]
    for rep in both:
        [single] = drift_scan(CaseId.CASE1A, [rep.kind], EPS_LIST[:4], **kw)
        assert rep == single
    with pytest.raises(ValueError, match="at least one kind"):
        drift_scan(CaseId.CASE1A, [], EPS_LIST)
    assert len(stepped) == 3


def test_default_scan_starts_off_center():
    cfg = default_scan_config(CaseId.CASE1A)
    assert cfg.initial == Gaussian(1.0, 1.0, 0.5)


@pytest.mark.parametrize("case_id", [CaseId.CASE1A, CaseId.CASE1B, CaseId.CASE2])
def test_default_scans_are_resolved(case_id):
    # the scans' grid and time step are chosen together: at every sample of
    # the floor and of each member of the CLI's default eps grid, at most
    # 1e-6 of |q-hat|^2 lies beyond 2/3 of the largest wavenumber, and the
    # edge nodes stay below the boundary warning
    cfg = default_scan_config(case_id)
    eps = [0.0, *np.logspace(-3, -1, 7)]
    k = np.abs(cfg.grid.k)
    tail = k > 2.0 / 3.0 * k.max()
    errors, times = [None] * len(eps), []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for sample in stream_members(cfg, eps, round(SCAN_SAMPLE_INTERVAL / cfg.dt), errors):
            power = np.abs(np.fft.fft(sample.q)) ** 2
            assert np.all(power[:, tail].sum(axis=-1) <= 1e-6 * power.sum(axis=-1)), sample.t
            amp = np.abs(sample.q)
            edge = amp[:, [0, 1, -2, -1]].max(axis=-1)
            assert np.all(edge < BOUNDARY_WARN * amp.max(axis=-1)), sample.t
            times.append(sample.t)
    assert errors == [None] * len(eps) and len(times) == 101


def test_charge_drift_scales_linearly(charge_scan):
    rep = charge_scan
    assert rep.slope_valid and rep.fit_members >= 4
    assert rep.slope == pytest.approx(1.0, abs=0.3)
    # every qualifying member clears the eps = 0 floor by the full margin
    assert rep.floor < 1e-9
    drifts = [m.drift_rel for m in rep.members if m.eps > 0]
    assert min(drifts) >= 10.0 * rep.floor
    assert not any(m.failed for m in rep.members)


def test_drift_grows_with_eps(charge_scan):
    drifts = [m.drift_rel for m in charge_scan.members if m.eps > 0]
    assert drifts == sorted(drifts)


def test_floor_boundary_failure_keeps_its_type():
    cfg = _short_cfg(grid=Grid(L=3.0, N=64), T_final=0.01)
    with pytest.raises(BoundaryContaminationError):
        drift_scan(CaseId.CASE1A, [Kind.CHARGE], EPS_LIST, cfg=cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_floor_blow_up_keeps_its_time():
    # |q|^2 overflows in the first step, so the floor blows up with the rest
    # (the exact flow keeps the norm at eps = 0: finite data does not blow up)
    cfg = _short_cfg(grid=Grid(N=128), dt=0.05, T_final=0.2,
                     initial=Gaussian(1e160, 1.0, 0.5))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as exc:
        drift_scan(CaseId.CASE1A, [Kind.CHARGE], EPS_LIST, cfg=cfg, sample_every=1)
    assert exc.value.t > 0


@pytest.mark.filterwarnings("ignore:boundary amplitude at:RuntimeWarning")
@pytest.mark.parametrize("dt,T_final,sample_every", [
    (5e-3, 0.1, 10), (1e-3, 0.1, 50), (3e-3, 0.06, 17), (0.1, 0.2, 1)])
def test_scan_snapshots_are_spaced_in_time_whatever_the_step(dt, T_final, sample_every):
    # the default stride keeps snapshots about 0.05 apart, and at least a
    # step (the coarse dt = 0.1 run stirs the boundary monitor)
    cfg = _short_cfg(grid=Grid(N=128), dt=dt, T_final=T_final)
    [rep] = drift_scan(CaseId.CASE1A, [Kind.CHARGE], EPS_LIST, cfg=cfg)
    assert rep.sample_every == sample_every


def test_scan_boundary_proximity_warns_once_per_member():
    # every member starts near the edge of the box and stays there
    cfg = _short_cfg(T_final=0.01, initial=Gaussian(1.0, 1.0, 14.0))
    with pytest.warns(RuntimeWarning, match="boundary amplitude") as rec:
        [rep] = drift_scan(CaseId.CASE1A, [Kind.CHARGE], EPS_LIST, cfg=cfg, sample_every=1)
    boundary = [w for w in rec if "boundary" in str(w.message)]
    assert len(boundary) == len(rep.members) and not any(m.failed for m in rep.members)
    assert all(w.filename == __file__ for w in boundary)  # the caller of drift_scan
    # each warning names its member, and each member is named once
    named = sorted(str(w.message).rsplit("(eps = ", 1)[1] for w in boundary)
    assert named == sorted(f"{m.eps:.6g})" for m in rep.members)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_memory_does_not_grow_with_the_sample_count():
    # samples are reduced a block at a time as they are stepped, so 401 of
    # them per member take no more memory than 41; both runs fill a block
    # (5 samples of the 6 members at N = 512), or the peaks would compare
    # block sizes
    cfg = _short_cfg(scheme="suzuki4", dt=5e-3, T_final=2.0, grid=Grid(N=512))
    assert cfg.steps // 10 + 1 >= EVAL_BLOCK_POINTS // ((1 + len(EPS_LIST)) * cfg.grid.N)

    def scan(sample_every, cfg=cfg):
        return lambda: drift_scan(CaseId.CASE1A, [Kind.CHARGE], EPS_LIST, cfg=cfg,
                                  sample_every=sample_every)

    scan(10, replace(cfg, T_final=0.05))()  # first-call caches stay out of the peaks
    sparse, dense = _traced_peak(scan(10)), _traced_peak(scan(1))
    assert dense <= 1.25 * sparse, (dense, sparse)


def _single_run(cfg, eps, kind=Kind.CHARGE):
    """(Q0, drift_abs, drift_rel) of one member integrated on its own, with
    the snapshots of a scan at SAMPLE_EVERY."""
    traj = run(replace(cfg, params=cfg.params.replace(eps=eps)), sample_every=SAMPLE_EVERY)
    ts = density_timeseries(traj, cfg.case_id, kind)
    return (float(ts.values[0]), *drift_from_timeseries(ts))


def test_scan_members_match_single_runs(charge_scan):
    # stepping the members together changes no bit of any member's numbers
    cfg = _short_cfg()
    assert [m.eps for m in charge_scan.members] == [0.0] + EPS_LIST
    for m in charge_scan.members:
        assert (m.Q0, m.drift_abs, m.drift_rel) == _single_run(cfg, m.eps)


@pytest.mark.filterwarnings("ignore:boundary amplitude at:RuntimeWarning")
def test_failed_member_is_kept_and_left_out_of_the_fit(tmp_path):
    # in a small box only the largest gain carries mass past the boundary bound
    cfg = _short_cfg(grid=Grid(L=6.0, N=128))
    [rep] = drift_scan(CaseId.CASE1A, [Kind.CHARGE], EPS_LIST[:-1] + [1.0], cfg=cfg,
                       sample_every=SAMPLE_EVERY)
    *rest, failed = rep.members
    assert failed.failed and failed.eps == 1.0
    with pytest.raises(BoundaryContaminationError) as exc:
        run(replace(cfg, params=cfg.params.replace(eps=1.0)), sample_every=SAMPLE_EVERY)
    assert failed.error == str(exc.value)

    for m in rest:
        assert not m.failed
        assert (m.Q0, m.drift_abs, m.drift_rel) == _single_run(cfg, m.eps)
    gained = rest[1:]
    assert rep.slope_valid and rep.fit_members == len(gained) == 4
    assert (rep.slope, rep.intercept, rep.fit_residual) == fit_loglog_slope(
        [m.eps for m in gained], [m.drift_rel for m in gained])

    path = tmp_path / "drift.csv"
    write_drift_csv([rep], path)
    lines = path.read_text().splitlines()
    assert f"# failed eps=1: {failed.error}" in lines
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 1 + len(rep.members)
    row = data[-1].split(",")
    assert row[:3] == ["case1a", "charge", "1"] and row[11:] == ["nan"] * 3


# ---------------------------------------------------------------------------
# emission


def test_drift_csv_layout(charge_scan, tmp_path):
    path = tmp_path / "drift.csv"
    write_drift_csv([charge_scan], path, header_lines=["seed=0"])
    lines = path.read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == DRIFT_CSV_HEADER
    assert DRIFT_CSV_HEADER == ("case,kind,eps,mu,sigma,alpha,g,N,L,dt,"
                                "T_final,Q0,drift_abs,drift_rel")
    assert len(data) == 1 + 1 + len(EPS_LIST)  # header, floor, members
    first = data[1].split(",")
    assert first[:3] == ["case1a", "charge", "0"]
    assert float(first[11]) == charge_scan.members[0].Q0
    assert any(l.startswith("# case=case1a") for l in lines)
    assert "# seed=0" in lines


def test_timeseries_csv_round_trips(tmp_path):
    ts = DensityTimeseries(CaseId.CASE2, Kind.CHARGE, "PhiT", 0.02,
                           np.array([0.0, 0.5]), np.array([1.0, 1.0 + 1e-16]))
    path = tmp_path / "ts.csv"
    write_timeseries_csv([ts], path)
    lines = path.read_text().splitlines()
    assert lines[0] == TIMESERIES_CSV_HEADER == "case,kind,form,eps,t,Q"
    cells = lines[2].split(",")
    assert cells[:4] == ["case2", "charge", "PhiT", "0.02"]
    assert float(cells[5]) == 1.0 + 1e-16  # 17 significant digits survive


def test_timeseries_csv_matches_the_row_by_row_writer(tmp_path):
    odd = [0.0, -0.0, 1 + 2.0 ** -17, 1e16, 9.9999999999999999e-5, 5e-324, 1.7976931348623157e308,
           math.nan, -math.inf, 1 / 3]
    ts = DensityTimeseries(CaseId.CASE1A, Kind.ENERGY, "Tt", 0.1 + 0.2,
                           np.arange(len(odd)) * 0.05, np.array(odd))
    path = tmp_path / "ts.csv"
    write_timeseries_csv([ts, ts], path, header_lines=["seed=0"])
    rows = "".join(f"case1a,energy,Tt,0.30000000000000004,{t:.17g},{q:.17g}\n"
                   for t, q in zip(ts.times.tolist(), odd))
    assert path.read_text() == f"# seed=0\n{TIMESERIES_CSV_HEADER}\n" + 2 * rows


def test_emit_report_empty_still_writes_headers(tmp_path):
    paths = emit_report([], tmp_path)
    assert sorted(p.rsplit("/", 1)[1] for p in paths) == ["drift.csv",
                                                          "drift_slopes.csv"]
    drift, slopes = sorted(paths)
    assert open(drift).read().strip() == DRIFT_CSV_HEADER
    assert open(slopes).read().strip() == SLOPE_CSV_HEADER


def test_every_output_is_utf8_whatever_the_locale(tmp_path):
    # an ASCII locale: text files opened without an encoding could not
    # hold the header, and under any other one they would differ from
    # the trajectory's UTF-8 header bytes
    code = """if True:
        import sys
        import numpy as np
        from ptnls.analysis import (DensityTimeseries, emit_report,
                                    write_timeseries_csv, write_timeseries_svg)
        from ptnls.catalog import CaseId, Kind
        from ptnls.solver import SolverConfig, TrajectoryWriter
        out, header = sys.argv[1], ["out_dir=r\\u00e9sum\\u00e9"]
        ts = DensityTimeseries(CaseId.CASE2, Kind.CHARGE, "PhiT", 0.02,
                               np.array([0.0]), np.array([1.0]))
        emit_report([], out, header_lines=header)
        write_timeseries_csv([ts], out + "/density_timeseries.csv", header)
        write_timeseries_svg([ts], out + "/density_timeseries.svg", header)
        with open(out + "/trajectory.csv", "wb") as fh:
            TrajectoryWriter(fh, SolverConfig(), header)
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONUTF8="0")
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["density_timeseries.csv", "density_timeseries.svg", "drift.csv",
                     "drift_slopes.csv", "trajectory.csv"]
    for name in names:
        assert b"out_dir=r\xc3\xa9sum\xc3\xa9" in (tmp_path / name).read_bytes(), name


def test_config_file_is_read_as_utf8_whatever_the_locale(tmp_path):
    # the config file is UTF-8, as every file the package writes; under an
    # ASCII locale it would not decode if opened without an encoding.  The
    # non-ASCII text is a comment: an ASCII locale could not name a
    # directory r\u00e9sum\u00e9 either
    (tmp_path / "cfg.txt").write_bytes(b"# r\xc3\xa9sum\xc3\xa9\nout_dir=out\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONUTF8="0")
    done = subprocess.run([sys.executable, "-m", "ptnls.cli", "simulate", "--config",
                           "cfg.txt", "--N", "64", "--t-final", "0.01", "--sample-every", "5"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "trajectory.csv").exists()


_SHORT_RUNS = {
    "simulate": ["simulate", "--case", "1a", "--N", "64", "--t-final", "0.01",
                 "--sample-every", "5"],
    "drift-scan": ["drift-scan", "--case", "1a", "--kind", "charge", "--eps-grid",
                   "1e-3:1e-1:4", "--t-final", "0.5", "--dt", "2e-3", "--N", "256"],
}


@pytest.mark.parametrize("command", sorted(_SHORT_RUNS))
@pytest.mark.parametrize("source", ["config", "argument"])
def test_unencodable_out_dir_is_refused_before_anything_is_made(tmp_path, command, source):
    # under an ASCII locale a config's out_dir=r\u00e9sum\u00e9 names no
    # file, and an argument's undecodable bytes reach the UTF-8 headers as
    # lone surrogates; either is refused by name before a directory is made
    # or a step is taken
    args = [sys.executable, "-m", "ptnls.cli", *_SHORT_RUNS[command]]
    if source == "config":
        (tmp_path / "cfg.txt").write_bytes(b"out_dir=r\xc3\xa9sum\xc3\xa9\n")
        args += ["--config", "cfg.txt"]
    else:
        args += ["--out-dir", b"r\xc3\xa9s2"]
    before = sorted(p.name for p in tmp_path.iterdir())
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONUTF8="0")
    done = subprocess.run(args, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 2, done.stderr
    assert "out_dir" in done.stderr and "(ascii)" in done.stderr, done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_drift_svg_is_well_formed(charge_scan, tmp_path):
    paths = emit_report([charge_scan], tmp_path, header_lines=["seed=0"])
    assert [p.rsplit("/", 1)[1] for p in paths] == [
        "drift.csv", "drift_slopes.csv", "drift_case1a_charge.svg"]
    path = paths[-1]
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    assert root.get("width") == "800" and root.get("height") == "500"
    text = open(path).read()
    assert "slope" in text and "seed=0" in text
    assert "case=case1a" in text  # config rides along in <metadata>


def test_timeseries_svg_is_well_formed(tmp_path):
    traj = run(_short_cfg(T_final=0.2))
    ts = density_timeseries(traj, CaseId.CASE1A, Kind.CHARGE)
    path = tmp_path / "density_timeseries.svg"
    write_timeseries_svg([ts], path, header_lines=["seed=0"])
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg") and root.get("width") == "800"
    assert "seed=0" in path.read_text()


def test_emit_report_writes_the_drift_tables_and_one_chart_per_report(tmp_path):
    reports = drift_scan(CaseId.CASE1A, [Kind.ENERGY, Kind.CHARGE], EPS_LIST[:4],
                         cfg=_short_cfg(T_final=0.1, dt=2e-3))
    paths = emit_report(reports, tmp_path / "out")
    names = ["drift.csv", "drift_slopes.csv", "drift_case1a_energy.svg",
             "drift_case1a_charge.svg"]
    assert [os.path.basename(p) for p in paths] == names
    assert sorted(os.listdir(tmp_path / "out")) == sorted(names)
    # a report writes drift reports only, under these fixed names
    assert list(inspect.signature(emit_report).parameters) == [
        "reports", "out_dir", "header_lines"]
    # the params line states no eps: every member takes its own
    for path in paths:
        text = Path(path).read_text()
        assert "mu=1 sigma=1 alpha=0.5 g=1" in text, path
        assert "eps=0.05" not in text, path


def test_scan_outputs_are_reproducible(tmp_path):
    kw = dict(cfg=_short_cfg(T_final=0.5, dt=2e-3))
    [a] = drift_scan(CaseId.CASE1A, [Kind.CHARGE], EPS_LIST[:4], **kw)
    [b] = drift_scan(CaseId.CASE1A, [Kind.CHARGE], EPS_LIST[:4], **kw)
    pa, pb = tmp_path / "a", tmp_path / "b"
    files_a = emit_report([a], pa)
    files_b = emit_report([b], pb)
    for fa, fb in zip(files_a, files_b):
        assert open(fa, "rb").read() == open(fb, "rb").read()
