"""Acceptance gate: the headline checks, one verdict line per criterion.

Each test prints `[PASS]`/`[FAIL] criterion N` with the measured numbers;
run with `pytest -s` to watch the lines go by.  Tolerances and runtime
budgets are asserted, not just reported.
"""

import math
import time

import numpy as np
import pytest

from ptnls.analysis import (default_scan_config, density_timeseries,
                            drift_from_timeseries, drift_scan)
from ptnls.catalog import CaseId, Kind, load_catalog
from ptnls.cli import main as cli_main
from ptnls.jetexpr import (JetSampler, ParamValues, const, euler_operator,
                           expr_equiv, random_polynomial, total_derivative)
from ptnls.solver import (Gaussian, Grid, SolverConfig,
                          initial_condition, run)
from ptnls.verify import (check_divergence, check_residual,
                          independent_variational_check)

_CATALOG = load_catalog()
ALL_BLOCKS = [(c, k) for c in CaseId for k in Kind]
PRINTED_BLOCKS = [(c, k) for c, k in ALL_BLOCKS
                  if not _CATALOG.residual_target(c, k).derived]
FLUX_BLOCKS = [(CaseId.CASE1A, Kind.ENERGY), (CaseId.CASE1A, Kind.CHARGE),
               (CaseId.CASE2, Kind.ENERGY), (CaseId.CASE2, Kind.CHARGE)]


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def residual_data():
    t0 = time.perf_counter()
    reports = {(c, k): check_residual(c, k, n=100, tol=1e-10, seed=0)
               for c, k in ALL_BLOCKS}
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ground_state_run():
    # eps = 0, mu = 1: the PT gain is off but the nonlinearity is live
    cfg = SolverConfig(case_id=CaseId.CASE1A,
                       params=ParamValues(eps=0.0, mu=1.0),
                       dt=1e-3, T_final=5.0, initial=Gaussian(math.pi ** -0.25, 1.0, 0.0))
    return run(cfg)


def test_criterion_01_residual_targets_reproduced(residual_data):
    reports, elapsed = residual_data
    assert len(PRINTED_BLOCKS) == 7
    worst = max(reports[b].worst_rel_error for b in PRINTED_BLOCKS)
    ok = (all(reports[b].match for b in PRINTED_BLOCKS)
          and worst < 1e-10 and elapsed < 30.0)
    _verdict("criterion 1", ok,
             f"7 transcribed residual targets reproduced, worst rel error "
             f"{worst:.3e} (tol 1e-10), n=100, {elapsed:.1f}s (budget 30s)")


def test_criterion_02_euler_annihilates_divergences():
    rng = np.random.default_rng(1234)
    t0 = time.perf_counter()
    worst_note = ""
    ok = True
    for i in range(200):
        f = random_polynomial(rng)
        for direction in ("t", "x"):
            df = total_derivative(f, direction, max_order=6)
            for comp in euler_operator(df, max_order=6):
                res = expr_equiv(comp, const(0), n=20, tol=1e-9)
                if not res:
                    ok = False
                    worst_note = f"; first failure at expr {i}, D_{direction}"
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _verdict("criterion 2", ok,
             f"euler operator annihilated D_t f and D_x f for 200 random f "
             f"(tol 1e-9), {elapsed:.1f}s (budget 60s){worst_note}")


def test_criterion_03_variational_oracle_agrees():
    rng = np.random.default_rng(42)
    batch = JetSampler(seed=7).batch(20, 2)
    worst = 0.0
    for i in range(20):
        e = random_polynomial(rng)
        res = independent_variational_check(e, batch.point(i), ParamValues())
        worst = max(worst, res.rel_error)
    _verdict("criterion 3", worst < 1e-4,
             f"finite-difference variational oracle vs euler engine on 20 "
             f"expressions: worst rel error {worst:.3e} (tol 1e-4)")


def test_criterion_04_residuals_scale_linearly(residual_data):
    reports, _ = residual_data
    slopes = {b: reports[b].epsilon_slope for b in PRINTED_BLOCKS}
    worst = max(abs(s - 1.0) for s in slopes.values())
    _verdict("criterion 4", worst < 0.01,
             f"eps-slope of every printed residual within {worst:.4f} of 1 "
             f"(tol 0.01)")


def test_criterion_05_divergence_identity_at_eps0():
    reports = {b: check_divergence(*b, n=100, tol=1e-9, seed=0)
               for b in FLUX_BLOCKS}
    worst = max(r.worst_rel_error for r in reports.values())
    ok = all(r.zero_at_eps0 for r in reports.values()) and worst < 1e-9
    # where a raw reading exists, its diff against the corrected form must
    # ride along in the report
    for block in ((CaseId.CASE1A, Kind.ENERGY), (CaseId.CASE2, Kind.ENERGY)):
        ok = ok and any(rc.slot == "Tx" and not rc.parses
                        for rc in reports[block].raw_comparisons)
    signs = ", ".join(f"{c.value}/{k.value} {'+' if reports[(c, k)].orientation > 0 else '-'}Q.E"
                      for c, k in FLUX_BLOCKS)
    _verdict("criterion 5", ok,
             f"D_t Tt + D_x Tx matches Q.E at eps=0 where fluxes exist, "
             f"worst rel error {worst:.3e} (tol 1e-9); orientations: {signs}")


def test_criterion_06_ground_state_stationary():
    t0 = time.perf_counter()
    cfg = SolverConfig(case_id=CaseId.CASE1A,
                       params=ParamValues(eps=0.0, mu=0.0),
                       dt=1e-3, T_final=5.0, initial=Gaussian(math.pi ** -0.25, 1.0, 0.0))
    traj = run(cfg)
    q0 = initial_condition(cfg)
    err = max(float(np.max(np.abs(s.q[0] - q0 * np.exp(-0.5j * s.t))))
              for s in traj.snapshots)
    elapsed = time.perf_counter() - t0
    ok = err < 1e-6 and elapsed < 30.0
    _verdict("criterion 6", ok,
             f"harmonic ground state stationary over [0, 5]: max error "
             f"{err:.3e} (tol 1e-6), {elapsed:.1f}s (budget 30s)")


def test_criterion_07_conserved_quantities_without_gain(ground_state_run):
    traj = ground_state_run
    charge = density_timeseries(traj, CaseId.CASE1A, Kind.CHARGE)
    energy = density_timeseries(traj, CaseId.CASE1A, Kind.ENERGY)
    _, charge_rel = drift_from_timeseries(charge)
    _, energy_rel = drift_from_timeseries(energy)
    ok = charge_rel < 1e-6 and energy_rel < 1e-5
    _verdict("criterion 7", ok,
             f"eps=0, mu=1 drifts: charge {charge_rel:.3e} (tol 1e-6), "
             f"energy {energy_rel:.3e} (tol 1e-5)")


def test_criterion_08_charge_drift_scales_linearly():
    t0 = time.perf_counter()
    eps_list = list(np.logspace(-3, -1, 7))
    [rep] = drift_scan(CaseId.CASE1A, [Kind.CHARGE], eps_list,
                       cfg=default_scan_config(CaseId.CASE1A))
    elapsed = time.perf_counter() - t0
    ok = (rep.slope_valid and rep.fit_members >= 4
          and abs(rep.slope - 1.0) < 0.3 and elapsed < 300.0)
    _verdict("criterion 8", ok,
             f"charge drift vs eps: slope {rep.slope:.3f} (target 1.0 +/- 0.3) "
             f"over {rep.fit_members} members above 10x floor "
             f"{rep.floor:.2e}, {elapsed:.1f}s (budget 300s)")


def test_criterion_09_density_forms_agree():
    cfg = SolverConfig(case_id=CaseId.CASE1A, params=ParamValues(eps=0.05),
                       dt=1e-3, T_final=1.0, initial=Gaussian(1.0, 1.0, 0.5))
    traj = run(cfg)
    a = density_timeseries(traj, CaseId.CASE1A, Kind.CHARGE, form="Tt")
    b = density_timeseries(traj, CaseId.CASE1A, Kind.CHARGE, form="PhiT")
    diff = float(np.max(np.abs(a.values - b.values)))
    _verdict("criterion 9", diff < 1e-10,
             f"component and complex charge densities agree along a gained "
             f"trajectory: max |diff| {diff:.3e} (tol 1e-10)")


def test_criterion_10_seeded_runs_are_reproducible(tmp_path, capsys):
    out_dir = tmp_path / "scan"
    argv = ["drift-scan", "--case", "1a", "--kind", "charge",
            "--eps-grid", "1e-3:1e-1:4", "--t-final", "0.5", "--dt", "2e-3",
            "--N", "256", "--seed", "0", "--out-dir", str(out_dir)]
    assert cli_main(argv) == 0
    first = {n: (out_dir / n).read_bytes()
             for n in ("drift.csv", "drift_slopes.csv")}
    assert cli_main(argv) == 0
    capsys.readouterr()
    same = all((out_dir / n).read_bytes() == blob for n, blob in first.items())
    _verdict("criterion 10", same,
             "two seeded drift-scan invocations wrote byte-identical CSVs")
