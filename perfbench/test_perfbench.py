"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench

They check that the gates pass on correct output and trip on a perturbed
expected value, that the tracer restores every attribute it wrapped, that
every emitted metric name is valid and declared in BENCHMARK.json, and that
the runner refuses to run without a source tree.
"""

import json
import re
import shutil
import subprocess
import sys

import run

run.prepare_environment()

import numpy as np  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ptnls import jetexpr, solver  # noqa: E402
from ptnls.catalog import CaseId, Kind  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY_DRIFT = ("--N", "128", "--t-final", "0.5")


def tiny_verify():
    return workloads.VerifyAll(polynomials=3,
                               oracle_blocks=[(CaseId.CASE1A, Kind.CHARGE)])


def tiny_drift(expected=0.0):
    return workloads.DriftScan(extra_args=TINY_DRIFT, blocks=[("1a", "charge", expected)])


def tiny_simulate():
    return workloads.SimulateFine(N=128, t_final=0.1, sample_every=20)


def round_of(workload, tmp_path, seed=3, tracer=None):
    return run.one_round(workload, seed, tmp_path, tracer)


def test_contract_names_and_units_are_valid():
    names = [w["name"] for w in CONTRACT["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for m in CONTRACT[group]:
            names.append(m["name"])
            assert UNIT.match(m["unit"]), m
            assert m["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert set(names[:len(CONTRACT["workloads"])]) == set(workloads.WORKLOADS)
    assert {m["name"] for m in CONTRACT["end_to_end"]} >= {"setup_s"}
    assert all(m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])


def test_verify_all_passes_and_reports_physics(tmp_path):
    r = round_of(tiny_verify(), tmp_path)
    assert r["failed"] == 0, r["failures"]
    assert r["attempted"] == 2 + 1 + 3
    assert r["physics"]["oracle_worst_rel_error"] < workloads.ORACLE_TOL


def test_verify_all_gate_trips_on_perturbed_expectation(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.FLUX_ORIENTATION, ("case2", "energy"), -1)
    monkeypatch.setattr(workloads, "ORACLE_TOL", 1e-12)
    r = round_of(tiny_verify(), tmp_path)
    assert r["failed"] == 2
    assert any("orientation" in f for f in r["failures"])
    assert any(f.startswith("oracle") for f in r["failures"])


def test_drift_scan_gate_trips_on_perturbed_slope(tmp_path):
    first = round_of(tiny_drift(), tmp_path)
    slope = first["physics"]["case1a_charge"]["slope"]
    assert first["failed"] == 1 and "slope" in first["failures"][0]
    good = round_of(tiny_drift(expected=slope), tmp_path)
    assert good["failed"] == 0, good["failures"]
    bad = round_of(tiny_drift(expected=slope + 2 * workloads.DRIFT_SLOPE_TOL), tmp_path)
    assert bad["failed"] == 1


def test_simulate_gate_checks_rows_and_charge(tmp_path, monkeypatch):
    w = tiny_simulate()
    r = round_of(w, tmp_path)
    assert r["failed"] == 0, r["failures"]
    assert r["physics"]["trajectory_rows"] == w.snapshots() * w.N
    assert r["bytes_written"] > 0
    monkeypatch.setattr(workloads, "Q0_CHARGE", workloads.Q0_CHARGE * (1 + 1e-6))
    assert round_of(w, tmp_path)["failed"] == 1


def test_numerical_round_gates_both_parts(tmp_path, monkeypatch):
    w = workloads.Numerical(tiny_drift(), tiny_simulate())
    r = round_of(w, tmp_path)
    assert r["attempted"] == 2
    assert r["failed"] == 1 and "slope" in r["failures"][0]  # expected slope 0
    assert set(r["physics"]) == {"drift", "simulate"}
    assert r["physics"]["simulate"]["trajectory_rows"] == w.simulate.snapshots() * w.simulate.N
    monkeypatch.setattr(workloads, "Q0_CHARGE", workloads.Q0_CHARGE * (1 + 1e-6))
    assert round_of(w, tmp_path)["failed"] == 2


def test_exception_in_body_counts_as_failure(tmp_path):
    class Broken:
        name = "broken"

        def steps(self, seed, out_dir):
            def boom():
                raise ValueError("boom")
            return [("boom", boom)]

    r = round_of(Broken(), tmp_path)
    assert (r["attempted"], r["failed"]) == (1, 1)
    assert "boom" in r["failures"][0]


def test_tracer_restores_every_wrapped_attribute(tmp_path):
    def bindings():
        out = {}
        for mod_name, mod in tracing.MODULES.items():
            for _, attr, _ in tracing.FUNCTIONS:
                if hasattr(mod, attr):
                    out[(mod_name, attr)] = getattr(mod, attr)
        for cls, attr, _ in tracing.METHODS:
            out[(cls.__name__, attr)] = cls.__dict__[attr]
        for owner, attr, _ in tracing.COUNTED:
            out[("numpy.fft", attr)] = getattr(owner, attr)
        return out

    before = bindings()
    tracer = tracing.Tracer()
    round_of(tiny_simulate(), tmp_path, tracer=tracer)
    assert bindings() == before
    assert not any("Tracer" in f.__qualname__ for f in before.values())
    assert jetexpr.eval_expr is before[("jetexpr", "eval_expr")]
    assert solver.Stepper.step is before[("Stepper", "step")]
    assert np.fft.fft is before[("numpy.fft", "fft")]


def test_traced_metrics_cover_the_contract(tmp_path):
    tracer = tracing.Tracer()
    rounds = [round_of(tiny_simulate(), tmp_path, tracer=tracer),
              round_of(tiny_verify(), tmp_path, tracer=tracer)]
    assert all(r["failed"] == 0 for r in rounds)
    m = tracer.layer_metrics(len(rounds))
    declared = {x["name"] for x in CONTRACT["per_layer"]}
    # the runner adds the fresh-interpreter, bytes and overhead figures
    added = {"cli.import_s", "jetexpr.import_s", "catalog.load_s",
             "analysis.bytes_written", "trace.overhead_frac"}
    assert set(m) | added == declared
    assert all(NAME.match(k) for k in m)
    steps = int(round(0.1 / 1e-3))
    assert m["solver.steps"] == steps / 2
    assert m["solver.fft_calls"] >= 4 * steps / 2
    assert m["verify.oracle_points"] == 0.5
    assert m["jetexpr.eval_calls.analysis"] > 0 and m["jetexpr.density_nodes"] > 0
    assert m["cli.self_s"] > 0
    # self time never exceeds the span
    for span, own in zip(tracer.spans, tracer.self_times()):
        assert 0 <= own <= span[3] - span[2]


def test_wall_is_the_sum_of_each_steps_fastest_time():
    rounds = [{"step_s": {"a": 2.0, "b": 5.0}}, {"step_s": {"a": 3.0, "b": 4.0}},
              {"step_s": {"a": 1.5}}]  # a round whose second step raised
    assert run.fastest_round_s(rounds) == 5.5


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans = [("a", "-", 0, 100, -1, True), ("b", "-", 10, 40, 0, True),
                    ("c", "-", 15, 25, 1, True), ("b", "-", 50, 60, 0, True)]
    assert tracer.self_times() == [60, 20, 10, 10]


def test_runner_refuses_without_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
