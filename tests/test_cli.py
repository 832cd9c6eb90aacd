"""End-to-end CLI tests, run in process through cli.main(argv), except the
few that read a whole process's exit code and stderr."""

import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from ptnls import __version__, analysis, cli, verify
from ptnls.catalog import CaseId, Kind, load_catalog
from ptnls.cli import (EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_FLUX_UNAVAILABLE,
                       EXIT_NUMERICAL, EXIT_OK, main)
from ptnls.jetexpr import JetSampler, complete_coords, coord_from_name, jet
from ptnls.solver import Grid, SolverConfig, run, write_trajectory_csv


def _json_records(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


# ---------------------------------------------------------------------------
# verify-euler


def test_verify_euler_single_block(capsys):
    assert main(["verify-euler", "--case", "1a", "--kind", "energy",
                 "--n", "40"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[ok] euler residual case1a/energy" in out
    (rec,) = _json_records(out)
    assert rec["check"] == "euler-residual" and rec["match"] is True
    assert rec["config"]["n"] == 40
    assert rec["config"]["version"] == __version__


def test_verify_euler_all_blocks(capsys):
    assert main(["verify-euler", "--n", "30"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("[ok] euler residual") == 8
    assert "[FAIL]" not in out
    # the two raw-source discrepancies are reported as notes, not failures
    assert "note: raw Ru differs from the corrected reading" in out
    assert "charge target instead" in out
    assert "(derived target)" in out  # the one block without a printed target


def test_verify_euler_rejects_unknown_case(capsys):
    assert main(["verify-euler", "--case", "9"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_flag_is_config_error(capsys):
    assert main(["verify-euler", "--bogus"]) == EXIT_CONFIG


def test_version_flag_exits_cleanly(capsys):
    assert main(["--version"]) == EXIT_OK
    assert __version__ in capsys.readouterr().out


# ---------------------------------------------------------------------------
# verify-divergence


def test_divergence_unavailable_flux_is_exit_3(capsys):
    assert main(["verify-divergence", "--case", "1b",
                 "--kind", "energy"]) == EXIT_FLUX_UNAVAILABLE
    assert "error:" in capsys.readouterr().err


def test_divergence_case2_energy_orientation(capsys):
    assert main(["verify-divergence", "--case", "2", "--kind", "energy",
                 "--n", "60"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "= +Q.E at eps=0" in out
    assert "note: raw Tx does not parse" in out
    (rec,) = _json_records(out)
    assert rec["orientation"] == 1 and rec["zero_at_eps0"] is True


def test_divergence_all_skips_missing_fluxes(capsys):
    assert main(["verify-divergence", "--n", "60"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("[skip] divergence") == 4  # case1b and case1c, both kinds
    assert out.count("[ok] divergence") == 4
    assert "[skip] divergence case1c/charge" in out


def _assert_sampled_point(named: dict, seed: int, n: int, order: int):
    """`named` is one point of JetSampler(seed).batch(n, order): every
    coordinate of that order, in `Jet` order, with that point's values."""
    coords = sorted(complete_coords(order))
    assert list(named) == [c.name() for c in coords]
    batch = JetSampler(seed).batch(n, order)
    (i,) = np.flatnonzero(batch.values[jet("u")] == named["u"])
    assert named == {c.name(): batch.values[c][i] for c in coords}


@pytest.mark.parametrize("seed", [0, 3])
def test_failing_checks_print_their_sampled_points(capsys, seed):
    # at tol 1e-300 roundoff fails every block, so each euler record names
    # its worst point and each divergence record its three worst
    cat = load_catalog()
    assert main(["verify-euler", "--seed", str(seed), "--tol", "1e-300"]) == EXIT_CHECK_FAILED
    records = _json_records(capsys.readouterr().out)
    assert len(records) == 8
    for rec in records:
        case_id, kind = CaseId(rec["case"]), Kind(rec["kind"])
        ru, rv = verify.euler_residual(case_id, kind)
        target = cat.residual_target(case_id, kind)
        point = rec["worst_point"]
        order = max(coord_from_name(name).order for name in point)
        # the witness of the u or the v comparison, whichever is worse
        assert order in (max(ru.order, target.Ru.order), max(rv.order, target.Rv.order))
        _assert_sampled_point(point, seed, rec["n"], order)

    assert main(["verify-divergence", "--seed", str(seed),
                 "--tol", "1e-300"]) == EXIT_CHECK_FAILED
    records = _json_records(capsys.readouterr().out)
    assert len(records) == 4
    for rec in records:
        divergence, qe = verify.divergence_residual(CaseId(rec["case"]), Kind(rec["kind"]))
        assert len(rec["discrepancies"]) == 3
        for d in rec["discrepancies"]:
            _assert_sampled_point(d["point"], seed, rec["n"], max(divergence.order, qe.order))


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_trajectory_and_densities(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["simulate", "--case", "1a", "--t-final", "0.2", "--N", "256",
                 "--out-dir", str(out_dir)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[ok] energy density" in out and "[ok] charge density" in out
    for name in ("trajectory.csv", "density_timeseries.csv",
                 "density_timeseries.svg"):
        assert (out_dir / name).exists(), name
    recs = _json_records(out)
    assert {r["kind"] for r in recs} == {"energy", "charge"}
    assert all(np.isfinite(r["drift_rel"]) for r in recs)
    head = [line for line in
            (out_dir / "trajectory.csv").read_text().splitlines()
            if line.startswith("#")]
    assert any("N=256" in line for line in head)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_simulate_blow_up_is_exit_4(tmp_path, capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["simulate", "--case", "2", "--eps", "500", "--dt", "1e-2",
                     "--t-final", "3.0", "--N", "256", "--sample-every", "1",
                     "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    assert "error:" in capsys.readouterr().err


def test_simulate_streams_what_a_collected_run_gives(tmp_path, capsys):
    # 11 samples at N = 4096 are evaluated in blocks of 4, 4 and 3 rows; the
    # trajectory rows and both kinds' Q(t) match the collected run bit for bit
    out_dir = tmp_path / "out"
    assert main(["simulate", "--case", "2", "--N", "4096", "--t-final", "0.01",
                 "--sample-every", "1", "--out-dir", str(out_dir)]) == EXIT_OK
    recs = _json_records(capsys.readouterr().out)
    cfg = SolverConfig(case_id=CaseId.CASE2, T_final=0.01, grid=Grid(N=4096),
                       initial=analysis.default_scan_config(CaseId.CASE2).initial)
    traj = run(cfg, sample_every=1)
    assert len(recs) == 2
    for rec in recs:
        ts = analysis.density_timeseries(traj, CaseId.CASE2, Kind.parse(rec["kind"]))
        assert (rec["Q0"], rec["drift_abs"], rec["drift_rel"]) == (
            ts.values[0], *analysis.drift_from_timeseries(ts))
    write_trajectory_csv(traj, tmp_path / "collected.csv")
    rows = [(tmp_path / name).read_text().split("t,x,re_q,im_q\n")[1]
            for name in ("out/trajectory.csv", "collected.csv")]
    assert rows[0] == rows[1]


@pytest.mark.filterwarnings("ignore:boundary amplitude at:RuntimeWarning")
def test_simulate_failing_mid_run_leaves_no_trajectory(tmp_path, capsys):
    # in a small box the gain carries mass past the boundary bound at t = 0.75,
    # after some of the trajectory was written
    out_dir = tmp_path / "out"
    assert main(["simulate", "--case", "1a", "--eps", "1", "--L", "6", "--N", "128",
                 "--t-final", "1", "--out-dir", str(out_dir)]) == EXIT_NUMERICAL
    assert "boundary amplitude reached" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


def test_simulate_sample_every_below_one_makes_nothing(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["simulate", "--sample-every", "0", "--out-dir", str(out_dir)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: --sample-every must be at least 1, got 0\n"
    assert not out_dir.exists()


_CASE1B_RUNS = {
    "simulate": ["simulate", "--case", "1b", "--N", "64", "--t-final", "0.01"],
    "drift-scan": ["drift-scan", "--case", "1b", "--N", "64", "--t-final", "0.5"],
}


@pytest.mark.parametrize("command", sorted(_CASE1B_RUNS))
@pytest.mark.parametrize("flag,value,code", [
    ("--alpha", "-2", EXIT_CONFIG),  # sqrt(alpha + 1) in both case1b densities
    ("--alpha", "-1", EXIT_CONFIG),  # 1 / (alpha + 1)^(5/2)
    ("--mu", "1e200", EXIT_NUMERICAL),  # mu^2 overflows: the field is not finite
])
def test_parameters_outside_the_expressions_end_without_a_traceback(tmp_path, command,
                                                                    flag, value, code):
    # a value at which a case's expressions are undefined is refused before
    # anything is made; an overflow of the field is a numerical failure
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    args = [sys.executable, "-m", "ptnls.cli", *_CASE1B_RUNS[command], flag, value,
            "--out-dir", "out"]
    done = subprocess.run(args, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines()[-1].startswith("error: "), done.stderr
    if code == EXIT_CONFIG:
        assert done.stderr.startswith("error: the Tt density of case1b/energy, case1b/charge "
                                      "is undefined"), done.stderr
        assert list(tmp_path.iterdir()) == []
    else:
        assert "field blew up" in done.stderr


def test_seed_comes_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PTNLS_SEED", "7")
    out_dir = str(tmp_path / "out")
    assert main(["simulate", "--t-final", "0", "--N", "256",
                 "--out-dir", out_dir]) == EXIT_OK
    recs = _json_records(capsys.readouterr().out)
    assert recs[0]["config"]["seed"] == 7
    # an explicit flag still wins over the environment
    assert main(["simulate", "--t-final", "0", "--N", "256",
                 "--out-dir", out_dir, "--seed", "3"]) == EXIT_OK
    recs = _json_records(capsys.readouterr().out)
    assert recs[0]["config"]["seed"] == 3


# ---------------------------------------------------------------------------
# configuration files


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    out_dir = tmp_path / "out"
    cfg.write_text("# a comment\ncase = 1a\nN = 128\nt_final = 0.2\n"
                   f"out_dir = {out_dir}\n")
    assert main(["simulate", "--config", str(cfg),
                 "--t-final", "0.1"]) == EXIT_OK
    recs = _json_records(capsys.readouterr().out)
    assert recs[0]["config"]["N"] == 128  # from the file
    assert recs[0]["config"]["t_final"] == 0.1  # flag wins
    assert (out_dir / "trajectory.csv").exists()


def test_missing_config_file(capsys):
    assert main(["verify-euler", "--config", "/no/such/file.cfg"]) == EXIT_CONFIG
    assert "not found" in capsys.readouterr().err


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert main(["verify-euler", "--config", str(cfg)]) == EXIT_CONFIG
    assert "unknown config key" in capsys.readouterr().err


def test_malformed_config_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    assert main(["verify-euler", "--config", str(cfg)]) == EXIT_CONFIG
    assert "key=value" in capsys.readouterr().err


def test_non_integer_seed_names_its_source(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed = abc\n")
    assert main(["verify-euler", "--config", str(cfg)]) == EXIT_CONFIG
    assert "error: config key seed: expected an integer, got 'abc'" in capsys.readouterr().err
    monkeypatch.setenv("PTNLS_SEED", "1.5")
    assert main(["verify-euler"]) == EXIT_CONFIG
    assert "error: PTNLS_SEED: expected an integer, got '1.5'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# drift-scan


QUICK_SCAN = ["--eps-grid", "1e-3:1e-1:4", "--t-final", "0.5", "--dt", "2e-3",
              "--N", "256", "--seed", "0"]
SCAN_ARGS = ["drift-scan", "--case", "1a", "--kind", "charge"] + QUICK_SCAN

# every block with a cataloged density, in block order; case1c has none
SCANNED = [(c, k) for c in ("case1a", "case1b", "case2") for k in ("energy", "charge")]


def _data_rows(path, case: str, kind: str) -> list[str]:
    return [line for line in path.read_text().splitlines()
            if not line.startswith("#") and line.startswith(f"{case},{kind},")]


@pytest.fixture(scope="module")
def all_blocks_scan(tmp_path_factory):
    """`drift-scan --case all --kind both` with the quick flags: exit code,
    stdout and output directory."""
    out_dir = tmp_path_factory.mktemp("all") / "scan"
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["drift-scan", "--case", "all", "--kind", "both", *QUICK_SCAN,
                     "--out-dir", str(out_dir)])
    return code, buf.getvalue(), out_dir


def test_drift_scan_end_to_end(tmp_path, capsys):
    out_dir = tmp_path / "scan"
    argv = SCAN_ARGS + ["--out-dir", str(out_dir)]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert "[ok] drift scan case1a/charge: slope" in out
    (rec,) = _json_records(out)
    assert rec["slope_valid"] is True
    assert abs(rec["slope"] - 1.0) < 0.3
    assert len(rec["members"]) == 5  # eps = 0 floor plus four scan points

    first = {name: (out_dir / name).read_bytes()
             for name in ("drift.csv", "drift_slopes.csv")}
    assert (out_dir / "drift_case1a_charge.svg").exists()

    # identical seeded invocations reproduce the files byte for byte
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    for name, blob in first.items():
        assert (out_dir / name).read_bytes() == blob, name


def test_drift_scan_all_blocks_reports_every_block(all_blocks_scan):
    code, out, _ = all_blocks_scan
    assert code == EXIT_OK
    recs = [r for r in _json_records(out) if r["check"] == "drift-scan"]
    assert [(r["case"], r["kind"]) for r in recs] == SCANNED
    assert all(r["slope_valid"] for r in recs)
    assert recs[0]["config"]["case"] == "all" and recs[0]["config"]["kind"] == "both"
    skips = [line for line in out.splitlines() if line.startswith("[skip]")]
    assert skips == [f"[skip] drift scan case1c/{k}: no conserved density cataloged "
                     f"for case1c/{k}" for k in ("energy", "charge")]
    verdicts = [line.split(":")[0] for line in out.splitlines() if line.startswith("[ok]")]
    assert verdicts == [f"[ok] drift scan {c}/{k}" for c, k in SCANNED]
    assert out.splitlines()[-1].startswith("wrote: ")


def test_drift_scan_all_blocks_writes_one_report(all_blocks_scan):
    _, _, out_dir = all_blocks_scan
    assert sorted(os.listdir(out_dir)) == sorted(
        ["drift.csv", "drift_slopes.csv"] + [f"drift_{c}_{k}.svg" for c, k in SCANNED])
    assert all(os.path.getsize(out_dir / name) > 0 for name in os.listdir(out_dir))
    for c, k in SCANNED:
        assert len(_data_rows(out_dir / "drift.csv", c, k)) == 5
        assert len(_data_rows(out_dir / "drift_slopes.csv", c, k)) == 1


def test_drift_scan_all_blocks_rows_match_single_block(all_blocks_scan, tmp_path, capsys):
    _, _, all_dir = all_blocks_scan
    assert main(SCAN_ARGS + ["--out-dir", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    for name in ("drift.csv", "drift_slopes.csv"):
        single = _data_rows(tmp_path / name, "case1a", "charge")
        assert single and _data_rows(all_dir / name, "case1a", "charge") == single, name


def test_drift_scan_reports_name_the_scheme_and_the_stride(all_blocks_scan):
    # no flag sets the scheme, and none was given for the stride: each report
    # names what stepped and sampled its members, snapshots 0.05 apart at dt 2e-3
    _, out, out_dir = all_blocks_scan
    recs = [r for r in _json_records(out) if r["check"] == "drift-scan"]
    assert {(r["config"]["scheme"], r["config"]["sample_every"]) for r in recs} == {
        ("suzuki4", 25)}
    for name in ["drift.csv", "drift_slopes.csv"] + [f"drift_{c}_{k}.svg" for c, k in SCANNED]:
        text = (out_dir / name).read_text()
        if name.endswith(".csv"):
            meta = [line[2:] for line in text.splitlines() if line.startswith("# ")]
        else:
            meta = text.split("<metadata>")[1].split("</metadata>")[0].splitlines()
        assert "N=256 L=20 dt=0.002 T_final=0.5 scheme=suzuki4" in meta, name
        assert "sample_every=25" in meta, name
        assert not any(line.startswith("scheme=") for line in meta), name  # named once


def test_simulate_steps_strang_at_the_solver_default(tmp_path, capsys, monkeypatch):
    configs = []

    def recording(cfg, eps_values, sample_every, errors):
        configs.append((cfg, sample_every))
        return stream_members(cfg, eps_values, sample_every, errors)

    stream_members = cli.stream_members
    monkeypatch.setattr(cli, "stream_members", recording)
    assert main(["simulate", "--case", "1a", "--t-final", "0.01",
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    [(cfg, sample_every)] = configs
    assert (cfg.scheme, cfg.dt, sample_every) == ("strang", 1e-3, 50)
    assert cfg.initial == analysis.default_scan_config(cfg.case_id).initial
    (rec, _) = _json_records(capsys.readouterr().out)
    assert rec["config"]["scheme"] == "strang"
    for name in ("trajectory.csv", "density_timeseries.csv"):
        assert "# scheme=strang" in (tmp_path / name).read_text().splitlines(), name
    svg = ET.parse(tmp_path / "density_timeseries.svg").getroot()
    assert "scheme=strang" in svg.find("{http://www.w3.org/2000/svg}metadata").text.splitlines()


@pytest.mark.parametrize("key", ["amplitude", "width", "center"])
def test_ground_initial_rejects_gaussian_shape_settings(tmp_path, capsys, key):
    # the ground state's shape is fixed: a given amplitude, width or center
    # fails the run, as a flag or as a config key, before anything is written
    argv = ["simulate", "--case", "1a", "--initial", "ground", "--t-final", "0.01",
            "--N", "64", "--out-dir", str(tmp_path / "out")]
    assert main(argv + [f"--{key}", "5"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: --{key} does not apply to initial=ground\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 5\n")
    assert main(argv + ["--config", str(cfg)]) == EXIT_CONFIG
    assert f"--{key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(argv) == EXIT_OK
    recs = {r["kind"]: r for r in _json_records(capsys.readouterr().out)}
    assert recs["charge"]["config"]["initial"] == "ground"
    assert key not in recs["charge"]["config"]
    assert recs["charge"]["Q0"] == pytest.approx(-0.5)  # the ground state's charge


def test_t_final_off_the_time_step_names_both_values(tmp_path, capsys):
    # the scans' default dt is 0.0125, so a T_final that was fine at 1e-3 can miss it
    assert main(["drift-scan", "--case", "1a", "--kind", "charge", "--t-final", "0.003",
                 "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == ("error: T_final must be an integer multiple of dt, "
                            "got T_final=0.003 and dt=0.0125\n")
    assert captured.out == ""


def test_drift_scan_steps_each_case_once_for_both_kinds(tmp_path, capsys, monkeypatch):
    stepped = []
    stream_members = analysis.stream_members

    def counting(cfg, *args, **kwargs):
        stepped.append(cfg.case_id.value)
        return stream_members(cfg, *args, **kwargs)

    monkeypatch.setattr(analysis, "stream_members", counting)
    assert main(["drift-scan", "--case", "1a", "--kind", "both", *QUICK_SCAN,
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    recs = [r for r in _json_records(capsys.readouterr().out) if r["check"] == "drift-scan"]
    assert [(r["case"], r["kind"]) for r in recs] == SCANNED[:2]
    assert stepped == ["case1a"]


def test_drift_scan_named_block_without_density_is_exit_2(tmp_path, capsys, monkeypatch):
    def no_stepping(*args, **kwargs):
        raise AssertionError("members were stepped")

    monkeypatch.setattr(analysis, "stream_members", no_stepping)
    out_dir = tmp_path / "scan"
    assert main(["drift-scan", "--case", "1c", *QUICK_SCAN,
                 "--out-dir", str(out_dir)]) == EXIT_CONFIG
    assert "no conserved density cataloged for case1c/energy" in capsys.readouterr().err
    # case2/charge has a PhiT density, case2/energy does not: neither is stepped
    assert main(["drift-scan", "--case", "2", "--form", "PhiT", *QUICK_SCAN,
                 "--out-dir", str(out_dir)]) == EXIT_CONFIG
    assert "case2/energy" in capsys.readouterr().err
    assert not out_dir.exists()


def test_drift_scan_checks_every_named_block_before_stepping(tmp_path, capsys,
                                                              monkeypatch):
    # were case1a/charge uncataloged, case1a/energy (scanned first) must not
    # be stepped either
    def lookup(case_id, kind, form):
        if kind.value == "charge":
            raise analysis.DensityUnavailableError(f"{case_id.value}/{kind.value}")
        return analysis.density_expr(case_id, kind, form)

    def no_stepping(*args, **kwargs):
        raise AssertionError("members were stepped")

    monkeypatch.setattr(cli, "density_expr", lookup)
    monkeypatch.setattr(analysis, "stream_members", no_stepping)
    out_dir = tmp_path / "scan"
    assert main(["drift-scan", "--case", "1a", *QUICK_SCAN,
                 "--out-dir", str(out_dir)]) == EXIT_CONFIG
    assert "case1a/charge" in capsys.readouterr().err
    assert not out_dir.exists()


def test_drift_scan_without_fit_fails_naming_the_floor_factor(tmp_path, capsys,
                                                              monkeypatch):
    # with T = 0 nothing drifts, so no member qualifies for the fit
    argv = SCAN_ARGS + ["--t-final", "0", "--out-dir", str(tmp_path)]
    assert main(argv) == EXIT_CHECK_FAILED
    assert ("[FAIL] drift scan case1a/charge: only 0 members above 10x floor "
            "0.000e+00; no slope fitted") in capsys.readouterr().out
    monkeypatch.setattr(cli, "DRIFT_FLOOR_FACTOR", 3.0)
    assert main(argv) == EXIT_CHECK_FAILED
    assert "members above 3x floor" in capsys.readouterr().out


def test_drift_scan_floor_failure_is_exit_4(tmp_path, capsys):
    # two steps of the scans' default dt
    code = main(["drift-scan", "--case", "1a", "--kind", "charge", "--L", "3",
                 "--N", "64", "--t-final", "0.025", "--out-dir", str(tmp_path)])
    assert code == EXIT_NUMERICAL
    assert "boundary amplitude" in capsys.readouterr().err


def _assert_ticks_inside_frame(root):
    """Every tick of a chart sits inside its frame along its own axis."""
    ns = "{http://www.w3.org/2000/svg}"
    frame = next(r for r in root.iter(f"{ns}rect") if r.get("fill") == "none")
    left, top = float(frame.get("x")), float(frame.get("y"))
    right, bottom = left + float(frame.get("width")), top + float(frame.get("height"))
    lines = list(root.iter(f"{ns}line"))
    xs = [float(ln.get("x1")) for ln in lines if ln.get("x1") == ln.get("x2")]
    ys = [float(ln.get("y1")) for ln in lines if ln.get("y1") == ln.get("y2")]
    assert len(xs) >= 2 and len(ys) >= 2
    assert all(left <= x <= right for x in xs), xs
    assert all(top <= y <= bottom for y in ys), ys


def test_drift_svg_ticks_stay_inside_the_frame(tmp_path):
    assert main(["drift-scan", "--case", "1a", "--kind", "charge", "--sample-every", "1",
                 "--t-final", "1", "--out-dir", str(tmp_path)]) == EXIT_OK
    _assert_ticks_inside_frame(ET.parse(tmp_path / "drift_case1a_charge.svg").getroot())


# in a box of half-width 6 every gain from eps = 0.1 up reaches the boundary
# bound before T = 1, while the eps = 0 floor finishes
FAILING_SCAN = ["drift-scan", "--case", "1a", "--kind", "charge", "--L", "6",
                "--N", "128", "--t-final", "1"]


@pytest.mark.filterwarnings("ignore:boundary amplitude at:RuntimeWarning")
def test_drift_scan_with_every_member_failed_reports_them(tmp_path, capsys):
    code = main(FAILING_SCAN + ["--eps-grid", "1:3:4", "--out-dir", str(tmp_path)])
    assert code == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    (rec,) = _json_records(out)
    assert [m["failed"] for m in rec["members"]] == [False, True, True, True, True]
    assert out.count("[skip] eps=") == 4
    assert "[FAIL] drift scan case1a/charge: only 0 members above" in out
    # the chart is the floor alone, over the scanned eps values
    root = ET.parse(tmp_path / "drift_case1a_charge.svg").getroot()
    ns = "{http://www.w3.org/2000/svg}"
    assert not list(root.iter(f"{ns}circle"))
    [floor] = root.iter(f"{ns}polyline")
    assert floor.get("stroke-dasharray") == "6,4"
    # the x axis spans less than a decade, so its two ends are ticked
    xlabels = [float(t.text) for t in root.iter(f"{ns}text") if t.get("y") == "460"]
    assert len(xlabels) == 2 and xlabels[0] < 1 and xlabels[1] > 3
    _assert_ticks_inside_frame(root)


@pytest.mark.filterwarnings("ignore:boundary amplitude at:RuntimeWarning")
def test_drift_scan_prints_a_failed_members_numbers_as_null(tmp_path, capsys):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    code = main(FAILING_SCAN + ["--eps-grid", "0.01:1:5", "--out-dir", str(tmp_path)])
    assert code == EXIT_CHECK_FAILED
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("{")]
    (rec,) = [json.loads(line, parse_constant=reject) for line in lines]
    failed = [m for m in rec["members"] if m["failed"]]
    assert len(failed) == 3
    assert all(m[k] is None for m in failed for k in ("Q0", "drift_abs", "drift_rel"))
    assert all(isinstance(m["Q0"], float) for m in rec["members"] if not m["failed"])
    # the CSV keeps nan
    rows = _data_rows(tmp_path / "drift.csv", "case1a", "charge")
    assert sum(row.endswith(",nan,nan,nan") for row in rows) == 3


def test_drift_scan_has_no_jobs_option(tmp_path, capsys):
    assert main(SCAN_ARGS + ["--jobs", "2", "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("jobs=2\n")
    assert main(SCAN_ARGS + ["--config", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "unknown config key 'jobs'" in capsys.readouterr().err


def test_drift_scan_rejects_bad_eps_grid(tmp_path, capsys):
    base = ["drift-scan", "--out-dir", str(tmp_path)]
    assert main(base + ["--eps-grid", "1e-1:1e-3:4"]) == EXIT_CONFIG
    assert main(base + ["--eps-grid", "1e-3:1e-1"]) == EXIT_CONFIG
    assert main(base + ["--eps-grid", "a:b:4"]) == EXIT_CONFIG
    capsys.readouterr()


def test_eps_grid_needs_as_many_values_as_a_fit(tmp_path, capsys):
    # a scan fits its slope over at least MIN_FIT_MEMBERS members, so three
    # eps values are refused where the grid is parsed, before anything runs
    out_dir = tmp_path / "scan"
    assert main(["drift-scan", "--eps-grid", "1e-3:1e-1:3",
                 "--out-dir", str(out_dir)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: eps-grid needs 0 < start < stop and count >= {analysis.MIN_FIT_MEMBERS}\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("grid", ["nan:0.1:5", "1e-3:inf:5"])
def test_eps_grid_needs_a_finite_start_and_stop(tmp_path, capsys, grid):
    out_dir = tmp_path / "scan"
    assert main(["drift-scan", "--case", "1a", "--kind", "charge", "--eps-grid", grid,
                 "--out-dir", str(out_dir)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: eps-grid start and stop must be finite, got {grid!r}\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("command", [["simulate", "--case", "1a"],
                                     ["drift-scan", "--case", "1a", "--kind", "charge"]],
                         ids=["simulate", "drift-scan"])
@pytest.mark.parametrize("flag,value,field", [
    ("--eps", "nan", "eps"), ("--mu", "nan", "mu"), ("--sigma", "inf", "sigma"),
    ("--alpha", "nan", "alpha"), ("--g", "-inf", "g"), ("--L", "nan", "L"),
    ("--L", "inf", "L"), ("--dt", "nan", "dt"), ("--t-final", "inf", "T_final"),
    ("--t-final", "nan", "T_final"), ("--amplitude", "inf", "amplitude"),
    ("--width", "nan", "width"), ("--center", "nan", "center"),
    ("--width", "0", "width"), ("--width", "-1", "width"),
])
def test_non_finite_input_is_config_error(tmp_path, capsys, command, flag, value, field):
    flags = {"--N": "256", "--t-final": "0.1", "--out-dir": str(tmp_path), flag: value}
    assert main(command + [f"{k}={v}" for k, v in flags.items()]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {field} must be")
    assert "finite" in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# parse-expr


def test_parse_expr_canonicalizes(capsys):
    assert main(["parse-expr", "2*3*u"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "canonical: 6*u" in out
    assert "jet order: 0" in out


def test_parse_expr_evaluates_at_a_point(capsys):
    assert main(["parse-expr", "u^2+x*v", "--point", "u=2,v=3",
                 "--x", "0.5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "value at (t=1, x=0.5): 5.5" in out


def test_parse_expr_uses_params(capsys):
    assert main(["parse-expr", "eps*mu", "--point", "u=1",
                 "--params", "eps=0.25,mu=4"]) == EXIT_OK
    assert "value at (t=1, x=0.5): 1.0" in capsys.readouterr().out


def test_parse_expr_syntax_error(capsys):
    assert main(["parse-expr", "u+*v"]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_parse_expr_over_the_jet_order_limit_is_config_error(capsys):
    assert main(["parse-expr", "u_xxxxx"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: jet order 5 of 'u_xxxxx' exceeds the limit 4 at offset 0\n")


def test_parse_expr_missing_jet_value(capsys):
    assert main(["parse-expr", "u_x", "--point", "u=1"]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_parse_expr_rejects_non_jet_point_names(capsys):
    assert main(["parse-expr", "u", "--point", "w=1"]) == EXIT_CONFIG
    assert "not a jet coordinate" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["foo", "pi"])
def test_parse_expr_rejects_unknown_params(capsys, name):
    assert main(["parse-expr", "u", "--point", "u=1",
                 "--params", f"eps=0.1,{name}=3"]) == EXIT_CONFIG
    assert f"unknown parameter {name!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify-euler", "verify-divergence"])
@pytest.mark.parametrize("flag,value", [("--n", "0"), ("--n", "-2"), ("--tol", "0"),
                                        ("--tol", "-1e-9"), ("--tol", "nan"),
                                        ("--tol", "inf")])
def test_verify_rejects_bad_sample_settings(capsys, command, flag, value):
    assert main([command, "--case", "1a", "--kind", "charge", f"{flag}={value}"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag} must be")
    assert captured.out == ""
