"""End-to-end CLI tests, run in process through cli.main(argv)."""

import json
import os

import numpy as np
import pytest

from ptnls import __version__
from ptnls.cli import (EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_FLUX_UNAVAILABLE,
                       EXIT_NUMERICAL, EXIT_OK, main)


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


# ---------------------------------------------------------------------------
# drift-scan


SCAN_ARGS = ["drift-scan", "--case", "1a", "--kind", "charge",
             "--eps-grid", "1e-3:1e-1:4", "--t-final", "0.5", "--dt", "2e-3",
             "--N", "256", "--seed", "0"]


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


def test_drift_scan_floor_failure_is_exit_4(tmp_path, capsys):
    code = main(["drift-scan", "--case", "1a", "--kind", "charge", "--L", "3",
                 "--N", "64", "--t-final", "0.01", "--out-dir", str(tmp_path)])
    assert code == EXIT_NUMERICAL
    assert "boundary amplitude" in capsys.readouterr().err


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


def test_parse_expr_missing_jet_value(capsys):
    assert main(["parse-expr", "u_x", "--point", "u=1"]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_parse_expr_rejects_non_jet_point_names(capsys):
    assert main(["parse-expr", "u", "--point", "w=1"]) == EXIT_CONFIG
    assert "not a jet coordinate" in capsys.readouterr().err
