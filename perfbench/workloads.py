"""The benchmark workloads.

`verify-all` is the symbolic half and `numerical` the numerical half: the
drift scans plus one fine-grid simulation in every round.  The two numerical
parts are `DriftScan` and `SimulateFine`, which the smoke tests also run on
their own at tiny sizes.

Each workload lists the named steps of one round, `steps(seed, out_dir)`:
callables that call the package's public entry points and return their raw
outputs.  The runner times every step on its own and passes the outputs, by
step name, to the untimed `check(raw, out_dir)`, which gates them and
extracts the physics numbers.  The runner repeats rounds with seeds derived
from the run seed, so every round draws new inputs.

Every gate that fails marks its operation failed: an operation is one CLI
call, one oracle point or one random polynomial.

Package functions are called through their module (`verify.f(...)`, not a
name imported from it) so that the layer tracer, which swaps module
attributes, sees the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ptnls import cli, jetexpr, verify
from ptnls.catalog import CaseId, Kind, load_catalog
from ptnls.jetexpr import JetSampler, ParamValues, add, const, mul, random_polynomial

BLOCKS = tuple((c, k) for c in CaseId for k in Kind)

# D_t Tt + D_x Tx = orientation * Q.E at eps = 0, as cataloged
FLUX_ORIENTATION = {("case1a", "energy"): -1, ("case1a", "charge"): -1,
                    ("case2", "energy"): 1, ("case2", "charge"): -1}

RESIDUAL_TRANSCRIBED = 7
RESIDUAL_DERIVED = 1
SLOPE_TOL = 0.01            # euler residual eps-slope vs 1
ORACLE_TOL = 1e-4           # finite-difference oracle vs euler engine
ANNIHILATION_TOL = 1e-9     # E(D_t f), E(D_x f) vs 0
DRIFT_SLOPE_TOL = 0.01      # drift slope vs its value at the seed commit
MIN_FIT_MEMBERS = 4
Q0_CHARGE = -math.sqrt(math.pi) / 2   # charge of the unit Gaussian initial data
Q0_REL_TOL = 1e-9


@dataclass
class Outcome:
    """Gate results and physics numbers of one round."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    physics: dict = field(default_factory=dict)
    bytes_written: int = 0

    def op(self, label: str, checks: list[tuple[bool, str]]) -> None:
        self.attempted += 1
        bad = [what for ok, what in checks if not ok]
        if bad:
            self.failed += 1
            self.failures.append(f"{label}: " + "; ".join(bad))


def run_cli(argv: list[str]) -> tuple[int, list[dict]]:
    """`ptnls.cli.main(argv)` with its output captured; returns the exit code
    and the JSON report lines."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    records = [json.loads(line) for line in out.getvalue().splitlines()
               if line.startswith("{")]
    return code, records


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


class VerifyAll:
    """The symbolic half: residuals and divergences through the CLI, the
    finite-difference oracle on every block's Q.E, and euler annihilation of
    total derivatives of random polynomials.  The solver does no work."""

    name = "verify-all"

    # polynomials per annihilation step: short steps, each timed on its own
    BATCH = 10

    def __init__(self, polynomials: int = 100, oracle_blocks=BLOCKS):
        self.polynomials = polynomials
        self.oracle_blocks = tuple(oracle_blocks)

    def batches(self) -> list[int]:
        """Sizes of the round's annihilation steps."""
        full, rest = divmod(self.polynomials, self.BATCH)
        return [self.BATCH] * full + [rest] * (rest > 0)

    @staticmethod
    def oracle_step(name: str) -> str:
        return "oracle " + name

    def steps(self, seed: int, out_dir: str) -> list:
        points = JetSampler(seed=seed).batch(len(self.oracle_blocks), 2)
        rng = np.random.default_rng(seed)  # shared by the annihilation steps, in order
        return [("verify-euler", partial(run_cli, ["verify-euler", "--seed", str(seed)])),
                ("verify-divergence", partial(run_cli, ["verify-divergence", "--seed", str(seed)])),
                *[(self.oracle_step(f"{case_id.value}/{kind.value}"),
                   partial(self.oracle, case_id, kind, points.point(i), seed))
                  for i, (case_id, kind) in enumerate(self.oracle_blocks)],
                *[(f"annihilation {i}", partial(self.annihilation, rng, size))
                  for i, size in enumerate(self.batches())]]

    @staticmethod
    def oracle(case_id, kind, point, seed: int):
        cat = load_catalog()
        system, mult = cat.build_system(case_id), cat.multiplier(kind)
        qe = add(mul(mult.Q1, system.E1), mul(mult.Q2, system.E2))
        return verify.independent_variational_check(qe, point, ParamValues(), seed=seed)

    @staticmethod
    def annihilation(rng: np.random.Generator, polynomials: int) -> list:
        results = []
        for _ in range(polynomials):
            f = random_polynomial(rng)
            results.append([
                jetexpr.expr_equiv(comp, const(0), n=20, tol=ANNIHILATION_TOL)
                for d in ("t", "x")
                for comp in jetexpr.euler_operator(
                    jetexpr.total_derivative(f, d, max_order=6), max_order=6)])
        return results

    def check(self, raw: dict, out_dir: str) -> Outcome:
        o = Outcome()
        code, records = raw["verify-euler"]
        res = [r for r in records if r["check"] == "euler-residual"]
        derived = sum(r["target_derived"] for r in res)
        o.op("verify-euler", [
            (code == 0, f"exit code {code}"),
            (len(res) == len(BLOCKS), f"{len(res)} residual reports"),
            (all(r["match"] for r in res), "a residual does not match its target"),
            (derived == RESIDUAL_DERIVED and len(res) - derived == RESIDUAL_TRANSCRIBED,
             f"{derived} derived targets"),
            (all(abs(r["epsilon_slope"] - 1.0) < SLOPE_TOL for r in res),
             "an eps-slope is off 1"),
        ])
        code, records = raw["verify-divergence"]
        div = {(r["case"], r["kind"]): r for r in records if r["check"] == "divergence"}
        o.op("verify-divergence", [
            (code == 0, f"exit code {code}"),
            (set(div) == set(FLUX_ORIENTATION), f"blocks {sorted(div)}"),
            (all(r["zero_at_eps0"] for r in div.values()), "divergence not zero at eps=0"),
            (all(div[b]["orientation"] == s for b, s in FLUX_ORIENTATION.items() if b in div),
             "orientation differs from the catalog"),
        ])
        oracle = [raw[self.oracle_step(f"{c.value}/{k.value}")] for c, k in self.oracle_blocks]
        for (case_id, kind), r in zip(self.oracle_blocks, oracle):
            o.op(self.oracle_step(f"{case_id.value}/{kind.value}"),
                 [(r.rel_error < ORACLE_TOL, f"rel error {r.rel_error:.3e}")])
        annihilation = [results for i in range(len(self.batches()))
                        for results in raw[f"annihilation {i}"]]
        for i, results in enumerate(annihilation):
            worst = max(r.worst_rel_error for r in results)
            o.op(f"annihilation {i}", [(all(results), f"worst {worst:.3e}")])
        o.physics = {
            "residual_worst_rel_error": max((r["worst_rel_error"] for r in res), default=math.nan),
            "residual_worst_slope_dev": max((abs(r["epsilon_slope"] - 1.0) for r in res),
                                            default=math.nan),
            "divergence_worst_rel_error": max((r["worst_rel_error"] for r in div.values()),
                                              default=math.nan),
            "oracle_worst_rel_error": max((r.rel_error for r in oracle), default=math.nan),
            "annihilation_worst_rel_error": max(
                (r.worst_rel_error for rs in annihilation for r in rs), default=math.nan),
        }
        return o


class DriftScan:
    """The numerical half: `ptnls drift-scan` over the default grid for two
    blocks, writing CSV and SVG."""

    name = "drift-scan"
    # (case, kind, fitted slope at the seed commit)
    BLOCKS = (("1a", "charge", 0.976444), ("2", "energy", 0.992679))

    def __init__(self, extra_args: tuple[str, ...] = (), blocks=BLOCKS):
        self.extra_args = tuple(extra_args)
        self.blocks = tuple(blocks)

    @staticmethod
    def label(case: str, kind: str) -> str:
        return f"drift-scan case{case}/{kind}"

    def steps(self, seed: int, out_dir: str) -> list:
        return [(self.label(case, kind),
                 partial(run_cli, ["drift-scan", "--case", case, "--kind", kind,
                                   "--seed", str(seed),
                                   "--out-dir", os.path.join(out_dir, f"{case}-{kind}"),
                                   *self.extra_args]))
                for case, kind, _ in self.blocks]

    def check(self, raw: dict, out_dir: str) -> Outcome:
        o = Outcome()
        for case, kind, expected in self.blocks:
            label = self.label(case, kind)
            code, records = raw[label]
            scans = [r for r in records if r["check"] == "drift-scan"]
            if code != 0 or len(scans) != 1:
                o.op(label, [(False, f"exit code {code}, {len(scans)} scan reports")])
                continue
            r = scans[0]
            block_dir = os.path.join(out_dir, f"{case}-{kind}")
            written = sorted(os.listdir(block_dir))
            o.bytes_written += dir_bytes(block_dir)
            slope = r["slope"] if r["slope_valid"] else math.nan
            o.op(label, [
                (r["slope_valid"], "no valid slope"),
                (r["fit_members"] >= MIN_FIT_MEMBERS, f"{r['fit_members']} fit members"),
                (abs(slope - expected) <= DRIFT_SLOPE_TOL,
                 f"slope {slope:.6f}, expected {expected} +- {DRIFT_SLOPE_TOL}"),
                (not any(m["failed"] for m in r["members"]), "a member failed"),
                (written == ["drift.csv", f"drift_case{case}_{kind}.svg", "drift_slopes.csv"],
                 f"wrote {written}"),
            ])
            o.physics[f"case{case}_{kind}"] = {
                "slope": r["slope"], "floor": r["floor"], "fit_members": r["fit_members"],
                "fit_residual": r["fit_residual"]}
        return o


class SimulateFine:
    """One fine-grid simulation: `ptnls simulate --case 2 --N 4096` with a
    dense trajectory CSV and both density timeseries."""

    name = "simulate-fine"

    DT = 1e-3  # the CLI default

    def __init__(self, N: int = 4096, t_final: float = 2.0, sample_every: int = 20):
        self.N, self.t_final, self.sample_every = N, t_final, sample_every

    def snapshots(self) -> int:
        steps = int(round(self.t_final / self.DT))
        return 1 + steps // self.sample_every + (steps % self.sample_every != 0)

    LABEL = "simulate case2"

    def steps(self, seed: int, out_dir: str) -> list:
        return [(self.LABEL, partial(run_cli, [
            "simulate", "--case", "2", "--N", str(self.N), "--t-final", repr(self.t_final),
            "--sample-every", str(self.sample_every), "--seed", str(seed),
            "--out-dir", out_dir]))]

    def check(self, raw: dict, out_dir: str) -> Outcome:
        o = Outcome()
        code, records = raw[self.LABEL]
        dens = {r["kind"]: r for r in records if r["check"] == "simulate-density"}
        rows = 0
        traj = os.path.join(out_dir, "trajectory.csv")
        if os.path.exists(traj):
            with open(traj, "rb") as fh:
                rows = sum(1 for line in fh if not line.startswith(b"#")) - 1
            o.bytes_written = dir_bytes(out_dir)
        q0 = dens.get("charge", {}).get("Q0", math.nan)
        expected_rows = self.snapshots() * self.N
        o.op(self.LABEL, [
            (code == 0, f"exit code {code}"),
            (set(dens) == {"energy", "charge"}, f"densities {sorted(dens)}"),
            (abs(q0 - Q0_CHARGE) <= Q0_REL_TOL * abs(Q0_CHARGE),
             f"charge Q0 {q0!r}, expected {Q0_CHARGE!r}"),
            (rows == expected_rows, f"{rows} trajectory rows, expected {expected_rows}"),
        ])
        o.physics = {kind: {"Q0": r["Q0"], "drift_abs": r["drift_abs"],
                            "drift_rel": r["drift_rel"]} for kind, r in dens.items()}
        o.physics["trajectory_rows"] = rows
        return o


class Numerical:
    """The numerical half: one `DriftScan` and one `SimulateFine` per round,
    each into its own directory.  Together they give one end-to-end time for
    the solver and analysis layers, in which a drift-scan gain that costs on
    the fine grid shows as well."""

    name = "numerical"

    def __init__(self, drift: DriftScan | None = None,
                 simulate: SimulateFine | None = None):
        self.drift = drift or DriftScan()
        self.simulate = simulate or SimulateFine()

    @staticmethod
    def dirs(out_dir: str) -> tuple[str, str]:
        return os.path.join(out_dir, "drift"), os.path.join(out_dir, "simulate")

    def steps(self, seed: int, out_dir: str) -> list:
        drift_dir, sim_dir = self.dirs(out_dir)
        return self.drift.steps(seed, drift_dir) + self.simulate.steps(seed, sim_dir)

    def check(self, raw: dict, out_dir: str) -> Outcome:
        drift_dir, sim_dir = self.dirs(out_dir)
        parts = {"drift": self.drift.check(raw, drift_dir),
                 "simulate": self.simulate.check(raw, sim_dir)}
        o = Outcome()
        for key, part in parts.items():
            o.attempted += part.attempted
            o.failed += part.failed
            o.failures += part.failures
            o.bytes_written += part.bytes_written
            o.physics[key] = part.physics
        return o


WORKLOADS = {w.name: w for w in (VerifyAll, Numerical)}
