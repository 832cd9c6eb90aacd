#!/usr/bin/env python3
"""Run-to-run steadiness of the end-to-end metrics.

    python3 perfbench/spread.py --workload drift-scan --seeds 1-10
    python3 perfbench/spread.py --workload verify-all --seeds 1-5 --against 6-10

Runs `perfbench/run.py --trace 0` once per seed, one run at a time, and for
every end-to-end metric prints the median and the quartile spread
(Q3 - Q1) / median of the runs, from `statistics.quantiles(values, n=4)`,
beside the metric's bound from BENCHMARK.json.  With `--against`, a second
set of seeds is run as well and its medians are compared with the first
set's: that is the check that another seed gives metrics within the same
bounds.  Exits 1 if a run fails or is incorrect, if a spread other than
set-up time's exceeds its bound, or if a median of the second set is worse
than the first by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def one_run(workload: str, seed: int, seconds: float) -> dict:
    """One run; its two output lines are appended to
    .perfbench_out/spread-<workload>.jsonl."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    with open(ROOT / ".perfbench_out" / f"spread-{workload}.jsonl", "a") as fh:
        fh.write("\n".join(lines[-2:]) + "\n")
    return json.loads(lines[-1])


def run_set(workload: str, seeds: list[int], seconds: float, metrics: list[dict]) -> dict:
    values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
    for seed in seeds:
        result = one_run(workload, seed, seconds)
        if not result["correct"]:
            raise RuntimeError(f"seed {seed}: {result['failed']} of "
                               f"{result['attempted']} operations failed")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"  seed {seed}: " + "  ".join(f"{n}={v[-1]:.5g}" for n, v in values.items()),
              flush=True)
    return values


def spread(xs: list[float]) -> float:
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--against", help="second seed set to compare medians with")
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    args = parser.parse_args(argv)

    metrics = contract["end_to_end"]
    ok = True
    print(f"{args.workload}: seeds {args.seeds}", flush=True)
    first = run_set(args.workload, parse_seeds(args.seeds), args.seconds, metrics)
    second = None
    if args.against:
        print(f"{args.workload}: seeds {args.against}", flush=True)
        second = run_set(args.workload, parse_seeds(args.against), args.seconds, metrics)
    print(f"{'metric':<14} {'median':>12} {'spread':>8} {'bound':>6}"
          + (f" {'median2':>12} {'spread2':>8} {'change':>8}" if second else ""))
    for m in metrics:
        name, bound = m["name"], m["bound"]
        sets = [first[name]] + ([second[name]] if second else [])
        spreads = [spread(xs) for xs in sets]
        med = statistics.median(first[name])
        line = f"{name:<14} {med:>12.6g} {spreads[0]:>8.4f} {bound:>6.3f}"
        flags = []
        if name != "setup_s" and max(spreads) > bound:
            ok = False
            flags.append("SPREAD OVER BOUND")
        elif max(spreads) > bound / 3:
            flags.append("spread over a third of the bound")
        if second:
            med2 = statistics.median(second[name])
            change = (med2 - med) / med if m["better"] == "lower" else (med - med2) / med
            line += f" {med2:>12.6g} {spreads[1]:>8.4f} {change:>+8.4f}"
            if change > bound:
                ok = False
                flags.append("WORSE BY MORE THAN THE BOUND")
        print(line + "".join(f"  [{f}]" for f in flags))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
