#!/usr/bin/env python3
"""Benchmark runner for ptnls.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout: the package is imported from
the checkout's `src/`, never from an installed copy.  One run

  1. repeats rounds of the workload (seed of round r: seed * 1000 + r) for
     about `--seconds` and at least MIN_ROUNDS rounds, timing each step of
     a round on its own and gating every round's outputs; `wall_s` is the
     sum of each step's fastest time in the run;
  2. times `setup_s` in SETUP_PROBES fresh interpreters (`import ptnls.cli`
     plus `load_catalog()`) spread between the rounds, after one untimed
     interpreter that compiles bytecode;
  3. with `--trace 1`, follows every round with a traced round on the same
     seed, writes the spans to `.perfbench_out/`, and reports per-layer
     metrics instead of the end-to-end ones.

Standard output: one JSON line with the run metadata, per-round timings and
physics numbers, then, last, the result line
`{"correct", "attempted", "failed", "metrics"}` whose metric names and units
come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_ROUNDS = 2
SETUP_PROBES = 9

# Fresh-interpreter set-up: prints the import/load split as JSON; the parent
# times the whole process.
SETUP_PROBE = """\
import json, time
t0 = time.perf_counter()
import ptnls.jetexpr
t1 = time.perf_counter()
import ptnls.cli
t2 = time.perf_counter()
ptnls.cli.load_catalog()
t3 = time.perf_counter()
print(json.dumps({"file": ptnls.__file__, "jetexpr.import_s": t1 - t0,
                  "cli.import_s": t2 - t0, "catalog.load_s": t3 - t2}))
"""


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, bad contract file)."""


def prepare_environment() -> None:
    """Cap native thread pools at 1 and import ptnls from this checkout.
    Must run before numpy is imported."""
    if not (SRC / "ptnls" / "__init__.py").is_file():
        raise BenchError(f"no ptnls source tree under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ptnls
    if Path(ptnls.__file__).resolve().parent != SRC / "ptnls":
        raise BenchError(f"ptnls imported from {ptnls.__file__}, not from {SRC}")


def load_contract() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# metadata


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    """sha256 over the package sources and data, to identify the code when
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ptnls").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def cpu_info() -> dict:
    info: dict = {"model": platform.processor() or "unknown", "caches": {}}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        info["caches"][f"L{level}{suffix}"] = size
    return info


def run_metadata() -> dict:
    import numpy
    import scipy
    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_info(),
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# measurement


def setup_probe() -> dict:
    """One fresh interpreter: its wall time `setup_s` and its own
    import/load split."""
    t0 = perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_PROBE], check=True,
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    wall = perf_counter() - t0
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    if Path(probe.pop("file")).resolve().parent != SRC / "ptnls":
        raise BenchError("set-up probe imported ptnls from outside the checkout")
    probe["setup_s"] = wall
    return probe


def one_round(workload, seed: int, scratch: Path, tracer=None) -> dict:
    """Run one round, timing each of its steps, then gate its outputs.  An
    exception in a step or the checks counts as one failed operation."""
    from workloads import Outcome

    out_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch)
    raw: dict = {}
    step_s: dict[str, float] = {}
    try:
        with tracer.installed() if tracer else nullcontext():
            for name, step in workload.steps(seed, out_dir):
                t0 = perf_counter()
                raw[name] = step()
                step_s[name] = perf_counter() - t0
        outcome = workload.check(raw, out_dir)
    except Exception:
        outcome = Outcome(attempted=1, failed=1, failures=[traceback.format_exc()])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return {"seed": seed, "wall_s": sum(step_s.values()), "step_s": step_s,
            "attempted": outcome.attempted, "failed": outcome.failed,
            "failures": outcome.failures[:10], "bytes_written": outcome.bytes_written,
            "physics": outcome.physics}


def run_rounds(workload, seed: int, seconds: float, scratch: Path, tracer=None):
    """Rounds until the run is as close to `seconds` long as whole rounds
    allow (a round that would end more than half its length past the mark
    is not started), and at least MIN_ROUNDS.  With a tracer, every round is
    followed by a traced round on the same seed, so the two see the same
    host conditions.  SETUP_PROBES set-up probes are spread over the run for
    the same reason.  Returns (rounds, traced rounds, probes)."""
    rounds: list[dict] = []
    traced: list[dict] = []
    probes: list[dict] = []
    start = last = perf_counter()
    length = 0.0
    while len(rounds) < MIN_ROUNDS or last - start + length / 2 < seconds:
        due = max(1, math.ceil(SETUP_PROBES * (last - start) / seconds))
        while len(probes) < min(due, SETUP_PROBES):
            probes.append(setup_probe())
        round_seed = seed * 1000 + len(rounds)
        rounds.append(one_round(workload, round_seed, scratch))
        if tracer is not None:
            traced.append(one_round(workload, round_seed, scratch, tracer))
        now = perf_counter()
        length, last = now - last, now
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe())
    return rounds, traced, probes


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rows)


def fastest_round_s(rows: list[dict]) -> float:
    """The sum over a round's steps of each step's fastest time in the run.

    The host runs the same code up to 1.8x slower at one moment than at
    another, so the median round moves with whatever phase a run lands in.
    A step's fastest time comes from the quietest moment the run saw; their
    sum changes less from run to run than the median round does."""
    best: dict[str, float] = {}
    for row in rows:
        for name, seconds in row["step_s"].items():
            best[name] = min(seconds, best.get(name, math.inf))
    return sum(best.values())


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (detail record, result line)."""
    contract = load_contract()
    wanted = contract["per_layer" if trace else "end_to_end"]
    import workloads
    from ptnls.catalog import load_catalog

    workload = workloads.WORKLOADS[workload_name]()
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        setup_probe()  # untimed: compiles bytecode
        load_catalog()
        tracer = None
        if trace:  # the untraced run does not even import the tracer
            from tracing import Tracer
            tracer = Tracer()
        rounds, traced, probes = run_rounds(workload, seed, seconds, scratch, tracer)
        if trace:
            values = tracer.layer_metrics(len(traced))
            for key in ("cli.import_s", "jetexpr.import_s", "catalog.load_s"):
                values[key] = median_of(probes, key)
            values["analysis.bytes_written"] = statistics.fmean(
                r["bytes_written"] for r in traced)
            values["trace.overhead_frac"] = statistics.median(
                t["wall_s"] / r["wall_s"] for r, t in zip(rounds, traced)) - 1.0
            tracer.write_spans(OUT / f"spans-{workload_name}-seed{seed}.jsonl.gz",
                               {"workload": workload_name, "seed": seed,
                                "rounds": [r["seed"] for r in traced]})
        else:
            values = {
                "setup_s": median_of(probes, "setup_s"),
                "wall_s": fastest_round_s(rounds),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value measured for {missing}")
    all_rounds = rounds + traced
    attempted = sum(r["attempted"] for r in all_rounds)
    failed = sum(r["failed"] for r in all_rounds)
    detail = {"workload": workload_name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "meta": run_metadata(), "setup_probes": probes,
              "rounds": rounds, "traced_rounds": traced}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["verify-all", "numerical"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        prepare_environment()
        detail, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
