"""Layer tracing from outside the package.

A `Tracer` wraps the public functions of each ptnls module by replacing
module (and class) attributes, records one span per call, and puts every
original attribute back on `restore`.  Nothing under src/ is edited: the
untraced benchmark rounds run the unmodified program.

A function imported with `from .x import f` is bound in several module
namespaces; every binding of the same function object is wrapped, and the
span's `caller` is the module whose binding was used.  That is how
`eval_expr` calls are split by calling module.

Spans are (name, caller, start_ns, end_ns, parent id, outermost) and stay in
memory until `write_spans`.  A span's self time is its duration minus the
durations of its direct children; `outermost` is false for a span nested
inside another span of the same name, so recursive calls are not counted
twice in inclusive totals.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

from ptnls import analysis, catalog, cli, jetexpr, solver, verify

MODULES = {"cli": cli, "analysis": analysis, "verify": verify,
           "solver": solver, "catalog": catalog, "jetexpr": jetexpr}

# (defining module, function, span name)
FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("jetexpr", "eval_expr", "jetexpr.eval"),
    ("jetexpr", "euler_operator", "jetexpr.euler"),
    ("jetexpr", "total_derivative", "jetexpr.total_derivative"),
    ("jetexpr", "expr_equiv", "jetexpr.equiv"),
    ("verify", "check_residual", "verify.residual"),
    ("verify", "check_divergence", "verify.divergence"),
    ("verify", "independent_variational_check", "verify.oracle"),
    ("solver", "make_stepper", "solver.make_stepper"),
    ("solver", "run", "solver.run"),
    ("solver", "jet_values", "solver.jet_values"),
    ("solver", "write_trajectory_csv", "solver.write_trajectory_csv"),
    ("analysis", "density_timeseries", "analysis.density"),
    ("analysis", "_run_member", "analysis.member"),
    ("analysis", "emit_report", "analysis.report"),
)

# (class, method, span name)
METHODS = (
    (catalog.Catalog, "build_system", "catalog.build_system"),
    (solver.Stepper, "step", "solver.step"),
)

# numpy entry points that are counted, not timed: a span per FFT would cost
# more than the FFT at N = 512
COUNTED = ((np.fft, "fft", "solver.fft_calls"), (np.fft, "ifft", "solver.fft_calls"))

EVAL_CALLERS = ("verify", "jetexpr", "analysis", "solver")


def dag_nodes(roots) -> int:
    """Distinct expression nodes (by identity) reachable from `roots`."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        for attr in ("arg", "lhs", "rhs"):
            child = getattr(n, attr, None)
            if child is not None:
                stack.append(child)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.eval_points: Counter = Counter()
        self.eval_roots: dict[str, dict[int, object]] = defaultdict(dict)
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------

    def _span(self, fn, name: str, caller: str, after=None):
        spans, stack, depth = self.spans, self._stack, self._depth

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outermost = depth[name] == 0
            stack.append(sid)
            depth[name] += 1
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                depth[name] -= 1
                stack.pop()
                spans[sid] = (name, caller, t0, t1, parent, outermost)
            if after is not None:
                after(caller, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, key: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        hooks = {"jetexpr.eval": self._after_eval, "solver.run": self._after_run,
                 "analysis.member": self._after_member}
        for home, attr, name in FUNCTIONS:
            original = getattr(MODULES[home], attr)
            for caller, module in MODULES.items():
                if getattr(module, attr, None) is original:
                    self._patch(module, attr,
                                self._span(original, name, caller, hooks.get(name)))
        for cls, attr, name in METHODS:
            self._patch(cls, attr, self._span(getattr(cls, attr), name, "-"))
        for owner, attr, key in COUNTED:
            self._patch(owner, attr, self._counter(getattr(owner, attr), key))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- result hooks (run outside the callee's span) -----------------------

    def _after_eval(self, caller, args, kwargs, result) -> None:
        e = args[0]
        point = args[1] if len(args) > 1 else kwargs.get("point")
        self.eval_points[caller] += 0 if point is None else (
            len(point) if isinstance(point, jetexpr.JetBatch) else 1)
        self.eval_roots[caller][id(e)] = e

    def _after_run(self, caller, args, kwargs, result) -> None:
        self.counts["solver.snapshots"] += len(result.snapshots)
        self.counts["solver.snapshot_bytes"] += sum(s.q.nbytes for s in result.snapshots)

    def _after_member(self, caller, args, kwargs, result) -> None:
        self.counts["analysis.members_failed"] += int(result.failed)

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> list[int]:
        """Self time (ns) of every span, indexed like `spans`."""
        child = [0] * len(self.spans)
        for name, caller, t0, t1, parent, outermost in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [s[3] - s[2] - c for s, c in zip(self.spans, child)]

    def write_spans(self, path, header: dict) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps([sid, *span]) + "\n")

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer figures per traced round: seconds and counts are divided
        by `rounds`, percentiles pool the samples of every round."""
        incl: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        durations: dict[str, list[int]] = defaultdict(list)
        for (name, caller, t0, t1, parent, outermost), s in zip(self.spans, self.self_times()):
            key = f"{name}.{caller}" if name == "jetexpr.eval" else name
            calls[key] += 1
            own[key] += s
            durations[key].append(t1 - t0)
            if outermost:
                incl[key] += t1 - t0

        def sec(key, table=incl):
            return table[key] / rounds / 1e9

        def n(key, table=calls):
            return table[key] / rounds

        def pct(key, q, unit_ns):
            xs = durations.get(key)
            return float(np.percentile(xs, q)) / unit_ns if xs else 0.0

        m = {
            "cli.self_s": sec("cli.main", own),
            "catalog.build_system_s": sec("catalog.build_system"),
            "catalog.build_system_calls": n("catalog.build_system"),
            "jetexpr.euler_s": sec("jetexpr.euler"),
            "jetexpr.euler_calls": n("jetexpr.euler"),
            "jetexpr.total_derivative_s": sec("jetexpr.total_derivative"),
            "jetexpr.equiv_s": sec("jetexpr.equiv"),
            "jetexpr.equiv_calls": n("jetexpr.equiv"),
            "jetexpr.eval_s": sum(sec(f"jetexpr.eval.{c}") for c in MODULES),
            "jetexpr.eval_calls": sum(n(f"jetexpr.eval.{c}") for c in MODULES),
        }
        for c in EVAL_CALLERS:
            key = f"jetexpr.eval.{c}"
            m[f"jetexpr.eval_s.{c}"] = sec(key)
            m[f"jetexpr.eval_calls.{c}"] = n(key)
            m[f"jetexpr.eval_points.{c}"] = n(c, self.eval_points)
            m[f"jetexpr.eval_call_ms_p50.{c}"] = pct(key, 50, 1e6)
            m[f"jetexpr.eval_call_ms_p90.{c}"] = pct(key, 90, 1e6)
        m["jetexpr.density_nodes"] = dag_nodes(self.eval_roots["analysis"].values())
        m["jetexpr.eval_nodes"] = dag_nodes(
            e for roots in self.eval_roots.values() for e in roots.values())
        m.update({
            "verify.residual_s": sec("verify.residual"),
            "verify.residual_self_s": sec("verify.residual", own),
            "verify.divergence_s": sec("verify.divergence"),
            "verify.divergence_self_s": sec("verify.divergence", own),
            "verify.oracle_s": sec("verify.oracle"),
            "verify.oracle_self_s": sec("verify.oracle", own),
            "verify.oracle_points": n("verify.oracle"),
            "solver.make_stepper_s": sec("solver.make_stepper"),
            "solver.run_s": sec("solver.run"),
            "solver.steps": n("solver.step"),
            "solver.step_us_p50": pct("solver.step", 50, 1e3),
            "solver.step_us_p90": pct("solver.step", 90, 1e3),
            "solver.fft_calls": n("solver.fft_calls", self.counts),
            "solver.snapshots": n("solver.snapshots", self.counts),
            "solver.snapshot_bytes": n("solver.snapshot_bytes", self.counts),
            "solver.jet_values_s": sec("solver.jet_values"),
            "analysis.density_s": sec("analysis.density"),
            "analysis.density_self_s": sec("analysis.density", own),
            "analysis.member_s_p50": pct("analysis.member", 50, 1e9),
            "analysis.members_failed": n("analysis.members_failed", self.counts),
            "analysis.report_s": sec("analysis.report"),
            "analysis.trajectory_csv_s": sec("solver.write_trajectory_csv"),
        })
        return m
