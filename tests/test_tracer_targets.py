"""The benchmark's tracer (`perfbench/tracing.py`) wraps package functions
and methods by name.  A name it lists that the package no longer has makes
`Tracer.install` raise partway, and every traced benchmark round fails.
Its result hooks read attributes of what the wrapped calls return.  This
checks each name, and feeds each hook a real result, without installing
the tracer."""

import importlib.util
from pathlib import Path

from ptnls.analysis import _run_member
from ptnls.jetexpr import JetSampler, eval_expr, parse_expr
from ptnls.solver import BlowUpError, Grid, SolverConfig, run

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # METHODS holds the classes themselves
    return module


def test_every_name_the_tracer_wraps_exists():
    tracing = _load_tracing()
    assert all(m.__name__.startswith("ptnls.") for m in tracing.MODULES.values())
    missing = [f"{home}.{attr}" for home, attr, _ in tracing.FUNCTIONS
               if not callable(getattr(tracing.MODULES[home], attr, None))]
    for cls, attr, _ in tracing.METHODS:
        assert cls.__module__.startswith("ptnls.")
        if not callable(getattr(cls, attr, None)):
            missing.append(f"{cls.__name__}.{attr}")
    assert not missing, f"the tracer wraps names ptnls lacks: {missing}"


def test_the_hooks_read_what_the_package_returns():
    tracer = _load_tracing().Tracer()
    # a run's snapshots are counted one field each, whatever their shape
    cfg = SolverConfig(dt=1e-3, T_final=0.01, grid=Grid(N=64))
    traj = run(cfg, sample_every=4)
    tracer._after_run("solver", (cfg,), {"sample_every": 4}, traj)
    assert tracer.counts["solver.snapshots"] == len(traj.snapshots) == 4
    assert tracer.counts["solver.snapshot_bytes"] == sum(
        s.q.nbytes for s in traj.snapshots) == 4 * cfg.grid.N * 16

    error = BlowUpError(0.1)
    tracer._after_member("analysis", (0.1, error), {}, _run_member(0.1, error))
    assert tracer.counts["analysis.members_failed"] == 1

    batch = JetSampler(0).batch(7, 2)
    e = parse_expr("u_x * v + x")
    tracer._after_eval("analysis", (e, batch), {}, eval_expr(e, batch))
    assert tracer.eval_points["analysis"] == len(batch) == 7
    assert tracer.eval_roots["analysis"] == {id(e): e}
