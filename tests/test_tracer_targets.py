"""The benchmark's tracer (`perfbench/tracing.py`) wraps package functions
and methods by name.  A name it lists that the package no longer has makes
`Tracer.install` raise partway, and every traced benchmark round fails.
This checks each name without installing the tracer."""

import importlib.util
from pathlib import Path

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
