"""The traced e2e run wraps the program at named use sites; a refactor
that unbinds one would only show up as a broken benchmark run.  Fail
tier-1 instead."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).parent.parent / "benchmarks" / "e2e" / "tracing.py"


def test_every_trace_target_is_bound():
    spec = importlib.util.spec_from_file_location("e2e_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unbound = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for (owner, attr, _name, _measure), bound in zip(
            tracing.TARGETS, tracing.current_bindings()
        )
        if bound is None
    ]
    assert not unbound, f"trace targets no longer exist: {unbound}"
