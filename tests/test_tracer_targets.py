"""perfbench's tracer wraps package entry points by name, so a rename of one
silently drops its per-layer spans. This guard fails on such a rename in the
package's own test run."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_targets_resolve():
    if not TRACING.is_file():
        pytest.skip("no perfbench/ next to tests/")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.targets()
    assert targets
    for name, owner, attr in targets:
        assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr} is gone"
