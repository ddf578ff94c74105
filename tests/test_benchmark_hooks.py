"""The benchmark's tracer patches packdiag functions by name; each must exist."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for owner, attr, _, _ in tracing.SITES],
    ids=[f"{owner.__name__}.{attr}" for owner, attr, _, _ in tracing.SITES])
def test_traced_site_resolves(owner, attr):
    assert callable(getattr(owner, attr, None))
