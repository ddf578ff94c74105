"""The benchmark's tracer patches packdiag functions by name; each must exist,
and the benchmark's own self-test must pass against the package."""

import importlib.util
import subprocess
import sys
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


def test_benchmark_selftest_passes():
    # runs each workload at a tiny size and checks every check can fail,
    # so a changed signature or dataclass field the workloads use shows
    # here; its temporary files go under the git-ignored perfbench/out/
    done = subprocess.run([sys.executable, str(TRACING.parent / "selftest.py")],
                          cwd=TRACING.parents[1], capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
