"""Every function the benchmark tracer wraps must exist where it looks.

`bench/tracing.py` finds each target with `vars(owner)[attr]`, so deleting
or moving one of them breaks `bench/run.py --trace 1` and `bench/smoke.py`.
These tests load that file as it is and fail first.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("semihyp_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "module_name, qualname", [(t[0], t[1]) for t in tracing.TARGETS],
    ids=[f"{t[0]}.{t[1]}" for t in tracing.TARGETS],
)
def test_trace_target_resolves(module_name, qualname):
    owner = importlib.import_module(f"semihyp.{module_name}")
    *classes, attr = qualname.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    assert attr in vars(owner), f"semihyp.{module_name} has no {qualname}"

