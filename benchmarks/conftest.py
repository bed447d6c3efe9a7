"""Shared fixtures for the benchmark harness.

``test_paper.py`` regenerates every table and figure of the paper.  The
trained benchmark model is built once (and disk-cached under
``.bench_cache/``); per-experiment outputs are printed to stdout (run with
``-s`` to see them live) *and* written to ``bench_results/<record>.txt``
so a plain ``pytest benchmarks/ --benchmark-only`` leaves the full
experiment record on disk.
"""

from __future__ import annotations

import pytest

from repro import faults, telemetry
from repro.experiments.common import get_benchmark_artifacts


@pytest.fixture(scope="session", autouse=True)
def uninstrumented_stack_guard():
    """Benchmarks measure the uninstrumented, disarmed stack: a telemetry
    session left enabled would tax every number reported here, and an armed
    FaultPlan would inject latency/crashes into them (either left over from
    a previous run or installed by an experiment helper), so fail loudly
    before and after the session instead.
    """
    assert telemetry.active() is None, (
        "a telemetry session is enabled; benchmarks must run with "
        "telemetry disabled"
    )
    assert faults.active() is None, (
        "a FaultPlan is armed; benchmarks must run with fault injection "
        "disabled (call repro.faults.uninstall() first)"
    )
    yield
    assert telemetry.active() is None, "a benchmark left a telemetry session enabled"
    assert faults.active() is None, "a benchmark left a FaultPlan armed"


@pytest.fixture(scope="session")
def artifacts():
    """The trained + calibrated benchmark model and its outputs."""
    return get_benchmark_artifacts()
