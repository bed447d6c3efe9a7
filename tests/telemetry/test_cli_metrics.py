"""Integration: the ``repro metrics`` CLI over a scripted serving workload.

The workload (see :func:`repro.experiments.serving.run_metrics_workload`)
trains a tiny staged model, then drives profile / micro-batched classify /
two infer episodes (one with an impossible deadline) — so the export must show the
acceptance quantities end to end: per-stage latency p50/p95/p99, batch
occupancy, deadline-miss count and per-endpoint request counts.
"""

import json

import pytest

from repro import telemetry
from repro.cli import main


@pytest.fixture(scope="module")
def metrics_output():
    code, out = _run_cli(["metrics"])
    assert code == 0
    return out


def _run_cli(argv):
    import contextlib
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


class TestMetricsCLI:
    def test_per_endpoint_request_counts(self, metrics_output):
        assert "service.requests.train" in metrics_output
        assert "service.requests.classify" in metrics_output
        assert "service.requests.profile" in metrics_output
        assert "service.requests.infer" in metrics_output

    def test_per_stage_latency_quantiles(self, metrics_output):
        assert "runtime.stage_latency_ms.stage0" in metrics_output
        for column in ("p50", "p95", "p99"):
            assert column in metrics_output

    def test_batch_occupancy_and_misses(self, metrics_output):
        assert "runtime.batch_occupancy" in metrics_output
        assert "runtime.deadline_misses" in metrics_output

    def test_trace_tally_present(self, metrics_output):
        assert "stage-dispatch" in metrics_output
        assert "admit" in metrics_output

    def test_session_disabled_after_cli_exit(self, metrics_output):
        assert telemetry.active() is None

    def test_json_export(self):
        code, out = _run_cli(["metrics", "--json"])
        assert code == 0
        payload = json.loads(out)
        counters = payload["counters"]
        assert counters["service.requests.infer"] == 2
        assert counters["service.requests.classify"] == 1
        # The impossible-deadline episode must actually miss deadlines.
        assert counters["runtime.deadline_misses"] > 0
        stage0 = payload["histograms"]["runtime.stage_latency_ms.stage0"]
        assert {"p50", "p95", "p99"} <= set(stage0)
        assert payload["histograms"]["runtime.batch_occupancy"]["max"] >= 2
        assert payload["trace"]["counts"]["deadline-miss"] > 0
