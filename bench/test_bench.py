"""Self-test of the benchmark: ``python -m pytest bench -q`` (about 3 min).

Not part of the tier-1 suite (``testpaths`` is ``tests``).  Runs every
workload end to end with 3 s of measuring, in both modes, and checks the output
against BENCHMARK.json; unit-tests the tracer's self-time arithmetic; and
checks that no process or shm segment outlives ``run.py``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LIVE = [w for w in WORKLOADS if w != "des_offline"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def benchmark_processes() -> list:
    """Processes that look like ours: the workload or a multiprocessing helper."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            cmdline = Path("/proc", entry, "cmdline").read_bytes().replace(b"\0", b" ").decode()
        except OSError:
            continue
        if "bench/workloads.py" in cmdline or "multiprocessing." in cmdline:
            found.append((int(entry), cmdline))
    return found


def shm_segments() -> set:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


# ----------------------------------------------------------------------
# BENCHMARK.json against the driver's contract
# ----------------------------------------------------------------------
def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"] and SPEC["command"] == ["python3", "bench/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


# ----------------------------------------------------------------------
# Every workload, end to end, 3 s of measuring
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=[0, 1], ids=["end_to_end", "per_layer"])
def full_run(request):
    before = shm_segments()
    done = run("--seconds", "3", "--seed", "7", "--trace", str(request.param))
    assert done.returncode == 0, done.stderr[-4000:]
    assert not benchmark_processes()
    assert shm_segments() <= before
    return request.param, json.loads(done.stdout.strip().splitlines()[-1])["workloads"]


def test_every_declared_metric_is_printed_with_its_unit(full_run):
    trace, results = full_run
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(results) == WORKLOADS
    for name, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for m in declared:
            entry = result["metrics"][m["name"]]
            assert set(entry) == {"value", "unit"} and entry["unit"] == m["unit"]
            assert isinstance(entry["value"], (int, float))
            if not trace:
                assert entry["value"] > 0, (name, m["name"])


def test_trace_parts_sum_to_the_whole(full_run):
    trace, results = full_run
    if not trace:
        pytest.skip("per-layer run only")
    for name in LIVE:
        assert 0.95 <= results[name]["metrics"]["trace.sum_check"]["value"] <= 1.05
    for name in WORKLOADS:
        events = json.loads((BENCH / "out" / f"trace_{name}.json").read_text())["traceEvents"]
        assert events and {"name", "ph", "ts", "dur", "pid", "tid"} <= set(events[0])
    assert results["cluster_rpc"]["metrics"]["cluster.shm.leaked_blocks"]["value"] == 0
    assert results["des_offline"]["metrics"]["scheduler.simulator.late"]["value"] == 0
    # A layer that idles on a workload reads 0 there.
    assert results["des_offline"]["metrics"]["nn.stage_calls"]["value"] == 0
    assert results["cluster_rpc"]["metrics"]["scheduler.runtime.span_ms"]["value"] == 0


def test_same_code_agrees_with_itself(full_run, capsys):
    trace, _ = full_run
    if trace:
        pytest.skip("end-to-end run only")
    document = str(BENCH / "out" / "all.seed7.trace0.json")
    assert compare.main(["--agree", document, document]) == 0
    assert "same" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Nothing outlives the runner
# ----------------------------------------------------------------------
def test_a_timed_out_workload_leaves_nothing_behind():
    before = shm_segments()
    done = run("--workload", "cluster_rpc", "--seconds", "30", "--timeout", "6")
    assert done.returncode == 2 and done.stdout.strip() == "", done.stderr[-2000:]
    assert "killing its session" in done.stderr
    assert not benchmark_processes()
    assert shm_segments() <= before


def test_no_result_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run("--workload", "infer_seq", "--seed", "0", "--seconds", "3", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0 and done.stdout.strip() == ""


# ----------------------------------------------------------------------
# Tracer arithmetic on a toy call tree
# ----------------------------------------------------------------------
def span(layer, start, end, request=0):
    return tracer.Span(layer, f"{layer}.call", start, end, request, 0, None)


def test_self_time_subtracts_the_union_of_overlapping_children():
    order = (("client",), ("runtime",), ("policy", "nn"))
    spans = [
        span("client", 0.0, 10.0),
        span("runtime", 1.0, 9.0),
        span("nn", 2.0, 5.0), span("nn", 4.0, 7.0),   # two workers overlap on [4, 5]
        span("policy", 6.5, 8.0),                     # overlaps nn on [6.5, 7]
    ]
    parts = tracer.self_times(spans, order)
    assert parts["client"] == pytest.approx(2.0)
    assert parts["runtime"] == pytest.approx(8.0 - 6.0)   # children cover [2, 8]
    assert parts["policy+nn"] == pytest.approx(6.0)
    assert sum(parts.values()) == pytest.approx(10.0)
    assert tracer.overlapped([s.interval for s in spans if s.layer == "nn"]) == pytest.approx(1.0)


def test_a_child_outside_its_parent_breaks_the_sum():
    order = (("client",), ("nn",))
    parts = tracer.self_times([span("client", 0.0, 4.0), span("nn", 3.0, 6.0)], order)
    assert parts["client"] == pytest.approx(3.0)        # only [3, 4] is clipped out
    assert sum(parts.values()) / 4.0 == pytest.approx(1.5)


def test_a_missing_layer_hands_its_children_to_the_layer_above():
    order = (("client",), ("router",), ("server",))
    parts = tracer.self_times([span("client", 0.0, 5.0), span("server", 1.0, 2.0)], order)
    assert parts == {"client": pytest.approx(4.0), "server": pytest.approx(1.0)}


def test_wrap_records_spans_and_close_restores():
    class Layer:
        def work(self, items):
            return len(items)

    instance = Layer()
    original = Layer.work
    with tracer.Tracer() as spans:
        spans.wrap(Layer, "work", "inner", size=lambda args: len(args[1]))
        spans.wrap(instance, "work", "outer", root=True)
        assert instance.work([1, 2, 3]) == 3
        assert Layer().work([1]) == 1        # outside any root: no request
    assert Layer.work is original and "work" not in vars(instance)
    by_layer = {(s.layer, s.request): s for s in spans.spans}
    assert by_layer[("inner", 0)].size == 3 and by_layer[("outer", 0)].size is None
    assert by_layer[("inner", None)].size == 1
    assert list(spans.by_request()) == [0]


def test_verdicts_never_call_noise_a_change():
    assert compare.verdict(0.02, 0.03, 0.10) == "same"
    assert compare.verdict(0.02, 0.30, 0.10) == "unresolved"
    assert compare.verdict(0.20, 0.30, 0.10) == "unresolved"
    assert compare.verdict(0.20, 0.05, 0.10) == "worse"
    assert compare.verdict(-0.20, 0.05, 0.10) == "better"
