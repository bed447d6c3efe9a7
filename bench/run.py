#!/usr/bin/env python3
"""Run the benchmark declared in BENCHMARK.json and leave no process behind.

    python3 bench/run.py --workload infer_seq --seed 0 --seconds 12 --trace 0
    python3 bench/run.py --seed 0            # all workloads, end-to-end metrics
    python3 bench/run.py --seed 0 --trace 1  # all workloads, per-layer metrics

Each workload runs as ``python bench/workloads.py <name> ...`` in a session
of its own under a wall-clock limit.  Whatever happens to it, the runner
then kills that session, waits until no process of it remains, removes any
shared-memory segment it left, and refuses to print a result if a
descendant is still alive.  The last line of stdout is one JSON object:
for one workload ``{"correct", "attempted", "failed", "metrics"}``, for all
of them ``{"workloads": {name: that object}}``.  The full documents, with
window spreads, sample counts and the environment stamp, go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Set

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SHM = Path("/dev/shm")
#: exit codes: 1 = an output check failed (the result is still printed);
#: 2 = nothing to measure or nothing measured; 3 = a process was left behind.
FAILED_CHECK, NO_RESULT, LEFT_BEHIND = 1, 2, 3


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def process_table() -> Dict[int, Dict[str, int]]:
    """pid -> parent pid and session id of every process in /proc."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while we were listing
        # "pid (comm) state ppid pgrp session ..."; comm may hold spaces.
        fields = stat.rsplit(")", 1)[1].split()
        table[int(entry)] = {"ppid": int(fields[1]), "session": int(fields[3])}
    return table


def descendants(root: int) -> List[int]:
    table = process_table()
    found: List[int] = []
    frontier = [root]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, row in table.items() if row["ppid"] == parent]
        found.extend(children)
        frontier.extend(children)
    return found


def shm_segments() -> Set[str]:
    return set(os.listdir(SHM)) if SHM.is_dir() else set()


def end_session(leader: subprocess.Popen, patience_s: float = 10.0) -> List[int]:
    """SIGKILL the leader's process group until its session is empty."""
    deadline = time.monotonic() + patience_s
    while True:
        try:
            os.killpg(leader.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        leader.poll()  # reap it, or it stays in /proc as a zombie
        members = [pid for pid, row in process_table().items()
                   if row["session"] == leader.pid]
        if not members or time.monotonic() > deadline:
            return members
        time.sleep(0.05)


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 timeout_s: float) -> Optional[Dict[str, object]]:
    """Run one workload process; returns its document, or None if it
    produced none.  Raises SystemExit(LEFT_BEHIND) if it cannot be cleaned up."""
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{name}.seed{seed}.trace{trace}.json"
    out.unlink(missing_ok=True)
    segments_before = shm_segments()
    command = [sys.executable, str(BENCH / "workloads.py"), name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    # The workload's own prints must not end up after our result line.
    child = subprocess.Popen(command, cwd=ROOT, stdout=sys.stderr,
                             start_new_session=True)
    try:
        code = child.wait(timeout=timeout_s)
        log(f"[bench] {name}: exit {code}")
    except subprocess.TimeoutExpired:
        log(f"[bench] {name}: no result after {timeout_s:g}s, killing its session")
    finally:
        survivors = end_session(child)
        for segment in shm_segments() - segments_before:
            log(f"[bench] {name}: removing leaked shm segment {segment}")
            (SHM / segment).unlink(missing_ok=True)
    left = survivors + descendants(os.getpid())
    if left:
        log(f"[bench] {name}: processes left running: {sorted(set(left))}")
        raise SystemExit(LEFT_BEHIND)
    if not out.exists():
        return None
    return json.loads(out.read_text())


def contract_result(document: Dict[str, object], declared: List[Dict[str, str]]):
    """The driver's view: exactly the declared metrics, value and unit.

    A per-layer metric the workload did not report reads 0: that layer does
    no work on it (or is not measured there).  An end-to-end metric must be
    reported by every workload.
    """
    reported = document["metrics"]
    names = {m["name"] for m in declared}
    undeclared = sorted(set(reported) - names)
    if undeclared:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {undeclared}")
    metrics = {}
    for m in declared:
        entry = reported.get(m["name"])
        if entry is None:
            if document["trace"] == 0:
                raise SystemExit(f"end-to-end metric {m['name']} was not reported")
            entry = {"value": 0.0, "unit": m["unit"]}
        if entry["unit"] != m["unit"]:
            raise SystemExit(f"{m['name']}: unit {entry['unit']} != declared {m['unit']}")
        metrics[m["name"]] = {"value": entry["value"], "unit": entry["unit"]}
    return {
        "correct": bool(document["correct"]),
        "attempted": int(document["attempted"]),
        "failed": int(document["failed"]),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists() or not (ROOT / "src" / "repro").is_dir():
        log("[bench] no BENCHMARK.json or no src/repro next to bench/: nothing to measure")
        return NO_RESULT
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="measuring time per workload (3 is the quick mode)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--timeout", type=float, default=150.0,
                        help="wall-clock limit per workload process")
    parser.add_argument("--out", type=Path, default=None,
                        help="where to write the full document of an 'all' run")
    args = parser.parse_args(argv)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    selected = names if args.workload == "all" else [args.workload]
    documents: Dict[str, Dict[str, object]] = {}
    results = {}
    for name in selected:
        document = run_workload(name, args.seed, args.seconds, args.trace, args.timeout)
        if document is None:
            log(f"[bench] {name}: no result")
            return NO_RESULT
        for message in document["failures"]:
            log(f"[bench] {name}: FAILED CHECK: {message}")
        documents[name] = document
        results[name] = contract_result(document, declared)
        for metric, entry in results[name]["metrics"].items():
            if metric in document["metrics"]:  # not the zeros of idle layers
                log(f"[bench] {name:15s} {metric:42s} {entry['value']:14.4f} {entry['unit']}")

    if args.workload == "all":
        path = args.out or OUT / f"all.seed{args.seed}.trace{args.trace}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"workloads": documents}, indent=1))
        print(json.dumps({"workloads": results}))
    else:
        print(json.dumps(results[selected[0]]))
    return 0 if all(r["correct"] for r in results.values()) else FAILED_CHECK


if __name__ == "__main__":
    sys.exit(main())
