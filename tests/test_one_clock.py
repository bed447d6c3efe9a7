"""Time is read in one module: ``src/repro/clock.py``.

The clock-source-mixing bug family: a deadline stamped on one timeline
and compared on another, or a component that sleeps for real while its
test drives a virtual clock.  Every component therefore owns a
:class:`~repro.clock.Clock` or is handed ``now``; this test walks every
module under ``src/repro`` and fails on a read of ``time.monotonic``,
``time.time``, ``time.sleep`` or ``time.perf_counter`` — as an attribute
of the ``time`` module (under any alias) or imported by name — anywhere
but ``clock.py``.  Measured durations go through
:func:`~repro.clock.stopwatch`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The module allowed to read time.
CLOCK_MODULE = "clock.py"
#: ``time`` functions that read or spend time on a timeline, or time a span.
FORBIDDEN = {"monotonic", "time", "sleep", "perf_counter"}
#: module under src/repro -> why it may read time directly.
ALLOWED = {}


def time_reads(source: str, filename: str = "<snippet>"):
    """(line, name) of every forbidden ``time`` function in ``source``."""
    tree = ast.parse(source, filename)
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "time"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            found += [
                (node.lineno, f"time.{alias.name}")
                for alias in node.names
                if alias.name in FORBIDDEN or alias.name == "*"
            ]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in FORBIDDEN
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            found.append((node.lineno, f"time.{node.attr}"))
    return sorted(found)


def test_time_is_read_only_in_the_clock_module():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module == CLOCK_MODULE or module in ALLOWED:
            continue
        offenders += [
            f"{module}:{line}: {name}"
            for line, name in time_reads(path.read_text(), str(path))
        ]
    assert not offenders, (
        "read time through repro.clock instead:\n" + "\n".join(offenders)
    )


def test_the_clock_module_is_where_time_is_read():
    # A guard that matches nothing would pass vacuously.
    assert time_reads((SRC / CLOCK_MODULE).read_text())


def test_checker_flags_synthetic_offenders():
    bad = "\n".join(
        [
            "import time",
            "t = time.monotonic()",
            "time.sleep(0.1)",
            "stamp = time.time()",
            "clock = time.monotonic",
            "import time as _t; _t.sleep(1)",
            "from time import sleep",
            "from time import monotonic as now",
            "from time import *",
            "start = time.perf_counter()",
            "from time import perf_counter as tick",
        ]
    )
    assert [line for line, _ in time_reads(bad)] == list(range(2, 12))
    good = "\n".join(
        [
            "import time",
            "elapsed = stopwatch()",
            "ms = 1e3 * elapsed()",
            "clock.sleep(0.1)",
            "MONOTONIC.now()",
            "record.time = 3",
            "self.sleep(1)",
        ]
    )
    assert time_reads(good) == []
