"""Text and JSON export of a telemetry session.

``render_text`` is what the ``repro metrics`` CLI prints; ``to_dict`` /
``to_json`` give the machine-readable equivalent for tests and tooling.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from . import Telemetry


def to_dict(telemetry: "Telemetry", trace_events: bool = False) -> Dict[str, object]:
    """Nested-dict snapshot: metrics, trace tallies, optionally raw events."""
    out: Dict[str, object] = dict(telemetry.registry.snapshot())
    out["trace"] = {
        "counts": telemetry.trace.counts(),
        "dropped": telemetry.trace.dropped,
    }
    if trace_events:
        out["trace"]["events"] = [e.to_dict() for e in telemetry.trace.events()]
    return out


def to_json(telemetry: "Telemetry", trace_events: bool = False, indent: int = 2) -> str:
    return json.dumps(to_dict(telemetry, trace_events=trace_events), indent=indent)


def render_text(telemetry: "Telemetry") -> str:
    """Human-readable report: counters, gauges, histogram quantile tables."""
    snapshot = to_dict(telemetry)
    lines = []

    counters: Dict[str, float] = snapshot["counters"]
    lines.append("counters")
    if counters:
        width = max(len(name) for name in counters)
        for name, value in counters.items():
            formatted = f"{value:g}" if value != int(value) else f"{int(value)}"
            lines.append(f"  {name:<{width}}  {formatted}")
    else:
        lines.append("  (none)")

    gauges: Dict[str, float] = snapshot["gauges"]
    if gauges:
        lines.append("")
        lines.append("gauges")
        width = max(len(name) for name in gauges)
        for name, value in gauges.items():
            lines.append(f"  {name:<{width}}  {value:g}")

    histograms: Dict[str, Dict[str, float]] = snapshot["histograms"]
    lines.append("")
    lines.append("histograms")
    if histograms:
        width = max(len(name) for name in histograms)
        header = (
            f"  {'name':<{width}}  {'count':>7} {'mean':>9} {'p50':>9} "
            f"{'p95':>9} {'p99':>9} {'max':>9}"
        )
        lines.append(header)
        for name, s in histograms.items():
            lines.append(
                f"  {name:<{width}}  {int(s['count']):>7} {s['mean']:>9.3f} "
                f"{s['p50']:>9.3f} {s['p95']:>9.3f} {s['p99']:>9.3f} "
                f"{s['max']:>9.3f}"
            )
    else:
        lines.append("  (none)")

    trace = snapshot["trace"]
    lines.append("")
    lines.append("trace events")
    if trace["counts"]:
        width = max(len(kind) for kind in trace["counts"])
        for kind, n in trace["counts"].items():
            lines.append(f"  {kind:<{width}}  {n}")
    else:
        lines.append("  (none)")
    if trace["dropped"]:
        lines.append(f"  ({trace['dropped']} events dropped from bounded window)")
    return "\n".join(lines)
