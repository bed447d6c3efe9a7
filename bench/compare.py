#!/usr/bin/env python3
"""Compare two result documents of ``run.py`` (bench/out/*.json).

    python3 bench/compare.py BASE.json NEW.json
    python3 bench/compare.py --agree RUN1.json RUN2.json

One row per workload x end-to-end metric: base, new, the ratio new/base,
the bound from BENCHMARK.json and a verdict.  ``change`` is signed so that
positive means worse.  A change inside the bound is *same* only if the
windows of both runs also agree inside the bound; otherwise, and for a
change beyond the bound that is still smaller than the window spread, the
verdict is *unresolved*: the run cannot tell.  ``--agree`` is for two runs
of the same code and exits non-zero unless every change is inside its bound.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


def workloads_of(path: Path) -> Dict[str, Dict[str, object]]:
    document = json.loads(path.read_text())
    if "workloads" in document:
        return document["workloads"]
    return {document["workload"]: document}


def verdict(change: float, noise: float, bound: float) -> str:
    if abs(change) <= bound:
        return "same" if noise <= bound else "unresolved"
    if abs(change) <= noise:
        return "unresolved"
    return "worse" if change > 0 else "better"


def compare(base: Dict[str, Dict], new: Dict[str, Dict], metrics: List[Dict]) -> List[Dict]:
    rows = []
    for workload in base:
        if workload not in new:
            continue
        for m in metrics:
            a = base[workload]["metrics"].get(m["name"])
            b = new[workload]["metrics"].get(m["name"])
            if a is None or b is None:
                continue
            worse_when = 1.0 if m["better"] == "lower" else -1.0
            change = worse_when * (b["value"] - a["value"]) / a["value"]
            noise = max(a.get("spread", 0.0), b.get("spread", 0.0))
            rows.append({
                "workload": workload, "metric": m["name"], "unit": m["unit"],
                "base": a["value"], "new": b["value"],
                "ratio": b["value"] / a["value"], "change": change,
                "spread": noise, "bound": m["bound"],
                "verdict": verdict(change, noise, m["bound"]),
            })
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--agree", action="store_true",
                        help="exit 1 unless every change is inside its bound")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rows = compare(workloads_of(args.base), workloads_of(args.new), metrics)
    print(f"{'workload':15s} {'metric':18s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s} {'worse by':>9s} {'spread':>7s} {'bound':>6s}  verdict")
    for r in rows:
        print(f"{r['workload']:15s} {r['metric']:18s} {r['base']:12.4f} {r['new']:12.4f} "
              f"{r['ratio']:9.3f} {r['change']:+9.1%} {r['spread']:7.1%} {r['bound']:6.0%}  "
              f"{r['verdict']}  (base {r['base']:.4g} {r['unit']})")
    outside = [r for r in rows if abs(r["change"]) > r["bound"]]
    if args.agree:
        for r in outside:
            print(f"DISAGREE {r['workload']} {r['metric']}: {r['change']:+.1%} "
                  f"against a bound of {r['bound']:.0%}", file=sys.stderr)
        return 1 if outside or not rows else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
