"""Command-line driver: run any experiment of the reproduction.

Usage::

    python -m repro.cli list
    python -m repro.cli NAME [--help] [flags] [--record PATH]
    python -m repro.cli table2 table3 fig2
    python -m repro.cli all

``NAME`` is a paper table / figure (``list`` shows them) or a gate.  An
experiment prints its report (or ``--json``), writes the report plus its
``FAIL:`` lines to ``--record PATH``, prints one ``FAIL:`` line per
failed check and exits 1 on any.  ``all`` runs every paper experiment.
The first run of a model-backed experiment trains the benchmark model
(a few minutes) and caches it under ``.bench_cache/``.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from pathlib import Path
from typing import Dict, List, Sequence

from .experiments.experiment import Experiment

#: the modules declaring experiments, in ``list`` / ``all`` order.
MODULES = (
    "table1", "fig2", "table2", "table3", "fig4", "table4", "ablations",
    "extensions", "fastpath", "openloop", "serving", "anytime",
    "cluster_scaling", "autoscale", "workload", "isolation",
)
EXPERIMENTS: Dict[str, Experiment] = {
    exp.name: exp
    for module in MODULES
    for exp in vars(import_module(f".experiments.{module}", __package__)).values()
    if isinstance(exp, Experiment)
}
#: the experiments ``all`` and the benchmark harness run.
PAPER = [name for name, exp in EXPERIMENTS.items() if exp.record]
LISTING = "\n".join(f"{name:16} {exp.summary}" for name, exp in EXPERIMENTS.items())


def parser(exp: Experiment) -> argparse.ArgumentParser:
    """The experiment's own flags plus ``--record``."""
    flags = argparse.ArgumentParser(prog=f"repro {exp.name}", description=exp.summary)
    for names, kwargs in exp.flags:
        flags.add_argument(*names, **kwargs)
    flags.add_argument(
        "--record",
        metavar="PATH",
        help="also write the text report and its FAIL: lines to PATH",
    )
    return flags


def write_record(path, report: str, failures: List[str]) -> None:
    """The one writer of a recorded report (``bench_results/*.txt``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join([report] + [f"FAIL: {f}" for f in failures]) + "\n")


def run(exp: Experiment, argv: Sequence[str]) -> int:
    """Parse, run, print, record and judge one experiment."""
    args = parser(exp).parse_args(argv)
    reason = exp.skip(args) if exp.skip else None
    if reason is not None:
        # No verdict at all, not a pass: nothing is run or recorded.
        print(f"skipped: {reason}")
        return 0
    result = exp.run(args)
    report = exp.format(result)
    print(exp.to_json(result) if getattr(args, "json", False) else report)
    failures = exp.check(result)
    if args.record:
        write_record(args.record, report, failures)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in EXPERIMENTS and not set(argv[1:]) & set(EXPERIMENTS):
        return run(EXPERIMENTS[argv[0]], argv[1:])

    top = argparse.ArgumentParser(
        prog="repro",
        description=__doc__.split("\n\n", 1)[0],
        epilog="experiments:\n" + LISTING,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    top.add_argument(
        "experiments",
        nargs="+",
        help="experiment names, 'all' (every paper experiment) or 'list'",
    )
    names = top.parse_args(argv).experiments
    if names == ["list"]:
        print(LISTING)
        return 0
    names = PAPER if names == ["all"] else names
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        top.error(f"unknown experiment(s) {unknown}; choose from {list(EXPERIMENTS)}")
    code = 0
    for name in names:
        print(f"\n{'=' * 70}\n{name}\n{'=' * 70}")
        code = max(code, run(EXPERIMENTS[name], []))
    return code


if __name__ == "__main__":
    sys.exit(main())
