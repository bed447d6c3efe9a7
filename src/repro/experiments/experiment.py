"""One declaration per experiment: what it runs, prints and checks.

Every experiment module declares its experiments beside its code as
:class:`Experiment` values.  :mod:`repro.cli` collects them into one
registry and runs each the same way (parse its flags, ``run``, print
``format`` or ``to_json``, write ``--record``, print a ``FAIL:`` line per
``check`` failure, exit 1 on any), and ``benchmarks/`` runs the paper
experiments (those with a ``record`` file) through the same declaration.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

#: An ``argparse`` option: the names and keyword arguments of ``add_argument``.
Flag = Tuple[Tuple[str, ...], Dict[str, Any]]


def flag(*names: str, **kwargs: Any) -> Flag:
    return names, kwargs


JSON = flag("--json", action="store_true", help="emit machine-readable JSON")
SEED = flag("--seed", type=int, default=0)
#: the smoke switch of the synthetic-oracle DES gates.
SYNTHETIC_SMOKE = flag(
    "--smoke",
    action="store_true",
    help="use synthetic oracles instead of the trained benchmark "
    "artifacts (seconds instead of minutes; the CI smoke path)",
)


def failed(checks: Mapping[str, bool]) -> List[str]:
    """The names of the checks that do not hold (empty = pass)."""
    return [name for name, holds in checks.items() if not holds]


@dataclass(frozen=True)
class Experiment:
    name: str
    #: one line, shown by ``repro list`` and ``repro NAME --help``.
    summary: str
    run: Callable[[argparse.Namespace], Any]
    format: Callable[[Any], str]
    #: failure strings for ``run``'s result; empty on pass.
    check: Callable[[Any], List[str]] = lambda result: []
    flags: Sequence[Flag] = ()
    #: why this host cannot run the experiment (``None`` when it can); a
    #: skip runs, records and judges nothing.
    skip: Optional[Callable[[argparse.Namespace], Optional[str]]] = None
    to_json: Callable[[Any], str] = lambda result: json.dumps(result, indent=2)
    #: ``bench_results/<record>.txt`` of a paper experiment, which
    #: ``repro all`` and the benchmark harness run; ``None`` for a gate.
    record: Optional[str] = None
