"""Every paper experiment, run, recorded and judged through its declaration.

One test per experiment of :data:`repro.cli.PAPER` (``-k table3`` picks
one): the run is timed by ``pytest-benchmark``, its report is written to
``bench_results/<record>.txt`` by the CLI's record writer, and the test
fails with the names of the paper claims that do not hold — the same
checks ``python -m repro.cli <name>`` prints as ``FAIL:`` lines.
"""

from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, PAPER, parser, write_record

RESULTS_DIR = Path(__file__).resolve().parent.parent / "bench_results"


@pytest.mark.parametrize("name", PAPER)
def test_paper_experiment(name, benchmark, artifacts):
    exp = EXPERIMENTS[name]
    benchmark.group = name
    result = benchmark.pedantic(
        exp.run, args=(parser(exp).parse_args([]),), rounds=1, iterations=1
    )
    report = exp.format(result)
    failures = exp.check(result)
    write_record(RESULTS_DIR / f"{exp.record}.txt", report, failures)
    print(f"\n{'=' * 70}\n{name}\n{'=' * 70}\n{report}")
    assert not failures, "paper claims that do not hold:\n" + "\n".join(failures)
