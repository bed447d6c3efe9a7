"""Experiment drivers: every table and figure of the paper, and the gates.

Each module holds its drivers (``run_*`` returning plain dicts/arrays,
``format_*`` rendering them) and, beside them, one
:class:`~repro.experiments.experiment.Experiment` declaration per
experiment with the named ``check`` of the paper's claim or the gate's
bar.  :mod:`repro.cli` runs every declaration the same way, and
``benchmarks/test_paper.py`` runs the paper ones.  The trained
benchmark-scale staged model and its stage outputs are cached on disk by
:mod:`repro.experiments.common`, so a full run trains each model once.

Experiment index (DESIGN.md §4):

- E1 Table I   — :mod:`repro.experiments.table1`
- E2 Fig. 2    — :mod:`repro.experiments.fig2`
- E3 Table II  — :mod:`repro.experiments.table2`
- E4 Table III — :mod:`repro.experiments.table3`
- E5 Fig. 4    — :mod:`repro.experiments.fig4`
- E6 Table IV  — :mod:`repro.experiments.table4`
- E8 + ablations — :mod:`repro.experiments.ablations`
"""

from .common import BenchmarkArtifacts, get_benchmark_artifacts

__all__ = ["BenchmarkArtifacts", "get_benchmark_artifacts"]
