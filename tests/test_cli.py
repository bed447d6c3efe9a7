"""Tests for the CLI driver (light experiments only)."""

import pytest

from repro.cli import EXPERIMENTS, main
from repro.experiments import cluster_scaling


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["not-a-thing"])

    def test_table1_runs(self, capsys):
        """table1 has no model dependency, so it runs fast."""
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "CNN1" in out and "CNN4" in out

    def test_table4_runs(self, capsys):
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "Collaborative" in out

    def test_registry_complete(self):
        assert {"table1", "table2", "table3", "table4", "fig2", "fig4",
                "resilience", "service-classes", "partitioning"} <= set(EXPERIMENTS)


class TestClusterProcessGate:
    def test_one_core_skips_the_process_gate_without_a_verdict(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(cluster_scaling.os, "cpu_count", lambda: 1)

        def never(config):
            raise AssertionError("a skipped gate must not run the sweep")

        monkeypatch.setattr(cluster_scaling, "run_cluster_scaling", never)
        record = tmp_path / "cluster_scaling_proc.txt"
        argv = ["cluster", "--backend", "process", "--record", str(record)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("skipped: ")
        assert "has 1" in out
        assert not record.exists()

    def test_two_cores_are_held_to_a_real_speedup(self, monkeypatch):
        monkeypatch.setattr(cluster_scaling.os, "cpu_count", lambda: 2)
        config = cluster_scaling.ClusterScalingConfig(
            backend="process", work_kind="spin"
        )
        assert cluster_scaling.skip_reason(config) is None
        assert cluster_scaling.required_speedup(config) == 1.5
