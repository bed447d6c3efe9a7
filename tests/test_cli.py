"""Tests for the CLI driver (light experiments only)."""

import dataclasses
import json

import pytest

from repro.cli import EXPERIMENTS, PAPER, main, parser
from repro.experiments import cluster_scaling
from repro.experiments.experiment import JSON, Experiment


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


#: Each subcommand's flags before the experiments shared one runner; the
#: runner may add only ``--record`` (and argparse's ``-h``/``--help``).
FLAGS_BEFORE_THE_RUNNER = {
    "metrics": {"--json", "--events", "--seed"},
    "chaos": {"--json", "--seed", "--episodes"},
    "overload": {"--json", "--smoke", "--seed", "--tasks"},
    "anytime": {"--json", "--smoke", "--seed", "--tasks", "--record"},
    "cluster": {"--json", "--seed", "--requests", "--replicas", "--backend",
                "--work", "--record"},
    "autoscale": {"--json", "--seed", "--smoke", "--steps", "--max-replicas",
                  "--record"},
    "workload": {"--json", "--seed", "--smoke", "--requests"},
    "isolation": {"--json", "--seed", "--smoke", "--record"},
}


def _fake(**overrides):
    fields = dict(
        name="fake",
        summary="a stand-in experiment",
        run=lambda args: {"value": 3},
        format=lambda result: f"value {result['value']}\nsecond line",
        check=lambda result: ["claim one", "claim two"],
        flags=(JSON,),
    )
    fields.update(overrides)
    return Experiment(**fields)


class TestRunner:
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_flag_set_is_pinned(self, name):
        accepted = {
            option
            for action in parser(EXPERIMENTS[name])._actions
            for option in action.option_strings
        }
        before = FLAGS_BEFORE_THE_RUNNER.get(name, set())
        assert accepted == before | {"--record", "-h", "--help"}

    def test_declarations_are_keyed_by_name_and_record_apart(self):
        assert all(name == exp.name for name, exp in EXPERIMENTS.items())
        records = [EXPERIMENTS[name].record for name in PAPER]
        assert len(set(records)) == len(records) == 13

    @pytest.mark.parametrize(
        "argv", [["table1", "--json"], ["chaos", "--smoke"], ["overload", "--record2", "x"]]
    )
    def test_undeclared_flag_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_record_is_the_printed_text_plus_its_fail_lines(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setitem(EXPERIMENTS, "fake", _fake())
        record = tmp_path / "nested" / "fake.txt"
        assert main(["fake", "--record", str(record)]) == 1
        out = capsys.readouterr().out
        assert out == "value 3\nsecond line\nFAIL: claim one\nFAIL: claim two\n"
        assert record.read_text() == out

    def test_json_prints_json_but_records_the_text(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setitem(EXPERIMENTS, "fake", _fake(check=lambda result: []))
        record = tmp_path / "fake.txt"
        assert main(["fake", "--json", "--record", str(record)]) == 0
        assert json.loads(capsys.readouterr().out) == {"value": 3}
        assert record.read_text() == "value 3\nsecond line\n"

    def test_passing_paper_record_equals_stdout(self, capsys, tmp_path):
        record = tmp_path / "table1.txt"
        assert main(["table1", "--record", str(record)]) == 0
        assert record.read_text() == capsys.readouterr().out

    def test_a_failed_paper_check_fails_the_command(self, capsys, monkeypatch):
        table1 = EXPERIMENTS["table1"]
        monkeypatch.setitem(
            EXPERIMENTS, "table1",
            dataclasses.replace(table1, run=lambda args: [
                dict(row, model_time_ms=2 * row["model_time_ms"])
                for row in table1.run(args)
            ]),
        )
        assert main(["table1"]) == 1
        assert "FAIL: CNN1 time within 15% of the paper's" in capsys.readouterr().out

    def test_skip_runs_nothing_and_records_nothing(self, capsys, monkeypatch, tmp_path):
        def never(args):
            raise AssertionError("a skipped experiment must not run")

        monkeypatch.setitem(
            EXPERIMENTS, "fake", _fake(run=never, skip=lambda args: "no such device")
        )
        record = tmp_path / "fake.txt"
        assert main(["fake", "--record", str(record)]) == 0
        assert capsys.readouterr().out == "skipped: no such device\n"
        assert not record.exists()

    def test_several_experiments_run_under_banners(self, capsys):
        assert main(["table1", "table4"]) == 0
        out = capsys.readouterr().out
        assert out.index("\ntable1\n") < out.index("CNN1") < out.index("\ntable4\n")
