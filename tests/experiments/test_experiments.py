"""Light-weight tests of the experiment drivers (heavy paths run in benchmarks/).

These avoid the disk-cached benchmark artifacts (which take minutes to
build) by constructing miniature artifacts in-process.
"""

from repro.experiments.fig2 import run_fig2
from repro.experiments.fig4 import Fig4Config, default_policies, run_fig4
from repro.experiments.table1 import format_table1, run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.table4 import Table4Config, format_table4, run_table4
from repro.scheduler.confidence import GPConfidencePredictor


class TestTable1:
    def test_rows_and_format(self):
        rows = run_table1()
        assert [r["layer"] for r in rows] == ["CNN1", "CNN2", "CNN3", "CNN4"]
        text = format_table1(rows)
        assert "CNN3" in text and "paper" in text


class TestFig2:
    def test_diagrams_built_from_artifacts(self, mini_artifacts):
        diagrams = run_fig2(mini_artifacts)
        assert set(diagrams) == {"uncalibrated", "calibrated"}
        for d in diagrams.values():
            assert d.num_bins == 10


class TestTable2:
    def test_methods_present(self, mini_artifacts):
        table = run_table2(mini_artifacts)
        assert {"Uncalibrated", "RDeepSense", "RTDeepIoT"} <= set(table)
        for eces in table.values():
            assert len(eces) == mini_artifacts.num_stages
            assert all(0 <= e <= 1 for e in eces)


class TestTable3:
    def test_all_pairs_reported(self, mini_artifacts):
        table = run_table3(mini_artifacts)
        assert set(table) == {"GP1->2", "GP1->3", "GP2->3"}
        for row in table.values():
            assert row["mae"] >= 0
            assert row["r2"] <= 1.0


class TestFig4:
    def test_small_sweep(self, mini_artifacts):
        curves = run_fig4(
            mini_artifacts,
            config=Fig4Config(episodes=2, tasks_per_episode=30),
            concurrency_levels=(2, 8),
            policy_names=("RTDeepIoT-1", "RR", "FIFO"),
        )
        assert set(curves) == {"RTDeepIoT-1", "RR", "FIFO"}
        for curve in curves.values():
            assert curve.concurrency == [2, 8]
            assert all(0 <= a <= 1 for a in curve.mean_accuracy)

    def test_default_policies_exhaustive(self, mini_artifacts):
        predictor = GPConfidencePredictor(num_classes=5, seed=0).fit(
            mini_artifacts.train_outputs["confidences"]
        )
        factories = default_policies(predictor)
        assert set(factories) == {
            "RTDeepIoT-1", "RTDeepIoT-2", "RTDeepIoT-3",
            "RTDeepIoT-DC-1", "RTDeepIoT-DC-2", "RTDeepIoT-DC-3",
            "RR", "FIFO",
        }
        for name, factory in factories.items():
            assert factory().name == name


class TestTable4:
    def test_small_run_shapes(self):
        rows = run_table4(Table4Config(num_frames=20, num_people=8))
        assert set(rows) == {"Individual", "Collaborative"}
        assert rows["Individual"]["recognition_latency_ms"] == 550.0
        assert rows["Collaborative"]["recognition_latency_ms"] < 550.0
        text = format_table4(rows)
        assert "Collaborative" in text
