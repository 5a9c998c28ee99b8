"""Experiment-layer tests: report rendering and table structure."""
import gc

import numpy as np
import pytest

from repro.experiments import fig8, opcount
from repro.experiments.report import (
    fig8_section,
    md_table,
    opcount_section,
)


class TestMdTable:
    def test_basic(self):
        s = md_table([{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
        assert "| a | b |" in s
        assert "| 1 | x |" in s
        assert s.count("\n") == 4

    def test_column_selection_and_order(self):
        s = md_table([{"a": 1, "b": 2}], ["b", "a"])
        assert s.splitlines()[0] == "| b | a |"

    def test_empty(self):
        assert "no rows" in md_table([])

    def test_missing_cell_blank(self):
        s = md_table([{"a": 1}], ["a", "b"])
        assert "| 1 |  |" in s


class TestFig8Experiment:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig8.run()

    def test_covers_all_scenarios(self, rows):
        keys = {(r["query"], r["change"], r["mode"]) for r in rows}
        assert len(keys) == 3 * 2 * 3  # 3 queries x 2 changes x 3 modes

    def test_jarvis_always_converges(self, rows):
        for r in rows:
            if r["mode"] == "jarvis":
                assert isinstance(r["epochs_after_detect"], int)
                assert r["epochs_after_detect"] <= 7  # paper: within 7 s

    def test_lp_only_diverges_where_paper_says(self, rows):
        by = {(r["query"], r["change"]): r["epochs_after_detect"]
              for r in rows if r["mode"] == "lp_only"}
        assert by[("s2s", "90%->60% CPU")] == "no-conv"
        assert by[("t2t", "10%->100% CPU")] == "no-conv"

    def test_section_renders(self, rows):
        s = fig8_section(rows)
        assert "T-8" in s and "no-conv" in s


class TestOpcount:
    def test_section_renders(self):
        rows = [{"n_ops": 2, "worst_epochs": 9, "mean_epochs": 5.0, "n_configs": 10}]
        s = opcount_section(rows)
        assert "worst_epochs" in s


class TestSpecMeasurement:
    def test_measured_spec_matches_calibration(self, spark):
        """Spark-measured relay ratios must land near the calibrated
        constants the convergence experiments use."""
        from repro.experiments.specs import s2s_spec

        spec = s2s_spec(spark)
        assert spec.relay[0] == pytest.approx(1.0)
        assert spec.relay[1] == pytest.approx(0.86, abs=0.04)
        assert spec.relay[2] < 0.1  # ~20 probes per pair-window at 10x
        assert spec.full_demand_core(26.2) == pytest.approx(0.85, abs=0.03)

    def test_rate_scale_preserves_group_population(self, spark):
        from repro.experiments.specs import s2s_spec

        spec = s2s_spec(spark)
        half = spec.with_rate_scale(0.5)
        assert half.offered_mbps == pytest.approx(spec.offered_mbps / 2)
        # Output per window constant => bytes/record doubles.
        assert half.output_bytes_per_record == pytest.approx(
            2 * spec.output_bytes_per_record
        )


class TestFig3Jobs:
    def test_three_runs_and_nothing_else(self, spark):
        """Once ``s2s_spec`` is stored, fig3 runs its three plans (two jobs
        each) and no job to cache or count its trace."""
        from repro.experiments import fig3
        from repro.experiments.specs import s2s_spec
        from tests.test_partition_exec import jobs_per_call

        s2s_spec(spark)
        rows = []
        assert jobs_per_call(spark, lambda: rows.extend(fig3.run(spark))) <= 6
        assert len(rows) == 3


class TestSpecPerSession:
    def test_second_call_runs_no_job(self, spark):
        from repro.experiments.specs import s2s_spec
        from tests.test_partition_exec import jobs_per_call

        first = s2s_spec(spark)
        again = []
        assert jobs_per_call(spark, lambda: again.append(s2s_spec(spark))) == 0
        for name, value in vars(first).items():
            assert np.array_equal(getattr(again[0], name), value), name

    def test_shared_spec_is_read_only(self, spark):
        from repro.experiments.specs import s2s_spec

        with pytest.raises(ValueError):
            s2s_spec(spark).relay[0] = 0.5

    def test_measured_once_per_session_and_arguments(self, monkeypatch):
        """A new session measures again, and a dropped one leaves no entry."""
        from repro.cluster.spec import spec_from_costs
        from repro.experiments import specs

        calls = []

        def fake_measure(bundle, costs, offered_mbps):
            calls.append(offered_mbps)
            return spec_from_costs(costs, np.ones(3), 1.0, offered_mbps)

        class Session:  # stands in for a SparkSession
            pass

        monkeypatch.setattr(specs, "s2s_query", lambda spark, **kw: None)
        monkeypatch.setattr(specs, "measure_spec", fake_measure)
        a, b = Session(), Session()
        assert specs.s2s_spec(a) is specs.s2s_spec(a)
        specs.s2s_spec(a, scale=5.0)
        specs.s2s_spec(b)
        assert len(calls) == 3
        n = len(specs._MEASURED)
        del a, b
        gc.collect()
        assert len(specs._MEASURED) == n - 2
