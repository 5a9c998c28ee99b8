"""WSP data-synopsis tests (Fig. 9 mechanics)."""
import pytest
from pyspark.sql import functions as F

from repro.core.operators import window_id
from repro.synopsis.wsp import (
    ALERT_THRESHOLD_US,
    WSPReport,
    estimation_errors,
    evaluate_rate,
    evaluate_rates,
    wsp_sample,
)
from repro.workloads.pingmesh import pingmesh_trace
from tests.test_partition_exec import jobs_per_call


@pytest.fixture(scope="module")
def trace(spark):
    # Anomaly-heavy trace (the Fig. 9 scenario studies alert fidelity).
    df = pingmesh_trace(
        spark,
        n_sources=4,
        peers_per_source=40,
        n_windows=3,
        anomaly_pair_frac=0.3,
        seed=17,
    )
    df.cache().count()
    return df


class TestSampling:
    @pytest.mark.parametrize("rate", [0.0, 0.2, 0.5, 0.8, 1.0])
    def test_sample_fraction(self, trace, rate):
        n = trace.count()
        s = wsp_sample(trace, rate).count()
        assert s == pytest.approx(rate * n, abs=max(4, 0.05 * n))

    def test_deterministic(self, trace):
        a = wsp_sample(trace, 0.4, seed=1).count()
        b = wsp_sample(trace, 0.4, seed=1).count()
        assert a == b

    def test_invalid_rate(self, trace):
        with pytest.raises(ValueError):
            wsp_sample(trace, 1.5)

    def test_sample_is_subset(self, trace):
        ids = {r["record_id"] for r in wsp_sample(trace, 0.3).select("record_id").collect()}
        full = {r["record_id"] for r in trace.select("record_id").collect()}
        assert ids <= full


class TestEstimation:
    def test_full_rate_zero_error(self, trace):
        pdf = estimation_errors(trace, 1.0)
        assert (pdf["error_us"] == 0).all()

    def test_zero_rate_misses_everything(self, trace):
        pdf = estimation_errors(trace, 0.0)
        assert (pdf["est_max"] == 0).all()
        assert (pdf["error_us"] == pdf["true_max"]).all()

    def test_error_monotone_in_rate_on_average(self, trace):
        lo = estimation_errors(trace, 0.2)["error_us"].mean()
        hi = estimation_errors(trace, 0.8)["error_us"].mean()
        assert hi < lo


class TestFig9Claims:
    def test_high_rates_accurate_but_expensive(self, trace):
        """Paper: 0.6-0.8 sampling keeps 85-90% of errors within 1 ms but
        yields little bandwidth saving."""
        for rate in (0.6, 0.8):
            rep = evaluate_rate(trace, rate)
            assert rep.frac_err_within_1ms >= 0.80
            assert rep.bandwidth_frac >= 0.6  # no real saving

    def test_low_rates_cheap_but_inaccurate(self, trace):
        """Paper: 0.2-0.4 sampling saves bandwidth but misses 10-38% of
        alerts and pushes errors past the 5 ms threshold."""
        rep2 = evaluate_rate(trace, 0.2)
        rep4 = evaluate_rate(trace, 0.4)
        assert rep2.n_true_alerts > 10  # anomalies exist in the trace
        assert rep2.alert_miss_frac > 0.10
        assert rep4.alert_miss_frac > 0.05
        assert rep2.alert_miss_frac > rep4.alert_miss_frac
        assert rep2.frac_err_above_5ms > 0.0

    def test_jarvis_exactness_reference(self, trace):
        """Jarvis' counterpart: partitioned execution is exact (error 0)
        at any bandwidth — pinned by the oracle tests; here we just pin
        the WSP side: only rate=1.0 achieves zero misses."""
        rep = evaluate_rate(trace, 1.0)
        assert rep.n_missed_alerts == 0
        assert rep.frac_err_within_1ms == 1.0

    def test_alert_threshold_configurable(self, trace):
        rep = evaluate_rate(trace, 0.5, threshold_us=ALERT_THRESHOLD_US * 100)
        assert rep.n_true_alerts == 0


def _reference_pair_max(df, out):
    return (
        df.withColumn("window_id", window_id())
        .filter("err_code = 0")
        .groupBy("window_id", "src_ip", "dst_ip")
        .agg(F.max("rtt_us").alias(out))
    )


def reference_report(df, rate, threshold_us=ALERT_THRESHOLD_US):
    """Oracle: the true maxima and the sample's maxima as two aggregations,
    then a left join (a pair the sample misses is estimated as 0)."""
    truth = _reference_pair_max(df, "true_max")
    est = _reference_pair_max(wsp_sample(df, rate), "est_max")
    pdf = truth.join(est, ["window_id", "src_ip", "dst_ip"], "left").select(
        "true_max", F.coalesce("est_max", F.lit(0.0)).alias("est_max")
    ).toPandas()
    error = (pdf["true_max"] - pdf["est_max"]).abs()
    true_alerts = pdf["true_max"] > threshold_us
    missed = true_alerts & ~(pdf["est_max"] > threshold_us)
    return WSPReport(
        rate=rate,
        bandwidth_frac=rate,
        frac_err_within_1ms=float((error <= 1_000.0).mean()),
        frac_err_above_5ms=float((error > 5_000.0).mean()),
        n_true_alerts=int(true_alerts.sum()),
        n_missed_alerts=int(missed.sum()),
    )


class TestOneAggregation:
    RATES = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

    def test_matches_per_rate_join_reference(self, trace):
        got = evaluate_rates(trace, self.RATES)
        assert got == [reference_report(trace, r) for r in self.RATES]

    def test_single_rate_paths_agree(self, trace):
        [rep] = evaluate_rates(trace, (0.4,))
        assert evaluate_rate(trace, 0.4) == rep
        pdf = estimation_errors(trace, 0.4)
        assert float((pdf["error_us"] <= 1_000.0).mean()) == rep.frac_err_within_1ms

    def test_invalid_rate(self, trace):
        with pytest.raises(ValueError):
            evaluate_rates(trace, (0.2, 1.5))

    def test_four_rates_take_at_most_two_jobs(self, spark, trace):
        assert jobs_per_call(spark, lambda: evaluate_rates(trace, (0.2, 0.4, 0.6, 0.8))) <= 2
