import json

import pytest

from flowsketch.bench import (
    BenchmarkConfig,
    _evaluate,
    load_records,
    report_json,
    report_table,
    run_benchmark,
    run_sensitivity,
    training_samples,
)
from flowsketch.clustering import InvalidInputError
from flowsketch.lss import KeyNotFoundError
from flowsketch.metrics import GroundTruth


def small_config(**overrides):
    base = dict(window=800, ratios=(0.1,), clusters=10, seed=3,
                train_samples=800)
    base.update(overrides)
    return BenchmarkConfig(**base)


class TestConfig:
    def test_ratio_bounds(self):
        with pytest.raises(InvalidInputError):
            BenchmarkConfig(ratios=(1.5,))
        with pytest.raises(InvalidInputError):
            BenchmarkConfig(ratios=(0.0,))

    def test_unknown_sketch(self):
        with pytest.raises(InvalidInputError):
            BenchmarkConfig(sketches=("bloom",))

    def test_percentile_range(self):
        with pytest.raises(InvalidInputError):
            BenchmarkConfig(hh_percentile=100)


class TestTrainingSamples:
    def test_totals_of_first_distinct_flows(self):
        records = [(b"a", 1), (b"b", 2), (b"a", 3), (b"c", 5), (b"b", 1)]
        assert training_samples(records, 2) == [4, 3]
        assert training_samples(records, 10) == [4, 3, 5]


class TestRunBenchmark:
    def test_ground_truth_independent_of_sketches(self):
        config = small_config()
        records, truth = load_records(config)
        totals = {}
        for key, value in records:
            totals[key] = totals.get(key, 0) + value
        assert totals == truth.totals

    def test_lss_cardinality_exact(self):
        report = run_benchmark(small_config(sketches=("lss",)))
        (row,) = report["rows"]
        assert row["cardinality_error"] == 0.0

    def test_equal_memory_within_one_bucket(self):
        report = run_benchmark(small_config())
        by_sketch = {r["sketch"]: r for r in report["rows"]}
        lss_total = by_sketch["lss"]["memory_bytes"]
        bucket_width = 2 * 4  # two 32-bit fields
        for name in ("cm", "cs"):
            assert abs(lss_total - by_sketch[name]["memory_bytes"]) <= bucket_width
            # both carry the same membership budget for key tracking
            assert by_sketch[name]["membership_bytes"] == by_sketch["lss"]["membership_bytes"]

    def test_lss_beats_baselines_on_flow_size(self):
        report = run_benchmark(small_config())
        by_sketch = {r["sketch"]: r for r in report["rows"]}
        lss = by_sketch["lss"]["flow_size"]["mean_re"]
        assert lss <= 0.1 * by_sketch["cm"]["flow_size"]["mean_re"]
        assert lss <= 0.1 * by_sketch["cs"]["flow_size"]["mean_re"]

    def test_report_fields(self):
        report = run_benchmark(small_config(sketches=("lss",)))
        (row,) = report["rows"]
        assert set(row["flow_size"]) == {"mean_re", "p50_re", "p90_re", "p99_re"}
        hh = row["heavy_hitters"]
        assert 0.0 <= hh["f1"] <= 1.0
        assert hh["threshold"] == report["hh_threshold"]

    def test_trace_file_input(self, tmp_path):
        from flowsketch.traces import gen_trace
        path = tmp_path / "t.csv"
        gen_trace(5, 300, 1.1, 3.0, str(path))
        config = small_config(trace_path=str(path), window=300, train_samples=300)
        report = run_benchmark(config)
        assert report["n_flows"] == 300

    def test_multi_window_trace_averages_rows(self, tmp_path):
        from flowsketch.traces import gen_trace
        path = tmp_path / "multi.csv"
        gen_trace(3, 2400, 1.1, 3.0, str(path))
        config = small_config(trace_path=str(path))
        report = run_benchmark(config)
        assert all(r["windows"] == 3 for r in report["rows"])

    def test_membership_charged_without_lss(self):
        full = {r["sketch"]: r for r in run_benchmark(small_config())["rows"]}
        baselines = run_benchmark(small_config(sketches=("cm", "cs")))["rows"]
        for row in baselines:
            for field in ("membership_bytes", "memory_bytes"):
                assert row[field] == full[row["sketch"]][field]

    def test_unanswerable_key_scores_zero(self):
        truth = GroundTruth()
        for key, value in ((b"a", 10), (b"lost", 20), (b"c", 40)):
            truth.add(key, value)

        def query(key):
            if key == b"lost":
                raise KeyNotFoundError(key)
            return float(truth.total(key))

        row = _evaluate("lss", query, truth, 0, 15.0)
        assert row["flow_size"]["mean_re"] == pytest.approx(1 / 3)  # errors 0, 1, 0
        assert row["heavy_hitters"]["recall"] == 0.5

    def test_fingerprint_merged_flow_does_not_stop_the_run(self):
        # seed 55 at ratio 0.1 holds a flow whose fingerprint merged
        # into another flow's slot, leaving its own bucket empty
        report = run_benchmark(BenchmarkConfig(ratios=(0.1,), seed=55, sketches=("lss",)))
        (row,) = report["rows"]
        assert row["heavy_hitters"]["f1"] >= 0.95


class TestDeterminism:
    def test_byte_identical_json(self):
        a = run_benchmark(small_config())
        b = run_benchmark(small_config())
        assert report_json(a) == report_json(b)

    def test_timing_excluded_from_canonical_json(self):
        report = run_benchmark(small_config(sketches=("lss",)))
        doc = json.loads(report_json(report))
        assert "timing" not in doc
        assert "timing" in json.loads(report_json(report, include_timing=True))

    def test_different_seed_changes_results(self):
        a = run_benchmark(small_config(seed=3))
        b = run_benchmark(small_config(seed=4))
        assert report_json(a) != report_json(b)


class TestReportTable:
    def test_table_has_row_per_sketch(self):
        report = run_benchmark(small_config())
        table = report_table(report)
        lines = table.strip().splitlines()
        assert len(lines) >= 4  # header + three sketches
        assert "lss" in table and "cm" in table and "cs" in table


class TestSensitivity:
    def test_unknown_axis(self):
        with pytest.raises(InvalidInputError):
            run_sensitivity(small_config(), "nonsense")

    def test_cluster_sweep_improves_then_flattens(self):
        result = run_sensitivity(small_config(), "clusters", values=(2, 5, 10))
        errors = [row["mean_re"] for row in result["series"]]
        assert errors[-1] <= errors[0]

    def test_threshold_sweep_shape(self):
        result = run_sensitivity(small_config(), "threshold", values=(80, 95))
        assert [row["percentile"] for row in result["series"]] == [80.0, 95.0]

    def test_policy_sweep_covers_ablations(self):
        result = run_sensitivity(small_config(), "policy",
                                 values=("hdw", "uniform"))
        assert [row["policy"] for row in result["series"]] == ["hdw", "uniform"]
        # the policy reaches the sketch: a uniform split scores differently
        hdw, uniform = ({k: v for k, v in row.items() if k != "policy"}
                        for row in result["series"])
        assert hdw != uniform

    def test_epoch_reuse(self):
        result = run_sensitivity(small_config(), "epochs", values=(1, 2))
        assert [row["epoch"] for row in result["series"]] == [1, 2]
        for row in result["series"]:
            assert row["mean_re"] >= 0.0

    def test_first_epoch_model_transfers(self):
        # reusing the first epoch's centers on later epochs of the same
        # distribution degrades each task by less than 2x
        config = BenchmarkConfig(ratios=(0.1,), seed=5, clusters=10,
                                 window=4000, train_samples=4000)
        series = run_sensitivity(config, "epochs", values=(1, 2, 3, 4))["series"]
        first = series[0]
        for row in series[1:]:
            assert row["mean_re"] < 2 * first["mean_re"]
            assert row["entropy_re"] < 2 * first["entropy_re"]
            assert (1 - row["hh_f1"]) < 2 * (1 - first["hh_f1"]) + 0.01
