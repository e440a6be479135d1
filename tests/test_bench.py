import hashlib
import json

import pytest

from flowsketch import bench
from flowsketch.bench import (
    BenchmarkConfig,
    _evaluate,
    _lss_estimates,
    _window_truth,
    load_records,
    report_json,
    report_table,
    run_benchmark,
    run_sensitivity,
    training_samples,
)
from flowsketch.clustering import ClusterModel, InvalidInputError
from flowsketch.hashing import key_digests
from flowsketch.lss import BucketUnderflowError, KeyNotFoundError, LssSketch
from flowsketch.traces import (
    TracePacket,
    gen_trace,
    gen_uniform_trace,
    pack_flow_key,
    read_trace,
    write_trace,
)


def trace_with_zero_byte_flows(tmp_path, n_zero):
    """A 300-flow Zipf trace followed by n_zero new flows of one 0-byte
    packet each."""
    path = tmp_path / "zero.csv"
    gen_trace(5, 300, 1.1, 3.0, str(path))
    packets = list(read_trace(str(path)))
    ts = packets[-1].ts_ns
    packets += [TracePacket(pack_flow_key(0x0A000001, 0x0A000002, 1000 + i, 80, 6), 0, ts + i)
                for i in range(n_zero)]
    write_trace(str(path), packets)
    return str(path)


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
        records, totals = load_records(config)
        replayed = {}
        for key, value in records:
            replayed[key] = replayed.get(key, 0) + value
        assert replayed == totals

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
        path = tmp_path / "t.csv"
        gen_trace(5, 300, 1.1, 3.0, str(path))
        config = small_config(trace_path=str(path), window=300, train_samples=300)
        report = run_benchmark(config)
        assert report["n_flows"] == 300

    def test_multi_window_trace_averages_rows(self, tmp_path):
        path = tmp_path / "multi.csv"
        gen_trace(3, 2400, 1.1, 3.0, str(path))
        config = small_config(trace_path=str(path))
        report = run_benchmark(config)
        assert all(r["windows"] == 3 for r in report["rows"])

    def test_multi_window_trace_report_is_pinned(self, tmp_path):
        # canonical JSON recorded with the exact k-means fit, on the
        # trace of the vector-draw generator
        path = tmp_path / "multi.csv"
        gen_trace(3, 2400, 1.1, 3.0, str(path))
        report = run_benchmark(small_config(trace_path=str(path), ratios=(0.01, 0.1)))
        assert [r["windows"] for r in report["rows"]] == [3] * 6
        report["config"]["trace_path"] = None
        assert hashlib.sha256(report_json(report).encode()).hexdigest() == (
            "f2b0492bfb4950fbbd368bc10e709744201d81b42fe78384bb364d80d29fc36d")

    def test_lss_only_run_hashes_no_bank(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("bank hashes built for a run without baselines")

        monkeypatch.setattr(bench, "bank_digests", refuse)
        (row,) = run_benchmark(small_config(sketches=("lss",)))["rows"]
        assert row["sketch"] == "lss"

    def test_membership_charged_without_lss(self):
        full = {r["sketch"]: r for r in run_benchmark(small_config())["rows"]}
        baselines = run_benchmark(small_config(sketches=("cm", "cs")))["rows"]
        for row in baselines:
            for field in ("membership_bytes", "memory_bytes"):
                assert row[field] == full[row["sketch"]][field]

    def test_unanswerable_key_scores_zero(self):
        totals = {b"a": 10, b"lost": 20, b"c": 40}
        model = ClusterModel(centers=(10.0, 40.0), entropy=(0.5, 0.5), weight=(0.5, 0.5),
                             density=(0.5, 0.5))
        sketch = LssSketch(model, 2, hash_seed=3)
        sketch.insert(b"a", 10)
        sketch.insert(b"c", 40)
        with pytest.raises(KeyNotFoundError):
            sketch.query(b"lost")
        estimates = _lss_estimates(sketch, key_digests(totals, 3))
        assert estimates == [10.0, 0.0, 40.0]
        row = _evaluate("lss", estimates, _window_truth(totals, 15.0), 0)
        assert row["flow_size"]["mean_re"] == pytest.approx(1 / 3)  # errors 0, 1, 0
        assert row["heavy_hitters"]["recall"] == 0.5

    def test_zero_byte_flow_scores_without_relative_error(self):
        totals = {b"a": 10, b"empty": 0, b"c": 40}
        row = _evaluate("lss", [10.0, 5.0, 40.0], _window_truth(totals, 15.0), 0)
        # the 0-byte flow has no relative error but still counts as a
        # flow for entropy (three distinct sizes on both sides)
        assert row["flow_size"]["mean_re"] == 0.0
        assert row["entropy_re"] == 0.0
        assert row["heavy_hitters"]["f1"] == 1.0

    def test_zero_entropy_window_scores_absolute_error(self):
        # every flow has one size, so the true entropy is 0 and the
        # entropy figure is the estimate's own entropy
        totals = dict.fromkeys((b"a", b"b", b"c", b"d"), 100)
        truth = _window_truth(totals, 100.0)
        assert _evaluate("cm", [100.0, 100.0, 50.0, 50.0], truth, 0)["entropy_re"] == 1.0
        assert _evaluate("lss", [100.0] * 4, truth, 0)["entropy_re"] == 0.0

    def test_total_at_threshold_is_not_a_heavy_hitter(self):
        totals = {b"a": 7, b"b": 1}
        hh = _evaluate("lss", [7.0, 1.0], _window_truth(totals, 2.0), 0)["heavy_hitters"]
        assert (hh["true_count"], hh["f1"]) == (1, 1.0)
        hh = _evaluate("lss", [7.0, 1.0], _window_truth(totals, 7.0), 0)["heavy_hitters"]
        assert (hh["true_count"], hh["f1"]) == (0, 1.0)

    def test_uniform_trace_runs(self, tmp_path):
        path = str(tmp_path / "u.csv")
        gen_uniform_trace(1, 300, 3, 100, path)
        for window in (300, 100):
            report = run_benchmark(small_config(trace_path=path, window=window,
                                                train_samples=300))
            rows = {r["sketch"]: r for r in report["rows"]}
            assert rows["lss"]["windows"] == 300 // window
            assert rows["lss"]["entropy_re"] == 0.0
            assert rows["cm"]["entropy_re"] > 0.0

    def test_zero_byte_flow_in_a_trace(self, tmp_path):
        path = trace_with_zero_byte_flows(tmp_path, 1)
        report = run_benchmark(small_config(trace_path=path, window=400, train_samples=400))
        assert report["n_flows"] == 301
        assert {r["sketch"] for r in report["rows"]} == {"lss", "cm", "cs"}

    def test_window_without_a_positive_flow_rejected(self, tmp_path):
        path = trace_with_zero_byte_flows(tmp_path, 2)
        with pytest.raises(InvalidInputError, match="window 1 has no flow with a positive"):
            run_benchmark(small_config(trace_path=path, window=300, train_samples=300))

    def test_fingerprint_merged_flow_does_not_stop_the_run(self):
        # seed 3 at ratio 0.1 holds a flow whose fingerprint merged
        # into another flow's slot, leaving its own bucket empty
        report = run_benchmark(BenchmarkConfig(ratios=(0.1,), seed=3, sketches=("lss",)))
        (row,) = report["rows"]
        assert row["cardinality_error"] > 0  # the lost flow is there
        assert row["heavy_hitters"]["f1"] >= 0.95


class TestClusteredFill:
    def test_fill_equals_insert_duplicate_loop(self):
        # seed 598's window at ratio 0.01 lands two increments on a
        # fingerprint-merged flow, which the fill counts and goes past
        config = BenchmarkConfig(ratios=(0.01,), seed=598, sketches=("lss",))
        records, totals = load_records(config)
        model, m = bench.fit_model(config, training_samples(records, config.train_samples), 0.01)
        _, digests, replay = bench._window_hashes(config, records, totals)
        fill, loop = (LssSketch(model, m, hash_seed=598, expected_flows=config.window)
                      for _ in range(2))
        merged = 0
        for key, value in records:
            try:
                loop.insert_duplicate(key, value)
            except BucketUnderflowError:
                merged += 1
        assert bench._fill_lss(fill, digests, replay) == merged == 2
        assert fill.state() == loop.state()
        assert fill.to_bytes() == loop.to_bytes()
        assert bytes(fill.membership._vals) == bytes(loop.membership._vals)


class TestDeterminism:
    def test_byte_identical_json(self):
        a = run_benchmark(small_config())
        b = run_benchmark(small_config())
        assert report_json(a) == report_json(b)

    def test_timing_excluded_from_canonical_json(self):
        report = run_benchmark(small_config(sketches=("lss",)))
        doc = json.loads(report_json(report))
        assert "timing" not in doc
        assert "timing" in report

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
