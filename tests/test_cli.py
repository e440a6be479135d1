import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flowsketch import bench, cli
from flowsketch.bench import BenchmarkConfig
from flowsketch.cli import main
from flowsketch.pipeline import SketchStore, WindowConfig, run_pipeline
from flowsketch.traces import read_trace


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestGen:
    def test_gen_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli("gen", a, "--seed", 3, "--flows", 200) == 0
        assert run_cli("gen", b, "--seed", 3, "--flows", 200) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gen_uniform(self, tmp_path):
        path = tmp_path / "u.csv"
        assert run_cli("gen", path, "--uniform", "--flows", 20,
                       "--packets-per-flow", 5, "--packet-bytes", 100) == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 20 * 5


    @pytest.mark.parametrize("argv", [
        ("--uniform", "--zipf-s", "1.1"),
        ("--uniform", "--mean-packets", "4"),
        ("--uniform", "--max-size", "32"),
        ("--packets-per-flow", "5"),
        ("--packet-bytes", "100"),
    ], ids=lambda argv: argv[-2][2:])
    def test_flag_of_the_other_shape_rejected(self, tmp_path, argv, capsys):
        path = tmp_path / "t.csv"
        assert run_cli("gen", path, "--flows", 20, *argv) == 2
        assert argv[-2] in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("argv, message", [
        (("--max-size", "0"), "largest flow size must be at least 1, not 0"),
        (("--concurrency", "0"), "concurrency must be at least 1, not 0"),
        (("--uniform", "--concurrency", "-2"), "concurrency must be at least 1, not -2"),
    ], ids=["max-size", "concurrency", "uniform-concurrency"])
    def test_degenerate_size_rejected(self, tmp_path, argv, message, capsys):
        path = tmp_path / "t.csv"
        assert run_cli("gen", path, "--flows", 20, *argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not path.exists()


class TestTrain:
    def test_writes_model_json(self, tmp_path):
        trace = tmp_path / "t.csv"
        run_cli("gen", trace, "--seed", 5, "--flows", 400)
        out = tmp_path / "model.json"
        assert run_cli("train", trace, out, "--clusters", 8,
                       "--window", 400, "--train-samples", 400) == 0
        doc = json.loads(out.read_text())
        assert doc["format"] == "cluster-model"
        assert len(doc["centers"]) <= 8
        assert sum(doc["allocation"]) == 40


class TestBench:
    def test_bench_writes_deterministic_report(self, tmp_path, capsys):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        args = ("bench", "--window", 600, "--clusters", 8, "--seed", 2,
                "--train-samples", 600, "--ratios", 0.1)
        assert run_cli(*args, "--out", out1) == 0
        assert run_cli(*args, "--out", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()
        table = capsys.readouterr().out
        assert "lss" in table

    def test_bench_check_passes_at_scaled_defaults(self, tmp_path):
        assert run_cli("bench", "--window", 2000, "--clusters", 30, "--seed", 2,
                       "--train-samples", 2000, "--ratios", 0.1, "--check") == 0

    def test_bench_check_passes_a_single_size_trace(self, tmp_path):
        # every flow has one size, so no flow is a heavy hitter and the
        # empty predicted set is exactly right
        trace = tmp_path / "u.csv"
        assert run_cli("gen", trace, "--uniform", "--flows", 300, "--packets-per-flow", 3,
                       "--packet-bytes", 100) == 0
        assert run_cli("bench", "--trace", trace, "--window", 300, "--train-samples", 300,
                       "--ratios", 0.1, "--check") == 0


class TestOptions:
    @pytest.mark.parametrize("argv", [
        ("bench", "--parallel"),
        ("bench", "--ratio", "0.1"),
        ("train", "t.csv", "m.json", "--counter-width", "32"),
        ("train", "t.csv", "m.json", "--hh-percentile", "90"),
        ("train", "t.csv", "m.json", "--seed", "3"),
        ("pipeline", "t.csv", "store", "--counter-width", "32", "--model", "m.json"),
        ("pipeline", "t.csv", "store", "--hh-percentile", "90", "--model", "m.json"),
        ("pipeline", "t.csv", "store", "--ratio", "0.1", "--model", "m.json"),
        ("pipeline", "t.csv", "store", "--clusters", "8", "--model", "m.json"),
        ("pipeline", "t.csv", "store", "--train-samples", "100", "--model", "m.json"),
        ("sweep", "ratio", "--counter-width", "32"),
    ], ids=lambda argv: argv[0] + "-" + next(a for a in argv if a.startswith("--"))[2:])
    def test_unhonoured_flag_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSweep:
    def test_sweep_clusters(self, capsys):
        assert run_cli("sweep", "clusters", "--window", 400, "--seed", 2,
                       "--train-samples", 400) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["axis"] == "clusters"
        assert len(doc["series"]) == 5


class TestPipelineAndQuery:
    def test_end_to_end(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        run_cli("gen", trace, "--seed", 4, "--flows", 300)
        capsys.readouterr()
        store = tmp_path / "store"
        model = tmp_path / "model.json"
        assert run_cli("train", trace, model, "--window", 100, "--clusters", 6,
                       "--train-samples", 300) == 0
        capsys.readouterr()
        assert run_cli("pipeline", trace, store, "--model", model, "--window", 100,
                       "--seed", 4) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["conserved"] is True
        assert stats["fifo_violations"] == 0
        assert stats["envelopes"] >= 3

        assert run_cli("query", store, "cardinality") == 0
        card = json.loads(capsys.readouterr().out)
        assert card["total"] >= 300

        assert run_cli("query", store, "heavy-hitters", "--keys-from", trace,
                       "--threshold", 5) == 0
        hh = json.loads(capsys.readouterr().out)
        assert "hitters" in hh


class TestPipelineModel:
    """pipeline sketches with the model file train wrote, and no other."""

    @pytest.fixture
    def trained(self, tmp_path, capsys):
        trace, model = tmp_path / "t.csv", tmp_path / "model.json"
        run_cli("gen", trace, "--seed", 6, "--flows", 1200)
        assert run_cli("train", trace, model, "--window", 400, "--clusters", 8,
                       "--train-samples", 400) == 0
        capsys.readouterr()
        return trace, model

    @staticmethod
    def stored(store):
        return [(e.window_id, e.window_start, e.window_end, e.payload)
                for e in sorted(SketchStore(str(store)).range(0, 1 << 62),
                                key=lambda e: e.window_id)]

    @pytest.mark.parametrize("window", [("--window", 400), ("--time-window-ns", 200_000)],
                             ids=["sequence", "time"])
    def test_stores_what_the_fitted_model_stores(self, trained, tmp_path, window):
        # the file holds the model train fitted, float for float, and m
        # is the sum of its allocation
        trace, model_path = trained
        assert run_cli("pipeline", trace, tmp_path / "cli", "--model", model_path,
                       "--seed", 6, *window) == 0
        config = BenchmarkConfig(trace_path=str(trace), seed=6, window=400, clusters=8,
                                 train_samples=400)
        records, _ = bench.load_records(config)
        model, m = bench.fit_model(config, bench.training_samples(records, 400), 0.1)
        mode = "sequence" if window[0] == "--window" else "time"
        run_pipeline(read_trace(str(trace)), model, m, SketchStore(str(tmp_path / "lib")),
                     window=WindowConfig(mode, window[1]), hash_seed=6)
        stored = self.stored(tmp_path / "cli")
        assert len(stored) > 1
        assert stored == self.stored(tmp_path / "lib")

    def test_does_not_train(self, trained, tmp_path, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("pipeline trained a model")

        monkeypatch.setattr(bench, "train_model", no_training)
        monkeypatch.setattr(bench, "fit_model", no_training)
        trace, model = trained
        assert run_cli("pipeline", trace, tmp_path / "store", "--model", model) == 0

    def test_used_store_refused(self, trained, tmp_path, capsys):
        trace, model = trained
        store = tmp_path / "store"
        assert run_cli("pipeline", trace, store, "--model", model) == 0
        before = self.stored(store)
        capsys.readouterr()
        assert run_cli("pipeline", trace, store, "--model", model) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "src-0_00000000.env" in err
        assert self.stored(store) == before

    def test_window_options_exclusive(self, trained, tmp_path, capsys):
        trace, model = trained
        with pytest.raises(SystemExit) as exc:
            run_cli("pipeline", trace, tmp_path / "store", "--model", model,
                    "--window", 400, "--time-window-ns", 1000)
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.pop("weight"),
        lambda doc: doc["entropy"].pop(),
        lambda doc: doc.update(allocation=None),
        lambda doc: doc["allocation"].__setitem__(0, 0),
        lambda doc: doc["centers"].__setitem__(-1, float("inf")),
        lambda doc: doc["entropy"].__setitem__(0, float("nan")),
    ], ids=["missing-field", "short-entropy", "no-allocation", "zero-bucket-array",
            "infinite-center", "nan-entropy"])
    def test_bad_model_file_rejected(self, trained, tmp_path, capsys, edit):
        trace, model = trained
        doc = json.loads(model.read_text())
        edit(doc)
        model.write_text(json.dumps(doc))
        store = tmp_path / "store"
        assert run_cli("pipeline", trace, store, "--model", model) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not store.exists()

    def test_bad_allocation_fails_before_reading_the_trace(self, trained, tmp_path, capsys,
                                                           monkeypatch):
        def no_reading(*args, **kwargs):
            raise AssertionError("pipeline read the trace")

        monkeypatch.setattr(cli, "read_trace", no_reading)
        trace, model = trained
        doc = json.loads(model.read_text())
        doc["allocation"][0] = 0
        model.write_text(json.dumps(doc))
        store = tmp_path / "store"
        assert run_cli("pipeline", trace, store, "--model", model) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: allocation") and "Traceback" not in err
        assert not store.exists()


class TestQueryKeyOrder:
    def test_stdout_independent_of_hash_seed(self, tmp_path, capsys):
        # --keys-from keys go to the store in trace order, not in the
        # per-process order of a set of bytes
        trace = tmp_path / "t.csv"
        store = tmp_path / "store"
        model = tmp_path / "model.json"
        run_cli("gen", trace, "--seed", 5, "--flows", 3000)
        assert run_cli("train", trace, model, "--window", 1000,
                       "--train-samples", 1000) == 0
        assert run_cli("pipeline", trace, store, "--model", model, "--window", 1000,
                       "--seed", 5) == 0
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))

        def query(hash_seed, *argv):
            env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": path}
            return subprocess.run(
                [sys.executable, "-m", "flowsketch.cli", "query", str(store), *argv,
                 "--keys-from", str(trace)],
                env=env, capture_output=True, text=True, check=True).stdout

        for task in (("heavy-changes", "--threshold", "3"), ("entropy",)):
            assert query(1, *task) == query(2, *task)
