import json

import pytest

from flowsketch.cli import main


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


class TestOptions:
    @pytest.mark.parametrize("argv", [
        ("bench", "--parallel"),
        ("bench", "--ratio", "0.1"),
        ("train", "t.csv", "m.json", "--counter-width", "32"),
        ("train", "t.csv", "m.json", "--hh-percentile", "90"),
        ("pipeline", "t.csv", "store", "--counter-width", "32"),
        ("pipeline", "t.csv", "store", "--hh-percentile", "90"),
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
        assert run_cli("pipeline", trace, store, "--window", 100,
                       "--clusters", 6, "--train-samples", 300, "--seed", 4) == 0
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
