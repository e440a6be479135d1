"""Fast tests of the benchmark itself: every workload runs end to end at
a tiny size, and every output check rejects a deliberately broken output.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import run  # noqa: E402
import workloads as W  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(*args, cwd=ROOT, timeout=120):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_at_tiny_size(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "pipeline-zipf", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path), timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_hang_counts_as_failed_op():
    class Args:
        seed, seconds, trace, scale = 1, 60.0, 0, "tiny"

    # the worker keeps running ops for 60 s; stopping it at 3 s leaves
    # the op in flight unfinished, as a hang would
    lines, code = run.run_child(Args, "query-store", limit_s=3.0)
    assert code is None
    result = run.summarize("query-store", lines, code, trace=False)
    done = [l for l in lines if l["event"] == "op"]
    assert result["attempted"] == len(done) + 1
    assert result["failed"] == 1
    assert result["correct"] is False


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    w = W.PipelineZipf(2, str(tmp_path_factory.mktemp("pipe")), W.TINY)
    w.setup()
    store, stats = w.op(0)
    w.check(0, (store, stats))
    return w, store, stats


def test_pipeline_check_rejects_dropped_envelope(pipeline_run):
    w, store, stats = pipeline_run
    envelopes = sorted(f for f in os.listdir(store.root) if f.endswith(".env"))
    assert len(envelopes) >= 2
    victim = os.path.join(store.root, envelopes[0])
    saved = open(victim, "rb").read()
    os.remove(victim)
    try:
        with pytest.raises(W.CheckFailed):
            w.check(0, (store, stats))
    finally:
        with open(victim, "wb") as fh:
            fh.write(saved)
    w.check(0, (store, stats))


@pytest.mark.parametrize("field,delta", [("packets", -1), ("fifo_violations", 1)])
def test_pipeline_check_rejects_wrong_stats(pipeline_run, field, delta):
    w, store, stats = pipeline_run
    broken = copy.copy(stats)
    setattr(broken, field, getattr(stats, field) + delta)
    with pytest.raises(W.CheckFailed):
        w.check(0, (store, broken))


def test_pipeline_check_rejects_missing_flows(pipeline_run):
    w, store, stats = pipeline_run
    with pytest.raises(W.CheckFailed):
        W.check_pipeline(store, stats, len(w.packets), w.total_bytes, 2 * w.distinct)
    with pytest.raises(W.CheckFailed):
        W.check_pipeline(store, stats, len(w.packets), w.total_bytes + 1, w.distinct)


@pytest.fixture(scope="module")
def bench_run(tmp_path_factory):
    w = W.BenchEqualMemory(1, str(tmp_path_factory.mktemp("bench")), W.TINY)
    w.setup()
    report = w.op(0)
    assert w.check(0, report) == report["timing"]["trace_records"] * 6
    return w, report


def _lss_row(report, ratio):
    return next(r for r in report["rows"] if r["sketch"] == "lss" and r["ratio"] == ratio)


@pytest.mark.parametrize("breakage", ["shifted_estimate", "wrong_flow_count",
                                      "unequal_memory", "missing_row", "low_f1"])
def test_bench_check_rejects(bench_run, breakage):
    w, report = bench_run
    broken = copy.deepcopy(report)
    row = _lss_row(broken, 0.1)
    if breakage == "shifted_estimate":
        row["flow_size"]["mean_re"] += 10.0
    elif breakage == "wrong_flow_count":
        broken["n_flows"] -= 1
    elif breakage == "unequal_memory":
        row["memory_bytes"] += 100
    elif breakage == "missing_row":
        broken["rows"].remove(row)
    else:
        row["heavy_hitters"]["f1"] = 0.9
    with pytest.raises(W.CheckFailed):
        W.check_bench(broken, w.config)


@pytest.fixture(scope="module")
def query_run(tmp_path_factory):
    w = W.QueryStore(4, str(tmp_path_factory.mktemp("query")), W.TINY)
    w.setup()
    keys, out = w.op(0)
    assert w.check(0, (keys, out)) == 5
    assert len(w.windows) == W.TINY.query_epochs
    return w, keys, out


def _check_queries(w, keys, out):
    W.check_queries(keys, out, w.windows, w.distinct_per_window, w.threshold)


@pytest.mark.parametrize("breakage", ["dropped_window", "shifted_estimate", "missing_key",
                                      "lost_hitters", "low_cardinality", "foreign_change"])
def test_query_check_rejects(query_run, breakage):
    w, keys, out = query_run
    broken = copy.deepcopy(out)
    if breakage == "dropped_window":
        broken["cardinality"]["windows"] -= 1
    elif breakage == "shifted_estimate":
        for per_key in broken["flow-size"]["per_window"].values():
            for h in per_key:
                per_key[h] *= 1.2
    elif breakage == "missing_key":
        per_key = next(iter(broken["flow-size"]["per_window"].values()))
        per_key.pop(next(iter(per_key)))
    elif breakage == "lost_hitters":
        hitters = broken["heavy-hitters"]["hitters"]
        assert hitters, "tiny sample has no heavy hitters to lose"
        for h in list(hitters)[: max(1, len(hitters) // 5)]:
            del hitters[h]
    elif breakage == "low_cardinality":
        broken["cardinality"]["total"] = int(w.distinct_per_window * 0.99)
    else:
        pair = next(iter(broken["heavy-changes"]["changes"]))
        broken["heavy-changes"]["changes"][pair].append("00" * 13)
    with pytest.raises(W.CheckFailed):
        _check_queries(w, keys, broken)


def test_exact_windows_replays_flowlet_batching():
    from flowsketch.traces import TracePacket

    pkts = [TracePacket(b"A", 1, 10), TracePacket(b"B", 2, 20), TracePacket(b"A", 3, 30),
            TracePacket(b"C", 4, 110), TracePacket(b"A", 5, 120), TracePacket(b"D", 6, 230)]
    # capacity 2: C flushes {A: 4, B: 2} stamped 110, D flushes {C: 4, A: 5}
    # stamped 230, and {D: 6} flushes at the last packet (230)
    assert W.exact_windows(pkts, 2, 100) == [{b"A": 4, b"B": 2}, {b"C": 4, b"A": 5, b"D": 6}]
