"""The three benchmark workloads.

Each workload has a set-up that builds its inputs from the seed, an op
that is timed, and a check that compares the op's output with
figures the benchmark computes itself from the inputs (or with
properties the method must have). The package is driven only through
its public modules; nothing here edits it.
"""

import io
import math
import os
import random
import shutil
from contextlib import redirect_stderr
from dataclasses import dataclass

import numpy as np

from flowsketch import bench, cli, pipeline, traces
from flowsketch.clustering import train_model

# the 16-bit fingerprint merge allowance that `bench --check` accepts
CARDINALITY_ALLOWANCE = 1e-3
HH_F1_FLOOR = 0.95
# summed flow-size estimates of a key sample against the exact sum
FLOW_SIZE_SUM_BOUND = 0.05
ALL_TIME = (0, 1 << 62)
# the CLI's default --seed. bench-equal-memory and the query-store's
# store are built from it whatever --seed says: on some seeds a flow
# whose fingerprint merged into another's lands in an empty bucket and
# every query for it raises KeyNotFoundError (see CHANGES.md), which
# would fail those runs outright
FIXED_SEED = 1


class CheckFailed(Exception):
    """An op's output disagrees with the benchmark's own figures."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Scale:
    """Input sizes; FULL is what the benchmark runs, TINY what its tests run."""
    pipeline_flows: int = 20_000
    window: int = 10_000
    ratio: float = 0.1
    clusters: int = 30
    train_samples: int = 10_000
    bench_ratios: tuple = (0.001, 0.01, 0.1)
    warmup_flows: int = 300
    query_flows: int = 10_000
    query_epochs: int = 3
    query_keys: int = 500
    ingest_capacity: int = 1000
    # set-ups per run: one before the timed phase, the rest spread over
    # it; bench-equal-memory's set-up is a short warm-up, so it makes more
    setup_repeats: int = 5
    bench_setup_repeats: int = 25

    @property
    def m(self) -> int:
        return max(1, int(round(self.ratio * self.window)))


FULL = Scale()
TINY = Scale(pipeline_flows=1_500, window=1_000, train_samples=1_000, bench_ratios=(0.01, 0.1),
             warmup_flows=100, query_flows=800, query_keys=100, ingest_capacity=100,
             setup_repeats=2, bench_setup_repeats=3)


def _model(records, scale: Scale, seed: int, call):
    """The model `flowsketch pipeline` trains: k-means over the exact
    totals of the first train_samples distinct flows."""
    samples = bench.training_samples(records, scale.train_samples)
    k = bench.clamp_clusters(scale.clusters, scale.m, samples)
    return call("clustering.train_model", train_model, samples, k, seed=seed), samples


class Workload:
    name = ""
    unit = ""

    def __init__(self, seed: int, work_dir: str, scale: Scale = FULL, call=None):
        self.seed = seed
        self.work_dir = work_dir
        self.scale = scale
        # call(name, fn, *args) runs fn inside a span when tracing
        self.call = call or (lambda _name, fn, *args, **kw: fn(*args, **kw))
        os.makedirs(work_dir, exist_ok=True)

    def setup(self) -> None:
        raise NotImplementedError

    def setup_repeats(self) -> int:
        """How many times a run makes the set-up; setup_s is their median."""
        return self.scale.setup_repeats

    def op(self, index: int):
        """Run one op; returns what check() needs."""
        raise NotImplementedError

    def check(self, index: int, output) -> int:
        """Raise CheckFailed on a wrong output; return the op's work units."""
        raise NotImplementedError

    def cleanup(self, index: int) -> None:
        """Untimed tidy-up after an op."""


class PipelineZipf(Workload):
    """run_pipeline over a fixed Zipf slice into a fresh store per op."""
    name = "pipeline-zipf"
    unit = "packets"

    def setup(self) -> None:
        s = self.scale
        path = os.path.join(self.work_dir, "trace.csv")
        traces.gen_trace(self.seed, s.pipeline_flows, 1.1, 4.0, path)
        # read back, so sizes are Python ints as on the `flowsketch pipeline` path
        self.packets = list(traces.read_trace(path))
        records = [(p.key, p.size_bytes) for p in self.packets]
        self.model, _ = _model(records, s, self.seed, self.call)
        self.total_bytes = sum(v for _, v in records)
        self.distinct = len({k for k, _ in records})

    def _store_dir(self, index: int) -> str:
        return os.path.join(self.work_dir, f"store-{index}")

    def op(self, index: int):
        store = pipeline.SketchStore(self._store_dir(index))
        stats = pipeline.run_pipeline(self.packets, self.model, self.scale.m, store,
                                      window=pipeline.WindowConfig(capacity=self.scale.window),
                                      hash_seed=self.seed)
        return store, stats

    def check(self, index: int, output) -> int:
        store, stats = output
        check_pipeline(store, stats, len(self.packets), self.total_bytes, self.distinct)
        return len(self.packets)

    def cleanup(self, index: int) -> None:
        shutil.rmtree(self._store_dir(index), ignore_errors=True)


def check_pipeline(store, stats, n_packets: int, total_bytes: int, distinct: int) -> None:
    require(stats.packets == n_packets,
            f"pipeline saw {stats.packets} packets, trace has {n_packets}")
    require(stats.fifo_violations == 0, f"{stats.fifo_violations} FIFO violations")
    envelopes = store.range(*ALL_TIME)
    require(len(envelopes) == stats.envelopes,
            f"store holds {len(envelopes)} envelopes, pipeline emitted {stats.envelopes}")
    sketches = [e.sketch() for e in envelopes]
    stored = sum(s.total_value() for s in sketches)
    require(stored == total_bytes, f"stored total_value {stored} != packet bytes {total_bytes}")
    cardinality = sum(s.cardinality() for s in sketches)
    require(cardinality >= distinct * (1 - CARDINALITY_ALLOWANCE),
            f"cardinality {cardinality} below {distinct} distinct flows less the allowance")


class BenchEqualMemory(Workload):
    """run_benchmark on the generated trace at three bucket ratios,
    what `flowsketch bench --ratios 0.001 0.01 0.1 --check` runs."""
    name = "bench-equal-memory"
    unit = "records"

    def _config(self, window: int) -> bench.BenchmarkConfig:
        s = self.scale
        return bench.BenchmarkConfig(ratios=s.bench_ratios, window=window, clusters=s.clusters,
                                     train_samples=s.train_samples, seed=FIXED_SEED)

    def setup_repeats(self) -> int:
        return self.scale.bench_setup_repeats

    def setup(self) -> None:
        # one small run loads lazily built state (numpy and hashlib
        # first calls), so the timed ops see a warm process
        bench.run_benchmark(self._config(self.scale.warmup_flows))
        self.config = self._config(self.scale.window)

    def op(self, index: int):
        return self.call("bench.run_benchmark", bench.run_benchmark, self.config)

    def check(self, index: int, output) -> int:
        check_bench(output, self.config)
        return output["timing"]["trace_records"] * len(output["rows"])


def check_bench(report: dict, config) -> None:
    messages = io.StringIO()
    with redirect_stderr(messages):
        ok = cli.check_report(report)
    require(ok, "bench --check failed: " + messages.getvalue().strip().replace("\n", "; "))
    require(report["n_flows"] == config.window,
            f"n_flows {report['n_flows']} != configured {config.window}")
    require(len(report["rows"]) == len(config.ratios) * len(config.sketches),
            f"{len(report['rows'])} rows for {len(config.ratios)} ratios")
    bucket_bytes = 2 * config.counter_width // 8
    for ratio in config.ratios:
        mem = [r["memory_bytes"] for r in report["rows"] if r["ratio"] == ratio]
        require(max(mem) - min(mem) <= bucket_bytes,
                f"memory at ratio {ratio} differs by more than one bucket: {mem}")


def exact_windows(packets, ingest_capacity: int, window_ns: int) -> list[dict]:
    """Exact per-window flow totals for a time-windowed pipeline run.

    Replays flowlet batching as the ingest stage documents it: a new
    flow arriving at a full table flushes the table as one batch
    stamped with that packet's time, and the remainder flushes at the
    last packet's time. A batch belongs to the time window holding its
    stamp."""
    batches = []
    table: dict = {}
    last_ts = 0
    for p in packets:
        last_ts = p.ts_ns
        if p.key in table:
            table[p.key] += p.size_bytes
            continue
        if len(table) >= ingest_capacity:
            batches.append((p.ts_ns, table))
            table = {}
        table[p.key] = p.size_bytes
    if table:
        batches.append((last_ts, table))
    windows: dict[int, dict] = {}
    for ts, batch in batches:
        totals = windows.setdefault(ts // window_ns, {})
        for key, value in batch.items():
            totals[key] = totals.get(key, 0) + value
    return [windows[w] for w in sorted(windows)]


class QueryStore(Workload):
    """Analyst sessions of all five network-wide queries over a store."""
    name = "query-store"
    unit = "queries"
    epoch_ns = 1_000_000_000

    def setup(self) -> None:
        s = self.scale
        # the same flows recur in every epoch with fresh sizes and
        # packets, so each sampled key is present in every stored window
        packets = []
        base_keys = None
        for epoch in range(s.query_epochs):
            pkts, totals = traces.generate_packets(FIXED_SEED * 1000 + epoch, s.query_flows,
                                                   1.1, 4.0)
            keys = list(totals)
            if base_keys is None:
                base_keys = keys
            rename = dict(zip(keys, base_keys))
            offset = epoch * self.epoch_ns
            # int(): Python ints, as read_trace yields on the CLI path
            packets.extend(traces.TracePacket(rename[p.key], int(p.size_bytes), p.ts_ns + offset)
                           for p in pkts)
        self.packets = packets
        first = [(p.key, p.size_bytes) for p in self.packets if p.ts_ns < self.epoch_ns]
        model, samples = _model(first, s, FIXED_SEED, self.call)
        # the heavy-hitter threshold `flowsketch bench` uses
        self.threshold = float(np.percentile(np.asarray(samples, dtype=np.float64),
                                             bench.DEFAULT_HH_PERCENTILE))
        store_dir = os.path.join(self.work_dir, "store")
        shutil.rmtree(store_dir, ignore_errors=True)
        self.store = pipeline.SketchStore(store_dir)
        pipeline.run_pipeline(self.packets, model, s.m, self.store,
                              window=pipeline.WindowConfig(mode="time", capacity=self.epoch_ns),
                              ingest_capacity=s.ingest_capacity, hash_seed=FIXED_SEED)
        self.windows = exact_windows(self.packets, s.ingest_capacity, self.epoch_ns)
        self.distinct_per_window = sum(len(w) for w in self.windows)
        common = set(self.windows[0])
        for w in self.windows[1:]:
            common &= set(w)
        self.pool = sorted(common)

    def sample(self, index: int) -> list:
        rng = random.Random(f"{self.seed}/{index}")
        return rng.sample(self.pool, min(self.scale.query_keys, len(self.pool)))

    def op(self, index: int):
        keys = self.sample(index)
        params = {"keys": keys, "threshold": self.threshold}
        out = {}
        for task in pipeline.QUERY_TASKS:
            out[task] = self.call(f"pipeline.query.{task}", pipeline.network_wide_query,
                                  self.store, *ALL_TIME, task, params)
        return keys, out

    def check(self, index: int, output) -> int:
        keys, out = output
        check_queries(keys, out, self.windows, self.distinct_per_window, self.threshold)
        return len(out)


def check_queries(keys, out: dict, windows: list[dict], distinct: int, threshold: float) -> None:
    n_windows = len(windows)
    for task, report in out.items():
        require(report["windows"] == n_windows,
                f"{task} saw {report['windows']} windows, expected {n_windows}")
    card = out["cardinality"]["total"]
    require(distinct * (1 - CARDINALITY_ALLOWANCE) <= card <= distinct,
            f"cardinality {card} outside [{distinct} less the allowance, {distinct}]")

    hexes = {k.hex(): k for k in keys}
    sizes = out["flow-size"]["per_window"]
    estimated = 0.0
    for per_key in sizes.values():
        require(len(per_key) == len(keys), f"flow-size answered {len(per_key)} of {len(keys)} keys")
        estimated += sum(per_key.values())
    exact = sum(w[k] for w in windows for k in keys)
    require(abs(estimated - exact) <= FLOW_SIZE_SUM_BOUND * exact,
            f"summed flow-size estimates {estimated:.1f} vs exact {exact}")

    entropies = out["entropy"]["per_window"]
    require(len(entropies) == n_windows, f"entropy for {len(entropies)} windows")
    require(all(0.0 <= h <= math.log2(len(keys)) + 1e-9 for h in entropies.values()),
            f"entropy out of range: {entropies}")

    true_hh = {k for k in keys if any(w[k] > threshold for w in windows)}
    pred_hh = {hexes[h] for h in out["heavy-hitters"]["hitters"]}
    tp = len(true_hh & pred_hh)
    f1 = 2 * tp / (len(true_hh) + len(pred_hh)) if true_hh or pred_hh else 1.0
    require(f1 >= HH_F1_FLOOR, f"heavy-hitter F1 {f1:.4f} below {HH_F1_FLOOR}")

    changes = out["heavy-changes"]["changes"]
    require(len(changes) == n_windows - 1, f"{len(changes)} window pairs, expected {n_windows - 1}")
    require(all(h in hexes for ks in changes.values() for h in ks),
            "heavy-changes reported a key outside the sample")


WORKLOADS = {w.name: w for w in (PipelineZipf, BenchEqualMemory, QueryStore)}
