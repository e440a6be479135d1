"""Benchmark harness: replay traces through the sketches at equal
memory and score them against exact ground truth.

Memory parity: answering per-flow, heavy-hitter, and entropy tasks
requires key tracking no matter which sketch sits underneath, so every
compared structure carries the same squeezed membership table in its
budget. The baselines' counter bytes then match the clustered sketch's
bucket arrays plus centers, and the totals including membership agree
to within one bucket. Every error figure comes from a plain exact hash
map, never from another sketch.

Reports separate deterministic results from wall-clock timing so the
canonical JSON is byte-identical across runs with the same config and
seed.
"""

import json
import time
from dataclasses import dataclass

import numpy as np

from .baselines import CmSketch, CsSketch
from .clustering import InvalidInputError, train_model
from .lss import BucketUnderflowError, LssSketch, sketch_bytes
from .metrics import GroundTruth, entropy_of_values, f1_score, precision_recall, relative_error
from .traces import generate_packets, read_trace

DEFAULT_WINDOW = 10_000
DEFAULT_RATIO = 0.1
DEFAULT_CLUSTERS = 30
DEFAULT_HH_PERCENTILE = 90.0
DEFAULT_TRAIN_SAMPLES = 10_000


@dataclass
class BenchmarkConfig:
    sketches: tuple[str, ...] = ("lss", "cm", "cs")
    ratios: tuple[float, ...] = (DEFAULT_RATIO,)
    window: int = DEFAULT_WINDOW
    clusters: int = DEFAULT_CLUSTERS
    hh_percentile: float = DEFAULT_HH_PERCENTILE
    counter_width: int = 32
    seed: int = 1
    trace_path: str | None = None   # None -> generated Zipf trace
    zipf_s: float = 1.1
    zipf_vmax: int = 32
    mean_packets: float = 4.0
    train_samples: int = DEFAULT_TRAIN_SAMPLES
    banks: int = 3
    allocation_policy: str = "hdw"
    parallel: bool = False

    def __post_init__(self):
        for r in self.ratios:
            if not 0 < r <= 1:
                raise InvalidInputError(f"ratio {r} outside (0, 1]")
        if self.window <= 0:
            raise InvalidInputError("window must be positive")
        if not 0 < self.hh_percentile < 100:
            raise InvalidInputError("hh percentile must be in (0, 100)")
        for s in self.sketches:
            if s not in ("lss", "cm", "cs"):
                raise InvalidInputError(f"unknown sketch kind {s!r}")


def load_records(config: BenchmarkConfig):
    """Flow records (key, value) in packet order, plus exact totals."""
    if config.trace_path:
        truth = GroundTruth()
        records = []
        for pkt in read_trace(config.trace_path):
            records.append((pkt.key, pkt.size_bytes))
            truth.add(pkt.key, pkt.size_bytes)
        return records, truth
    packets, totals = generate_packets(config.seed, config.window, config.zipf_s,
                                       config.mean_packets, v_max=config.zipf_vmax)
    truth = GroundTruth()
    truth.totals = dict(totals)
    return [(p.key, p.size_bytes) for p in packets], truth


def training_samples(records, limit: int) -> list[int]:
    """Exact totals of the first `limit` distinct flows, in first-seen
    order; this is the offline trace the cluster model trains on."""
    totals: dict[bytes, int] = {}
    order: list[bytes] = []
    for key, value in records:
        if key in totals:
            totals[key] += value
        elif len(order) < limit:
            totals[key] = value
            order.append(key)
    return [totals[k] for k in order]


def clamp_clusters(k: int, m: int, samples) -> int:
    distinct = len(set(samples))
    return max(1, min(k, m, distinct))


def _evaluate(name: str, query, truth: GroundTruth, memory_bytes: int,
              hh_threshold: float, extra: dict | None = None) -> dict:
    keys = truth.keys()
    rel_errors = []
    estimates = []
    for k in keys:
        est = query(k)
        estimates.append(est)
        rel_errors.append(relative_error(truth.total(k), est))
    rel = np.asarray(rel_errors)
    true_hh = truth.heavy_hitters(hh_threshold)
    pred_hh = {k for k, e in zip(keys, estimates) if e > hh_threshold}
    precision, recall = precision_recall(true_hh, pred_hh)
    true_entropy = truth.entropy()
    est_entropy = entropy_of_values(estimates)
    row = {
        "sketch": name,
        "memory_bytes": memory_bytes,
        "flow_size": {
            "mean_re": float(rel.mean()),
            "p50_re": float(np.percentile(rel, 50)),
            "p90_re": float(np.percentile(rel, 90)),
            "p99_re": float(np.percentile(rel, 99)),
        },
        "entropy_re": relative_error(true_entropy, est_entropy),
        "heavy_hitters": {
            "threshold": hh_threshold,
            "true_count": len(true_hh),
            "precision": precision,
            "recall": recall,
            "f1": f1_score(true_hh, pred_hh),
        },
    }
    if extra:
        row.update(extra)
    return row


def split_windows(records, window: int) -> list[list]:
    """Partition the record stream into windows of `window` flows each.

    A flow belongs to the window where it first appeared, and all of its
    fragments follow it there, so every window scores against complete
    flow totals."""
    windows: list[list] = []
    flow_window: dict = {}
    distinct_in_last = window  # force a first window
    for record in records:
        w = flow_window.get(record[0])
        if w is None:
            if distinct_in_last >= window:
                windows.append([])
                distinct_in_last = 0
            w = len(windows) - 1
            flow_window[record[0]] = w
            distinct_in_last += 1
        windows[w].append(record)
    return windows


def _run_window(config: BenchmarkConfig, model, m: int, k: int,
                window_records, hh_threshold: float) -> tuple[dict, dict]:
    """Evaluate every configured sketch on one window slice."""
    truth = GroundTruth()
    for key, value in window_records:
        truth.add(key, value)
    n_flows = truth.cardinality()

    # every structure additionally needs key tracking to answer the
    # query tasks, so all of them carry the same squeezed membership
    # table; the counter budget for the baselines therefore matches
    # the clustered sketch's bucket arrays plus centers, and totals
    # including membership agree to within one bucket
    sketches = {}
    sketch_budget = sketch_bytes(m, k, config.counter_width)
    membership_bytes = 0
    if "lss" in config.sketches:
        sketches["lss"] = LssSketch(model, m, hash_seed=config.seed,
                                    counter_width=config.counter_width,
                                    expected_flows=config.window)
        membership_bytes = sketches["lss"].memory_bytes() - sketch_budget
    counter_bytes = config.counter_width // 8
    per_bank = max(1, round(sketch_budget / (config.banks * counter_bytes)))
    m_flat = config.banks * per_bank
    if "cm" in config.sketches:
        sketches["cm"] = CmSketch(m_flat, c=config.banks, seed=config.seed)
    if "cs" in config.sketches:
        sketches["cs"] = CsSketch(m_flat, c=config.banks, seed=config.seed)

    timing = {"insert_seconds": {}, "query_seconds": {}}
    merged_events = 0
    for name, sketch in sketches.items():
        t0 = time.perf_counter()
        if name == "lss":
            for key, value in window_records:
                try:
                    sketch.insert_duplicate(key, value)
                except BucketUnderflowError:
                    merged_events += 1
        else:
            for key, value in window_records:
                sketch.insert(key, value)
        timing["insert_seconds"][name] = time.perf_counter() - t0

    rows = {}
    for name, sketch in sketches.items():
        if name == "lss":
            memory = sketch.memory_bytes(include_membership=True)
            extra = {
                "sketch_bytes": sketch.sketch_bytes(),
                "membership_bytes": membership_bytes,
                "cardinality_error": abs(sketch.cardinality() - n_flows) / n_flows,
                "merged_flow_events": merged_events,
            }
        else:
            memory = sketch.memory_bytes(config.counter_width) + membership_bytes
            extra = {
                "sketch_bytes": sketch.memory_bytes(config.counter_width),
                "membership_bytes": membership_bytes,
            }
        t0 = time.perf_counter()
        rows[name] = _evaluate(name, sketch.query, truth, memory, hh_threshold, extra)
        timing["query_seconds"][name] = time.perf_counter() - t0
    return rows, timing


def _window_worker(args):
    return _run_window(*args)


_MERGE_MEAN = ("entropy_re", "cardinality_error")
_MERGE_SUM = ("merged_flow_events",)


def _merge_window_rows(per_window: list[dict]) -> dict:
    """Average one sketch's metrics across windows (sum event counts)."""
    merged = dict(per_window[0])
    n = len(per_window)
    if n == 1:
        merged["windows"] = 1
        return merged
    merged["windows"] = n
    merged["flow_size"] = {
        field: float(np.mean([row["flow_size"][field] for row in per_window]))
        for field in per_window[0]["flow_size"]
    }
    hh = dict(per_window[0]["heavy_hitters"])
    for field in ("precision", "recall", "f1"):
        hh[field] = float(np.mean([row["heavy_hitters"][field] for row in per_window]))
    hh["true_count"] = int(sum(row["heavy_hitters"]["true_count"] for row in per_window))
    merged["heavy_hitters"] = hh
    for field in _MERGE_MEAN:
        if field in per_window[0]:
            merged[field] = float(np.mean([row[field] for row in per_window]))
    for field in _MERGE_SUM:
        if field in per_window[0]:
            merged[field] = int(sum(row[field] for row in per_window))
    return merged


def run_benchmark(config: BenchmarkConfig) -> dict:
    """Replay the configured trace, window by window, through every
    sketch kind at every buckets-to-flows ratio, scoring all tasks
    against exact ground truth. Windows are independent, so --parallel
    shards them across processes and merges in window order."""
    t_start = time.perf_counter()
    records, truth = load_records(config)
    n_flows = truth.cardinality()
    samples = training_samples(records, config.train_samples)
    hh_threshold = float(np.percentile(np.asarray(samples, dtype=np.float64),
                                       config.hh_percentile))
    windows = split_windows(records, config.window)
    rows = []
    timing = {"trace_records": len(records), "n_windows": len(windows),
              "insert_seconds": {}, "query_seconds": {}}
    for ratio in config.ratios:
        m = max(1, int(round(ratio * config.window)))
        k = clamp_clusters(config.clusters, m, samples)
        model = train_model(samples, k, seed=config.seed)
        model = model.with_allocation(m, policy=config.allocation_policy)
        jobs = [(config, model, m, k, w, hh_threshold) for w in windows]
        if config.parallel and len(jobs) > 1:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor() as pool:
                results = list(pool.map(_window_worker, jobs))
        else:
            results = [_run_window(*job) for job in jobs]
        for name in results[0][0]:
            merged = _merge_window_rows([rows_w[name] for rows_w, _ in results])
            merged["ratio"] = ratio
            merged["m"] = m
            merged["clusters"] = k
            rows.append(merged)
        for _, window_timing in results:
            for section in ("insert_seconds", "query_seconds"):
                for name, seconds in window_timing[section].items():
                    key = f"{name}@{ratio}"
                    timing[section][key] = timing[section].get(key, 0.0) + seconds
    timing["insert_per_second"] = {
        key: len(records) / seconds if seconds > 0 else None
        for key, seconds in timing["insert_seconds"].items()
    }
    timing["query_per_second"] = {
        key: n_flows / seconds if seconds > 0 else None
        for key, seconds in timing["query_seconds"].items()
    }
    timing["total_seconds"] = time.perf_counter() - t_start
    report = {
        "config": {
            "sketches": list(config.sketches),
            "ratios": list(config.ratios),
            "window": config.window,
            "clusters": config.clusters,
            "hh_percentile": config.hh_percentile,
            "counter_width": config.counter_width,
            "seed": config.seed,
            "trace_path": config.trace_path,
            "zipf_s": config.zipf_s,
            "zipf_vmax": config.zipf_vmax,
            "mean_packets": config.mean_packets,
            "train_samples": config.train_samples,
            "banks": config.banks,
            "allocation_policy": config.allocation_policy,
            "parallel": config.parallel,
        },
        "n_flows": n_flows,
        "hh_threshold": hh_threshold,
        "rows": rows,
        "timing": timing,
    }
    return report


def report_json(report: dict, include_timing: bool = False) -> str:
    """Canonical JSON: sorted keys, no timing section unless asked for
    (wall-clock numbers would break run-to-run byte identity)."""
    doc = {k: v for k, v in report.items() if include_timing or k != "timing"}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def report_table(report: dict) -> str:
    """Aligned text summary, one row per (ratio, sketch)."""
    headers = ["ratio", "sketch", "mem(B)", "mean_re", "p90_re", "entropy_re", "hh_f1", "card_err"]
    lines = []
    for row in report["rows"]:
        lines.append([
            f"{row['ratio']:g}",
            row["sketch"],
            str(row["memory_bytes"]),
            f"{row['flow_size']['mean_re']:.4g}",
            f"{row['flow_size']['p90_re']:.4g}",
            f"{row['entropy_re']:.4g}",
            f"{row['heavy_hitters']['f1']:.4f}",
            f"{row.get('cardinality_error', float('nan')):.4g}" if "cardinality_error" in row else "-",
        ])
    widths = [max(len(h), *(len(l[i]) for l in lines)) if lines else len(h)
              for i, h in enumerate(headers)]
    fmt = "  ".join(f"{{:>{w}}}" for w in widths)
    out = [fmt.format(*headers)]
    out.extend(fmt.format(*line) for line in lines)
    if "timing" in report:
        out.append(f"total {report['timing']['total_seconds']:.2f}s over "
                   f"{report['timing']['trace_records']} records")
    return "\n".join(out) + "\n"


SENSITIVITY_AXES = ("clusters", "ratio", "threshold", "epochs", "policy")
# axis -> (default values, series key, cast, config override for a value)
_SWEEPS = {
    "clusters": ((2, 5, 10, 30, 60), "clusters", int, lambda v: {"clusters": v}),
    "ratio": ((0.001, 0.01, 0.1), "ratio", float, lambda v: {"ratios": (v,)}),
    "threshold": ((80, 90, 95, 99), "percentile", float, lambda v: {"hh_percentile": v}),
    "policy": (("hdw", "dw", "hw", "hd", "uniform"), "policy", str,
               lambda v: {"allocation_policy": v}),
}


def run_sensitivity(config: BenchmarkConfig, axis: str, values=None) -> dict:
    """Sweep one knob, holding everything else at the config defaults."""
    if axis not in SENSITIVITY_AXES:
        raise InvalidInputError(f"unknown axis {axis!r}; expected one of {SENSITIVITY_AXES}")
    if axis == "epochs":  # reuse the first epoch's model on later epochs
        return {"axis": axis, "series": _epoch_series(config, values or tuple(range(1, 9)))}
    defaults, label, cast, override = _SWEEPS[axis]
    series = []
    for v in values or defaults:
        v = cast(v)
        rep = run_benchmark(_with(config, sketches=("lss",), **override(v)))
        row = next(r for r in rep["rows"] if r["sketch"] == "lss")
        series.append({label: v, **_lss_summary(row)})
    return {"axis": axis, "series": series}


def _with(config: BenchmarkConfig, **overrides) -> BenchmarkConfig:
    base = {f: getattr(config, f) for f in config.__dataclass_fields__}
    base.update(overrides)
    return BenchmarkConfig(**base)


def _lss_summary(row: dict) -> dict:
    return {
        "mean_re": row["flow_size"]["mean_re"],
        "entropy_re": row["entropy_re"],
        "hh_f1": row["heavy_hitters"]["f1"],
    }


def _epoch_series(config: BenchmarkConfig, epochs) -> list[dict]:
    """Train on the first epoch, evaluate every epoch with that model."""
    if config.trace_path:
        raise InvalidInputError("epoch sweeps need a generated trace")
    m = max(1, int(round(config.ratios[0] * config.window)))
    first_records, _ = _epoch_records(config, 1)
    samples = training_samples(first_records, config.train_samples)
    k = clamp_clusters(config.clusters, m, samples)
    model = train_model(samples, k, seed=config.seed).with_allocation(
        m, policy=config.allocation_policy)
    hh_threshold = float(np.percentile(np.asarray(samples, dtype=np.float64),
                                       config.hh_percentile))
    series = []
    for epoch in epochs:
        records, truth = _epoch_records(config, epoch)
        sketch = LssSketch(model, m, hash_seed=config.seed,
                           counter_width=config.counter_width,
                           expected_flows=config.window)
        for key, value in records:
            try:
                sketch.insert_duplicate(key, value)
            except BucketUnderflowError:
                pass
        row = _evaluate("lss", sketch.query, truth,
                        sketch.memory_bytes(), hh_threshold)
        series.append({"epoch": int(epoch), **_lss_summary(row)})
    return series


def _epoch_records(config: BenchmarkConfig, epoch: int):
    return load_records(_with(config, seed=config.seed * 1000 + epoch))
