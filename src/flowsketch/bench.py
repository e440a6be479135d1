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
from .clustering import ClusterModel, InvalidInputError, train_model
from .lss import BucketUnderflowError, KeyNotFoundError, LssSketch, sketch_bytes
from .membership import CuckooTable
from .metrics import GroundTruth, entropy_of_values, f1_score, precision_recall, relative_error
from .traces import generate_packets, read_trace

DEFAULT_WINDOW = 10_000
DEFAULT_RATIO = 0.1
DEFAULT_CLUSTERS = 30
DEFAULT_HH_PERCENTILE = 90.0
DEFAULT_TRAIN_SAMPLES = 10_000
SKETCH_KINDS = ("lss", "cm", "cs")  # also the order of a report's rows


@dataclass
class BenchmarkConfig:
    sketches: tuple[str, ...] = SKETCH_KINDS
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

    def __post_init__(self):
        for r in self.ratios:
            if not 0 < r <= 1:
                raise InvalidInputError(f"ratio {r} outside (0, 1]")
        if self.window <= 0:
            raise InvalidInputError("window must be positive")
        if not 0 < self.hh_percentile < 100:
            raise InvalidInputError("hh percentile must be in (0, 100)")
        for s in self.sketches:
            if s not in SKETCH_KINDS:
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


def fit_model(config: BenchmarkConfig, samples, ratio: float) -> tuple[ClusterModel, int, int]:
    """The model a run sketches with: k-means over the training samples,
    with k clamped to the bucket budget m = ratio * window, and the
    configured policy's allocation of m. Returns (model, m, k)."""
    m = max(1, int(round(ratio * config.window)))
    k = clamp_clusters(config.clusters, m, samples)
    model = train_model(samples, k, seed=config.seed)
    return model.with_allocation(m, policy=config.allocation_policy), m, k


def _evaluate(name: str, query, truth: GroundTruth, memory_bytes: int,
              hh_threshold: float, extra: dict | None = None) -> dict:
    keys = truth.keys()
    rel_errors = []
    estimates = []
    for k in keys:
        try:
            est = query(k)
        except KeyNotFoundError:  # a flow the clustered sketch lost scores as 0
            est = 0.0
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


def _fill_lss(sketch: LssSketch, records) -> int:
    """Insert every record; returns how many increments landed on a
    fingerprint-merged flow (counted, not fatal)."""
    merged = 0
    for key, value in records:
        try:
            sketch.insert_duplicate(key, value)
        except BucketUnderflowError:
            merged += 1
    return merged


def _run_window(config: BenchmarkConfig, model, m: int, k: int,
                window_records, hh_threshold: float) -> dict:
    """Fill and score every configured sketch on one window slice, one
    sketch at a time, in SKETCH_KINDS order."""
    truth = GroundTruth()
    for key, value in window_records:
        truth.add(key, value)
    n_flows = truth.cardinality()

    # every structure additionally needs key tracking to answer the
    # query tasks, so all of them carry the squeezed membership table
    # of a window-sized clustered sketch, whether or not that sketch is
    # in the run; the counter budget for the baselines therefore matches
    # the clustered sketch's bucket arrays plus centers, and totals
    # including membership agree to within one bucket
    membership_bytes = CuckooTable(capacity=config.window).squeeze().memory_bytes()
    sketch_budget = sketch_bytes(m, k, config.counter_width)
    per_bank = max(1, round(sketch_budget / (config.banks * (config.counter_width // 8))))
    rows = {}
    for name in SKETCH_KINDS:
        if name not in config.sketches:
            continue
        if name == "lss":
            sketch = LssSketch(model, m, hash_seed=config.seed,
                               counter_width=config.counter_width,
                               expected_flows=config.window)
            merged = _fill_lss(sketch, window_records)
            own_bytes = sketch.sketch_bytes()
            extra = {
                "cardinality_error": abs(sketch.cardinality() - n_flows) / n_flows,
                "merged_flow_events": merged,
            }
        else:
            kind = CmSketch if name == "cm" else CsSketch
            sketch = kind(config.banks * per_bank, c=config.banks, seed=config.seed)
            for key, value in window_records:
                sketch.insert(key, value)
            own_bytes = sketch.memory_bytes(config.counter_width)
            extra = {}
        extra.update(sketch_bytes=own_bytes, membership_bytes=membership_bytes)
        rows[name] = _evaluate(name, sketch.query, truth, own_bytes + membership_bytes,
                               hh_threshold, extra)
    return rows


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
    against exact ground truth. A key the clustered sketch cannot
    answer scores as an estimate of 0."""
    t_start = time.perf_counter()
    records, truth = load_records(config)
    samples = training_samples(records, config.train_samples)
    hh_threshold = float(np.percentile(np.asarray(samples, dtype=np.float64),
                                       config.hh_percentile))
    windows = split_windows(records, config.window)
    rows = []
    for ratio in config.ratios:
        model, m, k = fit_model(config, samples, ratio)
        per_window = [_run_window(config, model, m, k, w, hh_threshold) for w in windows]
        for name in per_window[0]:
            merged = _merge_window_rows([rows_w[name] for rows_w in per_window])
            merged.update(ratio=ratio, m=m, clusters=k)
            rows.append(merged)
    return {
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
        },
        "n_flows": truth.cardinality(),
        "hh_threshold": hh_threshold,
        "rows": rows,
        "timing": {"trace_records": len(records),
                   "total_seconds": time.perf_counter() - t_start},
    }


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
    first_records, _ = _epoch_records(config, 1)
    samples = training_samples(first_records, config.train_samples)
    model, m, _ = fit_model(config, samples, config.ratios[0])
    hh_threshold = float(np.percentile(np.asarray(samples, dtype=np.float64),
                                       config.hh_percentile))
    series = []
    for epoch in epochs:
        records, truth = _epoch_records(config, epoch)
        sketch = LssSketch(model, m, hash_seed=config.seed,
                           counter_width=config.counter_width,
                           expected_flows=config.window)
        _fill_lss(sketch, records)
        row = _evaluate("lss", sketch.query, truth,
                        sketch.memory_bytes(), hh_threshold)
        series.append({"epoch": int(epoch), **_lss_summary(row)})
    return series


def _epoch_records(config: BenchmarkConfig, epoch: int):
    return load_records(_with(config, seed=config.seed * 1000 + epoch))
