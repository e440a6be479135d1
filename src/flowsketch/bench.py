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
from dataclasses import asdict, dataclass, replace

import numpy as np

from .baselines import CmSketch, CsSketch, bank_hashes
from .clustering import ClusterModel, InvalidInputError, train_model
from .hashing import key_digests
from .lss import BucketUnderflowError, LssSketch, sketch_bytes
from .membership import CuckooTable
from .metrics import entropy_of_values, f1_score, precision_recall, relative_error
from .traces import generate_packets, read_trace

DEFAULT_WINDOW = 10_000
DEFAULT_RATIO = 0.1
DEFAULT_CLUSTERS = 30
DEFAULT_HH_PERCENTILE = 90.0
DEFAULT_TRAIN_SAMPLES = 10_000
# the generated Zipf trace's exponent, largest flow size and mean packets
# per flow, and the baselines' bank count
ZIPF_S = 1.1
ZIPF_VMAX = 32
MEAN_PACKETS = 4.0
BANKS = 3
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
    train_samples: int = DEFAULT_TRAIN_SAMPLES
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


def load_records(config: BenchmarkConfig) -> tuple[list, dict[bytes, int]]:
    """Flow records (key, value) in packet order, plus each flow's exact
    total: in first-seen order for a trace file, in generation order for
    a generated trace."""
    if config.trace_path:
        records, totals = [], {}
        for pkt in read_trace(config.trace_path):
            records.append((pkt.key, pkt.size_bytes))
            totals[pkt.key] = totals.get(pkt.key, 0) + pkt.size_bytes
        return records, totals
    packets, totals = generate_packets(config.seed, config.window, ZIPF_S, MEAN_PACKETS,
                                       v_max=ZIPF_VMAX)
    return [(p.key, p.size_bytes) for p in packets], totals


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


def fit_model(config: BenchmarkConfig, samples, ratio: float) -> tuple[ClusterModel, int]:
    """The model a run sketches with: exact k-means over the training
    samples, with k clamped to the bucket budget m = ratio * window, and
    the configured policy's allocation of m. Returns (model, m)."""
    m = max(1, int(round(ratio * config.window)))
    k = clamp_clusters(config.clusters, m, samples)
    model = train_model(samples, k)
    return model.with_allocation(m, policy=config.allocation_policy), m


def _evaluate(name: str, estimates: list, totals: dict[bytes, int], memory_bytes: int,
              hh_threshold: float, extra: dict | None = None) -> dict:
    """Score one sketch's estimates, given in the order of totals' keys.
    A true heavy hitter's total exceeds hh_threshold."""
    # a 0-byte flow has no relative error; it still counts below
    rel = np.fromiter((relative_error(total, est) for total, est in zip(totals.values(), estimates)
                       if total > 0), dtype=np.float64)
    true_hh = {k for k, total in totals.items() if total > hh_threshold}
    pred_hh = {k for k, e in zip(totals, estimates) if e > hh_threshold}
    precision, recall = precision_recall(true_hh, pred_hh)
    true_entropy = entropy_of_values(totals.values())
    est_entropy = entropy_of_values(estimates)
    # a window whose flows all have one size has entropy 0, where the
    # relative error is undefined: its figure is the absolute error
    entropy_error = (relative_error(true_entropy, est_entropy) if true_entropy > 0
                     else abs(est_entropy))
    row = {
        "sketch": name,
        "memory_bytes": memory_bytes,
        "flow_size": {
            "mean_re": float(rel.mean()),
            "p50_re": float(np.percentile(rel, 50)),
            "p90_re": float(np.percentile(rel, 90)),
            "p99_re": float(np.percentile(rel, 99)),
        },
        "entropy_re": entropy_error,
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


def _run_window(config: BenchmarkConfig, fits, index: int, window_records,
                hh_threshold: float) -> list[dict]:
    """Score window `index` at each (model, m) fit; returns one
    {sketch: row} per fit. A window without a flow of positive total
    has no flow-size error to score and raises InvalidInputError.

    The window's exact totals (in first-seen order), and its keys'
    hashes, are built once here and shared by every ratio, so at most
    one window's hashes are held at a time. The clustered sketch replays the records, since its
    incremental path (migrations, merged-flow events) is part of what
    is scored, and is read back in one batch; Count-Min and
    Count-Sketch are linear, so inserting each flow's total leaves the
    same counters as replaying its fragments."""
    totals: dict[bytes, int] = {}
    for key, value in window_records:
        totals[key] = totals.get(key, 0) + value
    if not any(total > 0 for total in totals.values()):
        raise InvalidInputError(f"window {index} has no flow with a positive total: "
                                "its flow-size relative error is undefined")
    hashes = _window_hashes(config, totals)
    return [_score_fit(config, fit, window_records, totals, hashes, hh_threshold)
            for fit in fits]


def _window_hashes(config: BenchmarkConfig, totals: dict[bytes, int]) -> tuple:
    """(bank hashes by key, or None without a baseline; key_digests of
    totals' keys, or None without the clustered sketch)."""
    banks = digests = None
    if "cm" in config.sketches or "cs" in config.sketches:
        banks = {key: bank_hashes(key, config.seed, BANKS) for key in totals}
    if "lss" in config.sketches:
        digests = key_digests(totals, config.seed)
    return banks, digests


def _score_fit(config: BenchmarkConfig, fit, window_records, totals: dict[bytes, int],
               hashes: tuple, hh_threshold: float) -> dict:
    """Fill and score every configured sketch at one fit, one sketch at
    a time, in SKETCH_KINDS order, reading with _window_hashes' hashes."""
    banks, digests = hashes
    model, m = fit
    n_flows = len(totals)
    # every structure additionally needs key tracking to answer the
    # query tasks, so all of them carry the squeezed membership table
    # of a window-sized clustered sketch, whether or not that sketch is
    # in the run; the counter budget for the baselines therefore matches
    # the clustered sketch's bucket arrays plus centers, and totals
    # including membership agree to within one bucket
    membership_bytes = CuckooTable(capacity=config.window).squeeze().memory_bytes()
    sketch_budget = sketch_bytes(m, model.k, config.counter_width)
    per_bank = max(1, round(sketch_budget / (BANKS * (config.counter_width // 8))))
    rows = {}
    for name in SKETCH_KINDS:
        if name not in config.sketches:
            continue
        if name == "lss":
            sketch = LssSketch(model, m, hash_seed=config.seed,
                               counter_width=config.counter_width,
                               expected_flows=config.window)
            merged = _fill_lss(sketch, window_records)
            estimates = _lss_estimates(sketch, digests)
            own_bytes = sketch_budget
            extra = {
                "cardinality_error": abs(sketch.cardinality() - n_flows) / n_flows,
                "merged_flow_events": merged,
            }
        else:
            kind = CmSketch if name == "cm" else CsSketch
            sketch = kind(BANKS * per_bank, c=BANKS, seed=config.seed)
            estimates = _fill_hashed(sketch, totals, banks)
            own_bytes = sketch.memory_bytes(config.counter_width)
            extra = {}
        extra.update(sketch_bytes=own_bytes, membership_bytes=membership_bytes)
        rows[name] = _evaluate(name, estimates, totals, own_bytes + membership_bytes,
                               hh_threshold, extra)
    return rows


def _lss_estimates(sketch: LssSketch, digests) -> list[float]:
    """The sketch's estimate of each key whose key_digests are given, in
    one batch read; a flow the sketch lost scores as 0."""
    return [0.0 if b is None else b[0] / b[1] for b in sketch.buckets(digests)]


def _fill_hashed(sketch, totals: dict[bytes, int], hashes: dict):
    """Insert every flow's exact total under its precomputed bank
    hashes; returns the estimates in the order of totals' keys."""
    for key, total in totals.items():
        sketch.insert_hashed(hashes[key], total)
    return [sketch.query_hashed(hashes[key]) for key in totals]


_MERGE_MEAN = ("entropy_re", "cardinality_error")
_MERGE_SUM = ("merged_flow_events",)


def _merge_window_rows(per_window: list[dict]) -> dict:
    """Average one sketch's metrics across windows (sum event counts)."""
    merged = dict(per_window[0])
    merged["windows"] = len(per_window)
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
    records, totals = load_records(config)
    samples = training_samples(records, config.train_samples)
    hh_threshold = float(np.percentile(np.asarray(samples, dtype=np.float64),
                                       config.hh_percentile))
    fits = [fit_model(config, samples, ratio) for ratio in config.ratios]
    per_window = [_run_window(config, fits, i, w, hh_threshold)
                  for i, w in enumerate(split_windows(records, config.window))]
    rows = []
    for i, (ratio, (model, m)) in enumerate(zip(config.ratios, fits)):
        for name in per_window[0][i]:
            merged = _merge_window_rows([rows_w[i][name] for rows_w in per_window])
            merged.update(ratio=ratio, m=m, clusters=model.k)
            rows.append(merged)
    return {
        "config": {**asdict(config), "zipf_s": ZIPF_S, "zipf_vmax": ZIPF_VMAX,
                   "mean_packets": MEAN_PACKETS, "banks": BANKS},
        "n_flows": len(totals),
        "hh_threshold": hh_threshold,
        "rows": rows,
        "timing": {"trace_records": len(records),
                   "total_seconds": time.perf_counter() - t_start},
    }


def report_json(report: dict) -> str:
    """Canonical JSON: sorted keys, without the timing section
    (wall-clock numbers would break run-to-run byte identity)."""
    doc = {k: v for k, v in report.items() if k != "timing"}
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
            f"{row['cardinality_error']:.4g}" if "cardinality_error" in row else "-",
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
        rep = run_benchmark(replace(config, sketches=("lss",), **override(v)))
        row = next(r for r in rep["rows"] if r["sketch"] == "lss")
        series.append({label: v, **_lss_summary(row)})
    return {"axis": axis, "series": series}


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
    fit = fit_model(config, samples, config.ratios[0])
    hh_threshold = float(np.percentile(np.asarray(samples, dtype=np.float64),
                                       config.hh_percentile))
    lss_only = replace(config, sketches=("lss",))
    series = []
    for epoch in epochs:
        records, totals = _epoch_records(config, epoch)
        row = _score_fit(lss_only, fit, records, totals, _window_hashes(lss_only, totals),
                         hh_threshold)["lss"]
        series.append({"epoch": int(epoch), **_lss_summary(row)})
    return series


def _epoch_records(config: BenchmarkConfig, epoch: int):
    return load_records(replace(config, seed=config.seed * 1000 + epoch))
