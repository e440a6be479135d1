"""Disaggregated ingestion -> sketching -> query pipeline.

The three stages share nothing but the bus. Ingestion turns line-rate
packets into batched flowlet counters (one bounded hash table, flushed
whole when full). Sketching folds flowlet records into a windowed
sketch and emits a serialized envelope when the window closes. The
query side stores envelopes durably and answers network-wide tasks
over any time range.
"""

import logging
import os
import struct
import threading
import time
from dataclasses import dataclass, field

from .bus import TopicBus, TopicClosed
from .clustering import ClusterModel, InvalidInputError
from .lss import BucketUnderflowError, LssSketch, changed_keys
from .membership import TableFullError
from .metrics import entropy_of_values
from .traces import TracePacket

log = logging.getLogger(__name__)

FLOWLET_RECORD_BYTES = 8  # accounting size of one key-value pair on the wire


@dataclass(frozen=True)
class FlowRecord:
    key: bytes
    value: int


@dataclass(frozen=True)
class FlowletBatch:
    records: tuple[FlowRecord, ...]
    source_id: str
    sequence_number: int
    emitted_at: int


@dataclass(frozen=True)
class WindowConfig:
    mode: str = "sequence"   # "sequence" (N distinct flows) or "time"
    capacity: int = 10_000   # flows, or window duration in nanoseconds

    def __post_init__(self):
        if self.mode not in ("sequence", "time"):
            raise InvalidInputError(f"unknown window mode {self.mode!r}")
        if self.capacity <= 0:
            raise InvalidInputError("window capacity must be positive")


@dataclass
class SketchEnvelope:
    payload: bytes           # serialized sketch incl. squeezed membership
    source: str
    window_id: int
    window_start: int
    window_end: int
    arrival_ts: int = 0

    def sketch(self) -> LssSketch:
        return LssSketch.from_bytes(self.payload)

    _HEADER = struct.Struct("<4sBHQqqqI")
    _MAGIC = b"LSSE"

    def to_bytes(self) -> bytes:
        src = self.source.encode()
        head = self._HEADER.pack(self._MAGIC, 1, len(src), self.window_id,
                                 self.window_start, self.window_end,
                                 self.arrival_ts, len(self.payload))
        return head + src + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "SketchEnvelope":
        if len(data) < cls._HEADER.size:
            raise ValueError(f"truncated envelope header at offset {len(data)}")
        magic, version, srclen, wid, wstart, wend, arrival, plen = cls._HEADER.unpack_from(data)
        if magic != cls._MAGIC or version != 1:
            raise ValueError(f"bad envelope magic/version: {magic!r} v{version}")
        off = cls._HEADER.size
        end = off + srclen + plen
        if len(data) < end:
            raise ValueError(f"truncated envelope body at offset {len(data)}")
        if len(data) > end:
            raise ValueError(f"{len(data) - end} trailing bytes at offset {end}")
        source = data[off:off + srclen].decode()
        payload = data[off + srclen:end]
        return cls(payload=payload, source=source, window_id=wid,
                   window_start=wstart, window_end=wend, arrival_ts=arrival)


class IngestStage:
    """Flowlet aggregation: a bounded per-flow counter table.

    A packet for a known flow bumps its counter. A new flow goes into
    the table if there is room; otherwise every accumulated counter is
    published as one batch, the table resets, and the new flow starts
    the next flowlet.
    """

    def __init__(self, source_id: str = "ingest-0", capacity: int = 1000):
        if capacity <= 0:
            raise InvalidInputError("ingest table capacity must be positive")
        self.source_id = source_id
        self.capacity = capacity
        self._table: dict[bytes, int] = {}
        self._sequence = 0
        self.packets_seen = 0
        self.bytes_seen = 0
        self.records_emitted = 0
        self.batches_emitted = 0

    def ingest(self, pkt: TracePacket) -> FlowletBatch | None:
        self.packets_seen += 1
        self.bytes_seen += pkt.size_bytes
        if pkt.key in self._table:
            self._table[pkt.key] += pkt.size_bytes
            return None
        batch = None
        if len(self._table) >= self.capacity:
            batch = self._emit(pkt.ts_ns)
        self._table[pkt.key] = pkt.size_bytes
        return batch

    def flush(self, ts_ns: int | None = None) -> FlowletBatch:
        """Emit whatever is accumulated (possibly an empty batch)."""
        return self._emit(ts_ns if ts_ns is not None else time.time_ns())

    def _emit(self, ts_ns: int) -> FlowletBatch:
        records = tuple(FlowRecord(k, v) for k, v in self._table.items())
        self._table.clear()
        batch = FlowletBatch(records, self.source_id, self._sequence, ts_ns)
        self._sequence += 1
        self.records_emitted += len(records)
        self.batches_emitted += 1
        return batch


class SketchingStage:
    """Keeps one sketch per sliding window and emits it when the window
    closes."""

    def __init__(self, model: ClusterModel, m: int, window: WindowConfig,
                 source: str = "sketch-0", hash_seed: int = 0,
                 expected_flows: int | None = None):
        self.model = model
        self.m = m
        self.window = window
        self.source = source
        self.hash_seed = hash_seed
        self.expected_flows = expected_flows or (
            window.capacity if window.mode == "sequence" else 10 * m)
        self._window_id = 0
        self._window_start: int | None = None
        self._last_ts = 0
        self.merged_flow_events = 0
        self._sketch = self._new_sketch()

    def _new_sketch(self) -> LssSketch:
        return LssSketch(self.model, self.m, hash_seed=self.hash_seed,
                         expected_flows=self.expected_flows)

    def _window_bounds(self, ts: int) -> tuple[int, int]:
        if self.window.mode == "time":
            start = (ts // self.window.capacity) * self.window.capacity
            return start, start + self.window.capacity
        return ts, ts

    def feed(self, record: FlowRecord, ts: int = 0) -> SketchEnvelope | None:
        """Insert one flow record; returns the closed window's envelope
        when this record completes or rolls a window."""
        envelope = None
        if self.window.mode == "time":
            if self._window_start is None:
                self._window_start = (ts // self.window.capacity) * self.window.capacity
            elif ts >= self._window_start + self.window.capacity:
                envelope = self._rotate()
                self._window_start = (ts // self.window.capacity) * self.window.capacity
        elif self._window_start is None:
            self._window_start = ts
        self._last_ts = ts
        try:
            self._sketch.insert_duplicate(record.key, record.value)
        except BucketUnderflowError:
            # fingerprint-merged flows stay merged; accounted, not fatal
            self.merged_flow_events += 1
        except TableFullError:
            log.warning("membership table full on %s window %d; rotating early",
                        self.source, self._window_id)
            envelope = self._rotate()
            self._window_start = self._window_bounds(ts)[0]
            self._sketch.insert_duplicate(record.key, record.value)
        if (envelope is None and self.window.mode == "sequence"
                and self._sketch.membership.occupied >= self.window.capacity):
            envelope = self._rotate()
        return envelope

    def feed_batch(self, batch: FlowletBatch) -> list[SketchEnvelope]:
        envelopes = []
        for record in batch.records:
            env = self.feed(record, ts=batch.emitted_at)
            if env is not None:
                envelopes.append(env)
        return envelopes

    def flush(self) -> SketchEnvelope | None:
        """Close the open window even if it is not full; None if empty."""
        if self._sketch.cardinality() == 0:
            return None
        return self._rotate()

    def _rotate(self) -> SketchEnvelope:
        sketch = self._sketch
        sketch.membership.squeeze()
        if self.window.mode == "time":
            start = self._window_start or 0
            bounds = (start, start + self.window.capacity)
        else:
            bounds = (self._window_start or 0, self._last_ts)
        envelope = SketchEnvelope(
            payload=sketch.to_bytes(include_membership=True),
            source=self.source,
            window_id=self._window_id,
            window_start=bounds[0],
            window_end=bounds[1],
        )
        self._window_id += 1
        self._window_start = None
        self._sketch = self._new_sketch()
        return envelope


class SketchStore:
    """One file per envelope plus an append-only timestamp index."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._index_path = os.path.join(root, "index.log")

    def put(self, envelope: SketchEnvelope) -> str:
        if envelope.arrival_ts == 0:
            envelope.arrival_ts = time.time_ns()
        name = f"{envelope.source}_{envelope.window_id:08d}.env"
        path = os.path.join(self.root, name)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(envelope.to_bytes())
        os.replace(tmp, path)
        with open(self._index_path, "a") as fh:
            fh.write(f"{envelope.arrival_ts}\t{name}\n")
        return path

    def range(self, t0: int, t1: int) -> list[SketchEnvelope]:
        """Envelopes whose arrival timestamp lies in [t0, t1], in
        arrival order. Corrupt entries are skipped with a warning."""
        if t0 > t1:
            raise InvalidInputError("t0 must not exceed t1")
        if not os.path.exists(self._index_path):
            return []
        rows = []
        with open(self._index_path) as fh:
            for line in fh:
                try:
                    ts_text, name = line.rstrip("\n").split("\t")
                    rows.append((int(ts_text), name))
                except ValueError:
                    log.warning("skipping malformed index line: %r", line)
        out = []
        for ts, name in sorted(rows):
            if not (t0 <= ts <= t1):
                continue
            path = os.path.join(self.root, name)
            try:
                with open(path, "rb") as fh:
                    out.append(SketchEnvelope.from_bytes(fh.read()))
            except (OSError, ValueError) as exc:
                log.warning("skipping corrupt envelope %s: %s", name, exc)
        return out


QUERY_TASKS = ("flow-size", "entropy", "heavy-hitters", "cardinality", "heavy-changes")


def network_wide_query(store: SketchStore, t0: int, t1: int, task: str,
                       params: dict | None = None) -> dict:
    """Evaluate a monitoring task over every stored window in [t0, t1].

    Per-flow tasks need params["keys"]; threshold tasks need
    params["threshold"]. Cardinalities sum across windows, heavy hitters
    union (a flow seen in several windows reports every estimate),
    entropies stay per window, and heavy changes compare consecutive
    windows of the same source. Per-flow tasks skip a key in a window
    that does not hold it, including a key whose fingerprint matches a
    foreign one on an empty bucket; heavy changes count it as 0 there.
    """
    params = params or {}
    if task not in QUERY_TASKS:
        raise InvalidInputError(f"unknown task {task!r}; expected one of {QUERY_TASKS}")
    envelopes = store.range(t0, t1)
    report: dict = {"task": task, "windows": len(envelopes)}
    if task == "cardinality":
        per_window = {f"{e.source}/{e.window_id}": e.sketch().cardinality() for e in envelopes}
        report["per_window"] = per_window
        report["total"] = sum(per_window.values())
        return report

    keys = params.get("keys")
    if keys is None:
        raise InvalidInputError(f"task {task!r} requires params['keys']")
    if task == "flow-size":
        sizes = {}
        for e in envelopes:
            ests = e.sketch().estimates(keys)
            sizes[f"{e.source}/{e.window_id}"] = {k.hex(): est for k, est in ests.items()}
        report["per_window"] = sizes
        return report
    if task == "entropy":
        ent = {}
        for e in envelopes:
            exact = e.sketch().exact_estimates(keys)
            sizes = [exact[k] for k in keys if k in exact]
            if sizes:
                ent[f"{e.source}/{e.window_id}"] = entropy_of_values(sizes)
        report["per_window"] = ent
        return report

    threshold = params.get("threshold")
    if threshold is None:
        raise InvalidInputError(f"task {task!r} requires params['threshold']")
    if task == "heavy-hitters":
        union: dict[str, list] = {}
        for e in envelopes:
            for k, est in e.sketch().heavy_hitters(keys, threshold):
                union.setdefault(k.hex(), []).append(
                    {"window": f"{e.source}/{e.window_id}", "estimate": est})
        report["hitters"] = union
        return report
    # heavy-changes: consecutive windows per source, each decoded once
    by_source: dict[str, list[SketchEnvelope]] = {}
    for e in envelopes:
        by_source.setdefault(e.source, []).append(e)
    changes = {}
    for source, envs in by_source.items():
        if len(envs) < 2:
            continue
        envs.sort(key=lambda e: e.window_id)
        ests = [e.sketch().estimates(keys) for e in envs]
        for j in range(1, len(envs)):
            changed = changed_keys(ests[j - 1], ests[j], keys, threshold)
            changes[f"{source}/{envs[j - 1].window_id}->{envs[j].window_id}"] = [
                k.hex() for k in changed]
    report["changes"] = changes
    return report


@dataclass
class PipelineStats:
    packets: int = 0
    packet_bytes: int = 0
    flowlet_records: int = 0
    flowlet_batches: int = 0
    envelopes: int = 0
    sketched_value: int = 0
    merged_flow_events: int = 0
    fifo_violations: int = 0

    @property
    def flowlet_bytes(self) -> int:
        return self.flowlet_records * FLOWLET_RECORD_BYTES

    @property
    def traffic_reduction(self) -> float:
        return self.packet_bytes / self.flowlet_bytes if self.flowlet_bytes else float("inf")


def run_pipeline(packets, model: ClusterModel, m: int, store: SketchStore,
                 window: WindowConfig | None = None, source_id: str = "src-0",
                 ingest_capacity: int = 1000, hash_seed: int = 0,
                 bus: TopicBus | None = None) -> PipelineStats:
    """Drive packets end-to-end across threaded stages connected by the
    bus, storing every emitted envelope. Returns conservation counters."""
    window = window or WindowConfig()
    bus = bus or TopicBus(maxsize=64)
    stats = PipelineStats()
    flowlet_topic = f"flowlets.{source_id}"
    sketch_topic = "sketches"
    flowlet_sub = bus.subscribe(flowlet_topic)
    sketch_sub = bus.subscribe(sketch_topic)

    def ingest_worker():
        stage = IngestStage(source_id=source_id, capacity=ingest_capacity)
        last_ts = 0
        for pkt in packets:
            last_ts = pkt.ts_ns
            batch = stage.ingest(pkt)
            if batch is not None:
                bus.publish(flowlet_topic, batch)
        final = stage.flush(ts_ns=last_ts)
        if final.records:
            bus.publish(flowlet_topic, final)
        stats.packets = stage.packets_seen
        stats.packet_bytes = stage.bytes_seen
        stats.flowlet_records = stage.records_emitted
        stats.flowlet_batches = stage.batches_emitted
        bus.close_topic(flowlet_topic)

    def sketch_worker():
        stage = SketchingStage(model, m, window, source=source_id,
                               hash_seed=hash_seed)
        last_seq = -1
        try:
            while True:
                batch = flowlet_sub.get()
                if batch.sequence_number <= last_seq:
                    stats.fifo_violations += 1
                last_seq = batch.sequence_number
                for env in stage.feed_batch(batch):
                    bus.publish(sketch_topic, env)
        except TopicClosed:
            pass
        final = stage.flush()
        if final is not None:
            bus.publish(sketch_topic, final)
        stats.merged_flow_events = stage.merged_flow_events
        bus.close_topic(sketch_topic)

    def query_worker():
        try:
            while True:
                env = sketch_sub.get()
                env.arrival_ts = time.time_ns()
                store.put(env)
                stats.envelopes += 1
                stats.sketched_value += env.sketch().total_value()
        except TopicClosed:
            pass

    threads = [threading.Thread(target=w, name=w.__name__)
               for w in (ingest_worker, sketch_worker, query_worker)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return stats
