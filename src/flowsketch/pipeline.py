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
from dataclasses import dataclass
from math import gcd

from .bus import TopicBus
from .clustering import ClusterModel, InvalidInputError
from .hashing import key_digests
from .lss import BucketUnderflowError, LssSketch
from .membership import TableFullError
from .metrics import entropy_of_values
from .traces import TracePacket

log = logging.getLogger(__name__)

FLOWLET_RECORD_BYTES = 8  # accounting size of one key-value pair on the wire


@dataclass(frozen=True)
class FlowletBatch:
    records: tuple[tuple[bytes, int], ...]  # (flow key, byte count) pairs
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
    def _unpack_header(cls, data: bytes) -> tuple[int, int, int, int, int, int]:
        """(source length, window_id, window_start, window_end,
        arrival_ts, payload length) from the fixed header that starts
        data; a short header or a wrong magic or version raises
        ValueError."""
        if len(data) < cls._HEADER.size:
            raise ValueError(f"truncated envelope header at offset {len(data)}")
        magic, version, *fields = cls._HEADER.unpack_from(data)
        if magic != cls._MAGIC or version != 1:
            raise ValueError(f"bad envelope magic/version: {magic!r} v{version}")
        return tuple(fields)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SketchEnvelope":
        srclen, wid, wstart, wend, arrival, plen = cls._unpack_header(data)
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

    def __init__(self, capacity: int = 1000):
        if capacity <= 0:
            raise InvalidInputError("ingest table capacity must be positive")
        self.capacity = capacity
        self._table: dict[bytes, int] = {}
        self._sequence = 0
        self.packets_seen = 0
        self.bytes_seen = 0
        self.records_emitted = 0
        self.batches_emitted = 0

    def ingest(self, pkt: TracePacket) -> FlowletBatch | None:
        """Count one packet; returns the batch a new flow's arrival
        flushes, if any. A negative size raises InvalidInputError before
        any counter changes."""
        if pkt.size_bytes < 0:
            raise InvalidInputError(f"negative packet size {pkt.size_bytes} "
                                    f"for flow {pkt.key.hex()}")
        self.packets_seen += 1
        self.bytes_seen += pkt.size_bytes
        if pkt.key in self._table:
            self._table[pkt.key] += pkt.size_bytes
            return None
        batch = None
        if len(self._table) >= self.capacity:
            batch = self.flush(pkt.ts_ns)
        self._table[pkt.key] = pkt.size_bytes
        return batch

    def flush(self, ts_ns: int) -> FlowletBatch:
        """Emit whatever is accumulated (possibly an empty batch) as one
        batch stamped ts_ns, its pairs in table order."""
        records = tuple(self._table.items())
        self._table.clear()
        batch = FlowletBatch(records, self._sequence, ts_ns)
        self._sequence += 1
        self.records_emitted += len(records)
        self.batches_emitted += 1
        return batch


class SketchingStage:
    """Keeps one sketch per sliding window and emits it when the window
    closes. Each window's membership table is sized for the window's
    capacity in sequence mode and for 10 flows per bucket in time mode."""

    def __init__(self, model: ClusterModel, m: int, window: WindowConfig,
                 source: str = "sketch-0", hash_seed: int = 0):
        self.model = model
        self.m = m
        self.window = window
        self.source = source
        self.hash_seed = hash_seed
        self.expected_flows = window.capacity if window.mode == "sequence" else 10 * m
        self._window_id = 0
        self._window_start: int | None = None
        self._last_ts = 0
        self.merged_flow_events = 0
        self._sketch = self._new_sketch()

    def _new_sketch(self) -> LssSketch:
        return LssSketch(self.model, self.m, hash_seed=self.hash_seed,
                         expected_flows=self.expected_flows)

    def _window_start_of(self, ts: int) -> int:
        """Start of the window a record at ts opens: the aligned time
        slot in time mode, ts itself in sequence mode."""
        if self.window.mode == "time":
            return (ts // self.window.capacity) * self.window.capacity
        return ts

    def feed(self, key: bytes, value: int, ts: int = 0) -> SketchEnvelope | None:
        """Insert one flow record; returns the closed window's envelope
        when this record completes or rolls a window."""
        envelope = None
        if self._window_start is None:
            self._window_start = self._window_start_of(ts)
        elif self.window.mode == "time" and ts >= self._window_start + self.window.capacity:
            envelope = self._rotate(self._window_start_of(ts))
        self._last_ts = ts
        try:
            self._sketch.insert_duplicate(key, value)
        except BucketUnderflowError:
            # fingerprint-merged flows stay merged; accounted, not fatal
            self.merged_flow_events += 1
        except TableFullError:
            envelope = self._rotate_early(ts)
            self._sketch.insert_duplicate(key, value)
        if (envelope is None and self.window.mode == "sequence"
                and self._sketch.membership.occupied >= self.window.capacity):
            envelope = self._rotate(None)
        return envelope

    def feed_batch(self, batch: FlowletBatch) -> list[SketchEnvelope]:
        """feed() of each of the batch's records in order, with the same
        envelopes and end state, through LssSketch.insert_many: one pass
        per run of records that one window takes, under one key_digests
        of the batch's keys. Every record carries the batch's stamp, so
        the time roll-over is checked once. The record that finds a table
        full opens the next window's run; one record leaves a fresh
        window below its capacity (a one-flow window's table never fills),
        so the window-size check that feed() skips after it cannot fire."""
        records, ts = batch.records, batch.emitted_at
        if not records:
            return []
        envelopes = []
        if (self._window_start is not None and self.window.mode == "time"
                and ts >= self._window_start + self.window.capacity):
            envelopes.append(self._rotate(self._window_start_of(ts)))
        self._last_ts = ts
        sequence = self.window.mode == "sequence"
        keys, values = zip(*records)
        digests = key_digests(keys, self.hash_seed)
        done = 0
        while done < len(records):
            if self._window_start is None:
                self._window_start = self._window_start_of(ts)
            table = self._sketch.membership
            room = self.window.capacity - table.occupied if sequence else None
            consumed, merged, full = self._sketch.insert_many(
                values[done:], [c[done:] for c in digests], room)
            self.merged_flow_events += merged
            done += consumed
            if full:
                envelopes.append(self._rotate_early(ts))
            elif sequence and table.occupied >= self.window.capacity:
                envelopes.append(self._rotate(None))
        return envelopes

    def _rotate_early(self, ts: int) -> SketchEnvelope:
        """Close a window whose membership table is full; the record at ts
        that found it full opens the next one."""
        log.warning("membership table full on %s window %d; rotating early",
                    self.source, self._window_id)
        return self._rotate(self._window_start_of(ts))

    def flush(self) -> SketchEnvelope | None:
        """Close the open window even if it is not full; None if empty."""
        if self._sketch.cardinality() == 0:
            return None
        return self._rotate(None)

    def _rotate(self, next_start: int | None) -> SketchEnvelope:
        """Close the open window and start the next one at next_start;
        None leaves it to open at its first record, as the first window
        does. A sequence window ends at its last record, a time window
        at the end of its slot."""
        start = self._window_start
        end = start + self.window.capacity if self.window.mode == "time" else self._last_ts
        envelope = SketchEnvelope(payload=self._sketch.to_bytes(), source=self.source,
                                  window_id=self._window_id, window_start=start,
                                  window_end=end)
        self._window_id += 1
        self._window_start = next_start
        self._sketch = None  # free the closed window before the next one's table exists
        self._sketch = self._new_sketch()
        return envelope


class SketchStore:
    """One file per envelope, named by its source and window id. The
    arrival stamps in the envelope headers are the store's only index."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def put(self, envelope: SketchEnvelope) -> str:
        """Write the envelope; an unstamped envelope (arrival_ts 0) is
        stamped with the current time first. The store holds one
        envelope per source and window id: putting a second raises
        FileExistsError and writes nothing."""
        name = f"{envelope.source}_{envelope.window_id:08d}.env"
        path = os.path.join(self.root, name)
        if os.path.exists(path):
            raise FileExistsError(f"store {self.root} already holds {name}")
        if envelope.arrival_ts == 0:
            envelope.arrival_ts = time.time_ns()
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(envelope.to_bytes())
        os.replace(tmp, path)
        return path

    def range(self, t0: int, t1: int) -> list[SketchEnvelope]:
        """Envelopes whose arrival timestamp lies in [t0, t1], ordered by
        (arrival timestamp, file name). Each envelope file's header and
        source name are read first, and a file whose header is bad is
        skipped with a warning; the body is read and decoded only when
        the arrival stamp is in range, so a corrupt body outside the
        range goes unread, and one inside it is skipped with a warning."""
        if t0 > t1:
            raise InvalidInputError("t0 must not exceed t1")
        found = []
        for name in os.listdir(self.root):
            if not name.endswith(".env"):
                continue
            try:
                # unbuffered: a file out of range costs two small reads
                with open(os.path.join(self.root, name), "rb", buffering=0) as fh:
                    head = fh.read(SketchEnvelope._HEADER.size)
                    srclen, _, _, _, arrival, _ = SketchEnvelope._unpack_header(head)
                    # the source name ends the header: short or not
                    # UTF-8, the header is bad
                    source = fh.read(srclen)
                    if len(source) < srclen:
                        raise ValueError(f"truncated envelope source at offset "
                                         f"{len(head) + len(source)}")
                    source.decode()
                    if not t0 <= arrival <= t1:
                        continue
                    fh.seek(0)
                    env = SketchEnvelope.from_bytes(fh.read())
            except (OSError, ValueError) as exc:
                log.warning("skipping corrupt envelope %s: %s", name, exc)
                continue
            found.append((env.arrival_ts, name, env))
        found.sort(key=lambda row: row[:2])
        return [env for _, _, env in found]


QUERY_TASKS = ("flow-size", "entropy", "heavy-hitters", "cardinality", "heavy-changes")


def network_wide_query(store: SketchStore, t0: int, t1: int, task: str,
                       params: dict | None = None) -> dict:
    """Evaluate a monitoring task over every stored window in [t0, t1].

    Per-flow tasks need params["keys"], each key taken once in
    first-seen order; threshold tasks need params["threshold"],
    non-negative for heavy hitters. Cardinalities sum across windows;
    entropies stay per window, each the base-2 entropy of the held keys'
    exact estimates grouped by value (a window holding none of the keys
    is left out); heavy hitters union the keys whose estimate exceeds
    the threshold, largest first within a window, so a flow seen in
    several windows reports every estimate; heavy changes list the keys
    whose estimates in consecutive windows of the same source differ by
    more than the threshold. Per-flow tasks skip a key in a window that
    does not hold it, including a key whose fingerprint matches a
    foreign one on an empty bucket; heavy changes count it as 0 there.
    Each key is digested once per query (once per hash seed among the
    windows), and every window reads the keys through the batch read,
    LssSketch.buckets.
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
    keys = list(dict.fromkeys(keys))  # each key once, in first-seen order
    digests: dict[int, tuple] = {}  # hash_seed -> the keys' key_digests

    def held(e: SketchEnvelope) -> list[tuple[bytes, tuple[int, int]]]:
        """(key, (val_sum, key_count)) of each key window e holds, in
        key order; the keys are digested once per hash seed."""
        sketch = e.sketch()
        if sketch.hash_seed not in digests:
            digests[sketch.hash_seed] = key_digests(keys, sketch.hash_seed)
        found = sketch.buckets(digests[sketch.hash_seed])
        return [(k, b) for k, b in zip(keys, found) if b is not None]

    def window_estimates(e: SketchEnvelope) -> dict[bytes, float]:
        return {k: val_sum / count for k, (val_sum, count) in held(e)}

    if task == "flow-size":
        report["per_window"] = {f"{e.source}/{e.window_id}":
                                {k.hex(): est for k, est in window_estimates(e).items()}
                                for e in envelopes}
        return report
    if task == "entropy":
        ent = {}
        for e in envelopes:
            # exact estimates as gcd-reduced (num, den) pairs: equal
            # pairs are equal rationals, so they group as Fractions would
            sizes = [(v // g, c // g) for _, (v, c) in held(e) for g in (gcd(v, c),)]
            if sizes:
                ent[f"{e.source}/{e.window_id}"] = entropy_of_values(sizes)
        report["per_window"] = ent
        return report

    threshold = params.get("threshold")
    if threshold is None:
        raise InvalidInputError(f"task {task!r} requires params['threshold']")
    if task == "heavy-hitters":
        if threshold < 0:
            raise InvalidInputError("threshold must be non-negative")
        union: dict[str, list] = {}
        for e in envelopes:
            hits = [(k, est) for k, est in window_estimates(e).items() if est > threshold]
            hits.sort(key=lambda ke: (-ke[1], ke[0]))
            for k, est in hits:
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
        ests = [window_estimates(e) for e in envs]
        for j in range(1, len(envs)):
            before, after = ests[j - 1], ests[j]
            changes[f"{source}/{envs[j - 1].window_id}->{envs[j].window_id}"] = [
                k.hex() for k in keys
                if abs(after.get(k, 0.0) - before.get(k, 0.0)) > threshold]
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
                 window: WindowConfig | None = None, ingest_capacity: int = 1000,
                 hash_seed: int = 0) -> PipelineStats:
    """Drive packets end-to-end across threaded stages connected by the
    bus, storing every emitted envelope under the source "src-0".
    Returns conservation counters.

    A stage that fails records its error and drains its input, and
    every producer closes its output topic however it ends, so the
    other stages run to the end of their streams; the first error is
    then raised here."""
    window = window or WindowConfig()
    bus = TopicBus(maxsize=64)
    stats = PipelineStats()
    errors: list[BaseException] = []
    source = "src-0"
    flowlet_topic = f"flowlets.{source}"
    sketch_topic = "sketches"
    flowlet_sub = bus.subscribe(flowlet_topic)
    sketch_sub = bus.subscribe(sketch_topic)

    def fail(exc: BaseException, inbox) -> None:
        errors.append(exc)
        for _ in inbox:  # keep consuming so the producer never blocks
            pass

    def ingest_worker():
        try:
            stage = IngestStage(capacity=ingest_capacity)
            last_ts = 0
            for pkt in packets:
                last_ts = pkt.ts_ns
                batch = stage.ingest(pkt)
                if batch is not None:
                    bus.publish(flowlet_topic, batch)
            final = stage.flush(last_ts)
            if final.records:
                bus.publish(flowlet_topic, final)
            stats.packets = stage.packets_seen
            stats.packet_bytes = stage.bytes_seen
            stats.flowlet_records = stage.records_emitted
            stats.flowlet_batches = stage.batches_emitted
        except BaseException as exc:
            errors.append(exc)
        finally:
            bus.close_topic(flowlet_topic)

    def sketch_worker():
        try:
            stage = SketchingStage(model, m, window, source=source,
                                   hash_seed=hash_seed)
            last_seq = -1
            for batch in flowlet_sub:
                if batch.sequence_number <= last_seq:
                    stats.fifo_violations += 1
                last_seq = batch.sequence_number
                for env in stage.feed_batch(batch):
                    bus.publish(sketch_topic, env)
            final = stage.flush()
            if final is not None:
                bus.publish(sketch_topic, final)
            stats.merged_flow_events = stage.merged_flow_events
        except BaseException as exc:
            fail(exc, flowlet_sub)
        finally:
            bus.close_topic(sketch_topic)

    def query_worker():
        try:
            for env in sketch_sub:
                store.put(env)
                stats.envelopes += 1
                stats.sketched_value += env.sketch().total_value()
        except BaseException as exc:
            fail(exc, sketch_sub)

    threads = [threading.Thread(target=w, name=w.__name__)
               for w in (ingest_worker, sketch_worker, query_worker)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return stats
