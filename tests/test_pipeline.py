import hashlib
import json
import logging
import math
import struct
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsketch import lss, pipeline
from flowsketch.clustering import ClusterModel, InvalidInputError, train_model
from flowsketch.hashing import key_digest
from flowsketch.lss import LssSketch
from flowsketch.metrics import entropy_of_values
from flowsketch.pipeline import (
    QUERY_TASKS,
    IngestStage,
    SketchEnvelope,
    SketchStore,
    SketchingStage,
    WindowConfig,
    network_wide_query,
    run_pipeline,
)
from flowsketch.traces import TracePacket, generate_packets, uniform_packets


ALL_TIME = (0, 1 << 62)


def small_model(k=4, step=8):
    centers = tuple(float(step * (i + 1)) for i in range(k))
    total = sum(centers)
    return ClusterModel(centers=centers, entropy=tuple([0.5] * k),
                        weight=tuple(c / total for c in centers),
                        density=tuple([1.0 / k] * k))


def pkt(key, size, ts=0):
    return TracePacket(key=key, size_bytes=size, ts_ns=ts)


def store_windows(tmp_path, sketches):
    """Store each sketch, squeezed as a closed window ships, as the next
    window of source src-a."""
    store = SketchStore(str(tmp_path / "store"))
    for wid, sketch in enumerate(sketches):
        sketch.membership.squeeze()
        store.put(SketchEnvelope(payload=sketch.to_bytes(), source="src-a", window_id=wid,
                                 window_start=wid, window_end=wid,
                                 arrival_ts=100 * (wid + 1)))
    return store


def keys_in_slots(m, slots, seed):
    """Distinct keys whose bucket hash lands on each requested slot of
    an m-bucket array."""
    keys, i = [], 0
    for slot in slots:
        while key_digest(f"slot-{i}".encode(), seed)[0] % m != slot:
            i += 1
        keys.append(f"slot-{i}".encode())
        i += 1
    return keys


def run_bounded(fn, seconds=10):
    """Run fn in a daemon thread; fail if it is still running after
    seconds, else return the exception it raised (None if none)."""
    raised = []

    def target():
        try:
            fn()
        except BaseException as exc:
            raised.append(exc)

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout=seconds)
    assert not t.is_alive(), f"still running after {seconds} s"
    return raised[0] if raised else None


class TestIngestStage:
    def test_accumulates_without_emitting(self):
        stage = IngestStage(capacity=2)
        assert stage.ingest(pkt(b"A", 10, 1)) is None
        assert stage.ingest(pkt(b"A", 10, 2)) is None
        assert stage.ingest(pkt(b"B", 5, 3)) is None
        assert stage._table == {b"A": 20, b"B": 5}

    def test_flush_on_full_emits_old_entries(self):
        stage = IngestStage(capacity=2)
        for p in (pkt(b"A", 10, 1), pkt(b"A", 10, 2), pkt(b"B", 5, 3)):
            stage.ingest(p)
        batch = stage.ingest(pkt(b"C", 7, 4))
        assert batch is not None
        assert set(batch.records) == {(b"A", 20), (b"B", 5)}
        assert stage._table == {b"C": 7}
        assert batch.sequence_number == 0

    def test_batch_records_are_the_table_pairs_in_order(self):
        stage = IngestStage(capacity=3)
        for p in (pkt(b"C", 1, 1), pkt(b"A", 2, 2), pkt(b"C", 4, 3), pkt(b"B", 8, 4)):
            stage.ingest(p)
        table = tuple(stage._table.items())
        batch = stage.ingest(pkt(b"D", 16, 5))
        assert batch.records == table == ((b"C", 5), (b"A", 2), (b"B", 8))
        assert batch.emitted_at == 5
        assert stage.flush(6).records == ((b"D", 16),)

    def test_single_flow_never_emits(self):
        stage = IngestStage(capacity=4)
        for i in range(1000):
            assert stage.ingest(pkt(b"only", 1, i)) is None

    def test_negative_size_rejected_before_counting(self):
        stage = IngestStage(capacity=4)
        stage.ingest(pkt(b"A", 3, 1))
        with pytest.raises(InvalidInputError, match="negative packet size -1"):
            stage.ingest(TracePacket(b"j" * 13, -1, 2))
        assert (stage.packets_seen, stage.bytes_seen) == (1, 3)
        assert stage._table == {b"A": 3}

    def test_flush_drains_and_second_flush_empty(self):
        stage = IngestStage(capacity=8)
        stage.ingest(pkt(b"A", 3, 1))
        stage.ingest(pkt(b"A", 4, 2))
        first = stage.flush(ts_ns=5)
        assert first.records == ((b"A", 7),)
        second = stage.flush(ts_ns=6)
        assert second.records == ()
        assert second.sequence_number == first.sequence_number + 1

    def test_batch_keys_distinct_and_sequences_increase(self):
        stage = IngestStage(capacity=3)
        rng = np.random.default_rng(1)
        batches = []
        for i in range(500):
            key = f"f{int(rng.integers(12))}".encode()
            out = stage.ingest(pkt(key, 1, i))
            if out:
                batches.append(out)
        batches.append(stage.flush(ts_ns=501))
        seqs = [b.sequence_number for b in batches]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        for b in batches:
            keys = [k for k, _ in b.records]
            assert len(keys) == len(set(keys))


class TestSketchingStage:
    def test_sequence_window_emits_at_capacity(self):
        stage = SketchingStage(small_model(), 8, WindowConfig("sequence", 3))
        assert stage.feed(b"a", 5, ts=1) is None
        assert stage.feed(b"b", 6, ts=2) is None
        env = stage.feed(b"c", 7, ts=3)
        assert env is not None
        sketch = env.sketch()
        assert sketch.cardinality() == 3
        assert sketch.total_value() == 18
        assert stage.flush() is None  # fresh window is empty

    def test_fragmented_flow_counts_once(self):
        stage = SketchingStage(small_model(), 8, WindowConfig("sequence", 3))
        for i in range(10):
            assert stage.feed(b"same", 1, ts=i) is None
        env = stage.flush()
        assert env.sketch().cardinality() == 1
        assert env.sketch().total_value() == 10

    def test_time_window_boundary(self):
        second = 1_000_000_000
        stage = SketchingStage(small_model(), 8, WindowConfig("time", second))
        for i, ts in enumerate(range(100_000_000, 1_000_000_000, 100_000_000)):
            assert stage.feed(f"k{i}".encode(), 4, ts=ts) is None
        env = stage.feed(b"late", 4, ts=1_200_000_000)
        assert env is not None
        assert env.window_start == 0
        assert env.window_end == second
        assert env.sketch().cardinality() == 9
        tail = stage.flush()
        assert tail.sketch().cardinality() == 1

    def test_envelope_membership_squeezed(self):
        stage = SketchingStage(small_model(), 8, WindowConfig("sequence", 2))
        stage.feed(b"a", 5, ts=1)   # cluster 0
        env = stage.feed(b"b", 26, ts=2)  # different cluster
        sketch = env.sketch()
        assert sketch.membership.squeezed
        assert sketch.query(b"a") == 5.0

    def test_window_ids_increment(self):
        stage = SketchingStage(small_model(), 8, WindowConfig("sequence", 1))
        ids = [stage.feed(f"k{i}".encode(), 2, ts=i).window_id
               for i in range(4)]
        assert ids == [0, 1, 2, 3]


class TestEnvelope:
    def test_round_trip(self):
        stage = SketchingStage(small_model(), 8, WindowConfig("sequence", 2),
                               source="src-7")
        stage.feed(b"a", 5, ts=10)
        env = stage.feed(b"b", 26, ts=11)
        env.arrival_ts = 12345
        back = SketchEnvelope.from_bytes(env.to_bytes())
        assert back.source == "src-7"
        assert back.window_id == env.window_id
        assert back.arrival_ts == 12345
        assert back.sketch().state() == env.sketch().state()

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            SketchEnvelope.from_bytes(b"short")

    def test_trailing_bytes_rejected(self):
        stage = SketchingStage(small_model(), 8, WindowConfig("sequence", 1))
        env = stage.feed(b"a", 5, ts=1)
        with pytest.raises(ValueError, match="trailing"):
            SketchEnvelope.from_bytes(env.to_bytes() + b"xx")


class TestSketchStore:
    def put_envelopes(self, store, count, source="s"):
        stage = SketchingStage(small_model(), 8, WindowConfig("sequence", 1),
                               source=source)
        envs = []
        for i in range(count):
            env = stage.feed(f"k{i}".encode(), 9, ts=i)
            env.arrival_ts = (i + 1) * 100
            store.put(env)
            envs.append(env)
        return envs

    def test_put_then_range(self, tmp_path):
        store = SketchStore(str(tmp_path / "store"))
        self.put_envelopes(store, 3)
        assert len(store.range(0, 10_000)) == 3
        assert [e.arrival_ts for e in store.range(150, 250)] == [200]
        assert store.range(5000, 6000) == []

    def test_put_stamps_only_an_unstamped_envelope(self, tmp_path):
        store = SketchStore(str(tmp_path / "store"))
        stage = SketchingStage(small_model(), 8, WindowConfig("sequence", 1))
        fresh = stage.feed(b"a", 5, ts=1)
        assert fresh.arrival_ts == 0
        before = time.time_ns()
        store.put(fresh)
        assert before <= fresh.arrival_ts <= time.time_ns()
        stamped = stage.feed(b"b", 6, ts=2)
        stamped.arrival_ts = 7
        store.put(stamped)
        assert [e.window_id for e in store.range(0, 7)] == [1]

    def test_second_put_of_a_window_refused(self, tmp_path):
        # replacing an envelope would index its file twice
        store = SketchStore(str(tmp_path / "store"))
        self.put_envelopes(store, 1)
        with pytest.raises(FileExistsError, match="s_00000000.env"):
            self.put_envelopes(store, 1)
        assert len(store.range(0, 10_000)) == 1

    def test_range_bounds_validated(self, tmp_path):
        store = SketchStore(str(tmp_path / "store"))
        with pytest.raises(InvalidInputError):
            store.range(10, 5)

    def test_persists_across_reopen(self, tmp_path):
        root = str(tmp_path / "store")
        self.put_envelopes(SketchStore(root), 2)
        reopened = SketchStore(root)
        envs = reopened.range(0, 10_000)
        assert len(envs) == 2
        assert envs[0].sketch().cardinality() == 1

    def test_corrupt_envelope_skipped_with_warning(self, tmp_path, caplog):
        root = str(tmp_path / "store")
        store = SketchStore(root)
        self.put_envelopes(store, 2)
        files = sorted(p for p in (tmp_path / "store").iterdir()
                       if p.suffix == ".env")
        files[0].write_bytes(b"garbage")
        with caplog.at_level(logging.WARNING):
            envs = store.range(0, 10_000)
        assert len(envs) == 1
        assert any("corrupt" in r.message for r in caplog.records)

    def test_envelope_with_trailing_bytes_skipped_with_warning(self, tmp_path, caplog):
        store = SketchStore(str(tmp_path / "store"))
        self.put_envelopes(store, 2)
        files = sorted(p for p in (tmp_path / "store").iterdir()
                       if p.suffix == ".env")
        files[1].write_bytes(files[1].read_bytes() + b"xx")
        with caplog.at_level(logging.WARNING):
            envs = store.range(0, 10_000)
        assert [e.window_id for e in envs] == [0]
        assert any("trailing" in r.message for r in caplog.records)


class TestNetworkWideQuery:
    def fill_store(self, tmp_path):
        store = SketchStore(str(tmp_path / "store"))
        stage = SketchingStage(small_model(), 8, WindowConfig("sequence", 2),
                               source="src-a")
        flows = {b"hot": 30, b"cold": 2, b"warm": 8, b"hot2": 31}
        items = list(flows.items())
        ts = 100
        for (k1, v1), (k2, v2) in (items[:2], items[2:]):
            stage.feed(k1, v1, ts=ts)
            env = stage.feed(k2, v2, ts=ts + 1)
            env.arrival_ts = ts
            store.put(env)
            ts += 100
        return store, flows

    def test_single_envelope_matches_direct_call(self, tmp_path):
        store, flows = self.fill_store(tmp_path)
        keys = list(flows)
        report = network_wide_query(store, 0, 150, "flow-size", {"keys": keys})
        assert report["windows"] == 1
        (per_window,) = report["per_window"].values()
        assert per_window[b"hot".hex()] == 30.0

    def test_cardinality_sums_disjoint_windows(self, tmp_path):
        store, _ = self.fill_store(tmp_path)
        report = network_wide_query(store, 0, 10_000, "cardinality")
        assert report["total"] == 4

    def test_heavy_hitter_union_reports_every_window(self, tmp_path):
        store, flows = self.fill_store(tmp_path)
        report = network_wide_query(store, 0, 10_000, "heavy-hitters",
                                    {"keys": list(flows), "threshold": 20})
        hitters = report["hitters"]
        assert set(hitters) == {b"hot".hex(), b"hot2".hex()}

    def test_heavy_changes_between_windows(self, tmp_path):
        store, flows = self.fill_store(tmp_path)
        report = network_wide_query(store, 0, 10_000, "heavy-changes",
                                    {"keys": list(flows), "threshold": 20})
        (changed,) = report["changes"].values()
        assert b"hot".hex() in changed and b"hot2".hex() in changed

    def test_entropy_per_window(self, tmp_path):
        store, flows = self.fill_store(tmp_path)
        report = network_wide_query(store, 0, 10_000, "entropy",
                                    {"keys": list(flows)})
        assert len(report["per_window"]) == 2
        for h in report["per_window"].values():
            assert h == pytest.approx(1.0)  # two distinct sizes per window

    def test_unknown_task_rejected(self, tmp_path):
        store, _ = self.fill_store(tmp_path)
        with pytest.raises(InvalidInputError):
            network_wide_query(store, 0, 1, "nope")

    def test_missing_params_rejected(self, tmp_path):
        store, _ = self.fill_store(tmp_path)
        with pytest.raises(InvalidInputError):
            network_wide_query(store, 0, 1, "flow-size")
        with pytest.raises(InvalidInputError):
            network_wide_query(store, 0, 1, "heavy-hitters", {"keys": []})


class TestWindowTasks:
    """Each per-window task over sketches stored as built."""

    def sized_window(self, tmp_path):
        sketch = LssSketch(small_model(4, step=10), 100, hash_seed=19, expected_flows=64)
        sizes = {b"a": 100, b"b": 1, b"c": 1, b"d": 35}
        for k, v in sizes.items():
            sketch.insert(k, v)
        return store_windows(tmp_path, [sketch]), sizes

    def test_entropy_formula(self, tmp_path):
        sketch = LssSketch(small_model(1, step=10), 4, hash_seed=23)
        keys = keys_in_slots(4, [0, 0, 1], 23)
        for key, v in zip(keys, [2, 2, 4]):
            sketch.insert(key, v)
        store = store_windows(tmp_path, [sketch])
        report = network_wide_query(store, *ALL_TIME, "entropy", {"keys": keys})
        expected = -(2 / 3 * math.log2(2 / 3) + 1 / 3 * math.log2(1 / 3))
        assert report["per_window"] == {"src-a/0": pytest.approx(expected)}
        assert expected == pytest.approx(0.9183, abs=1e-4)

    def test_entropy_of_identical_estimates_is_zero(self, tmp_path):
        store, _ = self.sized_window(tmp_path)

        def entropy(keys):
            return network_wide_query(store, *ALL_TIME, "entropy", {"keys": keys})["per_window"]

        assert entropy([b"b", b"c"]) == {"src-a/0": 0.0}
        # a window that holds none of the keys has no entropy entry
        assert entropy([b"absent"]) == {}
        assert entropy([]) == {}

    def test_heavy_hitters_threshold_and_order(self, tmp_path):
        store, sizes = self.sized_window(tmp_path)

        def hitters(threshold):
            return network_wide_query(store, *ALL_TIME, "heavy-hitters",
                                      {"keys": list(sizes), "threshold": threshold})["hitters"]

        assert list(hitters(50)) == [b"a".hex()]
        assert hitters(1e9) == {}
        everything = [entry["estimate"] for (entry,) in hitters(0).values()]
        assert len(everything) == 4
        assert everything == sorted(everything, reverse=True)
        with pytest.raises(InvalidInputError):
            hitters(-1)

    def test_repeated_keys_count_once(self, tmp_path):
        windows = [LssSketch(small_model(4, step=10), 100, hash_seed=19) for _ in range(2)]
        for sketch, a in zip(windows, (30, 60)):
            sketch.insert(b"a", a)
            sketch.insert(b"b", 5)
        store = store_windows(tmp_path, windows)

        def query(task, keys):
            return network_wide_query(store, *ALL_TIME, task, {"keys": keys, "threshold": 10})

        for keys in ([b"a", b"a", b"b"], [b"a", b"b"]):
            assert query("entropy", keys)["per_window"] == {"src-a/0": 1.0, "src-a/1": 1.0}
            assert query("heavy-hitters", keys)["hitters"] == {b"a".hex(): [
                {"window": "src-a/0", "estimate": 30.0}, {"window": "src-a/1", "estimate": 60.0}]}
            assert query("heavy-changes", keys)["changes"] == {"src-a/0->1": [b"a".hex()]}
        sizes = query("flow-size", [b"b", b"a", b"b"])["per_window"]["src-a/0"]
        assert list(sizes) == [b"b".hex(), b"a".hex()]

    def test_heavy_changes(self, tmp_path):
        model = small_model(4, step=10)
        windows = [LssSketch(model, 100, hash_seed=19) for _ in range(3)]
        for sketch in windows:
            for k, v in {b"x": 10, b"y": 60}.items():
                sketch.insert(k, v)
        windows[2].insert(b"new", 100)
        store = store_windows(tmp_path, windows)

        def changes(threshold):
            return network_wide_query(store, *ALL_TIME, "heavy-changes",
                                      {"keys": [b"x", b"y", b"new"],
                                       "threshold": threshold})["changes"]

        # identical windows change nothing; a key a window lacks counts as 0
        assert changes(0.0) == {"src-a/0->1": [], "src-a/1->2": [b"new".hex()]}
        assert changes(50) == {"src-a/0->1": [], "src-a/1->2": [b"new".hex()]}
        assert changes(100) == {"src-a/0->1": [], "src-a/1->2": []}


class TestForeignFingerprint:
    """A window whose membership table matches a key's fingerprint, where
    the key itself was never inserted and its bucket is empty."""

    SEED = 21
    M = 16

    def fill_store(self, tmp_path):
        model = small_model(1, step=10)
        # one membership bucket, so a fingerprint match alone is a hit
        first = LssSketch(model, self.M, hash_seed=self.SEED, expected_flows=1)
        held = b"held"
        first.insert(held, 5)
        held_h, held_fp, _ = key_digest(held, self.SEED)
        i = 0
        while True:
            foreign = f"foreign-{i}".encode()
            bucket_h, fp, _ = key_digest(foreign, self.SEED)
            if fp == held_fp and bucket_h % self.M != held_h % self.M:
                break
            i += 1
        second = LssSketch(model, self.M, hash_seed=self.SEED, expected_flows=64)
        second.insert(held, 5)
        second.insert(foreign, 40)
        return store_windows(tmp_path, (first, second)), held, foreign

    def test_per_key_tasks_skip_the_key(self, tmp_path):
        store, held, foreign = self.fill_store(tmp_path)
        params = {"keys": [held, foreign], "threshold": 20}

        def query(task):
            return network_wide_query(store, 0, 10_000, task, params)

        assert query("flow-size")["per_window"] == {
            "src-a/0": {held.hex(): 5.0},
            "src-a/1": {held.hex(): 5.0, foreign.hex(): 40.0},
        }
        entropy = query("entropy")["per_window"]
        assert entropy["src-a/0"] == 0.0 and entropy["src-a/1"] == pytest.approx(1.0)
        assert query("heavy-hitters")["hitters"] == {
            foreign.hex(): [{"window": "src-a/1", "estimate": 40.0}]}
        assert query("heavy-changes")["changes"] == {"src-a/0->1": [foreign.hex()]}

    def test_each_window_decoded_once(self, tmp_path, monkeypatch):
        store, held, foreign = self.fill_store(tmp_path)
        decoded = []
        real = LssSketch.from_bytes.__func__

        def counting(cls, data):
            decoded.append(len(data))
            return real(cls, data)

        monkeypatch.setattr(LssSketch, "from_bytes", classmethod(counting))
        network_wide_query(store, 0, 10_000, "heavy-changes",
                           {"keys": [held, foreign], "threshold": 20})
        assert len(decoded) == 2


class TestBatchQueries:
    """Per-flow tasks read every window through the batch path."""

    def test_keys_digested_once_per_query_and_seed(self, tmp_path, monkeypatch):
        model = small_model(2, step=10)
        keys = [f"q{i}".encode() for i in range(20)]
        sketches = []
        for seed in (5, 5, 6, 5):
            sketch = LssSketch(model, 8, hash_seed=seed)
            for i, key in enumerate(keys[seed:]):
                sketch.insert(key, i)
            sketches.append(sketch)
        store = store_windows(tmp_path, sketches)
        calls = []
        real = pipeline.key_digests

        def counting(batch, seed):
            calls.append((list(batch), seed))
            return real(batch, seed)

        def no_scalar_digest(*args):
            raise AssertionError("a per-key digest on the batch path")

        monkeypatch.setattr(pipeline, "key_digests", counting)
        monkeypatch.setattr(lss, "key_digest", no_scalar_digest)
        for task in ("flow-size", "entropy", "heavy-hitters", "heavy-changes"):
            calls.clear()
            network_wide_query(store, *ALL_TIME, task, {"keys": keys + keys, "threshold": 3})
            assert calls == [(keys, 5), (keys, 6)], task

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.integers(0, 10_000), min_size=1, max_size=60),
           m=st.integers(3, 12))
    def test_entropy_equals_fraction_entropy(self, values, m):
        # few buckets, so most estimates are averages of several flows
        sketch = LssSketch(small_model(3, step=3000), m, hash_seed=7, expected_flows=64)
        keys = [f"e{i}".encode() for i in range(len(values))]
        for key, value in zip(keys, values):
            sketch.insert(key, value)
        keys.append(b"never-inserted")
        exact = [Fraction(*b) for b in map(sketch._bucket, keys) if b is not None]
        with tempfile.TemporaryDirectory() as tmp:
            store = store_windows(Path(tmp), [sketch])
            got = network_wide_query(store, *ALL_TIME, "entropy", {"keys": keys})
        assert got["per_window"] == {"src-a/0": entropy_of_values(exact)}


class TestEndToEnd:
    def test_early_rotation_conserves_value_and_flows(self, tmp_path, caplog):
        # a 128-slot membership table (10 flows per bucket at m=10) fills
        # long before the one time window ends, so the stage rotates early
        # several times; the flow that found the table full goes into the
        # next window only
        packets, totals = generate_packets(3, 600, 1.1, 4.0)
        store = SketchStore(str(tmp_path / "store"))
        with caplog.at_level(logging.WARNING):
            stats = run_pipeline(packets, small_model(5), 10, store,
                                 window=WindowConfig("time", 1 << 62))
        assert any("rotating early" in r.message for r in caplog.records)
        sketches = [e.sketch() for e in store.range(0, 1 << 62)]
        assert len(sketches) > 1
        assert stats.packet_bytes == stats.sketched_value == sum(totals.values())
        assert sum(s.total_value() for s in sketches) == sum(totals.values())
        assert sum(s.cardinality() for s in sketches) == len(totals)

    def test_conservation_and_fifo_small(self, tmp_path):
        packets, totals = generate_packets(9, 400, 1.1, 3.0)
        store = SketchStore(str(tmp_path / "store"))
        stats = run_pipeline(packets, small_model(), 16, store,
                             window=WindowConfig("sequence", 100),
                             ingest_capacity=50, hash_seed=9)
        assert stats.packets == len(packets)
        assert stats.packet_bytes == sum(totals.values())
        assert stats.sketched_value == stats.packet_bytes
        assert stats.fifo_violations == 0
        assert stats.envelopes >= 4
        # a flow fragmented across windows counts once per window
        report = network_wide_query(store, 0, 1 << 62, "cardinality")
        assert report["total"] >= len(totals)
        assert all(c <= 100 for c in report["per_window"].values())

    def test_traffic_reduction_at_flowlet_point(self, tmp_path):
        # 100 packets per flow, 1,000-byte packets
        packets = uniform_packets(2, 500, 100, 1000)
        store = SketchStore(str(tmp_path / "store"))
        stats = run_pipeline(packets, small_model(), 16, store,
                             window=WindowConfig("sequence", 500),
                             ingest_capacity=1000, hash_seed=2)
        assert stats.sketched_value == stats.packet_bytes
        assert stats.traffic_reduction >= 1000

    def test_flowlet_bytes_bounded_by_flush_accounting(self, tmp_path):
        packets, totals = generate_packets(13, 600, 1.1, 3.0)
        store = SketchStore(str(tmp_path / "store"))
        capacity = 50
        stats = run_pipeline(packets, small_model(), 16, store,
                             window=WindowConfig("sequence", 200),
                             ingest_capacity=capacity, hash_seed=13)
        bound = 8 * (len(totals) + stats.flowlet_batches * capacity)
        assert stats.flowlet_bytes <= bound

    def test_envelopes_match_shadow_sketch(self, tmp_path):
        # decoding an emitted window must agree with a sketch the test
        # maintains in-process from the same records
        from flowsketch.lss import LssSketch
        model = small_model()
        stage = SketchingStage(model, 16, WindowConfig("sequence", 50), hash_seed=77)
        shadow = LssSketch(model, 16, hash_seed=77, expected_flows=50)
        packets, _ = generate_packets(14, 120, 1.1, 3.0)
        envelopes = []
        shadow_states = []
        for i, p in enumerate(packets):
            env = stage.feed(p.key, p.size_bytes, ts=i)
            shadow.insert_duplicate(p.key, p.size_bytes)
            if env is not None:
                envelopes.append(env)
                shadow_states.append(shadow.state())
                shadow = LssSketch(model, 16, hash_seed=77, expected_flows=50)
        assert envelopes, "expected at least one rotated window"
        for env, state in zip(envelopes, shadow_states):
            assert env.sketch().state() == state


class TestStageFailure:
    """A failing stage stops run_pipeline with its own error; the other
    stages still reach the end of their streams, so nothing hangs."""

    def test_negative_packet_size_raises_instead_of_hanging(self, tmp_path):
        packets = [TracePacket(b"k" * 13, 5, 1), TracePacket(b"j" * 13, -1, 2)]
        store = SketchStore(str(tmp_path / "store"))
        exc = run_bounded(lambda: run_pipeline(packets, small_model(), 16, store))
        assert isinstance(exc, InvalidInputError)

    def test_ingest_failure_is_raised_after_the_stream_ends(self, tmp_path):
        good, _ = generate_packets(3, 200, 1.1, 3.0)

        def packets():
            yield from good
            raise ValueError("bad trace row")

        store = SketchStore(str(tmp_path / "store"))
        exc = run_bounded(lambda: run_pipeline(packets(), small_model(), 16, store,
                                               ingest_capacity=20))
        assert isinstance(exc, ValueError) and "bad trace row" in str(exc)
        # what reached the sketching stage before the failure is stored
        assert sum(e.sketch().total_value() for e in store.range(*ALL_TIME)) > 0

    def test_store_failure_does_not_block_the_sketching_stage(self, tmp_path):
        # one-flow windows emit more envelopes than the bus queue holds,
        # so the sketching stage blocks unless the failed stage drains
        class BrokenStore:
            def put(self, envelope):
                raise OSError("disk full")

        packets = [TracePacket(f"f{i}".encode(), 4, i) for i in range(300)]
        exc = run_bounded(lambda: run_pipeline(packets, small_model(), 16, BrokenStore(),
                                               window=WindowConfig("sequence", 1),
                                               ingest_capacity=10))
        assert isinstance(exc, OSError)


class TestPinnedOutputs:
    """sha256 of what run_pipeline stores and of the five query reports,
    over a fixed trace and an in-process model, pinned across refactors
    of the pipeline, the sketch and the model's installation."""

    PINS = {
        "sequence": {
            "payloads": "8625508bd03eda7bf82db63ac980f62bbc9c209ceed8240ce1448d69b1ae85bb",
            "reports": "b037e957f892cacb2db1bc6e633c45ec8b640dcbe4bf94d78da41aad5cbf7c1f",
        },
        "time": {
            "payloads": "bbf0ebbe2128c3ba79b98e38965eae3f4423bf501a2f00faf5fe2f74842d7a7a",
            "reports": "0863a1161900c732ee613b4a6bc6ee8465a0d6d3aae0fa490ec07d78f3b8b0af",
        },
    }

    def run(self, tmp_path, window):
        packets, totals = generate_packets(21, 1500, 1.1, 3.0, v_max=200)
        model = train_model(list(totals.values()), 8).with_allocation(150)
        store = SketchStore(str(tmp_path / "store"))
        run_pipeline(packets, model, 150, store, window=window,
                     ingest_capacity=200, hash_seed=21)
        return store, sorted(totals)[::7]

    @staticmethod
    def payload_digest(store):
        h = hashlib.sha256()
        for e in sorted(store.range(*ALL_TIME), key=lambda e: e.window_id):
            h.update(struct.pack("<Qqq", e.window_id, e.window_start, e.window_end))
            h.update(e.payload)
        return h.hexdigest()

    @pytest.mark.parametrize("window", [WindowConfig("sequence", 400),
                                        WindowConfig("time", 500_000)], ids=["sequence", "time"])
    def test_payloads_and_reports(self, tmp_path, window):
        store, keys = self.run(tmp_path, window)
        reports = [network_wide_query(store, *ALL_TIME, task,
                                      {"keys": keys, "threshold": 40})
                   for task in QUERY_TASKS]
        got = {"payloads": self.payload_digest(store),
               "reports": hashlib.sha256(json.dumps(reports, sort_keys=True).encode())
               .hexdigest()}
        assert got == self.PINS[window.mode]
