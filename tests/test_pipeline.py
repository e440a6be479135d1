import logging

import numpy as np
import pytest

from flowsketch.clustering import ClusterModel, InvalidInputError
from flowsketch.hashing import key_digest
from flowsketch.lss import LssSketch
from flowsketch.pipeline import (
    FlowRecord,
    IngestStage,
    SketchEnvelope,
    SketchStore,
    SketchingStage,
    WindowConfig,
    network_wide_query,
    run_pipeline,
)
from flowsketch.traces import TracePacket, generate_packets, uniform_packets


def small_model(k=4):
    centers = tuple(float(8 * (i + 1)) for i in range(k))
    total = sum(centers)
    return ClusterModel(centers=centers, entropy=tuple([0.5] * k),
                        weight=tuple(c / total for c in centers),
                        density=tuple([1.0 / k] * k))


def pkt(key, size, ts=0):
    return TracePacket(key=key, size_bytes=size, ts_ns=ts)


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
        assert {(r.key, r.value) for r in batch.records} == {(b"A", 20), (b"B", 5)}
        assert stage._table == {b"C": 7}
        assert batch.sequence_number == 0

    def test_single_flow_never_emits(self):
        stage = IngestStage(capacity=4)
        for i in range(1000):
            assert stage.ingest(pkt(b"only", 1, i)) is None

    def test_flush_drains_and_second_flush_empty(self):
        stage = IngestStage(capacity=8)
        stage.ingest(pkt(b"A", 3, 1))
        stage.ingest(pkt(b"A", 4, 2))
        first = stage.flush(ts_ns=5)
        assert {(r.key, r.value) for r in first.records} == {(b"A", 7)}
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
            keys = [r.key for r in b.records]
            assert len(keys) == len(set(keys))


class TestSketchingStage:
    def test_sequence_window_emits_at_capacity(self):
        stage = SketchingStage(small_model(), 8, WindowConfig("sequence", 3))
        assert stage.feed(FlowRecord(b"a", 5), ts=1) is None
        assert stage.feed(FlowRecord(b"b", 6), ts=2) is None
        env = stage.feed(FlowRecord(b"c", 7), ts=3)
        assert env is not None
        sketch = env.sketch()
        assert sketch.cardinality() == 3
        assert sketch.total_value() == 18
        assert stage.flush() is None  # fresh window is empty

    def test_fragmented_flow_counts_once(self):
        stage = SketchingStage(small_model(), 8, WindowConfig("sequence", 3))
        for i in range(10):
            assert stage.feed(FlowRecord(b"same", 1), ts=i) is None
        env = stage.flush()
        assert env.sketch().cardinality() == 1
        assert env.sketch().total_value() == 10

    def test_time_window_boundary(self):
        second = 1_000_000_000
        stage = SketchingStage(small_model(), 8, WindowConfig("time", second))
        for i, ts in enumerate(range(100_000_000, 1_000_000_000, 100_000_000)):
            assert stage.feed(FlowRecord(f"k{i}".encode(), 4), ts=ts) is None
        env = stage.feed(FlowRecord(b"late", 4), ts=1_200_000_000)
        assert env is not None
        assert env.window_start == 0
        assert env.window_end == second
        assert env.sketch().cardinality() == 9
        tail = stage.flush()
        assert tail.sketch().cardinality() == 1

    def test_envelope_membership_squeezed(self):
        stage = SketchingStage(small_model(), 8, WindowConfig("sequence", 2))
        stage.feed(FlowRecord(b"a", 5), ts=1)   # cluster 0
        env = stage.feed(FlowRecord(b"b", 26), ts=2)  # different cluster
        sketch = env.sketch()
        assert sketch.membership.squeezed
        assert sketch.query(b"a") == 5.0

    def test_window_ids_increment(self):
        stage = SketchingStage(small_model(), 8, WindowConfig("sequence", 1))
        ids = [stage.feed(FlowRecord(f"k{i}".encode(), 2), ts=i).window_id
               for i in range(4)]
        assert ids == [0, 1, 2, 3]


class TestEnvelope:
    def test_round_trip(self):
        stage = SketchingStage(small_model(), 8, WindowConfig("sequence", 2),
                               source="src-7")
        stage.feed(FlowRecord(b"a", 5), ts=10)
        env = stage.feed(FlowRecord(b"b", 26), ts=11)
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
        env = stage.feed(FlowRecord(b"a", 5), ts=1)
        with pytest.raises(ValueError, match="trailing"):
            SketchEnvelope.from_bytes(env.to_bytes() + b"xx")


class TestSketchStore:
    def put_envelopes(self, store, count, source="s"):
        stage = SketchingStage(small_model(), 8, WindowConfig("sequence", 1),
                               source=source)
        envs = []
        for i in range(count):
            env = stage.feed(FlowRecord(f"k{i}".encode(), 9), ts=i)
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
            stage.feed(FlowRecord(k1, v1), ts=ts)
            env = stage.feed(FlowRecord(k2, v2), ts=ts + 1)
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


class TestForeignFingerprint:
    """A window whose membership table matches a key's fingerprint, where
    the key itself was never inserted and its bucket is empty."""

    SEED = 21
    M = 16

    def fill_store(self, tmp_path):
        model = ClusterModel(centers=(10.0,), entropy=(0.0,), weight=(1.0,), density=(1.0,))
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
        store = SketchStore(str(tmp_path / "store"))
        for wid, sketch in enumerate((first, second)):
            sketch.membership.squeeze()
            store.put(SketchEnvelope(payload=sketch.to_bytes(), source="src-a", window_id=wid,
                                     window_start=wid, window_end=wid,
                                     arrival_ts=100 * (wid + 1)))
        return store, held, foreign

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
        stage = SketchingStage(model, 16, WindowConfig("sequence", 50),
                               hash_seed=77, expected_flows=50)
        shadow = LssSketch(model, 16, hash_seed=77, expected_flows=50)
        packets, _ = generate_packets(14, 120, 1.1, 3.0)
        envelopes = []
        shadow_states = []
        for i, p in enumerate(packets):
            env = stage.feed(FlowRecord(p.key, p.size_bytes), ts=i)
            shadow.insert_duplicate(p.key, p.size_bytes)
            if env is not None:
                envelopes.append(env)
                shadow_states.append(shadow.state())
                shadow = LssSketch(model, 16, hash_seed=77, expected_flows=50)
        assert envelopes, "expected at least one rotated window"
        for env, state in zip(envelopes, shadow_states):
            assert env.sketch().state() == state
