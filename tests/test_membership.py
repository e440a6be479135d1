import logging

import numpy as np
import pytest
from hypothesis import event, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from flowsketch.hashing import key_digest, key_digests, mix16
from flowsketch.membership import (
    SLOT_BYTES_OPEN,
    SLOT_BYTES_SQUEEZED,
    SLOTS_PER_BUCKET,
    CuckooTable,
    TableFullError,
)


def keys_with_primary_bucket(table, bucket, count, same_alt=False, salt=0):
    """Search keys whose primary bucket is `bucket`; optionally also
    require the alternate bucket to equal the primary (degenerate pair,
    used to force unrecoverable eviction loops)."""
    found = []
    i = salt
    while len(found) < count:
        key = f"probe-{i}".encode()
        fp, i1 = table._fp_and_index(key)
        if i1 == bucket and (not same_alt or table._alt_index(i1, fp) == bucket):
            found.append(key)
        i += 1
    return found


class TestInsertLookup:
    def test_inserted_key_found(self):
        table = CuckooTable(capacity=64, seed=1)
        table.insert(b"flow", 3, 41)
        hit = table.lookup(b"flow")
        assert hit is not None
        assert hit.cluster_index == 3
        assert hit.value == 41

    def test_absent_key_not_found(self):
        table = CuckooTable(capacity=64, seed=1)
        table.insert(b"flow", 3, 41)
        assert table.lookup(b"other-flow") is None

    def test_fifth_key_in_full_bucket_relocates(self):
        table = CuckooTable(num_buckets=16, seed=2)
        bucket = 5
        keys = keys_with_primary_bucket(table, bucket, 5)
        for j, key in enumerate(keys):
            table.insert(key, j, j)
        for j, key in enumerate(keys):
            hit = table.lookup(key)
            assert hit is not None and hit.cluster_index == j

    def test_capacity_error_after_max_kicks(self):
        table = CuckooTable(num_buckets=4, max_kicks=500, seed=3)
        # keys whose two candidate buckets coincide exhaust 4 slots
        keys = keys_with_primary_bucket(table, 0, 5, same_alt=True)
        for key in keys[:4]:
            table.insert(key, 0, 0)
        with pytest.raises(TableFullError):
            table.insert(keys[4], 0, 0)

    def test_failed_kick_chain_leaves_table_unchanged(self):
        # five keys whose candidate buckets are both bucket 0: the fifth
        # kicks until max_kicks, then every displacement is undone
        for seed in range(20):
            table = CuckooTable(num_buckets=2, seed=seed)
            keys = keys_with_primary_bucket(table, 0, 5, same_alt=True)
            for j, key in enumerate(keys[:4]):
                table.insert(key, j, 10 + j)
            before = table.to_bytes(), table._vals.tobytes()
            with pytest.raises(TableFullError):
                table.insert(keys[4], 4, 14)
            assert (table.to_bytes(), table._vals.tobytes()) == before, seed
            assert table.occupied == 4
            for j, key in enumerate(keys[:4]):
                assert table.lookup(key) == (j, 10 + j), seed

    def test_load_factor_capped(self):
        table = CuckooTable(num_buckets=4, max_kicks=500, seed=3)
        with pytest.raises(TableFullError):
            for i in range(16):
                table.insert(f"cap-{i}".encode(), 0, 0)
        assert table.load_factor <= 0.95


class TestSlots:
    def test_raw_index_hash_is_masked(self):
        table = CuckooTable(capacity=64, seed=4)
        table.insert(b"k", 3, 10)
        _, fp, idx_h = key_digest(b"k", 4)
        _, i1 = table._fp_and_index(b"k")
        slot = table._find_slot(fp, idx_h)
        assert slot is not None and slot == table._find_slot(fp, i1)
        assert table._lookup_fp(fp, idx_h) == table._read(slot) == (3, 10)

    def test_write_replaces_payload_and_squeeze_drops_total(self):
        table = CuckooTable(capacity=64, seed=4)
        table.insert(b"k", 0, 10)
        fp, i1 = table._fp_and_index(b"k")
        slot = table._find_slot(fp, i1)
        table._write(slot, 5, 99)
        assert table.lookup(b"k") == (5, 99)
        assert table.occupied == 1
        table.squeeze()
        assert table._read(slot) == (5, None)


    @staticmethod
    def first_empty(table, fp, idx_h):
        i1 = idx_h & table._mask
        for i in (i1, table._alt_index(i1, fp)):
            for s in range(i * SLOTS_PER_BUCKET, (i + 1) * SLOTS_PER_BUCKET):
                if table._fps[s] == 0:
                    return s
        return len(table._fps)

    def test_miss_names_the_slot_insert_claims(self):
        rng = np.random.default_rng(9)
        table = CuckooTable(num_buckets=16, seed=2)
        held = {}
        for i in range(60):
            _, fp, idx_h = key_digest(f"p{i}".encode(), 2)
            probe = table._find_slot(fp, idx_h)
            if fp in held:
                assert probe >= 0 and table._fps[probe] == fp
                continue
            assert probe < 0
            assert ~probe == self.first_empty(table, fp, idx_h)
            if ~probe == len(table._fps):
                continue  # both candidate buckets full: the kick path
            table._insert_fp(fp, idx_h, int(rng.integers(8)), i, probe)
            held[fp] = idx_h, i
            assert table._fps[~probe] == fp and table._read(~probe)[1] == i
        assert table.occupied == len(held) > 0
        for fp, (idx_h, value) in held.items():
            assert table._read(table._find_slot(fp, idx_h))[1] == value

    def test_open_slot_ignores_a_held_fingerprint(self):
        table = CuckooTable(capacity=64, seed=4)
        table.insert(b"k", 1, 10)
        fp, i1 = table._fp_and_index(b"k")
        held = table._find_slot(fp, i1)
        assert ~table._open_slot(fp, i1) == self.first_empty(table, fp, i1) != held
        table.insert(b"k", 2, 20)  # a second entry, as before: lookups see the first
        assert table.occupied == 2
        assert table.lookup(b"k") == (1, 10)


class TestBatchProbe:
    """_lookup_fps finds the slot _lookup_fp finds, for every key."""

    def scalar(self, table, fps, idx_hs):
        return [-1 if hit is None else hit[0]
                for hit in (table._lookup_fp(fp, ih) for fp, ih in zip(fps.tolist(),
                                                                        idx_hs.tolist()))]

    def test_first_match_in_i1_then_i2(self):
        table = CuckooTable(num_buckets=16, seed=3)
        keys = [f"p{i}".encode() for i in range(40)]
        _, fps, idx_hs = key_digests(keys, 3)
        i1 = int(idx_hs[0]) & 15
        i2 = (i1 ^ mix16(int(fps[0]))) & 15
        assert i1 != i2
        fp = int(fps[0])
        # fp twice in i1 behind other entries, and once in i2 ahead of them
        for slot, cluster in ((i2 * 4, 7), (i1 * 4 + 1, 5), (i1 * 4 + 3, 6)):
            table._fps[slot] = fp
            table._cis[slot] = cluster
        table._fps[i1 * 4] = fp ^ 1
        got = table._lookup_fps(fps, idx_hs)
        assert got[0] == 5
        assert got.tolist() == self.scalar(table, fps, idx_hs)
        table._fps[i1 * 4 + 1] = table._fps[i1 * 4 + 3] = 0  # only i2 holds it now
        assert table._lookup_fps(fps[:1], idx_hs[:1]).tolist() == [7]

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scalar_lookup(self, seed):
        table = CuckooTable(capacity=60, seed=seed)
        for i in range(57):
            table.insert(f"k{i}".encode(), i % 9, i)
        _, fps, idx_hs = key_digests([f"k{i}".encode() for i in range(120)], seed)
        expected = self.scalar(table, fps, idx_hs)
        assert table._lookup_fps(fps, idx_hs).tolist() == expected
        back = CuckooTable.from_bytes(table.to_bytes())
        assert back._lookup_fps(fps, idx_hs).tolist() == expected


class TestSqueeze:
    def test_squeeze_empty(self):
        table = CuckooTable(capacity=64, seed=5).squeeze()
        assert table.squeezed
        assert table.lookup(b"x") is None

    def test_squeeze_preserves_cluster_index_drops_value(self):
        table = CuckooTable(capacity=64, seed=5)
        table.insert(b"k", 7, 1234)
        table.squeeze()
        hit = table.lookup(b"k")
        assert hit.cluster_index == 7
        assert hit.value is None

    def test_memory_drops_to_3_of_11(self):
        table = CuckooTable(capacity=64, seed=5)
        before = table.memory_bytes()
        after = table.squeeze().memory_bytes()
        assert after * SLOT_BYTES_OPEN == before * SLOT_BYTES_SQUEEZED
        assert after <= before * 3 / 11

    def test_no_inserts_after_squeeze(self):
        table = CuckooTable(capacity=64, seed=5).squeeze()
        with pytest.raises(RuntimeError):
            table.insert(b"k", 0, 0)


class TestOracleEquivalence:
    def test_against_exact_map(self, caplog):
        """10^5 random inserts and lookups vs a dict; fingerprint-collision
        keys are logged and excluded, everything else must agree exactly."""
        rng = np.random.default_rng(6)
        table = CuckooTable(capacity=40_000, seed=6)

        # identify keys that would collide on (fingerprint, buckets)
        universe = [f"key-{i}".encode() for i in range(30_000)]
        by_fp = {}
        excluded = set()
        for key in universe:
            fp, i1 = table._fp_and_index(key)
            i2 = table._alt_index(i1, fp)
            for other, oi1, oi2 in by_fp.get(fp, ()):
                if {i1, i2} & {oi1, oi2}:
                    excluded.add(key)
                    excluded.add(other)
            by_fp.setdefault(fp, []).append((key, i1, i2))
        if excluded:
            logging.getLogger(__name__).info(
                "excluding %d fingerprint-collision keys", len(excluded))

        shadow = {}
        for _ in range(100_000):
            key = universe[int(rng.integers(len(universe)))]
            if key in excluded:
                continue
            if rng.random() < 0.5:
                if key not in shadow:
                    payload = (int(rng.integers(0, 200)), int(rng.integers(0, 1 << 40)))
                    table.insert(key, *payload)
                    shadow[key] = payload
            else:
                hit = table.lookup(key)
                if key in shadow:
                    assert hit is not None
                    assert (hit.cluster_index, hit.value) == shadow[key]
                else:
                    assert hit is None
        assert table.occupied == len(shadow)
        for key, payload in shadow.items():
            hit = table.lookup(key)
            assert (hit.cluster_index, hit.value) == payload


class TestStatisticalProperties:
    def test_false_positive_rate_within_bound(self):
        table = CuckooTable(num_buckets=4096, max_kicks=500, seed=7)
        target = int(4096 * 4 * 0.9)
        for i in range(target):
            table.insert(f"member-{i}".encode(), 1, 0)
        probes = 1_000_000
        false_positives = sum(
            1 for i in range(probes)
            if table.lookup(f"absent-{i}".encode()) is not None
        )
        assert false_positives / probes <= 2 * (8 / 65536)

    def test_fill_to_09_load(self):
        successes = 0
        for seed in range(100):
            table = CuckooTable(num_buckets=256, max_kicks=500, seed=seed)
            target = int(256 * 4 * 0.9)
            try:
                for i in range(target):
                    table.insert(f"fill-{seed}-{i}".encode(), 0, 0)
                successes += 1
            except TableFullError:
                pass
        assert successes >= 99


class TestSerialization:
    def test_round_trip(self):
        # an open table travels in its read-only form: the cached totals
        # stay behind and the decoded table is squeezed
        table = CuckooTable(capacity=100, seed=8)
        for i in range(50):
            table.insert(f"k{i}".encode(), i % 7, i * 11)
        data = table.to_bytes()
        back = CuckooTable.from_bytes(data)
        assert back.squeezed
        assert back.occupied == table.occupied
        for i in range(50):
            assert back.lookup(f"k{i}".encode()) == (i % 7, None)
        assert back.to_bytes() == data
        assert table.squeeze().to_bytes() == data

    def test_squeezed_round_trip(self):
        table = CuckooTable(capacity=100, seed=8)
        table.insert(b"a", 3, 9)
        table.squeeze()
        back = CuckooTable.from_bytes(table.to_bytes())
        assert back.squeezed
        assert back.lookup(b"a").cluster_index == 3

    def test_truncated_rejected(self):
        table = CuckooTable(capacity=100, seed=8)
        data = table.to_bytes()
        with pytest.raises(ValueError):
            CuckooTable.from_bytes(data[: len(data) // 2])

    def test_trailing_bytes_rejected(self):
        data = CuckooTable(capacity=100, seed=8).to_bytes()
        with pytest.raises(ValueError, match="trailing"):
            CuckooTable.from_bytes(data + b"xx")

    def test_open_form_rejected(self):
        data = bytearray(CuckooTable(capacity=100, seed=8).to_bytes())
        assert data[5] == 1
        data[5] = 0
        with pytest.raises(ValueError, match="squeezed byte 0 at offset 5"):
            CuckooTable.from_bytes(bytes(data))

    def test_non_power_of_two_buckets_rejected(self):
        head = CuckooTable._HEADER.pack(CuckooTable._MAGIC, 1, 1, 500, 3, 8)
        with pytest.raises(ValueError, match="power of two, got 3"):
            CuckooTable.from_bytes(head + bytes(3 * 3 * 4))

    def test_decoded_table_has_a_squeezed_tables_fields(self):
        # from_bytes sets the fields itself; a random stream is the one
        # thing a read-only table does without
        table = CuckooTable(capacity=100, max_kicks=77, seed=8)
        for i in range(50):
            table.insert(f"k{i}".encode(), i % 7, i * 11)
        back = CuckooTable.from_bytes(table.to_bytes())
        squeezed = table.squeeze()
        assert set(vars(back)) == set(vars(squeezed))
        for name, value in vars(squeezed).items():
            if name != "_rng":
                assert getattr(back, name) == value, name
        with pytest.raises(RuntimeError, match="squeezed"):
            back.insert(b"new", 1)

    def test_zero_buckets_rejected(self):
        head = CuckooTable._HEADER.pack(CuckooTable._MAGIC, 1, 1, 500, 0, 8)
        with pytest.raises(ValueError, match="power of two"):
            CuckooTable.from_bytes(head)


def test_fingerprint_never_zero():
    for i in range(20_000):
        _, fp, _ = key_digest(f"z{i}".encode(), seed=17)
        assert fp != 0


def test_alt_index_is_involution():
    table = CuckooTable(num_buckets=1024, seed=9)
    rng = np.random.default_rng(9)
    for _ in range(1000):
        fp = int(rng.integers(1, 1 << 16))
        i1 = int(rng.integers(0, 1024))
        i2 = table._alt_index(i1, fp)
        assert table._alt_index(i2, fp) == i1


def _screened_pool(table, salt, count, degenerate):
    """count keys that no other pool key shares a fingerprint and a
    candidate bucket with, so the table cannot merge two of them; with
    degenerate, only keys whose two candidate buckets are both bucket 0."""
    pool, seen = [], []
    i = 0
    while len(pool) < count:
        key = f"{salt}-{i}".encode()
        i += 1
        fp, i1 = table._fp_and_index(key)
        buckets = {i1, table._alt_index(i1, fp)}
        if degenerate and buckets != {0}:
            continue
        if any(fp == ofp and buckets & obuckets for ofp, obuckets in seen):
            continue
        seen.append((fp, buckets))
        pool.append(key)
    return pool


_SM_TABLE = dict(num_buckets=4, max_kicks=16, seed=7)
# six keys confined to bucket 0 make a fifth of them fail its kick chain
_SM_POOL = (_screened_pool(CuckooTable(**_SM_TABLE), "gen", 14, False)
            + _screened_pool(CuckooTable(**_SM_TABLE), "deg", 6, True))


class CuckooTableMachine(RuleBasedStateMachine):
    """CuckooTable against a dict oracle: inserts of new keys, lookups,
    failed inserts that leave the table as it was, and the to_bytes /
    from_bytes round trip."""

    def __init__(self):
        super().__init__()
        self.table = CuckooTable(**_SM_TABLE)
        self.oracle = {}

    def snapshot(self):
        return self.table.to_bytes(), self.table._vals.tobytes(), self.table.occupied

    @rule(key=st.sampled_from(_SM_POOL), cluster_index=st.integers(0, 255),
          value=st.integers(0, (1 << 64) - 1))
    def insert(self, key, cluster_index, value):
        if key in self.oracle:
            return
        before = self.snapshot()
        try:
            self.table.insert(key, cluster_index, value)
        except TableFullError as exc:
            event("kick chain failed" if "displacements" in str(exc) else "load cap reached")
            assert self.snapshot() == before
            return
        self.oracle[key] = (cluster_index, value)

    @rule(key=st.sampled_from(_SM_POOL))
    def lookup(self, key):
        hit = self.table.lookup(key)
        assert (None if hit is None else tuple(hit)) == self.oracle.get(key)

    @rule()
    def round_trip(self):
        blob = self.table.to_bytes()
        back = CuckooTable.from_bytes(blob)
        assert back.to_bytes() == blob
        assert back.occupied == len(self.oracle)
        for key in _SM_POOL:
            expected = self.oracle.get(key)
            hit = back.lookup(key)
            assert (None if hit is None else tuple(hit)) == (
                None if expected is None else (expected[0], None))

    @invariant()
    def occupancy_matches(self):
        assert self.table.occupied == len(self.oracle)


CuckooTableMachine.TestCase.settings = settings(max_examples=150, stateful_step_count=40,
                                                deadline=None)
TestCuckooTableMachine = CuckooTableMachine.TestCase
