import hashlib
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsketch import lss
from flowsketch.baselines import DenseMapping, autoencoder_oracle
from flowsketch.clustering import ClusterModel, InvalidInputError, allocate_buckets
from flowsketch.hashing import key_digest, key_digests
from flowsketch.lss import BucketUnderflowError, KeyNotFoundError, LssSketch, sketch_bytes
from flowsketch.membership import CuckooTable, TableFullError
from flowsketch.traces import generate_packets


def two_center_model(lo=15.0, hi=80.0):
    total = lo + hi
    return ClusterModel(centers=(lo, hi), entropy=(0.5, 0.5),
                        weight=(lo / total, hi / total), density=(0.5, 0.5))


def single_cluster_model(center=10.0):
    return ClusterModel(centers=(center,), entropy=(0.0,), weight=(1.0,),
                        density=(1.0,))


def uniform_model(k):
    centers = tuple(float(10 * (i + 1)) for i in range(k))
    total = sum(centers)
    return ClusterModel(centers=centers, entropy=tuple([0.5] * k),
                        weight=tuple(c / total for c in centers),
                        density=tuple([1.0 / k] * k))


def keys_for_slots(m, wanted, seed, salt=""):
    """Find distinct keys hashing to the requested slots of an m-bucket
    array (shared hash, slot = bucket_hash % m)."""
    out = []
    i = 0
    for slot in wanted:
        while True:
            key = f"{salt}want{len(out)}-{i}".encode()
            i += 1
            if key_digest(key, seed)[0] % m == slot:
                out.append(key)
                break
    return out


def merge_free_keys(n, seed, capacity, salt="mf"):
    """n keys whose (fingerprint, candidate buckets) never overlap in a
    table sized for capacity, so the table cannot merge two flows."""
    table = CuckooTable(capacity=capacity, seed=seed)
    keys, taken = [], {}
    i = 0
    while len(keys) < n:
        key = f"{salt}-{i}".encode()
        i += 1
        fp, i1 = table._fp_and_index(key)
        buckets = {i1, table._alt_index(i1, fp)}
        if any(buckets & other for other in taken.get(fp, ())):
            continue
        taken.setdefault(fp, []).append(buckets)
        keys.append(key)
    return keys


FRAGMENT_KEYS = merge_free_keys(30, seed=31, capacity=64)


def foreign_fingerprint_sketch(seed=13, m=64):
    """A sketch holding one key in a one-bucket membership table, plus a
    key never inserted whose fingerprint matches the held one and whose
    own bucket is empty."""
    sketch = LssSketch(single_cluster_model(), m, hash_seed=seed, expected_flows=1)
    held = b"held"
    sketch.insert(held, 5)
    held_h, held_fp, _ = key_digest(held, seed)
    i = 0
    while True:
        key = f"foreign-{i}".encode()
        bucket_h, fp, _ = key_digest(key, seed)
        if fp == held_fp and bucket_h % m != held_h % m:
            return sketch, held, key
        i += 1


def crafted_blob(centers, allocation, m, width=32, flags=LssSketch._FLAG_MEMBERSHIP):
    """Sketch wire bytes for a given layout: empty buckets and an empty
    64-flow membership table."""
    head = LssSketch._HEADER.pack(LssSketch._MAGIC, 1, flags, len(centers), m, 0, width)
    table = CuckooTable(capacity=64).to_bytes()
    return (head + np.asarray(centers, dtype="<f4").tobytes()
            + struct.pack(f"<{len(allocation)}I", *allocation)
            + bytes(2 * m * (width // 8)) + struct.pack("<I", len(table)) + table)


class TestConstruction:
    def test_equal_weights_split_arrays(self):
        model = ClusterModel(centers=(10.0, 20.0), entropy=(0.5, 0.5),
                             weight=(0.5, 0.5), density=(0.5, 0.5))
        sketch = LssSketch(model, 10)
        assert sketch.allocation == [5, 5]
        assert sketch.total_value() == 0
        assert sketch.cardinality() == 0

    def test_default_dimensioning(self):
        model = uniform_model(30)
        sketch = LssSketch(model, 1000)
        assert sum(sketch.allocation) == 1000

    def test_m_below_k_rejected(self):
        with pytest.raises(InvalidInputError):
            LssSketch(two_center_model(), 1)

    def test_cluster_count_cap(self):
        with pytest.raises(InvalidInputError):
            LssSketch(uniform_model(257), 300)

    def test_model_allocation_is_used(self):
        model = uniform_model(5).with_allocation(50, policy="uniform")
        sketch = LssSketch(model, 50)
        assert sketch.allocation == [10] * 5
        assert sketch.allocation != allocate_buckets(model, 50)

    def test_model_allocation_for_other_m_rejected(self):
        model = uniform_model(5).with_allocation(40)
        with pytest.raises(InvalidInputError, match="m=50"):
            LssSketch(model, 50)


class TestInsertQuery:
    def test_forced_collision_averages(self):
        # both keys land in cluster 0's single bucket: {35, 2} -> 17.5
        sketch = LssSketch(two_center_model(), 2, hash_seed=11)
        sketch.insert(b"f3", 18)
        sketch.insert(b"f4", 17)
        assert sketch.state()[0][0] == (35, 2)
        assert sketch.query(b"f3") == 17.5
        assert sketch.query(b"f4") == 17.5

    def test_lone_key_exact(self):
        sketch = LssSketch(two_center_model(), 2, hash_seed=11)
        sketch.insert(b"fA", 42)
        assert sketch.query(b"fA") == 42.0

    def test_identical_values_exact_under_collisions(self):
        sketch = LssSketch(single_cluster_model(), 1, hash_seed=11)
        for i in range(50):
            sketch.insert(f"same-{i}".encode(), 7)
        for i in range(50):
            assert sketch.query(f"same-{i}".encode()) == 7.0

    def test_query_absent_raises(self):
        sketch = LssSketch(two_center_model(), 2, hash_seed=11)
        with pytest.raises(KeyNotFoundError):
            sketch.query(b"never")

    def test_negative_value_rejected(self):
        sketch = LssSketch(two_center_model(), 2, hash_seed=11)
        with pytest.raises(InvalidInputError):
            sketch.insert(b"x", -1)
        with pytest.raises(InvalidInputError):
            sketch.insert_duplicate(b"x", -1)

    @pytest.mark.parametrize("value", [1.0, 2.5, True, False, "3", None])
    def test_non_integer_values_rejected(self, value):
        sketch = LssSketch(two_center_model(), 2, hash_seed=11)
        for insert in (sketch.insert, sketch.insert_duplicate):
            with pytest.raises(TypeError):
                insert(b"x", value)
        assert sketch.cardinality() == 0
        assert sketch.membership.occupied == 0

    def test_numpy_ints_stored_as_python_ints(self):
        sketch = LssSketch(two_center_model(), 2, hash_seed=11)
        sketch.insert(b"a", np.int64(18))
        sketch.insert_duplicate(b"b", np.uint8(10))
        sketch.insert_duplicate(b"b", np.int32(7))
        assert sketch.total_value() == 35
        assert all(type(v) is int and type(c) is int
                   for buckets in sketch.state() for v, c in buckets)

    def test_small_instance_matches_dense_oracle(self):
        # four keys paired into two buckets: {3,5} -> 4, {7,9} -> 8
        m = 2
        seed = 13
        keys = keys_for_slots(m, [0, 0, 1, 1], seed)
        values = [3, 5, 7, 9]
        sketch = LssSketch(single_cluster_model(), m, hash_seed=seed)
        for key, v in zip(keys, values):
            sketch.insert(key, v)
        assignment = [key_digest(k, seed)[0] % m for k in keys]
        oracle = autoencoder_oracle(DenseMapping(assignment, m), values)
        assert oracle == [Fraction(4), Fraction(4), Fraction(8), Fraction(8)]
        for key, expected in zip(keys, oracle):
            assert sketch.query_exact(key) == expected


class TestInsertDuplicate:
    def test_same_cluster_accumulates(self):
        sketch = LssSketch(two_center_model(), 2, hash_seed=11)
        sketch.insert_duplicate(b"f", 10)
        sketch.insert_duplicate(b"f", 10)
        assert sketch.state()[0][0] == (20, 1)
        assert sketch.query(b"f") == 20.0

    def test_growth_moves_flow_between_arrays(self):
        sketch = LssSketch(two_center_model(), 2, hash_seed=11)
        sketch.insert_duplicate(b"f", 10)
        sketch.insert_duplicate(b"f", 90)
        assert sketch.state() == [[(0, 0)], [(100, 1)]]
        assert sketch.query(b"f") == 100.0

    def test_fragmentation_equivalent_to_totals(self):
        # any fragmentation must leave the same buckets as one-shot totals
        rng = np.random.default_rng(21)
        model = uniform_model(8)
        for trial in range(20):
            n = 200
            keys = [f"t{trial}-k{i}".encode() for i in range(n)]
            totals = rng.integers(1, 120, size=n)
            fragments = []
            for key, total in zip(keys, totals):
                parts = int(min(rng.integers(1, 6), total))
                if parts > 1:
                    cuts = np.sort(rng.choice(int(total) - 1, size=parts - 1,
                                              replace=False)) + 1
                else:
                    cuts = np.array([], dtype=np.int64)
                bounds = np.concatenate(([0], cuts, [total]))
                for piece in np.diff(bounds):
                    fragments.append((key, int(piece)))
            order = rng.permutation(len(fragments))
            incremental = LssSketch(model, 64, hash_seed=31, expected_flows=n)
            for idx in order:
                key, piece = fragments[idx]
                incremental.insert_duplicate(key, piece)
            oneshot = LssSketch(model, 64, hash_seed=31, expected_flows=n)
            for key, total in zip(keys, totals):
                oneshot.insert(key, int(total))
            assert incremental.state() == oneshot.state()
            assert incremental.cardinality() == n

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_any_fragmentation_equals_one_shot(self, data):
        totals = data.draw(st.lists(st.integers(0, 300), min_size=1,
                                    max_size=len(FRAGMENT_KEYS)), label="totals")
        fragments = []
        for key, total in zip(FRAGMENT_KEYS, totals):
            cuts = data.draw(st.lists(st.integers(0, total), max_size=5), label="cuts")
            bounds = [0, *sorted(cuts), total]
            fragments.extend((key, hi - lo) for lo, hi in zip(bounds, bounds[1:]))
        fragments = data.draw(st.permutations(fragments), label="order")
        model = uniform_model(4)
        incremental = LssSketch(model, 12, hash_seed=31, expected_flows=64)
        for key, piece in fragments:
            incremental.insert_duplicate(key, piece)
        oneshot = LssSketch(model, 12, hash_seed=31, expected_flows=64)
        for key, total in zip(FRAGMENT_KEYS, totals):
            oneshot.insert(key, total)
        assert incremental.state() == oneshot.state()
        assert incremental.cardinality() == len(totals)

    def test_conservation_through_remaps(self):
        rng = np.random.default_rng(22)
        model = uniform_model(5)
        sketch = LssSketch(model, 25, hash_seed=7, expected_flows=100)
        total = 0
        for i in range(500):
            key = f"k{i % 40}".encode()
            v = int(rng.integers(0, 30))
            sketch.insert_duplicate(key, v)
            total += v
            assert sketch.total_value() == total

    def test_underflow_from_merged_fingerprints(self):
        # same fingerprint and bucket: the table merges the two flows,
        # and the re-homing step must refuse to strip the shared bucket
        model = two_center_model()
        sketch = LssSketch(model, 2, hash_seed=11)
        table = sketch.membership
        fp, i1 = table._fp_and_index(b"real")
        sketch.insert_duplicate(b"real", 10)
        # forge a merged cache entry far above what the bucket holds
        slot = table._find_slot(fp, i1)
        table._write(slot, 0, 10_000)
        with pytest.raises(BucketUnderflowError):
            sketch.insert_duplicate(b"real", 90)


class TestQueryTasks:
    def test_cardinality_counts_distinct(self):
        sketch = LssSketch(uniform_model(4), 100, hash_seed=19, expected_flows=64)
        for k, v in {b"a": 100, b"b": 1, b"c": 1, b"d": 35}.items():
            sketch.insert(k, v)
        assert sketch.cardinality() == 4
        fragmented = LssSketch(uniform_model(4), 100, hash_seed=19)
        for _ in range(5):
            fragmented.insert_duplicate(b"one", 3)
        assert fragmented.cardinality() == 1


class TestSingleLookup:
    def build(self):
        rng = np.random.default_rng(52)
        sketch = LssSketch(uniform_model(5), 40, hash_seed=29, expected_flows=256)
        inserted = [f"h{i}".encode() for i in range(150)]
        for key in inserted:
            for _ in range(int(rng.integers(1, 4))):
                try:
                    sketch.insert_duplicate(key, int(rng.integers(0, 60)))
                except BucketUnderflowError:
                    pass
        return sketch, inserted + [f"absent{i}".encode() for i in range(150)]

    def test_estimates_match_per_key_queries(self):
        sketch, keys = self.build()
        reference = {}
        for k in keys:
            try:
                reference[k] = sketch.query(k)
            except KeyNotFoundError:
                pass
        assert reference
        found = list(sketch.buckets(key_digests(keys, 29)))
        assert found == [sketch._bucket(k) for k in keys]
        estimates = {k: b[0] / b[1] for k, b in zip(keys, found) if b is not None}
        assert estimates == reference
        assert list(estimates) == list(reference)
        assert {k for k in keys if sketch.contains(k)} == set(reference)

    def test_query_equals_exact_fraction(self):
        sketch, keys = self.build()
        held = [k for k in keys if sketch.contains(k)]
        assert held
        for k in held:
            est = sketch.query(k)
            assert est == float(sketch.query_exact(k))
            assert type(est) is float

    def test_foreign_fingerprint_on_empty_bucket(self):
        sketch, held, foreign = foreign_fingerprint_sketch()
        # the membership table alone cannot tell the two keys apart
        assert sketch.membership.lookup(foreign) is not None
        assert not sketch.contains(foreign)
        with pytest.raises(KeyNotFoundError):
            sketch.query(foreign)
        with pytest.raises(KeyNotFoundError):
            sketch.query_exact(foreign)
        assert sketch.query(held) == 5.0


# small values land in every cluster; large ones saturate 16-bit counters
BATCH_VALUES = st.one_of(st.integers(0, 60), st.integers(60_000, 200_000))


def assert_batch_matches_scalar(sketch, keys):
    """buckets over keys equal _bucket key by key; a key whose bucket
    is None is one query rejects, and any other key's bucket average
    is query's answer and query_exact's value."""
    found = list(sketch.buckets(key_digests(keys, sketch.hash_seed)))
    assert found == [sketch._bucket(k) for k in keys]
    for k, bucket in zip(keys, found):
        if bucket is None:
            with pytest.raises(KeyNotFoundError):
                sketch.query(k)
        else:
            assert sketch.query(k) == bucket[0] / bucket[1] == float(sketch.query_exact(k))


class TestBatchRead:
    """The batch read (key_digests + buckets) answers exactly as the
    scalar _bucket path, on open and decoded sketches."""

    @settings(max_examples=80, deadline=None)
    @given(fragments=st.lists(st.tuples(st.integers(0, 24), BATCH_VALUES), max_size=80),
           twice=st.lists(st.tuples(st.integers(0, 24), BATCH_VALUES), max_size=4),
           absent=st.integers(0, 30), width=st.sampled_from([16, 32, 64]),
           hash_seed=st.integers(0, 2**32), m=st.integers(5, 40))
    def test_matches_scalar_reads(self, fragments, twice, absent, width, hash_seed, m):
        sketch = LssSketch(uniform_model(5), m, hash_seed=hash_seed, counter_width=width,
                           expected_flows=32)
        for i, value in fragments:
            try:
                sketch.insert_duplicate(f"h{i}".encode(), value)
            except BucketUnderflowError:
                pass
        for i, value in twice:  # a second membership entry under a held fingerprint
            try:
                sketch.insert(f"h{i}".encode(), value)
            except TableFullError:  # both candidate buckets hold the fingerprint already
                pass
        keys = [f"h{i}".encode() for i, _ in fragments + twice]  # repeats included
        keys += [f"absent{i}".encode() for i in range(absent)]
        assert_batch_matches_scalar(sketch, keys)
        decoded = LssSketch.from_bytes(sketch.to_bytes())
        assert_batch_matches_scalar(decoded, keys)

    def test_saturated_width16_decode(self):
        sketch = LssSketch(uniform_model(2), 2, hash_seed=4, counter_width=16)
        keys = [f"s{i}".encode() for i in range(6)]
        for key in keys:
            sketch.insert(key, 50_000)
        decoded = LssSketch.from_bytes(sketch.to_bytes())
        assert decoded.saturated
        assert max(v for v, _ in filter(None, decoded.buckets(key_digests(keys, 4)))) == 65535
        assert_batch_matches_scalar(decoded, keys + [b"gone"])

    @pytest.mark.parametrize("decode", [False, True], ids=["open", "decoded"])
    def test_foreign_fingerprint_on_empty_bucket(self, decode):
        sketch, held, foreign = foreign_fingerprint_sketch()
        if decode:
            sketch = LssSketch.from_bytes(sketch.to_bytes())
        assert sketch.membership.lookup(foreign) is not None
        assert list(sketch.buckets(key_digests([held, foreign], 13))) == [(5, 1), None]
        assert_batch_matches_scalar(sketch, [foreign, held, foreign])

    def test_insert_twice_reads_the_first_entry(self):
        sketch = LssSketch(two_center_model(), 4, hash_seed=8)
        sketch.insert(b"k", 5)
        sketch.insert(b"k", 100)
        assert sketch.membership.occupied == 2
        assert list(sketch.buckets(key_digests([b"k"], 8))) == [sketch._bucket(b"k")]
        assert_batch_matches_scalar(LssSketch.from_bytes(sketch.to_bytes()), [b"k"])

    def test_any_batch_size(self, monkeypatch):
        sketch, keys = TestSingleLookup().build()
        for batch in (1, 7, 299, 300):
            monkeypatch.setattr(lss, "BATCH", batch)
            assert_batch_matches_scalar(sketch, keys)
            assert_batch_matches_scalar(LssSketch.from_bytes(sketch.to_bytes()), keys)

    def test_empty_key_list(self):
        sketch, _ = TestSingleLookup().build()
        assert list(sketch.buckets(key_digests([], 29))) == []


class TestStatisticalProperties:
    def test_average_estimator_unbiased(self):
        # values i.i.d. in one cluster; signed error centered on zero
        rng = np.random.default_rng(33)
        mu, spread, n = 100, 20, 8
        errors = []
        for trial in range(1000):
            sketch = LssSketch(single_cluster_model(float(mu)), 1,
                               hash_seed=trial, expected_flows=16)
            values = rng.integers(mu - spread, mu + spread + 1, size=n)
            keys = [f"u{trial}-{i}".encode() for i in range(n)]
            for key, v in zip(keys, values):
                sketch.insert(key, int(v))
            pick = int(rng.integers(n))
            errors.append(sketch.query(keys[pick]) - float(values[pick]))
        errors = np.asarray(errors)
        se = errors.std(ddof=1) / math.sqrt(len(errors))
        assert abs(errors.mean()) <= 3 * se

    def test_deviation_tail_bound(self):
        # Pr(|estimate - true| >= a) <= M^2 / ((a-M)^2 n^2) for a > 2M
        rng = np.random.default_rng(34)
        mu, m_spread, n = 50.0, 10, 6
        exceed = {3: 0, 4: 0}
        trials = 1000
        for trial in range(trials):
            sketch = LssSketch(single_cluster_model(mu), 1,
                               hash_seed=trial, expected_flows=16)
            values = rng.integers(int(mu) - m_spread, int(mu) + m_spread + 1, size=n)
            keys = [f"d{trial}-{i}".encode() for i in range(n)]
            for key, v in zip(keys, values):
                sketch.insert(key, int(v))
            pick = int(rng.integers(n))
            err = abs(sketch.query(keys[pick]) - float(values[pick]))
            for mult in exceed:
                if err >= mult * m_spread:
                    exceed[mult] += 1
        for mult, count in exceed.items():
            a = mult * m_spread
            bound = m_spread**2 / ((a - m_spread) ** 2 * n**2)
            assert count / trials <= bound

    def test_single_key_buckets_always_exact(self):
        rng = np.random.default_rng(35)
        sketch = LssSketch(uniform_model(6), 600, hash_seed=41, expected_flows=256)
        truth = {}
        for i in range(150):
            key = f"e{i}".encode()
            v = int(rng.integers(1, 70))
            sketch.insert(key, v)
            truth[key] = v
        for key, v in truth.items():
            _val_sum, key_count = sketch._bucket(key)
            if key_count == 1:
                assert sketch.query(key) == float(v)


class TestSerialization:
    def test_empty_round_trip(self):
        sketch = LssSketch(uniform_model(3), 12, hash_seed=3)
        back = LssSketch.from_bytes(sketch.to_bytes())
        assert back.state() == sketch.state()
        assert back.m == 12 and len(back.centers) == 3

    def test_populated_round_trip_preserves_queries(self):
        rng = np.random.default_rng(44)
        sketch = LssSketch(uniform_model(5), 50, hash_seed=9, expected_flows=128)
        keys = [f"s{i}".encode() for i in range(100)]
        for key in keys:
            sketch.insert_duplicate(key, int(rng.integers(0, 60)))
        blob = sketch.to_bytes()
        back = LssSketch.from_bytes(blob)
        assert back.state() == sketch.state()
        for key in keys:
            assert back.query_exact(key) == sketch.query_exact(key)
        assert back.to_bytes() == blob

    def test_footprint_at_compact_dimensions(self):
        # 1,000 16-bit buckets + 30 four-byte centers ~ 4.12 KB, then the
        # length-prefixed table at its squeezed size
        sketch = LssSketch(uniform_model(30), 1000, counter_width=16)
        assert sketch_bytes(1000, 30, 16) == 4120
        table = sketch.membership.squeeze().memory_bytes()
        assert 4120 + 4 + table <= len(sketch.to_bytes()) <= (4120 + 4 + table) * 1.05

    def test_malformed_bytes_rejected_with_offset(self):
        sketch = LssSketch(uniform_model(3), 12)
        blob = sketch.to_bytes()
        with pytest.raises(ValueError, match="offset"):
            LssSketch.from_bytes(blob[:10])
        with pytest.raises(ValueError, match="magic"):
            LssSketch.from_bytes(b"XXXX" + blob[4:])

    def test_crafted_layout_decodes(self):
        back = LssSketch.from_bytes(crafted_blob((4.0, 20.0), (5, 7), 12))
        assert back.centers == (4.0, 20.0)
        assert back.allocation == [5, 7]
        assert back.state() == [[(0, 0)] * 5, [(0, 0)] * 7]
        assert back.membership.squeezed and back.membership.occupied == 0

    @pytest.mark.parametrize("centers, allocation, m, width", [
        ((4.0, 20.0), (0, 12), 12, 32),   # an empty bucket array
        ((20.0, 4.0), (5, 7), 12, 32),    # unsorted centers
        ((), (), 12, 32),                 # no centers
        ((4.0, 20.0), (5, 6), 12, 32),    # allocation does not sum to m
        ((4.0, 20.0), (5, 7), 12, 8),     # unsupported counter width
    ])
    def test_bad_layout_rejected(self, centers, allocation, m, width):
        with pytest.raises(ValueError):
            LssSketch.from_bytes(crafted_blob(centers, allocation, m, width))

    @pytest.mark.parametrize("squeezed", [False, True])
    def test_trailing_bytes_rejected(self, squeezed):
        sketch = LssSketch(uniform_model(3), 12)
        sketch.insert(b"k", 5)
        if squeezed:
            sketch.membership.squeeze()
        with pytest.raises(ValueError, match="trailing"):
            LssSketch.from_bytes(sketch.to_bytes() + b"xx")

    def test_saturation_flagged_at_narrow_width(self):
        sketch = LssSketch(uniform_model(2), 8, counter_width=16)
        sketch.insert(b"big", 70_000)  # exceeds 16-bit field
        back = LssSketch.from_bytes(sketch.to_bytes())
        assert back.saturated
        assert back.query(b"big") == 65535.0

    def test_clear_membership_flag_rejected(self):
        with pytest.raises(ValueError, match="membership flag clear.*offset 5"):
            LssSketch.from_bytes(crafted_blob((4.0, 20.0), (5, 7), 12, flags=0))
        with pytest.raises(ValueError, match="membership flag clear"):
            LssSketch.from_bytes(crafted_blob((4.0, 20.0), (5, 7), 12,
                                              flags=LssSketch._FLAG_SATURATED))

    def test_cluster_index_beyond_k_rejected(self):
        sketch = LssSketch(two_center_model(), 8)
        sketch.insert(b"k", 5)
        table = sketch.membership.squeeze()
        slot = int(np.flatnonzero(np.frombuffer(table._fps, dtype=np.uint16))[0])
        blob = bytearray(sketch.to_bytes())
        # the table's cluster bytes end the payload
        blob[len(blob) - len(table._cis) + slot] = 200
        with pytest.raises(ValueError, match="cluster 200"):
            LssSketch.from_bytes(bytes(blob))

    def test_open_table_rejected(self):
        blob = bytearray(crafted_blob((4.0, 20.0), (5, 7), 12))
        table_at = len(blob) - len(CuckooTable(capacity=64).to_bytes())
        assert blob[table_at + 5] == 1
        blob[table_at + 5] = 0
        with pytest.raises(ValueError, match="squeezed byte 0"):
            LssSketch.from_bytes(bytes(blob))

    def test_price_has_one_owner(self):
        # a closed window is charged lss.sketch_bytes plus its squeezed
        # table's memory_bytes; the sketch keeps no figure of its own
        assert not hasattr(LssSketch, "sketch_bytes")
        assert not hasattr(LssSketch, "memory_bytes")


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(width=st.sampled_from((16, 32, 64)),
           squeeze=st.booleans(),
           k=st.integers(1, 4),
           records=st.lists(st.tuples(st.integers(0, 25), st.integers(0, 1000)), max_size=40))
    def test_to_bytes_from_bytes(self, width, squeeze, k, records):
        # 40 records of at most 1000 stay inside a 16-bit counter
        sketch = LssSketch(uniform_model(k), 12, hash_seed=31, counter_width=width,
                           expected_flows=64)
        for i, v in records:
            try:
                sketch.insert_duplicate(f"p{i}".encode(), v)
            except BucketUnderflowError:
                pass
        blob = sketch.to_bytes()
        if squeeze:
            sketch.membership.squeeze()
            assert sketch.to_bytes() == blob
        back = LssSketch.from_bytes(blob)
        assert back.state() == sketch.state()
        assert not back.saturated
        assert back.to_bytes() == blob
        assert back.membership.occupied == sketch.membership.occupied
        assert back.membership.squeezed


class TestPythonIntState:
    def test_generated_trace_keeps_python_ints(self):
        packets, _ = generate_packets(3, 300, 1.1, 4.0)
        assert all(type(p.size_bytes) is int for p in packets)
        sketch = LssSketch(uniform_model(4), 40, hash_seed=3, expected_flows=512)
        for p in packets:
            try:
                sketch.insert_duplicate(p.key, p.size_bytes)
            except BucketUnderflowError:
                pass
        assert sketch.cardinality() > 0
        assert all(type(v) is int and type(c) is int
                   for buckets in sketch.state() for v, c in buckets)


def golden_sketch(width):
    """A hand-built model and fixed keys: migrations, collisions and,
    at width 16, one saturated bucket."""
    model = ClusterModel(centers=(4.0, 20.0, 75.0), entropy=(0.3, 0.6, 0.9),
                         weight=(0.2, 0.3, 0.5), density=(0.5, 0.3, 0.2),
                         allocation=(3, 4, 5))
    sketch = LssSketch(model, 12, hash_seed=7, counter_width=width, expected_flows=64)
    keys = [f"golden-{i}".encode() for i in range(40)]
    for rnd in range(2):
        for i, key in enumerate(keys):
            sketch.insert_duplicate(key, (i * 37 + rnd * 11) % 50 + 1)
    sketch.insert(b"golden-heavy", 70_000)
    return sketch


class TestGoldenBytes:
    """sha256 of to_bytes() pinned across refactors of the in-memory
    layout: the wire format must not move. An open sketch ships the
    bytes of its squeezed (closed-window) form."""

    DIGESTS = {
        16: "2bfda149de9d16e62bd654bc4a2b0a770cf6741bd55bb1d5509939dfdc6e00c9",
        32: "9f1349e1ad4af0c7a8df297e786585e992586b852b1470948135bba89189acb9",
        64: "6ee7edb78645a0360c9d89d8caa8f61a5ebffe20ddf83eedfd411ed8ac142c18",
    }

    @pytest.mark.parametrize("width", [16, 32, 64])
    def test_to_bytes_digest(self, width):
        sketch = golden_sketch(width)
        assert sketch.cardinality() == 41
        assert sketch.total_value() == 72_090
        squeezed_digest = self.DIGESTS[width]
        assert hashlib.sha256(sketch.to_bytes()).hexdigest() == squeezed_digest
        sketch.membership.squeeze()
        blob = sketch.to_bytes()
        assert hashlib.sha256(blob).hexdigest() == squeezed_digest
        assert LssSketch.from_bytes(blob).saturated == (width == 16)
