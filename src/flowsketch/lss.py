"""Collision-resilient sketch built from clustered bucket arrays.

A plain hash sketch mixes unrelated flows in every noisy bucket. Here
the value space is split by a trained cluster model: one bucket array
per cluster, and each flow lands in the array of its nearest center.
Every bucket keeps the running value sum and the distinct-key count,
and a query answers with their ratio, the average of the similar flows
that share the bucket, so collisions cost variance instead of raw
bias.

Incremental streams are handled by caching each open flow's running
total in the membership table and re-homing the flow whenever its
total drifts closer to a different center, so the final state matches
a one-shot insertion of per-flow totals.
"""

import struct
from collections.abc import Iterator
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .clustering import (ClusterModel, InvalidInputError, allocate_buckets, assign_nearest,
                         int_value, nearest_center)
from .hashing import key_digest
from .membership import SLOTS_PER_BUCKET, CuckooTable, TableFullError

MAX_CLUSTERS = 256  # the serialized cluster index is a single byte
COUNTER_FORMATS = {16: "H", 32: "I", 64: "Q"}  # counter width -> struct code on the wire
BATCH = 1024  # keys per numpy pass of LssSketch.buckets
MAX_TOTAL = (1 << 64) - 1  # the membership table caches a flow's running total as a uint64


class KeyNotFoundError(KeyError):
    """Queried key is not present in the membership table."""


class BucketUnderflowError(RuntimeError):
    """A re-homing step would drive a bucket negative.

    Seen only when distinct flows collide on both fingerprint and
    candidate buckets, so their running totals were merged; the caller
    may treat the flows as merged and continue.
    """


def sketch_bytes(m: int, k: int, counter_width: int) -> int:
    """Serialized footprint of m bucket pairs at counter_width bits plus
    k four-byte centers: the counter budget every compared sketch gets.
    A closed window costs this plus its squeezed table's
    CuckooTable.memory_bytes()."""
    return m * 2 * (counter_width // 8) + k * 4


def _checked(value) -> int:
    """int_value of an insert value that the membership table can cache:
    one of 2**64 or more raises InvalidInputError."""
    value = int_value(value)
    if value > MAX_TOTAL:
        raise InvalidInputError(f"value {value} does not fit the 64-bit running total")
    return value


def check_layout(centers, allocation, m: int, counter_width: int = 32) -> None:
    """Raise InvalidInputError unless a sketch can be built on this
    layout: 1-256 centers sorted ascending, one allocation entry of at
    least 1 per center summing to m, and a 16, 32 or 64-bit counter."""
    k = len(centers)
    if not 1 <= k <= MAX_CLUSTERS:
        raise InvalidInputError(f"between 1 and {MAX_CLUSTERS} clusters supported, got {k}")
    if not all(a <= b for a, b in zip(centers, centers[1:])):
        raise InvalidInputError("centers must be sorted ascending")
    if len(allocation) != k or min(allocation) < 1:
        raise InvalidInputError(f"allocation {list(allocation)} needs one entry of at "
                                f"least 1 per center ({k})")
    if sum(allocation) != m:
        raise InvalidInputError(f"allocation sums to {sum(allocation)}, not m={m}")
    if counter_width not in COUNTER_FORMATS:
        raise InvalidInputError(f"counter_width must be 16, 32 or 64, got {counter_width}")


class LssSketch:
    """k clustered bucket arrays of (val_sum, key_count) pairs.

    The sketch is its sorted centers and its allocation, the split of m
    buckets across the arrays. Both come from the model: its own
    allocation when it carries one, else the entropy/density/weight
    split of allocate_buckets. The arrays lie end to end in two flat
    length-m lists; a key routed to cluster i owns position
    _offsets[i] + bucket_hash % allocation[i]. counter_width only
    affects the serialized form (in memory the accumulators are plain
    ints).
    """

    def __init__(self, model: ClusterModel, m: int, hash_seed: int = 0,
                 counter_width: int = 32, expected_flows: int | None = None):
        capacity = max(64, 10 * m) if expected_flows is None else expected_flows
        self._set_layout(model.centers, model.allocation or allocate_buckets(model, m), m,
                         hash_seed, counter_width, CuckooTable(capacity=capacity, seed=hash_seed))

    def _set_layout(self, centers, allocation, m: int, hash_seed: int, counter_width: int,
                    membership: CuckooTable) -> None:
        """Check the bucket layout and start with empty arrays over the
        given membership table."""
        check_layout(centers, allocation, m, counter_width)
        self.centers = tuple(centers)
        self.allocation = list(allocation)
        self.m = m
        self.hash_seed = hash_seed
        self.counter_width = counter_width
        self._offsets = list(accumulate(self.allocation[:-1], initial=0))
        self._val_sums = [0] * m
        self._key_counts = [0] * m
        self.membership = membership
        self.saturated = False

    def _position(self, cluster: int, bucket_h: int) -> int:
        """Flat position of the bucket that a key with bucket hash
        bucket_h owns in array `cluster`."""
        return self._offsets[cluster] + bucket_h % self.allocation[cluster]

    def _positions(self, clusters: np.ndarray, bucket_hs: np.ndarray) -> np.ndarray:
        """_position over arrays of clusters and bucket hashes, in uint64
        throughout: uint64 % int64 would promote to float64."""
        alloc = np.asarray(self.allocation, dtype=np.uint64)
        return np.asarray(self._offsets, dtype=np.uint64)[clusters] + bucket_hs % alloc[clusters]

    # -- inserts ---------------------------------------------------------

    def _place(self, bucket_h: int, fp: int, idx_h: int, value: int, miss: int) -> None:
        """Route a first-seen flow by its value, cache (cluster, value) in
        the membership table at its probe's miss, then count it in its
        bucket. The table goes first, so a TableFullError leaves the
        buckets untouched."""
        i = nearest_center(self.centers, value)
        self.membership._insert_fp(fp, idx_h, i, value, miss)
        pos = self._position(i, bucket_h)
        self._val_sums[pos] += value
        self._key_counts[pos] += 1

    def insert(self, key: bytes, value: int) -> None:
        """Insert a key that appears exactly once in the stream.

        A key the sketch already holds is counted again, as a second
        flow: the membership table cannot tell a repeat from a
        fingerprint merge, so this path does not look. Send every
        increment of a key that can repeat through insert_duplicate.
        """
        value = _checked(value)
        bucket_h, fp, idx_h = key_digest(key, self.hash_seed)
        self._place(bucket_h, fp, idx_h, value, self.membership._open_slot(fp, idx_h))

    def insert_duplicate(self, key: bytes, value: int) -> None:
        """Insert one increment of a flow that may appear many times.

        A first-seen flow behaves like insert() and its running total is
        cached in the membership table. A seen flow adds the increment
        to its current bucket, then migrates its whole total to another
        array when the total has moved closer to a different center.
        A value, or a running total, of 2**64 or more raises
        InvalidInputError before anything changes.
        """
        value = _checked(value)
        bucket_h, fp, idx_h = key_digest(key, self.hash_seed)
        slot = self.membership._find_slot(fp, idx_h)
        if slot < 0:
            self._place(bucket_h, fp, idx_h, value, slot)
        else:
            self._add_to_held(slot, bucket_h, value)

    def _add_to_held(self, slot: int, bucket_h: int, value: int) -> None:
        """Add an increment to the flow held in membership slot `slot`:
        count it in the flow's bucket, then migrate the flow's total when
        it has moved closer to another center. A total past MAX_TOTAL
        raises InvalidInputError before any write."""
        table = self.membership
        old, cached = table._read(slot)
        if cached is None:
            raise RuntimeError("cannot insert into a closed (squeezed) window")
        total = cached + value
        if total > MAX_TOTAL:
            raise InvalidInputError(f"running total {total} does not fit 64 bits")
        vals = self._val_sums
        pos_old = self._position(old, bucket_h)
        vals[pos_old] += value
        new = nearest_center(self.centers, total)
        if new != old:
            counts = self._key_counts
            if vals[pos_old] < total or counts[pos_old] < 1:
                # merged fingerprints: the cached total exceeds what this
                # bucket ever received, so the move cannot be applied
                table._write(slot, old, total)
                raise BucketUnderflowError(
                    f"bucket ({old},{pos_old - self._offsets[old]}) cannot release total {total}"
                )
            vals[pos_old] -= total
            counts[pos_old] -= 1
            pos_new = self._position(new, bucket_h)
            vals[pos_new] += total
            counts[pos_new] += 1
        table._write(slot, new, total)

    def insert_many(self, values, digests, room: int | None = None) -> tuple[int, int, bool]:
        """insert_duplicate of each record, in order, in one batch pass:
        values[j] under the key whose key_digests(keys, hash_seed) entry
        is digests' j-th, as buckets takes them. The sketch ends exactly
        as that loop leaves it, its table layout and kick-chain draws
        included. A bad value (InvalidInputError) or digests whose
        lengths differ from values' (ValueError) raise before anything
        changes; a running total past MAX_TOTAL raises InvalidInputError
        at its record, as the loop does.

        Returns (consumed, merged, full). merged counts the increments
        that raised BucketUnderflowError in the loop; here they are
        counted and the pass goes on. The pass stops after the first
        record that leaves the table holding `room` entries more than
        at the call (None: no limit), and before a record that finds
        the table full (full is then True and that record is not
        consumed; the table is as TableFullError leaves it).

        Why the pass is exact: the digests are probed against a snapshot
        of the table in numpy, giving each record's hit slot, and new
        flows are routed with assign_nearest (exact for values below
        2**53; nearest_center above). The table never deletes, so a
        bucket's occupied slots are a prefix and a miss's free slot is
        its first candidate bucket's base plus that bucket's live fill
        count, or the second's. A snapshot answer goes stale only when
        the pass has added the same fingerprint to the record's bucket
        pair, or a kick chain wrote to one of the record's two buckets;
        only those records are probed again, with _find_slot.
        """
        values = [int_value(v) for v in values]
        bucket_hs, fps, idx_hs = digests
        if not len(bucket_hs) == len(fps) == len(idx_hs) == len(values):
            raise ValueError(f"{len(values)} values, digests of {[len(c) for c in digests]}")
        if not values:
            return 0, 0, False
        table = self.membership
        i1s, i2s = table._buckets_of(fps, idx_hs)
        pair_ids = (fps << np.uint64(32)) | np.minimum(i1s, i2s)  # the fp and its bucket pair
        top = _checked(max(values))  # one bound check for the whole batch
        if top < 1 << 53:  # float64 holds the value exactly
            clusters = assign_nearest(self.centers, values)
        else:
            clusters = np.asarray([nearest_center(self.centers, v) for v in values])
        positions = self._positions(clusters, bucket_hs)
        snapshot = table._find_slots(fps, idx_hs).tolist()
        fill = table._fills()
        nslots = len(fill) * SLOTS_PER_BUCKET
        bucket_hs, fps, idx_hs, clusters, positions = (
            a.tolist() for a in (bucket_hs, fps, idx_hs, clusters, positions))
        vals, counts = self._val_sums, self._key_counts
        added: set[int] = set()   # pair ids of the flows this pass placed
        dirty: set[int] = set()   # buckets a kick chain wrote
        limit = None if room is None else table.occupied + room
        merged = 0
        for j, (b1, b2, pair_id, slot) in enumerate(zip(i1s.tolist(), i2s.tolist(),
                                                        pair_ids.tolist(), snapshot)):
            if b1 in dirty or b2 in dirty or pair_id in added:
                slot = table._find_slot(fps[j], idx_hs[j])
            elif slot < 0:
                if fill[b1] < SLOTS_PER_BUCKET:
                    slot = ~(b1 * SLOTS_PER_BUCKET + fill[b1])
                elif fill[b2] < SLOTS_PER_BUCKET:
                    slot = ~(b2 * SLOTS_PER_BUCKET + fill[b2])
                else:
                    slot = ~nslots
            if slot >= 0:
                try:
                    self._add_to_held(slot, bucket_hs[j], values[j])
                except BucketUnderflowError:
                    merged += 1
            else:
                try:
                    chain = table._insert_fp(fps[j], idx_hs[j], clusters[j], values[j], slot)
                except TableFullError:
                    return j, merged, True
                if chain:
                    dirty.update(s // SLOTS_PER_BUCKET for s in chain)
                else:
                    fill[~slot // SLOTS_PER_BUCKET] += 1
                added.add(pair_id)
                vals[positions[j]] += values[j]
                counts[positions[j]] += 1
            if limit is not None and table.occupied >= limit:
                return j + 1, merged, False
        return len(values), merged, False

    # -- queries ---------------------------------------------------------

    def _bucket(self, key: bytes) -> tuple[int, int] | None:
        """(val_sum, key_count) of the key's bucket, from one hash and one
        membership probe. None when the fingerprint is absent, or when a
        foreign fingerprint matched and the key's own bucket is empty."""
        bucket_h, fp, idx_h = key_digest(key, self.hash_seed)
        hit = self.membership._lookup_fp(fp, idx_h)
        if hit is None:
            return None
        pos = self._position(hit[0], bucket_h)
        count = self._key_counts[pos]
        if count == 0:
            return None
        return self._val_sums[pos], count

    def _held_bucket(self, key: bytes) -> tuple[int, int]:
        found = self._bucket(key)
        if found is None:
            raise KeyNotFoundError(f"key {key!r} is not held: its fingerprint is absent "
                                   "or maps to an empty bucket")
        return found

    def query_exact(self, key: bytes) -> Fraction:
        """Bucket average as an exact rational."""
        return Fraction(*self._held_bucket(key))

    def query(self, key: bytes) -> float:
        """Estimated flow total: the val_sum/key_count bucket average."""
        val_sum, count = self._held_bucket(key)
        return val_sum / count

    def contains(self, key: bytes) -> bool:
        """True when query(key) answers: the key's fingerprint is held
        and its bucket is not empty."""
        return self._bucket(key) is not None

    def buckets(self, digests) -> Iterator[tuple[int, int] | None]:
        """_bucket of many keys from their key_digests(keys, hash_seed):
        yields one (val_sum, key_count) or None per key, in key order.
        The membership probe and the bucket positions are computed with
        numpy, BATCH keys at a time, so a large batch holds no more than
        BATCH keys' temporaries; the counters are read from the flat
        lists, so they stay exact ints. Single-key reads stay on
        _bucket: a numpy batch of one costs many times a scalar lookup."""
        bucket_hs, fps, idx_hs = digests
        vals, counts = self._val_sums, self._key_counts
        for start in range(0, len(fps), BATCH):
            part = slice(start, start + BATCH)
            clusters = self.membership._lookup_fps(fps[part], idx_hs[part])
            routed = np.maximum(clusters, 0)  # a miss's position is computed, never read
            positions = self._positions(routed, bucket_hs[part])
            for cluster, pos in zip(clusters.tolist(), positions.tolist()):
                count = counts[pos] if cluster >= 0 else 0
                yield (vals[pos], count) if count else None

    def cardinality(self) -> int:
        """Exact distinct-flow count: the sum of all key_count fields."""
        return sum(self._key_counts)

    def total_value(self) -> int:
        """Sum of val_sum over every bucket; equals the sum of inserted values."""
        return sum(self._val_sums)

    # -- serialization -----------------------------------------------------

    _MAGIC = b"LSS1"
    _HEADER = struct.Struct("<4sBBHIqB")  # magic, version, flags, k, m, hash_seed, counter_width

    _FLAG_MEMBERSHIP = 1
    _FLAG_SATURATED = 2

    def to_bytes(self) -> bytes:
        """Serialize the closed window: header, centers (f32),
        allocation, bucket pairs at the configured counter width, then
        the read-only membership table. Values wider than the counter
        width are clamped and the saturation flag is set in the header."""
        width = self.counter_width
        limit = (1 << width) - 1
        fmt = COUNTER_FORMATS[width]
        k = len(self.centers)
        flat = [0] * (2 * self.m)
        flat[0::2] = self._val_sums
        flat[1::2] = self._key_counts
        saturated = max(flat) > limit
        if saturated:
            flat = [min(x, limit) for x in flat]
        flags = self._FLAG_MEMBERSHIP | (self._FLAG_SATURATED if saturated else 0)
        table = self.membership.to_bytes()
        return b"".join([
            self._HEADER.pack(self._MAGIC, 1, flags, k, self.m, self.hash_seed, width),
            np.asarray(self.centers, dtype="<f4").tobytes(),
            struct.pack(f"<{k}I", *self.allocation),
            struct.pack(f"<{2 * self.m}{fmt}", *flat),
            struct.pack("<I", len(table)),
            table,
        ])

    @classmethod
    def from_bytes(cls, data: bytes) -> "LssSketch":
        """Decode to_bytes() output. Truncated or trailing bytes, a clear
        membership flag, a layout the constructor would reject and a
        membership entry naming a cluster the sketch lacks raise
        ValueError."""
        if len(data) < cls._HEADER.size:
            raise ValueError(f"truncated sketch header at offset {len(data)}")
        magic, version, flags, k, m, hash_seed, width = cls._HEADER.unpack_from(data)
        if magic != cls._MAGIC or version != 1:
            raise ValueError(f"bad sketch magic/version at offset 0: {magic!r} v{version}")
        if not flags & cls._FLAG_MEMBERSHIP:
            raise ValueError(f"membership flag clear in sketch flags {flags:#04x} at offset 5")
        off = cls._HEADER.size
        buckets_at = off + 8 * k
        end = buckets_at + 2 * m * (width // 8)
        if len(data) < end + 4:
            raise ValueError(f"truncated sketch body at offset {len(data)} (need {end + 4})")
        (blen,) = struct.unpack_from("<I", data, end)
        end += 4 + blen
        if len(data) < end:
            raise ValueError(f"truncated membership at offset {len(data)} (need {end})")
        if len(data) > end:
            raise ValueError(f"{len(data) - end} trailing bytes at offset {end}")
        centers = np.frombuffer(data, dtype="<f4", count=k, offset=off).tolist()
        allocation = struct.unpack_from(f"<{k}I", data, off + 4 * k)
        table = CuckooTable.from_bytes(data[end - blen:end])
        sketch = cls.__new__(cls)
        sketch._set_layout(centers, allocation, m, hash_seed, width, table)
        # the table never deletes, so an empty slot holds cluster 0 and
        # the maximum over every slot is the largest cluster named
        top = int(np.frombuffer(table._cis, dtype=np.uint8).max(initial=0))
        if top >= k:
            raise ValueError(f"membership names cluster {top} of a {k}-cluster sketch")
        fmt = COUNTER_FORMATS[width]
        flat = struct.unpack_from(f"<{2 * m}{fmt}", data, buckets_at)
        sketch._val_sums = list(flat[0::2])
        sketch._key_counts = list(flat[1::2])
        sketch.saturated = bool(flags & cls._FLAG_SATURATED)
        return sketch

    def state(self) -> list[list[tuple[int, int]]]:
        """Bucket-for-bucket snapshot, for equivalence checks."""
        return [
            list(zip(self._val_sums[off:off + size], self._key_counts[off:off + size]))
            for off, size in zip(self._offsets, self.allocation)
        ]
