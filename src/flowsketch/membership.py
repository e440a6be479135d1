"""(2,4) cuckoo table keyed by 16-bit flow fingerprints.

Each slot stores the fingerprint, the flow's cluster index, and, while a
window is still accumulating, the flow's cached running total. Two
candidate buckets per key, four slots per bucket; the alternate bucket
is derived from the primary one and the fingerprint alone (partial-key
cuckoo hashing), so displaced entries can always be rehomed without the
original key. Once a window closes the table is squeezed down to
fingerprint + cluster index (3 bytes per slot), the one form it is
serialized in.
"""

import random
import struct
from array import array
from collections import namedtuple

import numpy as np

from .hashing import key_digest, mix16

SLOTS_PER_BUCKET = 4
SLOT_BYTES_OPEN = 11      # 2 fingerprint + 1 cluster index + 8 cached value
SLOT_BYTES_SQUEEZED = 3   # 2 fingerprint + 1 cluster index

Payload = namedtuple("Payload", ["cluster_index", "value"])


class TableFullError(RuntimeError):
    """Insertion failed after the maximum number of displacements."""


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


class CuckooTable:
    """(2,4) cuckoo table mapping fingerprints to (cluster_index, value).

    capacity: expected number of entries; the bucket count is sized at
      1.2x capacity rounded up to a power of two (in slots).
    max_kicks: displacement limit before insert reports the table full.
    seed: drives both the hashing and the eviction choices, so a given
      insert sequence always produces the same physical layout.
    """

    def __init__(self, capacity: int = 1024, max_kicks: int = 500, seed: int = 0,
                 num_buckets: int | None = None):
        if num_buckets is None:
            num_buckets = _next_pow2(max(1, -(-int(capacity * 1.2) // SLOTS_PER_BUCKET)))
        if num_buckets < 1 or num_buckets & (num_buckets - 1):
            raise ValueError(f"num_buckets must be a power of two, got {num_buckets}")
        self.num_buckets = num_buckets
        self.max_kicks = max_kicks
        self.seed = seed
        self._mask = num_buckets - 1
        self._fps = array("H", bytes(2 * num_buckets * SLOTS_PER_BUCKET))
        self._cis = array("B", bytes(num_buckets * SLOTS_PER_BUCKET))
        self._vals: array | None = array("Q", bytes(8 * num_buckets * SLOTS_PER_BUCKET))
        self._rng = random.Random(seed)
        self._max_occupied = int(0.95 * num_buckets * SLOTS_PER_BUCKET)
        self.occupied = 0
        self.squeezed = False

    # -- hashing ------------------------------------------------------

    def _fp_and_index(self, key: bytes) -> tuple[int, int]:
        _, fp, idx_h = key_digest(key, self.seed)
        return fp, idx_h & self._mask

    def _alt_index(self, index: int, fp: int) -> int:
        return (index ^ mix16(fp)) & self._mask

    # -- slot-level operations (fingerprint and raw index hash already
    # computed; the index hash is masked here, and masking is idempotent)

    def _probe(self, fp: int, idx_h: int, match: int) -> int:
        """One pass over fp's two candidate buckets, i1 then i2: the
        first slot holding `match`, else ~s for the first empty slot s,
        or ~nslots when both buckets are full."""
        fps = self._fps
        i1 = idx_h & self._mask
        base = i1 * SLOTS_PER_BUCKET
        bucket = fps[base:base + SLOTS_PER_BUCKET]
        if match in bucket:
            return base + bucket.index(match)
        free = base + bucket.index(0) if 0 in bucket else len(fps)
        base = self._alt_index(i1, fp) * SLOTS_PER_BUCKET
        bucket = fps[base:base + SLOTS_PER_BUCKET]
        if match in bucket:
            return base + bucket.index(match)
        if free == len(fps) and 0 in bucket:
            free = base + bucket.index(0)
        return ~free

    def _find_slot(self, fp: int, idx_h: int) -> int:
        """The slot holding fp (>= 0). On a miss a negative value, which
        _insert_fp takes to claim the first empty candidate slot."""
        return self._probe(fp, idx_h, fp)

    def _open_slot(self, fp: int, idx_h: int) -> int:
        """_find_slot's miss value for one more entry of fp, whether or
        not fp is already held (a fingerprint merge)."""
        return self._probe(fp, idx_h, -1)

    def _read(self, slot: int) -> tuple[int, int | None]:
        """(cluster_index, cached total) of an occupied slot; the total
        is None once the table is squeezed."""
        return self._cis[slot], None if self.squeezed else self._vals[slot]

    def _lookup_fp(self, fp: int, idx_h: int) -> tuple[int, int | None] | None:
        s = self._find_slot(fp, idx_h)
        return None if s < 0 else self._read(s)

    def _buckets_of(self, fps: np.ndarray, idx_hs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The two candidate buckets (i1, i2) of each fingerprint and
        index hash in uint64 arrays."""
        i1 = idx_hs & np.uint64(self._mask)
        return i1, (i1 ^ mix16(fps)) & np.uint64(self._mask)

    def _probe_many(self, fps: np.ndarray, idx_hs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """_probe's hit over uint64 arrays of fingerprints and index
        hashes: the slot each probe finds, taking the first match in i1
        then in i2 as _probe does, and whether it found one (where it
        did not, the slot is i2's first)."""
        slots = np.frombuffer(self._fps, dtype=np.uint16).reshape(-1, SLOTS_PER_BUCKET)
        i1, i2 = self._buckets_of(fps, idx_hs)
        want = fps.astype(np.uint16)[:, None]
        in1 = slots[i1] == want
        in2 = slots[i2] == want
        hit1 = in1.any(axis=1)
        slot = np.where(hit1, i1 * SLOTS_PER_BUCKET + in1.argmax(axis=1).astype(np.uint64),
                        i2 * SLOTS_PER_BUCKET + in2.argmax(axis=1).astype(np.uint64))
        return slot, hit1 | in2.any(axis=1)

    def _find_slots(self, fps: np.ndarray, idx_hs: np.ndarray) -> np.ndarray:
        """_find_slot's hit over uint64 arrays of fingerprints and index
        hashes: the slot holding each fingerprint, or -1."""
        slot, hit = self._probe_many(fps, idx_hs)
        return np.where(hit, slot.astype(np.int64), -1)

    def _lookup_fps(self, fps: np.ndarray, idx_hs: np.ndarray) -> np.ndarray:
        """_lookup_fp over uint64 arrays of fingerprints and index
        hashes: the cluster index of the slot each probe finds, or -1."""
        slot, hit = self._probe_many(fps, idx_hs)
        cis = np.frombuffer(self._cis, dtype=np.uint8)
        return np.where(hit, cis[slot].astype(np.int64), -1)

    def _fills(self) -> list[int]:
        """Occupied slots per bucket. The table never deletes and fills
        a bucket's first empty slot, so a bucket with fill occupied
        slots holds them in its first fill slots."""
        slots = np.frombuffer(self._fps, dtype=np.uint16).reshape(-1, SLOTS_PER_BUCKET)
        return np.count_nonzero(slots, axis=1).tolist()

    def _insert_fp(self, fp: int, idx_h: int, cluster_index: int, value: int,
                   miss: int) -> list[int]:
        """Add an entry for fp. miss is _find_slot's (or _open_slot's)
        negative result for fp on the table as it stands. Returns the
        slots a kick chain wrote, in chain order and ending at the slot
        that was empty, or [] when the entry went straight into the
        miss's free slot."""
        if self.squeezed:
            raise RuntimeError("cannot insert into a squeezed table")
        if self.occupied >= self._max_occupied:
            raise TableFullError(
                f"load factor cap reached ({self.occupied} of "
                f"{self.num_buckets * SLOTS_PER_BUCKET} slots)"
            )
        free = ~miss
        if free < len(self._fps):
            self._fps[free] = fp
            self._write(free, cluster_index, value)
            self.occupied += 1
            return []
        i1 = idx_h & self._mask
        i2 = self._alt_index(i1, fp)
        # both candidates full: displace a random victim and chase it
        i = self._rng.choice((i1, i2))
        kicked = []
        for _ in range(self.max_kicks):
            victim = i * SLOTS_PER_BUCKET + self._rng.randrange(SLOTS_PER_BUCKET)
            kicked.append(victim)
            fp, cluster_index, value = self._swap(victim, fp, cluster_index, value)
            i = self._alt_index(i, fp)
            base = i * SLOTS_PER_BUCKET
            for s in range(base, base + SLOTS_PER_BUCKET):
                if self._fps[s] == 0:
                    self._fps[s] = fp
                    self._write(s, cluster_index, value)
                    self.occupied += 1
                    kicked.append(s)
                    return kicked
        # undo the chain in reverse, so every held entry is back in its
        # slot and only the new one is left out
        for victim in reversed(kicked):
            fp, cluster_index, value = self._swap(victim, fp, cluster_index, value)
        raise TableFullError(
            f"insert failed after {self.max_kicks} displacements "
            f"(load factor {self.load_factor:.3f})"
        )

    def _write(self, slot: int, cluster_index: int, value: int) -> None:
        """Set (cluster_index, cached total) of a slot in an open (not
        squeezed) table."""
        self._cis[slot] = cluster_index
        self._vals[slot] = value

    def _swap(self, slot: int, fp: int, cluster_index: int, value: int) -> tuple[int, int, int]:
        """Put an entry in an open table's slot; returns the entry that
        was there."""
        old = self._fps[slot], self._cis[slot], self._vals[slot]
        self._fps[slot] = fp
        self._write(slot, cluster_index, value)
        return old

    # -- key-level API --------------------------------------------------

    def insert(self, key: bytes, cluster_index: int, value: int = 0) -> None:
        """Insert a new key. Raises TableFullError when the eviction
        chain exceeds max_kicks, with the table as it was before the
        call; the caller rotates the window or grows the table."""
        fp, i1 = self._fp_and_index(key)
        self._insert_fp(fp, i1, cluster_index, value, self._open_slot(fp, i1))

    def lookup(self, key: bytes) -> Payload | None:
        """Payload for the key, or None. A false positive (a different
        key sharing bucket and fingerprint) is possible at the
        fingerprint-collision rate."""
        fp, i1 = self._fp_and_index(key)
        hit = self._lookup_fp(fp, i1)
        return None if hit is None else Payload(*hit)

    def squeeze(self) -> "CuckooTable":
        """Drop the cached values, keeping only fingerprint and cluster
        index. The table becomes read-only for inserts and should be
        treated as immutable."""
        self._vals = None
        self.squeezed = True
        return self

    @property
    def load_factor(self) -> float:
        return self.occupied / (self.num_buckets * SLOTS_PER_BUCKET)

    def memory_bytes(self) -> int:
        per_slot = SLOT_BYTES_SQUEEZED if self.squeezed else SLOT_BYTES_OPEN
        return self.num_buckets * SLOTS_PER_BUCKET * per_slot

    # -- serialization ---------------------------------------------------

    _HEADER = struct.Struct("<4sBBHIq")  # magic, version, squeezed, max_kicks, num_buckets, seed
    _MAGIC = b"CKT1"

    def to_bytes(self) -> bytes:
        """The read-only form a closed window ships: the header with its
        squeezed byte set, the fingerprints and the cluster indices. The
        cached totals are never written, so an open table encodes as it
        would after squeeze()."""
        head = self._HEADER.pack(self._MAGIC, 1, 1, self.max_kicks, self.num_buckets, self.seed)
        return b"".join([head, self._fps.tobytes(), self._cis.tobytes()])

    @classmethod
    def from_bytes(cls, data: bytes) -> "CuckooTable":
        """Decode to_bytes() output to a squeezed table. Any other
        squeezed byte, and truncated or trailing bytes, raise ValueError."""
        if len(data) < cls._HEADER.size:
            raise ValueError(f"truncated table header at offset {len(data)}")
        magic, version, squeezed, max_kicks, num_buckets, seed = cls._HEADER.unpack_from(data)
        if magic != cls._MAGIC or version != 1:
            raise ValueError(f"bad table magic/version at offset 0: {magic!r} v{version}")
        if squeezed != 1:
            raise ValueError(f"table squeezed byte {squeezed} at offset 5: only the "
                             "read-only (squeezed) form is decoded")
        nslots = num_buckets * SLOTS_PER_BUCKET
        off = cls._HEADER.size
        need = off + 3 * nslots
        if len(data) < need:
            raise ValueError(f"truncated table body at offset {len(data)} (need {need})")
        if len(data) > need:
            raise ValueError(f"{len(data) - need} trailing bytes at offset {need}")
        if num_buckets < 1 or num_buckets & (num_buckets - 1):
            raise ValueError(f"num_buckets must be a power of two, got {num_buckets}")
        # the fields __init__ sets, without its zeroed arrays and random
        # stream: a squeezed table is read-only, so it never kicks
        table = cls.__new__(cls)
        table.num_buckets = num_buckets
        table.max_kicks = max_kicks
        table.seed = seed
        table._mask = num_buckets - 1
        table._fps = array("H")
        table._fps.frombytes(data[off:off + 2 * nslots])
        table._cis = array("B")
        table._cis.frombytes(data[off + 2 * nslots:need])
        table._vals = None
        table._rng = None
        table._max_occupied = int(0.95 * nslots)
        table.occupied = int(np.count_nonzero(np.frombuffer(table._fps, dtype=np.uint16)))
        table.squeezed = True
        return table
