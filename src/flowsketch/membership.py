"""(2,4) cuckoo table keyed by 16-bit flow fingerprints.

Each slot stores the fingerprint, the flow's cluster index, and, while a
window is still accumulating, the flow's cached running total. Two
candidate buckets per key, four slots per bucket; the alternate bucket
is derived from the primary one and the fingerprint alone (partial-key
cuckoo hashing), so displaced entries can always be rehomed without the
original key. Once a window closes the table is squeezed down to
fingerprint + cluster index (3 bytes per slot).
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

    def _find_slot(self, fp: int, idx_h: int) -> int | None:
        i1 = idx_h & self._mask
        base = i1 * SLOTS_PER_BUCKET
        for s in range(base, base + SLOTS_PER_BUCKET):
            if self._fps[s] == fp:
                return s
        i2 = self._alt_index(i1, fp)
        base = i2 * SLOTS_PER_BUCKET
        for s in range(base, base + SLOTS_PER_BUCKET):
            if self._fps[s] == fp:
                return s
        return None

    def _read(self, slot: int) -> tuple[int, int | None]:
        """(cluster_index, cached total) of an occupied slot; the total
        is None once the table is squeezed."""
        return self._cis[slot], None if self.squeezed else self._vals[slot]

    def _lookup_fp(self, fp: int, idx_h: int) -> tuple[int, int | None] | None:
        s = self._find_slot(fp, idx_h)
        return None if s is None else self._read(s)

    def _insert_fp(self, fp: int, idx_h: int, cluster_index: int, value: int) -> None:
        if self.squeezed:
            raise RuntimeError("cannot insert into a squeezed table")
        if self.occupied >= self._max_occupied:
            raise TableFullError(
                f"load factor cap reached ({self.occupied} of "
                f"{self.num_buckets * SLOTS_PER_BUCKET} slots)"
            )
        i1 = idx_h & self._mask
        i2 = self._alt_index(i1, fp)
        for i in (i1, i2):
            base = i * SLOTS_PER_BUCKET
            for s in range(base, base + SLOTS_PER_BUCKET):
                if self._fps[s] == 0:
                    self._fps[s] = fp
                    self._write(s, cluster_index, value)
                    self.occupied += 1
                    return
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
                    return
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
        self._insert_fp(fp, i1, cluster_index, value)

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
        head = self._HEADER.pack(
            self._MAGIC, 1, int(self.squeezed), self.max_kicks, self.num_buckets,
            self.seed,
        )
        parts = [head, self._fps.tobytes(), self._cis.tobytes()]
        if not self.squeezed:
            parts.append(self._vals.tobytes())
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "CuckooTable":
        if len(data) < cls._HEADER.size:
            raise ValueError(f"truncated table header at offset {len(data)}")
        magic, version, squeezed, max_kicks, num_buckets, seed = cls._HEADER.unpack_from(data)
        if magic != cls._MAGIC or version != 1:
            raise ValueError(f"bad table magic/version at offset 0: {magic!r} v{version}")
        nslots = num_buckets * SLOTS_PER_BUCKET
        off = cls._HEADER.size
        need = off + 3 * nslots + (0 if squeezed else 8 * nslots)
        if len(data) < need:
            raise ValueError(f"truncated table body at offset {len(data)} (need {need})")
        if len(data) > need:
            raise ValueError(f"{len(data) - need} trailing bytes at offset {need}")
        table = cls(num_buckets=num_buckets, max_kicks=max_kicks, seed=seed)
        table._fps = array("H")
        table._fps.frombytes(data[off:off + 2 * nslots])
        off += 2 * nslots
        table._cis = array("B")
        table._cis.frombytes(data[off:off + nslots])
        off += nslots
        if squeezed:
            table._vals = None
            table.squeezed = True
        else:
            table._vals = array("Q")
            table._vals.frombytes(data[off:off + 8 * nslots])
        table.occupied = int(np.count_nonzero(np.frombuffer(table._fps, dtype=np.uint16)))
        return table
