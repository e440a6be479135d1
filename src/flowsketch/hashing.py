"""Seeded hashing shared by the sketches and the membership table.

All structures in this package need stable, seedable hashes so that
serialized state round-trips bit-for-bit across processes (Python's
builtin ``hash`` is salted per process and must never be used here).
A single keyed blake2b call per key yields enough independent bytes
for the bucket index, the 16-bit membership fingerprint, and the
cuckoo-table index, so the hot insert path hashes each key once.
key_digests does the same for a batch of keys, for the batch read, and
bank_digests gives the multi-bank baselines' bank_hash of a batch.
"""

import hashlib
import struct
from functools import lru_cache

import numpy as np

_MASK64 = (1 << 64) - 1
_DIGEST = struct.Struct("<QHI")  # bucket hash, fingerprint, index hash
_BANK = struct.Struct("<QB")     # index hash, sign byte
# the same three fields as _DIGEST, read from a run of 16-byte digests
_DIGESTS = np.dtype({"names": ["bucket", "fp", "index"], "formats": ["<u8", "<u2", "<u4"],
                     "offsets": [0, 8, 10], "itemsize": 16})
# the same two fields as _BANK, read from a run of 9-byte digests
_BANKS = np.dtype({"names": ["index", "sign"], "formats": ["<u8", "u1"],
                   "offsets": [0, 8], "itemsize": 9})


def _keyed(key: int, digest_size: int):
    return hashlib.blake2b(digest_size=digest_size, key=(key & _MASK64).to_bytes(8, "little"))


# Keyed blake2b states, built once per seed and copied per call; the
# digest equals blake2b(data, key=...) in one shot. Callers only copy()
# a template, never update it, so sharing one across threads is safe.
@lru_cache(maxsize=256)
def _digest_template(seed: int):
    return _keyed(seed, 16)


@lru_cache(maxsize=256)
def _bank_template(seed: int, bank: int):
    return _keyed(seed * 0x9E3779B97F4A7C15 + bank + 1, 9)


def key_digest(key: bytes, seed: int) -> tuple[int, int, int]:
    """Hash a key once and split the digest into the three values the
    sketch structures need.

    Returns (bucket_hash, fingerprint, index_hash):
      bucket_hash: 64-bit value, reduced modulo a bucket-array size
      fingerprint: 16-bit nonzero membership fingerprint (0 is the
        empty-slot marker, so a zero fingerprint is remapped to 1)
      index_hash:  32-bit value for the cuckoo table's primary bucket
    """
    h = _digest_template(seed).copy()
    h.update(key)
    bucket_hash, fingerprint, index_hash = _DIGEST.unpack_from(h.digest())
    return bucket_hash, fingerprint or 1, index_hash


def key_digests(keys, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """key_digest of every key, as three uint64 arrays in key order:
    (bucket_hashes, fingerprints, index_hashes)."""
    template = _digest_template(seed)
    digests = bytearray()
    for key in keys:
        h = template.copy()
        h.update(key)
        digests += h.digest()
    fields = np.frombuffer(digests, dtype=_DIGESTS)
    fps = fields["fp"].astype(np.uint64)
    fps[fps == 0] = 1
    return fields["bucket"].astype(np.uint64), fps, fields["index"].astype(np.uint64)


def bank_hash(key: bytes, seed: int, bank: int) -> tuple[int, int]:
    """Per-bank hash for the multi-bank baselines.

    Returns (index_hash, sign) where sign is +1 or -1; the sign stream
    is independent of the index bits.
    """
    h = _bank_template(seed, bank).copy()
    h.update(key)
    idx, sign_byte = _BANK.unpack(h.digest())
    return idx, 1 if sign_byte & 1 else -1


def bank_digests(keys, seed: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """bank_hash of every key in each of banks 0..c-1, as a (c, n)
    uint64 array of index hashes and a (c, n) int64 array of +-1 signs;
    row j, column i is bank_hash(keys[i], seed, j)."""
    keys = list(keys)
    digests = bytearray()
    for bank in range(c):
        template = _bank_template(seed, bank)
        for key in keys:
            h = template.copy()
            h.update(key)
            digests += h.digest()
    fields = np.frombuffer(digests, dtype=_BANKS).reshape(c, len(keys))
    signs = np.where(fields["sign"] & 1, np.int64(1), np.int64(-1))
    return fields["index"].astype(np.uint64), signs


def mix16(fp: int) -> int:
    """Cheap integer mix of a 16-bit fingerprint, used to derive the
    alternate cuckoo bucket (partial-key cuckoo hashing). Exact on a
    uint64 array too, element by element."""
    x = (fp * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 29
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 32
    return x
