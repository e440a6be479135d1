import hashlib

import numpy as np
import pytest

from flowsketch.hashing import bank_digests, bank_hash, key_digest, key_digests, mix16

SEEDS = (0, 1, -3, 2**70)
KEYS = (b"", b"a", bytes(13), b"\x0a\x00\x00\x01\xc0\xa8\x00\x02\x04\x00\x00\x50\x06", b"x" * 300)
MASK64 = (1 << 64) - 1


def one_shot(key, key_int, digest_size):
    """The reference form: a fresh keyed blake2b per call."""
    return hashlib.blake2b(key, digest_size=digest_size,
                           key=(key_int & MASK64).to_bytes(8, "little")).digest()


@pytest.mark.parametrize("seed", SEEDS)
def test_key_digest_matches_one_shot_blake2b(seed):
    for key in KEYS:
        d = one_shot(key, seed, 16)
        expected = (int.from_bytes(d[0:8], "little"),
                    int.from_bytes(d[8:10], "little") or 1,
                    int.from_bytes(d[10:14], "little"))
        assert key_digest(key, seed) == expected


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("bank", range(5))
def test_bank_hash_matches_one_shot_blake2b(seed, bank):
    for key in KEYS:
        d = one_shot(key, seed * 0x9E3779B97F4A7C15 + bank + 1, 9)
        expected = (int.from_bytes(d[0:8], "little"), 1 if d[8] & 1 else -1)
        assert bank_hash(key, seed, bank) == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_key_digests_match_key_digest(seed):
    # the fingerprint search finds a key whose raw fingerprint is 0
    zero_fp = next(k for k in (i.to_bytes(4, "little") for i in range(1 << 20))
                   if one_shot(k, seed, 16)[8:10] == b"\0\0")
    keys = list(KEYS) + [zero_fp] + [f"k{i}".encode() for i in range(200)] + [b"a"]
    arrays = key_digests(keys, seed)
    assert all(a.dtype == np.uint64 and len(a) == len(keys) for a in arrays)
    assert list(zip(*(a.tolist() for a in arrays))) == [key_digest(k, seed) for k in keys]
    assert key_digest(zero_fp, seed)[1] == 1


def test_key_digests_of_no_keys():
    assert [a.tolist() for a in key_digests([], 3)] == [[], [], []]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("c", [1, 3, 5])
def test_bank_digests_match_bank_hash(seed, c):
    keys = list(KEYS) + [f"k{i}".encode() for i in range(100)] + [b"a"]
    indices, signs = bank_digests(keys, seed, c)
    assert (indices.dtype, signs.dtype) == (np.uint64, np.int64)
    assert indices.shape == signs.shape == (c, len(keys))
    assert [list(zip(*rows)) for rows in zip(indices.tolist(), signs.tolist())] == [
        [bank_hash(key, seed, j) for key in keys] for j in range(c)]


@pytest.mark.parametrize("c", [1, 3])
def test_bank_digests_of_no_keys(c):
    indices, signs = bank_digests([], 3, c)
    assert indices.shape == signs.shape == (c, 0)
    assert (indices.dtype, signs.dtype) == (np.uint64, np.int64)


def test_mix16_on_arrays_equals_scalar():
    fps = np.arange(1 << 16, dtype=np.uint64)
    mixed = mix16(fps)
    assert mixed.dtype == np.uint64
    assert mixed.tolist() == [mix16(fp) for fp in range(1 << 16)]
