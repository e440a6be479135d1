import hashlib

import pytest

from flowsketch.hashing import bank_hash, key_digest

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

