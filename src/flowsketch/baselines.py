"""Count-Min and Count-Sketch baselines, collision analytics, and the
dense linear-decode oracle.

Count-Min keeps c banks of non-negative counters and answers with the
minimum mapped counter, so it never underestimates. Count-Sketch signs
every update with a per-bank random +-1 and answers with the median of
the sign-corrected counters, which makes it unbiased at the price of
variance.

expected_noisy_fraction gives the closed-form expected share of buckets
that receive two or more keys when N keys are hashed uniformly into c
banks of m/c buckets; noisy_fraction_monte_carlo estimates the same
quantity by actually throwing the balls.

autoencoder_oracle is the dense counterpart of the averaging sketch: an
N x m indicator matrix A with one 1 per row encodes the stream as
I = A^T X, and decoding multiplies by A C^-1 where C = A^T A is the
diagonal matrix of per-bucket key counts. Entries come back as exact
rationals so sketch-vs-oracle comparisons can demand equality.
"""

import statistics
from fractions import Fraction

import numpy as np

from .clustering import int_value
from .hashing import bank_hash


class CmSketch:
    """Count-Min: c banks of m/c counters, query = min of mapped counters."""

    def __init__(self, m: int, c: int = 3, seed: int = 0):
        if m < c or c < 1:
            raise ValueError(f"need at least one counter per bank (m={m}, c={c})")
        self.c = c
        self.width = m // c
        self.seed = seed
        self.banks = [[0] * self.width for _ in range(c)]

    def insert(self, key: bytes, value: int) -> None:
        value = int_value(value)
        if value < 0:
            raise ValueError("values must be non-negative")
        for j in range(self.c):
            idx, _ = bank_hash(key, self.seed, j)
            self.banks[j][idx % self.width] += value

    def query(self, key: bytes) -> int:
        est = None
        for j in range(self.c):
            idx, _ = bank_hash(key, self.seed, j)
            v = self.banks[j][idx % self.width]
            est = v if est is None else min(est, v)
        return est

    def memory_bytes(self, counter_width: int = 32) -> int:
        return self.c * self.width * (counter_width // 8)


class CsSketch:
    """Count-Sketch: signed counters, query = median of sign-corrected reads.

    The median over an even bank count takes the lower middle value so
    results stay deterministic. Raw queries can be negative; query()
    clamps at zero because flow sizes cannot be negative, and
    query_raw() exposes the unclamped estimator.
    """

    def __init__(self, m: int, c: int = 3, seed: int = 0):
        if m < c or c < 1:
            raise ValueError(f"need at least one counter per bank (m={m}, c={c})")
        self.c = c
        self.width = m // c
        self.seed = seed
        self.banks = [[0] * self.width for _ in range(c)]

    def insert(self, key: bytes, value: int) -> None:
        value = int_value(value)
        if value < 0:
            raise ValueError("values must be non-negative")
        for j in range(self.c):
            idx, sign = bank_hash(key, self.seed, j)
            self.banks[j][idx % self.width] += sign * value

    def query_raw(self, key: bytes) -> float:
        reads = []
        for j in range(self.c):
            idx, sign = bank_hash(key, self.seed, j)
            reads.append(sign * self.banks[j][idx % self.width])
        return float(statistics.median_low(reads))

    def query(self, key: bytes) -> float:
        return max(0.0, self.query_raw(key))

    def memory_bytes(self, counter_width: int = 32) -> int:
        return self.c * self.width * (counter_width // 8)


def expected_noisy_fraction(m: int, n: int, c: int = 1) -> float:
    """Expected fraction of buckets holding two or more keys.

    For N keys hashed uniformly into c banks of m/c buckets each:
    1 - e^(-cN/m) - (cN/m) e^(-c(N-1)/m). Zero keys means zero noise.
    """
    if m <= 0 or c <= 0 or n < 0:
        raise ValueError("m and c must be positive, n non-negative")
    if n == 0:
        return 0.0
    r = c * n / m
    return float(1.0 - np.exp(-r) - r * np.exp(-c * (n - 1) / m))


def noisy_fraction_monte_carlo(m: int, n: int, c: int = 1, trials: int = 1000,
                               seed: int = 0, chunk: int | None = None) -> float:
    """Ball-bin estimate of the noisy-bucket fraction.

    Each trial throws the n keys into every bank and counts buckets with
    at least two keys; the fractions are averaged over all trials and
    banks. Vectorized over trials in chunks to bound memory.
    """
    bins = m // c
    if bins < 1:
        raise ValueError("m // c must be at least 1")
    rng = np.random.default_rng(seed)
    if chunk is None:
        chunk = max(1, min(trials, 10_000_000 // max(1, bins)))
    noisy = 0
    done = 0
    offsets_cache = {}
    while done < trials:
        t = min(chunk, trials - done)
        if t not in offsets_cache:
            offsets_cache[t] = np.repeat(np.arange(t, dtype=np.int64) * bins, n)
        offsets = offsets_cache[t]
        for _ in range(c):
            throws = rng.integers(0, bins, size=t * n, dtype=np.int64)
            counts = np.bincount(throws + offsets, minlength=t * bins)
            noisy += int(np.count_nonzero(counts >= 2))
        done += t
    return noisy / (trials * c * bins)


class DenseMapping:
    """N x m indicator matrix with exactly one 1 per row."""

    def __init__(self, assignment, m: int):
        self.assignment = list(assignment)
        self.m = m
        if any(not (0 <= j < m) for j in self.assignment):
            raise ValueError("bucket assignments out of range")

    @property
    def n(self) -> int:
        return len(self.assignment)

    def matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.m), dtype=np.int64)
        a[np.arange(self.n), self.assignment] = 1
        return a


def autoencoder_oracle(mapping: DenseMapping, values) -> list[Fraction]:
    """Dense encode/decode reference for the averaging estimator.

    Encodes I = A^T X, forms the diagonal C = A^T A, and decodes
    X_hat = A C^-1 I using exact rational arithmetic. Diagonal entries
    for empty buckets are skipped (no row ever reads them).
    """
    a = mapping.matrix()
    x = [Fraction(v) for v in values]
    if len(x) != mapping.n:
        raise ValueError(f"expected {mapping.n} values, got {len(x)}")
    encoded = [Fraction(0)] * mapping.m
    counts = [0] * mapping.m
    for i, j in enumerate(mapping.assignment):
        encoded[j] += x[i]
        counts[j] += 1
    decoded = []
    for i in range(mapping.n):
        row = a[i]
        total = Fraction(0)
        for j in np.nonzero(row)[0]:
            total += encoded[j] / counts[j]
        decoded.append(total)
    return decoded
