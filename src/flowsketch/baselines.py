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

from .clustering import InvalidInputError, int_value
from .hashing import bank_hash


class _Banks:
    """c banks of m // c counters; a key's counter in bank j is at its
    j-th index hash modulo the bank width, and a signed sketch adds to
    it and reads it times the key's j-th sign. Each subclass combines
    the reads.

    Two paths fill and read the same counters. The keyed path (insert
    and query, which take the key's bank_hash in every bank) is the
    reference: one key at a time, in Python ints. The batch path takes
    a batch's bank_digests arrays: insert_many fills each bank with one
    np.add.at on int64, query_many reads every bank with one fancy
    index, and both end where the keyed path would, the estimates equal
    in value and in Python type. insert_many refuses a batch that could
    take a counter to 2**63, so int64 stays exact."""

    signed = False

    def __init__(self, m: int, c: int = 3, seed: int = 0):
        if m < c or c < 1:
            raise ValueError(f"need at least one counter per bank (m={m}, c={c})")
        self.c = c
        self.width = m // c
        self.seed = seed
        self.banks = [[0] * self.width for _ in range(c)]

    def memory_bytes(self, counter_width: int = 32) -> int:
        return self.c * self.width * (counter_width // 8)

    def _cells(self, key: bytes):
        """(bank, counter index, sign) of the key in every bank, from
        bank_hash of the key and the bank number."""
        for j, bank in enumerate(self.banks):
            idx, sign = bank_hash(key, self.seed, j)
            yield bank, idx % self.width, sign

    def insert(self, key: bytes, value: int) -> None:
        """Add value to the key's counter in every bank, times the key's
        sign if signed; a value int_value rejects raises before any
        write."""
        value = int_value(value)
        for bank, i, sign in self._cells(key):
            bank[i] += sign * value if self.signed else value

    def _reads(self, key: bytes) -> list[int]:
        """The key's counter in every bank, sign-corrected if signed."""
        return [sign * bank[i] if self.signed else bank[i] for bank, i, sign in self._cells(key)]

    def insert_many(self, hashes, values) -> None:
        """insert() of values[i] under key i of bank_digests(keys, seed,
        c). Each raises before any write: a value insert() rejects,
        hashes of another bank count or key count (ValueError), and a
        batch whose values sum, with the largest counter held, to 2**63
        or more (InvalidInputError), since no counter moves by more than
        the values' sum."""
        values = [int_value(v) for v in values]
        cols, signs = self._columns(hashes)
        if cols.shape[1] != len(values):
            raise ValueError(f"{len(values)} values, bank hashes of {cols.shape[1]} keys")
        total = sum(values)
        if total + max(abs(v) for bank in self.banks for v in bank) >= 1 << 63:
            raise InvalidInputError(f"a batch of total {total} could take a counter "
                                    "past the int64 range")
        banks = np.array(self.banks, dtype=np.int64)
        values = np.array(values, dtype=np.int64)
        for bank, col, sign in zip(banks, cols, signs):
            np.add.at(bank, col, sign * values if self.signed else values)
        self.banks = banks.tolist()

    def _columns(self, hashes) -> tuple[np.ndarray, np.ndarray]:
        """bank_digests' (indices, signs) as each key's counter column
        in every bank, and the signs; hashes of another bank count raise
        ValueError."""
        indices, signs = hashes
        if indices.ndim != 2 or len(indices) != self.c or signs.shape != indices.shape:
            raise ValueError(f"bank hashes of shape {indices.shape} and {signs.shape} "
                             f"for {self.c} banks")
        return (indices % np.uint64(self.width)).astype(np.intp), signs

    def _reads_many(self, hashes) -> np.ndarray:
        """_reads of every key of bank_digests, as a (c, n) int64 array."""
        cols, signs = self._columns(hashes)
        reads = np.array(self.banks, dtype=np.int64)[np.arange(self.c)[:, None], cols]
        return reads * signs if self.signed else reads


class CmSketch(_Banks):
    """Count-Min: c banks of m/c counters, query = min of mapped counters."""

    insert = _Banks.insert  # own attribute: perfbench's tracer wraps each class's insert

    def query(self, key: bytes) -> int:
        return min(self._reads(key))

    def query_many(self, hashes) -> list[int]:
        """query() of every key of bank_digests, in key order."""
        return self._reads_many(hashes).min(axis=0).tolist()


class CsSketch(_Banks):
    """Count-Sketch: signed counters, query = median of sign-corrected reads.

    The median over an even bank count takes the lower middle value so
    results stay deterministic. Raw queries can be negative; query()
    clamps at zero because flow sizes cannot be negative, and
    query_raw() exposes the unclamped estimator.
    """

    signed = True

    insert = _Banks.insert  # own attribute: perfbench's tracer wraps each class's insert

    def query_raw(self, key: bytes) -> float:
        return float(statistics.median_low(self._reads(key)))

    def query(self, key: bytes) -> float:
        return max(0.0, self.query_raw(key))

    def _raw_many(self, hashes) -> np.ndarray:
        """query_raw() of every key of bank_digests: median_low of c
        reads is the sorted row (c - 1) // 2."""
        return np.sort(self._reads_many(hashes), axis=0)[(self.c - 1) // 2].astype(np.float64)

    def query_many(self, hashes) -> list[float]:
        """query() of every key of bank_digests, in key order."""
        return np.maximum(0.0, self._raw_many(hashes)).tolist()


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
                               seed: int = 0) -> float:
    """Ball-bin estimate of the noisy-bucket fraction.

    Each trial throws the n keys into every bank and counts buckets with
    at least two keys; the fractions are averaged over all trials and
    banks. Vectorized over trials in chunks of at most 10M bins to bound
    memory.
    """
    bins = m // c
    if bins < 1:
        raise ValueError("m // c must be at least 1")
    rng = np.random.default_rng(seed)
    chunk = max(1, min(trials, 10_000_000 // bins))
    # trial i of a chunk throws into bins [i * bins, (i + 1) * bins); a
    # shorter last chunk uses the prefix for its t trials
    offsets = np.repeat(np.arange(chunk, dtype=np.int64) * bins, n)
    noisy = 0
    done = 0
    while done < trials:
        t = min(chunk, trials - done)
        for _ in range(c):
            throws = rng.integers(0, bins, size=t * n, dtype=np.int64)
            counts = np.bincount(throws + offsets[:t * n], minlength=t * bins)
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
