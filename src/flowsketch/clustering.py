"""Offline K-means training over flow sizes and the bucket-allocation policy.

Flow sizes are one-dimensional, so the model is a sorted list of cluster
centers plus per-cluster statistics:

  entropy   uncertainty of the values inside the cluster, base-2 and
            normalized by log2(distinct count) so it lies in [0, 1]
  weight    the center divided by the sum of all centers
  density   fraction of the training items assigned to the cluster

Bucket arrays are then sized proportionally to entropy * density * weight:
clusters that are uncertain, populous, or sit in the heavy tail get more
buckets.
"""

import operator
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np


class InvalidInputError(ValueError):
    """Raised when an operation's preconditions are violated."""


def int_value(value) -> int:
    """A sketch insert value as a Python int. Integral types such as
    numpy ints are converted; bool, float and str raise TypeError."""
    if type(value) is int:
        return value
    if isinstance(value, bool):
        raise TypeError("insert values must be integers, not bool")
    return operator.index(value)


@dataclass(frozen=True)
class ClusterModel:
    """Trained cluster centers with per-cluster statistics.

    centers are sorted strictly ascending; density and weight each sum
    to 1; entropy entries lie in [0, 1]. allocation is filled in once a
    bucket budget is chosen (see allocate_buckets).
    """

    centers: tuple[float, ...]
    entropy: tuple[float, ...]
    weight: tuple[float, ...]
    density: tuple[float, ...]
    allocation: tuple[int, ...] | None = None

    def __post_init__(self):
        # binary-search routing requires sorted centers; equal neighbors
        # can only appear through narrow-precision round trips
        if any(b < a for a, b in zip(self.centers, self.centers[1:])):
            raise InvalidInputError("centers must be sorted ascending")
        if not self.centers:
            raise InvalidInputError("at least one center required")

    @property
    def k(self) -> int:
        return len(self.centers)

    def with_allocation(self, m: int, policy: str = "hdw") -> "ClusterModel":
        return replace(self, allocation=tuple(allocate_buckets(self, m, policy=policy)))

    def to_json(self) -> dict:
        """Versioned document; centers are stored at 32-bit float precision."""
        return {
            "format": "cluster-model",
            "version": 1,
            "centers": [float(np.float32(c)) for c in self.centers],
            "entropy": list(self.entropy),
            "weight": list(self.weight),
            "density": list(self.density),
            "allocation": list(self.allocation) if self.allocation else None,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ClusterModel":
        if doc.get("format") != "cluster-model" or doc.get("version") != 1:
            raise InvalidInputError(f"unsupported model document: {doc.get('format')!r}")
        return cls(
            centers=tuple(doc["centers"]),
            entropy=tuple(doc["entropy"]),
            weight=tuple(doc["weight"]),
            density=tuple(doc["density"]),
            allocation=tuple(doc["allocation"]) if doc.get("allocation") else None,
        )


def kmeans_potential(samples: np.ndarray, centers: np.ndarray) -> float:
    """Sum of squared distances from each sample to its nearest center."""
    idx = assign_nearest(centers, samples)
    return float(np.sum((samples - centers[idx]) ** 2))


def assign_nearest(centers: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Vectorized nearest-center assignment on sorted centers.

    Ties break toward the lower index, matching nearest_center.
    """
    centers = np.asarray(centers, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if len(centers) == 1:
        return np.zeros(values.shape, dtype=np.int64)
    pos = np.clip(np.searchsorted(centers, values), 1, len(centers) - 1)
    left = centers[pos - 1]
    right = centers[pos]
    choose_left = (values - left) <= (right - values)
    return np.where(choose_left, pos - 1, pos).astype(np.int64)


def _kmeanspp_init(samples: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: first center uniform, then D^2-weighted picks."""
    centers = np.empty(k, dtype=np.float64)
    centers[0] = samples[rng.integers(len(samples))]
    d2 = (samples - centers[0]) ** 2
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining mass sits on already-chosen points
            centers[i:] = centers[i - 1]
            break
        probs = d2 / total
        centers[i] = samples[rng.choice(len(samples), p=probs)]
        d2 = np.minimum(d2, (samples - centers[i]) ** 2)
    return centers


def _lloyd(
    samples: np.ndarray,
    centers: np.ndarray,
    max_iters: int,
    tol: float,
) -> tuple[np.ndarray, list[float]]:
    """Lloyd iterations from explicit initial centers.

    Returns the centers and the per-iteration potential trace. The
    potential must never increase between iterations; that is asserted
    on every step.
    """
    centers = np.sort(np.asarray(centers, dtype=np.float64))
    potentials = [kmeans_potential(samples, centers)]
    for _ in range(max_iters):
        idx = assign_nearest(centers, samples)
        new_centers = centers.copy()
        for i in range(len(centers)):
            members = samples[idx == i]
            if len(members):
                new_centers[i] = members.mean()
            else:
                # reseed an empty cluster at the worst-served sample
                far = np.argmax((samples - centers[idx]) ** 2)
                new_centers[i] = samples[far]
        new_centers = np.sort(new_centers)
        potential = kmeans_potential(samples, new_centers)
        assert potential <= potentials[-1] * (1 + 1e-9) + 1e-12, (
            f"k-means potential increased: {potentials[-1]} -> {potential}"
        )
        movement = np.abs(new_centers - centers) / np.maximum(np.abs(centers), 1e-12)
        centers = new_centers
        potentials.append(potential)
        if movement.max() < tol:
            break
    return centers, potentials


def train_kmeans(
    samples,
    k: int,
    max_iters: int = 100,
    tol: float = 1e-4,
    seed: int = 0,
    n_init: int = 10,
) -> np.ndarray:
    """Train sorted 1-D K-means centers with k-means++ seeding.

    Args:
        samples: non-negative flow sizes (any iterable of reals).
        k: number of clusters; must not exceed the number of distinct
           sample values.
        max_iters: Lloyd iteration cap.
        tol: relative center movement below which training stops.
        seed: RNG seed; the result is deterministic given (samples, seed).
        n_init: independent seedings; the run with the lowest potential
           wins. Skewed flow sizes leave plenty of bad local optima, so
           a single seeding is not reliable.

    Returns:
        Strictly ascending centers. Centers that converge onto the same
        value are merged, so fewer than k centers can come back.
    """
    samples = np.asarray(list(samples), dtype=np.float64)
    if samples.size == 0:
        raise InvalidInputError("cannot train on an empty sample set")
    if not np.all(np.isfinite(samples)) or np.any(samples < 0):
        raise InvalidInputError("samples must be finite and non-negative")
    distinct = np.unique(samples)
    if k < 1 or k > distinct.size:
        raise InvalidInputError(
            f"k={k} must be in [1, {distinct.size}] (number of distinct values)"
        )
    rng = np.random.default_rng(seed)
    best_centers, best_potential = None, None
    for _ in range(max(1, n_init)):
        init = _kmeanspp_init(samples, k, rng)
        centers, potentials = _lloyd(samples, init, max_iters=max_iters, tol=tol)
        if best_potential is None or potentials[-1] < best_potential:
            best_centers, best_potential = centers, potentials[-1]
    # merge duplicates produced by convergence onto shared points
    return np.unique(best_centers)


def cluster_stats(samples, centers) -> ClusterModel:
    """Per-cluster entropy, normalized center weight, and density.

    Entropy is computed over the distinct values inside each cluster,
    base 2, normalized by log2(distinct count); a cluster with a single
    distinct value has entropy 0.
    """
    samples = np.asarray(list(samples), dtype=np.float64)
    centers = np.asarray(list(centers), dtype=np.float64)
    if samples.size == 0 or centers.size == 0:
        raise InvalidInputError("samples and centers must be non-empty")
    k = centers.size
    idx = assign_nearest(centers, samples)

    density = np.zeros(k)
    entropy = np.zeros(k)
    for i in range(k):
        members = samples[idx == i]
        density[i] = len(members) / len(samples)
        if len(members) == 0:
            continue
        counts = np.asarray(list(Counter(members.tolist()).values()), dtype=np.float64)
        if len(counts) <= 1:
            continue
        freqs = counts / counts.sum()
        h = -np.sum(freqs * np.log2(freqs))
        entropy[i] = h / np.log2(len(counts))

    total_center = centers.sum()
    if total_center > 0:
        weight = centers / total_center
    else:
        weight = np.full(k, 1.0 / k)

    return ClusterModel(
        centers=tuple(centers.tolist()),
        entropy=tuple(entropy.tolist()),
        weight=tuple(weight.tolist()),
        density=tuple(density.tolist()),
    )


def train_model(samples, k: int, max_iters: int = 100, tol: float = 1e-4, seed: int = 0) -> ClusterModel:
    """Convenience wrapper: train centers, then derive the statistics."""
    centers = train_kmeans(samples, k, max_iters=max_iters, tol=tol, seed=seed)
    return cluster_stats(samples, centers)


_POLICY_FACTORS = {
    "hdw": ("entropy", "density", "weight"),
    "dw": ("density", "weight"),
    "hw": ("entropy", "weight"),
    "hd": ("entropy", "density"),
    "uniform": (),
}


def allocate_buckets(model: ClusterModel, m: int, policy: str = "hdw") -> list[int]:
    """Split a budget of m buckets across the k cluster arrays.

    Each array gets floor(share * m) where share is the cluster's
    normalized entropy*density*weight product, with a floor of one
    bucket per array; leftover buckets go to the largest fractional
    parts. The policy argument drops individual factors for ablation
    runs ("dw", "hw", "hd") or ignores the statistics entirely
    ("uniform").
    """
    k = model.k
    if m < k:
        raise InvalidInputError(f"m={m} must be at least k={k}")
    if policy not in _POLICY_FACTORS:
        raise InvalidInputError(f"unknown allocation policy {policy!r}")
    factors = _POLICY_FACTORS[policy]
    weights = np.ones(k, dtype=np.float64)
    for name in factors:
        weights = weights * np.asarray(getattr(model, name), dtype=np.float64)

    total = weights.sum()
    if total <= 0.0:
        # degenerate trace (e.g. a single repeated value): uniform split
        weights = np.ones(k)
        total = float(k)

    raw = weights / total * m
    alloc = np.maximum(1, np.floor(raw).astype(np.int64))
    deficit = m - int(alloc.sum())
    if deficit > 0:
        # hand out leftovers by largest fractional part, skipping entries
        # that were already bumped up to the one-bucket floor
        frac = raw - np.floor(raw)
        frac[np.floor(raw) < 1] = -1.0
        order = np.argsort(-frac, kind="stable")
        for j in range(deficit):
            alloc[order[j % k]] += 1
    elif deficit < 0:
        # the one-bucket floor overcommitted; take back from the largest
        order = np.argsort(-alloc, kind="stable")
        j = 0
        while deficit < 0:
            i = order[j % k]
            if alloc[i] > 1:
                alloc[i] -= 1
                deficit += 1
            j += 1
    assert int(alloc.sum()) == m and alloc.min() >= 1
    return [int(a) for a in alloc]


def nearest_center(centers, value: float) -> int:
    """Index of the center closest to value in sorted centers, by binary
    search. Ties break toward the lower index, matching assign_nearest.
    """
    pos = bisect_left(centers, value)
    if pos == 0:
        return 0
    if pos == len(centers):
        return pos - 1
    if value - centers[pos - 1] <= centers[pos] - value:
        return pos - 1
    return pos
