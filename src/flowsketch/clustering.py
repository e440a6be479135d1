"""Offline K-means training over flow sizes and the bucket-allocation policy.

Flow sizes are one-dimensional, so the optimal k-means clusters are
contiguous runs of the sorted sizes, and train_kmeans finds them exactly
by dynamic programming. The model is the sorted list of their centers
plus per-cluster statistics:

  entropy   uncertainty of the values inside the cluster, base-2 and
            normalized by log2(distinct count) so it lies in [0, 1]
  weight    the center divided by the sum of all centers
  density   fraction of the training items assigned to the cluster

Bucket arrays are then sized proportionally to entropy * density * weight:
clusters that are uncertain, populous, or sit in the heavy tail get more
buckets.
"""

import math
import operator
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np


class InvalidInputError(ValueError):
    """Raised when an operation's preconditions are violated."""


def int_value(value) -> int:
    """A sketch insert value as a non-negative Python int. Integral
    types such as numpy ints are converted; bool, float and str raise
    TypeError, and a negative value raises InvalidInputError."""
    if type(value) is not int:
        if isinstance(value, bool):
            raise TypeError("insert values must be integers, not bool")
        value = operator.index(value)
    if value < 0:
        raise InvalidInputError("values must be non-negative")
    return value


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
        # binary-search routing requires sorted centers
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
        """Versioned document. Every float is written at full precision,
        so from_json gives back this model exactly."""
        return {
            "format": "cluster-model",
            "version": 1,
            "centers": list(self.centers),
            "entropy": list(self.entropy),
            "weight": list(self.weight),
            "density": list(self.density),
            "allocation": list(self.allocation) if self.allocation else None,
        }

    @classmethod
    def from_json(cls, doc) -> "ClusterModel":
        """The model a to_json document describes. A wrong format or
        version, a missing field, a field of the wrong type, a NaN or an
        infinity, or an entropy, weight or density list whose length is
        not k raises InvalidInputError; allocation values are checked by
        the sketch that lays out its buckets from them."""
        if not isinstance(doc, dict) or doc.get("format") != "cluster-model" \
                or doc.get("version") != 1:
            raise InvalidInputError("not a version 1 cluster-model document")
        fields = {name: _json_list(doc, name, (int, float))
                  for name in ("centers", "entropy", "weight", "density")}
        for name in ("entropy", "weight", "density"):
            if len(fields[name]) != len(fields["centers"]):
                raise InvalidInputError(f"model {name} needs one entry per center")
        return cls(**fields, allocation=_json_list(doc, "allocation", int) or None)


def _json_list(doc: dict, name: str, types) -> tuple | None:
    """doc[name] as a tuple of finite numbers of the given (non-bool)
    types; an allocation may be null."""
    if name not in doc:
        raise InvalidInputError(f"model document lacks {name}")
    values = doc[name]
    if values is None and name == "allocation":
        return None
    if not isinstance(values, list) or any(
            isinstance(v, bool) or not isinstance(v, types) for v in values):
        raise InvalidInputError(f"model {name} must be a list of numbers")
    # json reads NaN and Infinity; an infinite center would own buckets
    # that no flow can reach
    if any(isinstance(v, float) and not math.isfinite(v) for v in values):
        raise InvalidInputError(f"model {name} must hold finite numbers")
    return tuple(values)


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


def train_kmeans(samples, k: int) -> np.ndarray:
    """The k centers of minimum k-means potential over 1-D samples.

    The optimal clusters are contiguous runs of the sorted distinct
    values, so a DP over those values, weighted by their counts, finds
    them exactly (Wang & Song, "Ckmeans.1d.dp", The R Journal 2011).
    Layer c holds the least cost of covering the first j values with c
    clusters; its best split points do not decrease with j, so each
    layer is filled by divide and conquer in O(d log d) for d distinct
    values, one numpy pass per recursion level.

    Args:
        samples: non-negative flow sizes (any iterable of reals).
        k: number of clusters; must not exceed the number of distinct
           sample values.

    Returns:
        Exactly k strictly ascending centers, each the mean of its run.
        The same samples always give the same centers.
    """
    samples = np.asarray(list(samples), dtype=np.float64)
    if samples.size == 0:
        raise InvalidInputError("cannot train on an empty sample set")
    if not np.all(np.isfinite(samples)) or np.any(samples < 0):
        raise InvalidInputError("samples must be finite and non-negative")
    distinct, counts = np.unique(samples, return_counts=True)
    d = distinct.size
    if k < 1 or k > d:
        raise InvalidInputError(
            f"k={k} must be in [1, {d}] (number of distinct values)"
        )
    # the cost of a run does not change under a shift; centring the
    # values keeps the prefix-sum differences below from cancelling
    x = distinct - np.average(distinct, weights=counts)
    w, wx, wxx = (np.concatenate(([0.0], np.cumsum(v))) for v in (counts, counts * x, counts * x * x))

    def cost(i, j):  # squared error of distinct values i..j-1 about their mean
        return wxx[j] - wxx[i] - (wx[j] - wx[i]) ** 2 / (w[j] - w[i])

    # layer c only needs j <= d - k + c: every later cluster needs a value
    best = np.full(d + 1, np.inf)
    best[1:d - k + 2] = cost(0, np.arange(1, d - k + 2))
    splits = []
    for c in range(2, k + 1):
        best, split = _dp_layer(best, c, d - k + c, cost)
        splits.append(split)
    ends = [d]
    for split in reversed(splits):
        ends.append(split[ends[-1]])
    starts = np.array([0, *ends[:0:-1]])
    return np.add.reduceat(counts * distinct, starts) / np.add.reduceat(counts, starts)


def _dp_layer(prev: np.ndarray, c: int, last: int, cost) -> tuple[np.ndarray, np.ndarray]:
    """Layer c of the k-means DP: for j in [c, last], the least
    prev[i] + cost(i, j) over i in [c - 1, j - 1], and the lowest i
    that attains it. Each pending range of j is solved at its midpoint
    and split there, and every range of one level is scanned at once."""
    best = np.full(prev.size, np.inf)
    split = np.zeros(prev.size, dtype=np.int64)
    lo, hi = np.array([c]), np.array([last])      # ranges of j still to solve
    ilo, ihi = np.array([c - 1]), np.array([last - 1])  # their ranges of split i
    while lo.size:
        mid = (lo + hi) // 2
        lengths = np.minimum(mid - 1, ihi) - ilo + 1
        offsets = np.cumsum(lengths) - lengths
        owner = np.repeat(np.arange(mid.size), lengths)
        i = np.arange(lengths.sum()) - offsets[owner] + ilo[owner]
        total = prev[i] + cost(i, mid[owner])
        least = np.minimum.reduceat(total, offsets)
        hits = np.flatnonzero(total == least[owner])
        arg = i[hits[np.searchsorted(hits, offsets)]]
        best[mid], split[mid] = least, arg
        left, right = lo < mid, mid < hi
        lo, hi, ilo, ihi = (np.concatenate((a[left], b[right])) for a, b in
                            ((lo, mid + 1), (mid - 1, hi), (ilo, arg), (arg, ihi)))
    return best, split


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


def train_model(samples, k: int, seed: int = 0) -> ClusterModel:
    """Convenience wrapper: train centers, then derive the statistics.

    The fit is exact and draws no random numbers, so seed is ignored.
    It is still accepted because the perfbench workloads pass it."""
    centers = train_kmeans(samples, k)
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
