"""Evaluation metrics: relative error, precision/recall and F1, entropy.

The benchmark scores every sketch against exact per-flow totals held in
a plain dict, maintained independently of all sketches.
"""

import math
from collections import Counter


class UndefinedMetricError(ValueError):
    """Relative error against a zero ground truth is undefined."""


def relative_error(truth: float, estimate: float) -> float:
    """|truth - estimate| / truth. Raises for truth == 0; callers
    exclude such flows from aggregates."""
    if truth <= 0:
        raise UndefinedMetricError(f"relative error undefined for truth={truth}")
    return abs(truth - estimate) / truth


def f1_score(true_set: set, predicted_set: set) -> float:
    """Harmonic mean of precision and recall; 0 whenever P + R == 0.
    Two empty sets agree exactly and score 1."""
    precision, recall = precision_recall(true_set, predicted_set)
    if precision + recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def precision_recall(true_set: set, predicted_set: set) -> tuple[float, float]:
    """(precision, recall); (1, 1) when both sets are empty, else 0 for
    an empty denominator."""
    if not true_set and not predicted_set:
        return 1.0, 1.0
    tp = len(true_set & predicted_set)
    precision = tp / len(predicted_set) if predicted_set else 0.0
    recall = tp / len(true_set) if true_set else 0.0
    return precision, recall


def entropy_of_values(values) -> float:
    """Base-2 entropy of the frequency distribution of the given values."""
    values = list(values)
    if not values:
        raise UndefinedMetricError("entropy of an empty collection is undefined")
    counts = Counter(values)
    n = len(values)
    return -sum((c / n) * math.log2(c / n) for c in counts.values())

