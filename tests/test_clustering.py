import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsketch.clustering import (
    ClusterModel,
    InvalidInputError,
    allocate_buckets,
    assign_nearest,
    cluster_stats,
    kmeans_potential,
    nearest_center,
    train_kmeans,
    train_model,
)
from flowsketch.traces import zipf_values


def make_model(centers, entropy=None, weight=None, density=None):
    k = len(centers)
    total = sum(centers) or 1.0
    return ClusterModel(
        centers=tuple(centers),
        entropy=tuple(entropy if entropy is not None else [0.5] * k),
        weight=tuple(weight if weight is not None else [c / total for c in centers]),
        density=tuple(density if density is not None else [1.0 / k] * k),
    )


class TestTrainKmeans:
    def test_two_tight_groups(self):
        centers = train_kmeans([1, 1, 1, 9, 9, 9], 2)
        assert np.allclose(centers, [1.0, 9.0])

    def test_single_cluster_is_mean(self):
        centers = train_kmeans([2, 4, 6], 1)
        assert np.allclose(centers, [4.0])

    def test_empty_samples_rejected(self):
        with pytest.raises(InvalidInputError):
            train_kmeans([], 2)

    def test_k_exceeding_distinct_rejected(self):
        with pytest.raises(InvalidInputError):
            train_kmeans([1, 1, 2, 2], 3)

    def test_centers_sorted_and_deterministic(self):
        rng = np.random.default_rng(5)
        samples = rng.integers(0, 50, size=400)
        a = train_kmeans(samples, 8)
        b = train_kmeans(samples, 8)
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) > 0)

    @staticmethod
    def weighted(value_counts):
        return np.repeat([float(v) for v, _ in value_counts], [c for _, c in value_counts])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1000), st.integers(1, 5)), min_size=1,
                    max_size=10, unique_by=lambda vc: vc[0]), st.data())
    def test_potential_is_the_best_contiguous_partition(self, value_counts, data):
        # oracle: every split of the sorted distinct values into k runs
        samples = self.weighted(sorted(value_counts))
        distinct = np.unique(samples)
        k = data.draw(st.integers(1, distinct.size))
        best = np.inf
        for cuts in itertools.combinations(range(1, distinct.size), k - 1):
            runs = [samples[np.isin(samples, run)] for run in np.split(distinct, cuts)]
            best = min(best, sum(float(np.sum((r - r.mean()) ** 2)) for r in runs))
        potential = kmeans_potential(samples, train_kmeans(samples, k))
        assert potential == pytest.approx(best, rel=1e-9, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 10_000), st.integers(1, 20)), min_size=1,
                    max_size=60, unique_by=lambda vc: vc[0]), st.data())
    def test_potential_never_above_any_sorted_centers(self, value_counts, data):
        samples = self.weighted(value_counts)
        k = data.draw(st.integers(1, len(value_counts)))
        lo, hi = float(samples.min()), float(samples.max())
        rival = np.sort(data.draw(st.lists(st.floats(lo, hi), min_size=k, max_size=k)))
        fitted = kmeans_potential(samples, train_kmeans(samples, k))
        assert fitted <= kmeans_potential(samples, rival) * (1 + 1e-9) + 1e-9

    def test_exactly_k_strictly_ascending_centers(self):
        samples = zipf_values(np.random.default_rng(8), 2000, 1.1, v_max=32).astype(float)
        for k in range(1, np.unique(samples).size + 1):
            centers = train_kmeans(samples, k)
            assert len(centers) == k
            assert np.all(np.diff(centers) > 0)

    def test_retraining_on_second_epoch_is_stable(self):
        # centers transfer across epochs of the same distribution
        first = zipf_values(np.random.default_rng(100), 10_000, 1.1, v_max=32)
        second = zipf_values(np.random.default_rng(200), 10_000, 1.1, v_max=32)
        c1 = train_kmeans(first.astype(float), 30)
        c2 = train_kmeans(second.astype(float), 30)
        assert len(c1) == len(c2)
        drift = np.abs(c2 - c1) / np.maximum(np.abs(c1), 1e-12)
        assert drift.max() < 0.20


class TestClusterStats:
    def test_single_value_cluster(self):
        model = cluster_stats([5, 5, 5], [5.0])
        assert model.entropy == (0.0,)
        assert model.density == (1.0,)
        assert model.weight == (1.0,)

    def test_two_cluster_ratios(self):
        model = cluster_stats([1, 2, 100], [1.5, 100.0])
        assert model.density == pytest.approx((2 / 3, 1 / 3))
        assert model.weight == pytest.approx((1.5 / 101.5, 100 / 101.5))

    def test_entropy_normalized_to_unit_interval(self):
        # two distinct values split 50/50 -> maximum entropy 1.0
        model = cluster_stats([1, 1, 3, 3], [2.0])
        assert model.entropy == pytest.approx((1.0,))

    def test_matches_histogram_recomputation(self):
        # independent one-pass counting oracle
        rng = np.random.default_rng(3)
        samples = zipf_values(rng, 5000, 1.1, v_max=32).astype(np.float64)
        centers = train_kmeans(samples, 30)
        model = cluster_stats(samples, centers)

        counts = {}
        for v in samples:
            i = min(range(len(centers)), key=lambda j: (abs(v - centers[j]), j))
            counts.setdefault(i, {}).setdefault(v, 0)
            counts[i][v] += 1
        for i in range(len(centers)):
            per_value = counts.get(i, {})
            n_i = sum(per_value.values())
            assert model.density[i] == pytest.approx(n_i / len(samples))
            if len(per_value) <= 1:
                expected_h = 0.0
            else:
                freqs = np.array(list(per_value.values())) / n_i
                expected_h = -(freqs * np.log2(freqs)).sum() / np.log2(len(per_value))
            assert model.entropy[i] == pytest.approx(expected_h)
        assert sum(model.density) == pytest.approx(1.0, abs=1e-9)
        assert sum(model.weight) == pytest.approx(1.0, abs=1e-9)


class TestAllocateBuckets:
    def test_symmetric_split(self):
        model = make_model([10, 20], entropy=[0.5, 0.5], weight=[0.5, 0.5],
                           density=[0.5, 0.5])
        assert allocate_buckets(model, 100) == [50, 50]

    def test_exact_proportional_split(self):
        model = make_model([10, 20], entropy=[1.0, 1.0], weight=[0.8, 0.2],
                           density=[1.0, 1.0])
        assert allocate_buckets(model, 10) == [8, 2]

    def test_zero_weight_cluster_keeps_one_bucket(self):
        model = make_model([10, 20], entropy=[1.0, 0.0], weight=[0.5, 0.5],
                           density=[0.5, 0.5])
        assert allocate_buckets(model, 100) == [99, 1]

    def test_m_below_k_rejected(self):
        model = make_model([1, 2, 3])
        with pytest.raises(InvalidInputError):
            allocate_buckets(model, 2)

    def test_all_zero_weights_fall_back_to_uniform(self):
        model = make_model([5, 10, 20], entropy=[0, 0, 0])
        assert allocate_buckets(model, 9) == [3, 3, 3]

    def test_sums_to_m_with_floor_for_random_weights(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            k = int(rng.integers(1, 12))
            m = int(rng.integers(k, 5 * k + 40))
            model = make_model(
                centers=np.sort(rng.uniform(1, 100, size=k)).tolist(),
                entropy=rng.uniform(0, 1, size=k).tolist(),
                weight=rng.uniform(0, 1, size=k).tolist(),
                density=rng.uniform(0, 1, size=k).tolist(),
            )
            alloc = allocate_buckets(model, m)
            assert sum(alloc) == m
            assert min(alloc) >= 1

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), policy=st.sampled_from(("hdw", "dw", "hw", "hd", "uniform")))
    def test_every_policy_sums_to_m_with_floor(self, data, policy):
        k = data.draw(st.integers(1, 12), label="k")
        m = data.draw(st.integers(k, 6 * k + 40), label="m")
        stat = st.lists(st.floats(0, 1), min_size=k, max_size=k)
        model = make_model(list(range(1, k + 1)), entropy=data.draw(stat, label="entropy"),
                           weight=data.draw(stat, label="weight"),
                           density=data.draw(stat, label="density"))
        alloc = allocate_buckets(model, m, policy=policy)
        assert len(alloc) == k
        assert sum(alloc) == m
        assert min(alloc) >= 1
        if policy == "uniform":
            assert max(alloc) - min(alloc) <= 1


class TestNearestCenter:
    def test_closest(self):
        model = make_model([10, 50, 90])
        assert nearest_center(model.centers, 12) == 0

    def test_tie_breaks_low(self):
        model = make_model([10, 50, 90])
        assert nearest_center(model.centers, 30) == 0

    def test_clamps_to_last(self):
        model = make_model([10, 50, 90])
        assert nearest_center(model.centers, 10_000) == 2

    def test_agrees_with_linear_scan(self):
        rng = np.random.default_rng(17)
        centers = np.sort(rng.uniform(0, 1000, size=30))
        model = make_model(centers.tolist())
        values = rng.uniform(-10, 1100, size=10_000)
        for v in values:
            expected = min(range(30), key=lambda j: (abs(v - centers[j]), j))
            assert nearest_center(model.centers, v) == expected

    @settings(max_examples=200, deadline=None)
    @given(centers=st.lists(st.integers(0, 10**6), min_size=1, max_size=12),
           values=st.lists(st.floats(-10.0, 1.1e6), max_size=20))
    def test_matches_assign_nearest(self, centers, values):
        # integer centers make every midpoint exact, so ties are tested
        centers = tuple(float(c) for c in sorted(centers))
        values = values + [(a + b) / 2 for a, b in zip(centers, centers[1:])] + list(centers)
        expected = [nearest_center(centers, v) for v in values]
        assert assign_nearest(np.asarray(centers), values).tolist() == expected


class TestModelSerialization:
    def test_json_round_trip_is_exact(self):
        model = make_model([1.25, 7.5, 300.125], entropy=[0.1, 0.2, 0.3],
                           weight=[0.2, 0.3, 0.5], density=[0.5, 0.25, 0.25])
        model = model.with_allocation(30)
        doc = json.loads(json.dumps(model.to_json()))
        assert ClusterModel.from_json(doc) == model
        assert doc["version"] == 1

    def test_round_trip_keeps_routing(self):
        # float32 centres would put 4 nearer the second centre
        model = make_model([10 / 3, 14 / 3]).with_allocation(4)
        assert nearest_center(model.centers, 4) == 0
        back = ClusterModel.from_json(json.loads(json.dumps(model.to_json())))
        assert back.centers == model.centers
        assert nearest_center(back.centers, 4) == 0

    def test_trained_model_round_trips(self):
        samples = zipf_values(np.random.default_rng(3), 2000, 1.1, 10_000).tolist()
        model = train_model(samples, 12, seed=3).with_allocation(200)
        assert ClusterModel.from_json(json.loads(json.dumps(model.to_json()))) == model

    def test_bad_document_rejected(self):
        with pytest.raises(InvalidInputError):
            ClusterModel.from_json({"format": "nope"})

    @pytest.mark.parametrize("field", ["centers", "entropy", "weight", "density",
                                       "allocation"])
    def test_missing_field_rejected(self, field):
        doc = make_model([1.0, 2.0, 3.0]).with_allocation(30).to_json()
        del doc[field]
        with pytest.raises(InvalidInputError, match=field):
            ClusterModel.from_json(doc)

    @pytest.mark.parametrize("field, value", [
        ("version", 2),
        ("density", [0.5, 0.5]),
        ("weight", [1.0]),
        ("centers", ["1", "2", "3"]),
        ("entropy", [True, 0.5, 0.5]),
        ("allocation", [10.0, 10.0, 10.0]),
    ], ids=["version", "short-density", "short-weight", "text-centers", "bool-entropy",
            "float-allocation"])
    def test_malformed_field_rejected(self, field, value):
        doc = make_model([1.0, 2.0, 3.0]).with_allocation(30).to_json()
        doc[field] = value
        with pytest.raises(InvalidInputError):
            ClusterModel.from_json(doc)

    def test_null_allocation_reads_as_none(self):
        model = make_model([1.0, 2.0])
        assert ClusterModel.from_json(model.to_json()) == model
