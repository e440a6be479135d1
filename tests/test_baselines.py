import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsketch.baselines import (
    CmSketch,
    CsSketch,
    DenseMapping,
    autoencoder_oracle,
    expected_noisy_fraction,
    noisy_fraction_monte_carlo,
)
from flowsketch.clustering import InvalidInputError
from flowsketch.hashing import bank_digests, bank_hash


class TestCountMin:
    def test_single_key_exact(self):
        sk = CmSketch(300, c=3, seed=1)
        sk.insert(b"only", 37)
        assert sk.query(b"only") == 37

    def test_query_is_min_of_mapped_counters(self):
        sk = CmSketch(300, c=3, seed=1)
        for j, counter in enumerate((5, 7, 6)):
            idx, _ = bank_hash(b"probe", sk.seed, j)
            sk.banks[j][idx % sk.width] = counter
        assert sk.query(b"probe") == 5

    def test_never_underestimates(self):
        rng = np.random.default_rng(2)
        sk = CmSketch(90, c=3, seed=2)
        truth = {}
        for i in range(400):
            key = f"k{int(rng.integers(60))}".encode()
            v = int(rng.integers(1, 50))
            sk.insert(key, v)
            truth[key] = truth.get(key, 0) + v
        for key, total in truth.items():
            assert sk.query(key) >= total

    def test_error_bound_sanity(self):
        # Pr[min-counter error >= (2/(m/c)) * ||v||_1] <= 2^-c, plus slack
        rng = np.random.default_rng(3)
        c = 3
        m = 900
        violations = 0
        keys_total = 0
        for stream in range(100):
            sk = CmSketch(m, c=c, seed=stream)
            truth = {}
            for i in range(500):
                key = f"s{stream}-{int(rng.integers(300))}".encode()
                v = int(rng.integers(1, 20))
                sk.insert(key, v)
                truth[key] = truth.get(key, 0) + v
            l1 = sum(truth.values())
            budget = 2 / (m / c) * l1
            for key, total in truth.items():
                keys_total += 1
                if sk.query(key) - total >= budget:
                    violations += 1
        assert violations / keys_total <= 2 ** (-c) + 0.05


class TestCountSketch:
    def test_single_key_exact_for_any_signs(self):
        sk = CsSketch(300, c=3, seed=4)
        sk.insert(b"only", 23)
        assert sk.query(b"only") == 23.0

    def test_median_arithmetic(self):
        sk = CsSketch(300, c=3, seed=4)
        for j, value in enumerate((5, -3, 4)):
            idx, sign = bank_hash(b"probe", sk.seed, j)
            sk.banks[j][idx % sk.width] = value * sign
        # sign-corrected reads are (5, -3, 4); lower median is 4
        assert sk.query_raw(b"probe") == 4.0

    def test_negative_clamped_for_flow_metrics(self):
        sk = CsSketch(300, c=3, seed=4)
        for j in range(sk.c):
            idx, sign = bank_hash(b"neg", sk.seed, j)
            sk.banks[j][idx % sk.width] = -9 * sign
        assert sk.query_raw(b"neg") == -9.0
        assert sk.query(b"neg") == 0.0

    def test_unbiased_over_streams(self):
        rng = np.random.default_rng(5)
        errors = []
        for stream in range(1000):
            sk = CsSketch(90, c=3, seed=stream)
            truth = {}
            for i in range(80):
                key = f"u{stream}-{int(rng.integers(40))}".encode()
                v = int(rng.integers(1, 30))
                sk.insert(key, v)
                truth[key] = truth.get(key, 0) + v
            key = f"u{stream}-{int(rng.integers(40))}".encode()
            if key in truth:
                errors.append(sk.query_raw(key) - truth[key])
        errors = np.asarray(errors)
        se = errors.std(ddof=1) / math.sqrt(len(errors))
        assert abs(errors.mean()) <= 3 * se


@pytest.mark.parametrize("kind", [CmSketch, CsSketch])
class TestInsertValues:
    @pytest.mark.parametrize("value", [1.0, 2.5, True, False, "3", None])
    def test_non_integer_values_rejected(self, kind, value):
        sk = kind(30, c=3, seed=1)
        with pytest.raises(TypeError):
            sk.insert(b"x", value)
        assert all(v == 0 for bank in sk.banks for v in bank)

    def test_negative_value_rejected(self, kind):
        with pytest.raises(ValueError):
            kind(30, c=3, seed=1).insert(b"x", -1)

    def test_numpy_ints_stored_as_python_ints(self, kind):
        sk = kind(30, c=3, seed=1)
        sk.insert(b"a", np.int64(18))
        sk.insert(b"b", np.uint8(7))
        assert all(type(v) is int for bank in sk.banks for v in bank)
        assert sk.query(b"a") >= 0


class TestHashedForms:
    KEYS = [b"", b"a", b"flow-1", bytes(range(13))]

    @pytest.mark.parametrize("seed", [0, 1, -3, 2**70])
    @pytest.mark.parametrize("c", [1, 3, 4])
    def test_bank_hashes_are_per_bank_hashes(self, seed, c):
        """The keyed insert adds at the key's bank_hash(key, seed, j)
        index in bank j, signed in a Count-Sketch."""
        for key in self.KEYS:
            for kind in (CmSketch, CsSketch):
                sk = kind(7 * c, c=c, seed=seed)
                sk.insert(key, 5)
                for j, bank in enumerate(sk.banks):
                    idx, sign = bank_hash(key, seed, j)
                    want = [0] * sk.width
                    want[idx % sk.width] = sign * 5 if kind is CsSketch else 5
                    assert bank == want

    @pytest.mark.parametrize("kind", [CmSketch, CsSketch])
    def test_keyed_forms_equal_hashed_forms(self, kind):
        """insert and query agree with counters the test keeps from
        bank_hash itself: the minimum, or the lower median of the
        sign-corrected reads, of the key's counter in each bank."""
        rng = np.random.default_rng(8)
        sk = kind(60, c=3, seed=5)
        want = [[0] * sk.width for _ in range(3)]
        keys = [f"k{i}".encode() for i in range(40)]
        signed = kind is CsSketch
        for _ in range(300):
            key = keys[int(rng.integers(len(keys)))]
            value = int(rng.integers(0, 100))
            sk.insert(key, value)
            for j in range(3):
                idx, sign = bank_hash(key, 5, j)
                want[j][idx % sk.width] += sign * value if signed else value
        assert sk.banks == want
        for key in keys + [b"absent"]:
            reads = []
            for j in range(3):
                idx, sign = bank_hash(key, 5, j)
                reads.append(sign * want[j][idx % sk.width] if signed else want[j][idx % sk.width])
            if signed:
                assert sk.query_raw(key) == float(sorted(reads)[1])
                assert sk.query(key) == max(0.0, float(sorted(reads)[1]))
            else:
                assert sk.query(key) == min(reads)

    @pytest.mark.parametrize("kind", [CmSketch, CsSketch])
    @pytest.mark.parametrize("value, error", [(-1, ValueError), (1.0, TypeError),
                                              (2.5, TypeError), (True, TypeError),
                                              (False, TypeError)])
    def test_insert_hashed_validates_values(self, kind, value, error):
        """The keyed insert and the batch insert of bank_digests reject
        a bad value before any write."""
        sk = kind(30, c=3, seed=1)
        with pytest.raises(error):
            sk.insert(b"x", value)
        with pytest.raises(error):
            sk.insert_many(bank_digests([b"x", b"y"], 1, 3), [5, value])
        assert all(v == 0 for bank in sk.banks for v in bank)

    @pytest.mark.parametrize("kind", [CmSketch, CsSketch])
    def test_hashes_for_another_bank_count_rejected(self, kind):
        sk = kind(30, c=3, seed=1)
        with pytest.raises(ValueError):
            sk.insert_many(bank_digests([b"x"], 1, 2), [5])
        with pytest.raises(ValueError):
            sk.insert_many(bank_digests([b"x"], 1, 3), [5, 6])
        with pytest.raises(ValueError):
            sk.query_many(bank_digests([b"x"], 1, 4))
        assert all(v == 0 for bank in sk.banks for v in bank)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_fragments_and_totals_give_the_same_counters(self, data):
        """Both baselines are linear: replaying any fragmentation of the
        flows in any order leaves the counters that inserting each
        flow's total once does, which is how the benchmark fills them."""
        totals = data.draw(st.lists(st.integers(0, 500), min_size=1, max_size=12),
                           label="totals")
        fragments = []
        for i, total in enumerate(totals):
            cuts = data.draw(st.lists(st.integers(0, total), max_size=4), label="cuts")
            bounds = [0, *sorted(cuts), total]
            fragments.extend((b"f%d" % i, hi - lo) for lo, hi in zip(bounds, bounds[1:]))
        fragments = data.draw(st.permutations(fragments), label="order")
        for kind in (CmSketch, CsSketch):
            replayed, from_totals = kind(12, c=3, seed=2), kind(12, c=3, seed=2)
            for key, piece in fragments:
                replayed.insert(key, piece)
            for i, total in enumerate(totals):
                from_totals.insert(b"f%d" % i, total)
            assert replayed.banks == from_totals.banks


class TestBatchForms:
    @settings(max_examples=150, deadline=None)
    @given(keys=st.lists(st.binary(max_size=4), max_size=25), c=st.integers(1, 5),
           width=st.integers(1, 8), seed=st.integers(-2**65, 2**65), data=st.data())
    def test_batch_equals_keyed(self, keys, c, width, seed, data):
        """insert_many and query_many end where insert and query of each
        key in turn do, on fresh counters or on counters the keyed path
        already filled: the same banks, and estimates equal in value and
        in type, the Count-Sketch's raw median included."""
        values = data.draw(st.lists(st.integers(0, 2**57), min_size=len(keys),
                                    max_size=len(keys)), label="values")
        split = data.draw(st.integers(0, len(keys)), label="keyed first")
        probes = keys + [b"absent"]
        for kind in (CmSketch, CsSketch):
            keyed, batch = kind(c * width, c=c, seed=seed), kind(c * width, c=c, seed=seed)
            for key, value in zip(keys, values):
                keyed.insert(key, value)
            for key, value in zip(keys[:split], values[:split]):
                batch.insert(key, value)
            batch.insert_many(bank_digests(keys[split:], seed, c), values[split:])
            assert batch.banks == keyed.banks
            assert all(type(v) is int for bank in batch.banks for v in bank)
            hashes = bank_digests(probes, seed, c)
            want = [keyed.query(key) for key in probes]
            got = batch.query_many(hashes)
            assert got == want
            assert [type(v) for v in got] == [type(v) for v in want]
            if kind is CsSketch:
                raw = batch._raw_many(hashes).tolist()
                assert raw == [keyed.query_raw(key) for key in probes]
                assert all(type(v) is float for v in raw)


@pytest.mark.parametrize("kind", [CmSketch, CsSketch])
class TestBatchInt64Bound:
    """insert_many refuses a batch that could take a counter to 2**63,
    where int64 would wrap; below it the counters stay exact. Width 1
    puts every key in the one counter of each bank."""
    KEYS = [b"a", b"b", b"c"]

    def test_sum_just_below_2_63_is_exact(self, kind):
        values = [2**62, 2**61, 2**61 - 1]
        keyed, batch = kind(3, c=3, seed=1), kind(3, c=3, seed=1)
        for key, value in zip(self.KEYS, values):
            keyed.insert(key, value)
        batch.insert_many(bank_digests(self.KEYS, 1, 3), values)
        assert batch.banks == keyed.banks
        assert batch.query_many(bank_digests(self.KEYS, 1, 3)) == [keyed.query(k) for k in self.KEYS]

    def test_sum_of_2_63_raises_before_any_write(self, kind):
        sk = kind(3, c=3, seed=1)
        with pytest.raises(InvalidInputError, match="int64"):
            sk.insert_many(bank_digests(self.KEYS, 1, 3), [2**62, 2**61, 2**61])
        assert sk.banks == [[0], [0], [0]]

    def test_held_counters_count_toward_the_bound(self, kind):
        sk, keyed = kind(3, c=3, seed=1), kind(3, c=3, seed=1)
        sk.insert(b"a", 7)
        held = [list(bank) for bank in sk.banks]
        with pytest.raises(InvalidInputError, match="int64"):
            sk.insert_many(bank_digests([b"b"], 1, 3), [2**63 - 7])
        assert sk.banks == held
        sk.insert_many(bank_digests([b"b"], 1, 3), [2**63 - 8])
        keyed.insert(b"a", 7)
        keyed.insert(b"b", 2**63 - 8)
        assert sk.banks == keyed.banks


class TestExpectedNoisyFraction:
    def test_zero_keys(self):
        assert expected_noisy_fraction(100, 0, 1) == 0.0

    def test_balanced_single_bank(self):
        value = expected_noisy_fraction(1000, 1000, 1)
        expected = 1 - math.exp(-1) - math.exp(-999 / 1000)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.2639, abs=1e-4)

    def test_sparse_three_banks(self):
        value = expected_noisy_fraction(3000, 100, 3)
        assert value == pytest.approx(0.0046, abs=1e-4)

    def test_in_unit_interval(self):
        for m, n, c in ((10, 100, 1), (1000, 10, 3), (50, 50, 1)):
            assert 0.0 <= expected_noisy_fraction(m, n, c) < 1.0

    def test_matches_monte_carlo(self):
        for m, n, c in ((1000, 1000, 1), (3000, 100, 3), (300, 1000, 1)):
            analytic = expected_noisy_fraction(m, n, c)
            simulated = noisy_fraction_monte_carlo(m, n, c, trials=4000, seed=6)
            assert simulated == pytest.approx(analytic, abs=0.005)


class TestAutoencoderOracle:
    def test_identity_mapping_is_lossless(self):
        n = 8
        mapping = DenseMapping(list(range(n)), n)
        x = [3, 1, 4, 1, 5, 9, 2, 6]
        assert autoencoder_oracle(mapping, x) == [Fraction(v) for v in x]

    def test_pairwise_buckets_average(self):
        mapping = DenseMapping([0, 0, 1, 1], 2)
        assert autoencoder_oracle(mapping, [3, 5, 7, 9]) == [
            Fraction(4), Fraction(4), Fraction(8), Fraction(8)]

    def test_row_sums_validated(self):
        with pytest.raises(ValueError):
            DenseMapping([0, 5], 3)
        matrix = DenseMapping([0, 2], 3).matrix()
        assert matrix.sum(axis=1).tolist() == [1, 1]

    def test_empty_buckets_skipped(self):
        mapping = DenseMapping([0, 0, 2], 4)  # buckets 1 and 3 empty
        result = autoencoder_oracle(mapping, [6, 2, 9])
        assert result == [Fraction(4), Fraction(4), Fraction(9)]

    def test_random_instances_average_by_bucket(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            m = int(rng.integers(1, 12))
            assignment = rng.integers(0, m, size=n).tolist()
            values = rng.integers(0, 100, size=n).tolist()
            result = autoencoder_oracle(DenseMapping(assignment, m), values)
            for i in range(n):
                members = [values[j] for j in range(n) if assignment[j] == assignment[i]]
                assert result[i] == Fraction(sum(members), len(members))
