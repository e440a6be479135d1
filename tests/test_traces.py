import hashlib
import math
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsketch.traces import (
    _split_flows,
    format_ip,
    gen_trace,
    gen_uniform_trace,
    generate_packets,
    pack_flow_key,
    parse_ip,
    read_trace,
    unpack_flow_key,
    uniform_packets,
    zipf_values,
)


class TestKeyPacking:
    def test_round_trip(self):
        key = pack_flow_key(parse_ip("10.1.2.3"), parse_ip("192.168.0.9"), 443, 80, 6)
        assert len(key) == 13
        src, dst, sp, dp, proto = unpack_flow_key(key)
        assert format_ip(src) == "10.1.2.3"
        assert format_ip(dst) == "192.168.0.9"
        assert (sp, dp, proto) == (443, 80, 6)


class TestGenTrace:
    def test_same_seed_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        gen_trace(7, 500, 1.1, 3.0, str(a))
        gen_trace(7, 500, 1.1, 3.0, str(b))
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c.csv"
        gen_trace(8, 500, 1.1, 3.0, str(c))
        assert a.read_bytes() != c.read_bytes()

    def test_pinned_bytes(self, tmp_path):
        # digests of the CSVs the generator writes since its draws
        # became vector calls
        zipf = gen_trace(7, 300, 1.1, 4.0, str(tmp_path / "zipf.csv"))
        uniform = gen_uniform_trace(7, 40, 3, 64, str(tmp_path / "uniform.csv"))
        digest = {p: hashlib.sha256(open(p, "rb").read()).hexdigest() for p in (zipf, uniform)}
        assert digest[zipf] == "5063b0827603084b5d10294e97abf7dbdb899aa700813f0a35edfcbbdc3790b4"
        assert digest[uniform] == "4066567e0c5c7b96b52bdf3ad3006896c88ff62a2a6766026e2b09c0a8d810ec"

    def test_single_flow(self, tmp_path):
        path = tmp_path / "one.csv"
        gen_trace(1, 1, 1.1, 5.0, str(path))
        packets = list(read_trace(str(path)))
        assert len({p.key for p in packets}) == 1
        assert all(p.size_bytes > 0 for p in packets)

    def test_fragments_sum_to_flow_totals(self):
        packets, totals = generate_packets(3, 400, 1.1, 4.0)
        seen = {}
        for p in packets:
            seen[p.key] = seen.get(p.key, 0) + p.size_bytes
        assert seen == totals

    def test_timestamps_monotonic(self):
        packets, _ = generate_packets(3, 200, 1.1, 4.0)
        ts = [p.ts_ns for p in packets]
        assert all(a < b for a, b in zip(ts, ts[1:]))

    def test_loglog_histogram_slope(self):
        # log-log size histogram of Zipf(1.1) flows has slope about -1.1
        _, totals = generate_packets(11, 10_000, 1.1, 4.0)
        sizes = np.asarray(list(totals.values()))
        values, counts = np.unique(sizes, return_counts=True)
        keep = counts >= 5
        slope = np.polyfit(np.log(values[keep]), np.log(counts[keep]), 1)[0]
        assert slope == pytest.approx(-1.1, abs=0.15)

    def test_round_trip_through_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        gen_trace(5, 300, 1.1, 3.0, str(path))
        packets = list(read_trace(str(path)))
        _, totals = generate_packets(5, 300, 1.1, 3.0)
        seen = {}
        for p in packets:
            seen[p.key] = seen.get(p.key, 0) + p.size_bytes
        assert seen == totals


def check_trace_contract(packets, totals, concurrency):
    """The generator's contract, for a trace and the totals it reports:
    flows conserve their totals in 1..total parts of at least 1, keys
    are distinct 13-byte strings, timestamps step by [100, 1000), at
    most `concurrency` flows are in flight, and every figure is a
    Python int."""
    assert all(type(k) is bytes and len(k) == 13 for k in totals)
    assert all(type(v) is int for v in totals.values())
    parts: dict[bytes, list[int]] = {}
    first, last = {}, {}
    for i, p in enumerate(packets):
        assert type(p.size_bytes) is int and type(p.ts_ns) is int
        parts.setdefault(p.key, []).append(p.size_bytes)
        first.setdefault(p.key, i)
        last[p.key] = i
    assert parts.keys() == totals.keys()
    for key, sizes in parts.items():
        assert sum(sizes) == totals[key]
        assert min(sizes) >= 1 and len(sizes) <= totals[key]
    steps = np.diff([0] + [p.ts_ns for p in packets])
    assert steps.min() >= 100 and steps.max() < 1000
    # +1 where a flow enters, -1 after its last packet
    events = np.zeros(len(packets) + 1, dtype=np.int64)
    np.add.at(events, list(first.values()), 1)
    np.add.at(events, [i + 1 for i in last.values()], -1)
    assert np.cumsum(events).max() <= concurrency


class TestGeneratorContract:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_flows=st.integers(1, 300),
           v_max=st.integers(1, 2_000), mean_packets=st.floats(0.0, 40.0),
           concurrency=st.integers(1, 300))
    def test_generate_packets(self, seed, n_flows, v_max, mean_packets, concurrency):
        packets, totals = generate_packets(seed, n_flows, 1.1, mean_packets,
                                           v_max=v_max, concurrency=concurrency)
        assert len(totals) == n_flows
        assert all(1 <= v <= v_max for v in totals.values())
        check_trace_contract(packets, totals, concurrency)
        assert generate_packets(seed, n_flows, 1.1, mean_packets,
                                v_max=v_max, concurrency=concurrency) == (packets, totals)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_flows=st.integers(1, 200),
           packets_per_flow=st.integers(1, 20), packet_bytes=st.integers(1, 1500),
           concurrency=st.integers(1, 300))
    def test_uniform_packets(self, seed, n_flows, packets_per_flow, packet_bytes, concurrency):
        packets = uniform_packets(seed, n_flows, packets_per_flow, packet_bytes,
                                  concurrency=concurrency)
        assert len(packets) == n_flows * packets_per_flow
        assert {p.size_bytes for p in packets} == {packet_bytes}
        totals = dict.fromkeys((p.key for p in packets), packets_per_flow * packet_bytes)
        assert len(totals) == n_flows
        check_trace_contract(packets, totals, concurrency)
        assert uniform_packets(seed, n_flows, packets_per_flow, packet_bytes,
                               concurrency=concurrency) == packets

    def test_wide_support_conserves_totals_quickly(self):
        start = time.perf_counter()
        packets, totals = generate_packets(4, 2_000, 1.1, 4.0, v_max=100_000)
        elapsed = time.perf_counter() - start
        assert max(totals.values()) > 10_000
        check_trace_contract(packets, totals, 256)
        assert elapsed < 5.0

    @pytest.mark.parametrize("count", [3, 5], ids=["drawn", "skipped"])
    def test_cut_points_are_a_uniform_subset(self, count):
        # a size-6 flow cut into `count` parts: every set of count - 1
        # cut points out of 1..5 is equally likely
        n = 20_000
        parts = _split_flows(np.random.default_rng(6), np.full(n, 6), np.full(n, count))
        cuts = Counter(tuple(np.cumsum(row[:-1]).tolist())
                       for row in parts.reshape(n, count).tolist())
        expected = n / math.comb(5, count - 1)
        assert len(cuts) == math.comb(5, count - 1)
        assert all(abs(c - expected) < 0.1 * expected for c in cuts.values())


class TestUniformTrace:
    def test_fixed_shape(self, tmp_path):
        path = tmp_path / "u.csv"
        gen_uniform_trace(1, 50, 10, 1000, str(path))
        packets = list(read_trace(str(path)))
        assert len(packets) == 500
        assert all(p.size_bytes == 1000 for p in packets)
        per_flow = {}
        for p in packets:
            per_flow[p.key] = per_flow.get(p.key, 0) + 1
        assert set(per_flow.values()) == {10}

    def test_in_memory_matches_file(self, tmp_path):
        path = tmp_path / "u.csv"
        gen_uniform_trace(2, 20, 5, 64, str(path))
        from_file = list(read_trace(str(path)))
        in_memory = uniform_packets(2, 20, 5, 64)
        assert from_file == in_memory


class TestReadTrace:
    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,nope\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            list(read_trace(str(path)))

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "ts_ns,src_ip,dst_ip,src_port,dst_port,proto,bytes\n"
            "100,10.0.0.1,10.0.0.2,1,2,6,50\n"
            "oops,not,an,ip,x,y,z\n"
        )
        with pytest.raises(ValueError, match="line 3"):
            list(read_trace(str(path)))

    def test_negative_size_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text(
            "ts_ns,src_ip,dst_ip,src_port,dst_port,proto,bytes\n"
            "100,10.0.0.1,10.0.0.2,1,2,6,50\n"
            "200,10.0.0.1,10.0.0.2,1,2,6,-5\n"
        )
        with pytest.raises(ValueError, match="line 3: negative packet size -5"):
            list(read_trace(str(path)))

    def test_octet_above_255_rejected(self, tmp_path):
        # 10.0.0.256 would otherwise read as 10.0.1.0, merging two flows
        path = tmp_path / "octet.csv"
        path.write_text(
            "ts_ns,src_ip,dst_ip,src_port,dst_port,proto,bytes\n"
            "100,10.0.0.256,10.0.0.2,1,2,6,50\n"
        )
        with pytest.raises(ValueError, match="line 2: IPv4 octet outside 0-255"):
            list(read_trace(str(path)))

    @pytest.mark.parametrize("row", [
        "100,10.0.0.1_0,10.0.0.2,1,2,6,50",
        "100,10.0.0.1,\u00a010.0.0.10,1,2,6,50",
        "100, 10.0.0.+10,10.0.0.2,1,2,6,50",
        "100,\u0661\u0660.0.0.10,10.0.0.2,1,2,6,50",
        "1_0,10.0.0.1,10.0.0.2,+80,0_443,6, 100",
        "100,10.0.0.1,10.0.0.2,1,2,6,\uff15\uff10",
    ], ids=["underscore", "nbsp", "space-sign", "arabic-indic", "mixed", "fullwidth"])
    def test_non_ascii_digit_rejected(self, tmp_path, row):
        # int() takes all of these, so each would read as another row's flow
        path = tmp_path / "digits.csv"
        path.write_text("ts_ns,src_ip,dst_ip,src_port,dst_port,proto,bytes\n" + row + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: character .* is not an ASCII digit"):
            list(read_trace(str(path)))


class TestZipfValues:
    def test_support_bounds(self):
        rng = np.random.default_rng(1)
        draws = zipf_values(rng, 5000, 1.1, v_max=32)
        assert draws.min() >= 1 and draws.max() <= 32

    def test_monotone_frequencies(self):
        rng = np.random.default_rng(2)
        draws = zipf_values(rng, 50_000, 1.1, v_max=16)
        counts = np.bincount(draws, minlength=17)[1:]
        # frequencies decay with the value (allow small sample noise)
        assert counts[0] > counts[3] > counts[9]

    def test_invalid_exponent(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            zipf_values(rng, 10, 0.0, v_max=8)
