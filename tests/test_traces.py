import hashlib

import numpy as np
import pytest

from flowsketch.traces import (
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
        # digests of the CSVs written before the generator moved its
        # per-flow splitting from numpy arrays to Python lists
        zipf = gen_trace(7, 300, 1.1, 4.0, str(tmp_path / "zipf.csv"))
        uniform = gen_uniform_trace(7, 40, 3, 64, str(tmp_path / "uniform.csv"))
        digest = {p: hashlib.sha256(open(p, "rb").read()).hexdigest() for p in (zipf, uniform)}
        assert digest[zipf] == "093881faa18178ad22f488a34c25c8bf5879d779ee80ec4dbec3998697ee64e2"
        assert digest[uniform] == "e8f5e60523585cb5fbaeb1c5388adab72b49a15758f9ea814d350edaf82d7f2d"

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
