"""Synthetic packet traces and the CSV trace format.

Traces are CSV files with the header
``ts_ns,src_ip,dst_ip,src_port,dst_port,proto,bytes`` and one packet
per row. Flow keys pack the 5-tuple into 13 bytes (two IPv4 addresses,
two ports, protocol).

The generator draws per-flow totals from a bounded Zipf
distribution (the classic skew of real flow-size data), splits each
flow into several packets, and interleaves packets from a bounded pool
of concurrently active flows, so downstream stages see realistic
fragmentation and flowlet locality. The default support of 1..32
mirrors the counter range that dominates real per-window flow-size
data; widen it with v_max for heavier experiments.

Every random draw is a vector call: keys and packet counts for all
flows at once, cut points for 1,024 flows at a time and the
interleaving's picks and time steps for 4,096 packets at a time, so
no temporary grows with flows x v_max. The figures a trace holds
(sizes, timestamps, totals) are Python ints.
"""

import csv
import re
import struct
from dataclasses import dataclass

import numpy as np

_KEY = struct.Struct("!IIHHB")
# the same 13-byte layout as a numpy record, for keys built in bulk
_KEY_DTYPE = np.dtype([("src", ">u4"), ("dst", ">u4"), ("sport", ">u2"),
                       ("dport", ">u2"), ("proto", "u1")])
# flows split, and packets interleaved, per batch of draws, so the split's
# sorted cut arrays and the picks' float lists hold one batch, not the trace
_FLOW_CHUNK = 1024
_PACKET_CHUNK = 4096
_NOT_DIGIT_OR_DOT = re.compile(r"[^0-9.]")


def pack_flow_key(src_ip: int, dst_ip: int, src_port: int, dst_port: int, proto: int) -> bytes:
    return _KEY.pack(src_ip, dst_ip, src_port, dst_port, proto)


def unpack_flow_key(key: bytes) -> tuple[int, int, int, int, int]:
    return _KEY.unpack(key)


def format_ip(ip: int) -> str:
    return f"{(ip >> 24) & 255}.{(ip >> 16) & 255}.{(ip >> 8) & 255}.{ip & 255}"


def parse_ip(text: str) -> int:
    """A dotted-quad IPv4 address as an int; ValueError unless it has
    four octets, each in 0-255."""
    a, b, c, d = [int(p) for p in text.split(".")]
    if not (0 <= a <= 255 and 0 <= b <= 255 and 0 <= c <= 255 and 0 <= d <= 255):
        raise ValueError(f"IPv4 octet outside 0-255 in {text!r}")
    return (a << 24) | (b << 16) | (c << 8) | d


@dataclass(frozen=True)
class TracePacket:
    key: bytes
    size_bytes: int
    ts_ns: int


def zipf_values(rng: np.random.Generator, n: int, s: float, v_max: int = 32) -> np.ndarray:
    """n draws from Zipf(s) truncated to the support 1..v_max.

    Truncation keeps the heavy tail finite so byte counters stay inside
    64 bits; the log-log slope of the distribution is -s throughout the
    bulk either way.
    """
    if s <= 0:
        raise ValueError("zipf exponent must be positive")
    support = np.arange(1, v_max + 1, dtype=np.float64)
    weights = support ** (-s)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, rng.random(n), side="left") + 1


def _random_flow_keys(rng: np.random.Generator, n: int) -> list[bytes]:
    """n distinct flow keys in draw order. Each round draws the fields
    of every key still missing in five vector calls; a key equal to an
    earlier one is dropped and drawn again in the next round."""
    keys: dict[bytes, None] = {}
    while len(keys) < n:
        need = n - len(keys)
        fields = np.empty(need, dtype=_KEY_DTYPE)
        fields["src"] = rng.integers(0x0A000000, 0x0AFFFFFF, need)
        fields["dst"] = rng.integers(0xC0A80000, 0xC0A8FFFF, need)
        fields["sport"] = rng.integers(1024, 65536, need)
        fields["dport"] = rng.integers(1, 1024, need)
        fields["proto"] = np.where(rng.integers(2, size=need) == 0, 6, 17)
        keys.update(dict.fromkeys(fields.view("V13").tolist()))
    return list(keys)


def _split_flows(rng: np.random.Generator, sizes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flow i's parts, counts[i] of them summing to sizes[i], for every
    flow in order in one flat array. The cut points are counts[i] - 1
    distinct values drawn uniformly from 1..sizes[i] - 1.

    A flow needing more than half of its size - 1 points draws the
    points it skips instead. Draws run with replacement: each round
    keeps the distinct points and draws again as many as are still
    missing, which yields a uniform subset in a handful of rounds
    without ever building a (flows x size) array."""
    n = len(sizes)
    stride = int(sizes.max()) + 1
    flows = np.arange(n)
    points, cuts = sizes - 1, counts - 1
    skip = 2 * cuts > points
    want = np.where(skip, points - cuts, cuts)
    drawn = np.empty(0, dtype=np.int64)  # codes flow * stride + point, sorted
    missing = want
    while missing.any():
        rows = np.repeat(flows, missing)
        drawn = np.sort(np.concatenate([drawn, rows * stride + rng.integers(1, sizes[rows])]))
        drawn = drawn[np.insert(drawn[1:] != drawn[:-1], 0, True)]
        missing = want - np.bincount(drawn // stride, minlength=n)
    taken = drawn[~skip[drawn // stride]]
    span = points[skip]
    if span.any():
        # every point 1..size - 1 of each skipping flow, less the drawn ones
        rows = np.repeat(flows[skip], span)
        every = rows * stride + np.arange(len(rows)) - np.repeat(np.cumsum(span) - span, span) + 1
        taken = np.concatenate([taken, np.setdiff1d(every, drawn, assume_unique=True)])
    ends = np.sort(np.concatenate([taken, flows * stride + sizes])) % stride
    parts = ends.copy()
    parts[1:] -= ends[:-1]
    first = np.cumsum(counts) - counts
    parts[first] = ends[first]
    return parts


def _interleave(rng: np.random.Generator, parts: list[int], counts: list[int],
                keys: list[bytes], concurrency: int = 256) -> list[TracePacket]:
    """Emit packets by repeatedly picking a random flow from a bounded
    active pool, replacing flows as they complete. Flow f's packets are
    the next counts[f] entries of parts, flows in key order. The pool
    size sets how many flows are in flight at once, which is what
    downstream flowlet aggregation keys off.

    Picks and time steps are drawn _PACKET_CHUNK packets at a time, so
    the loop itself makes no RNG call. A pick is int(u * len(active))
    for a uniform u in [0, 1), which rounds below len(active) for any
    u < 1."""
    concurrency = min(len(keys), concurrency)
    order = rng.permutation(len(keys)).tolist()
    active = order[:concurrency]
    next_flow = concurrency
    stop = np.cumsum(counts).tolist()
    cursor = [end - c for end, c in zip(stop, counts)]
    ts = 0
    packets = []
    for done in range(0, len(parts), _PACKET_CHUNK):
        n = min(_PACKET_CHUNK, len(parts) - done)
        picks = rng.random(n).tolist()
        stamps = (np.cumsum(rng.integers(100, 1000, n)) + ts).tolist()
        ts = stamps[-1]
        for u, stamp in zip(picks, stamps):
            pick = int(u * len(active))
            f = active[pick]
            i = cursor[f]
            packets.append(TracePacket(keys[f], parts[i], stamp))
            cursor[f] = i = i + 1
            if i == stop[f]:
                if next_flow < len(keys):
                    active[pick] = order[next_flow]
                    next_flow += 1
                else:
                    active.pop(pick)
    return packets


def generate_packets(seed: int, n_flows: int, zipf_s: float, mean_packets: float,
                     v_max: int = 32, concurrency: int = 256,
                     ) -> tuple[list[TracePacket], dict[bytes, int]]:
    """Build the packet list and the exact per-flow totals. A flow of
    size s has min(s, max(1, Poisson(mean_packets))) packets."""
    if n_flows <= 0:
        raise ValueError("n_flows must be positive")
    rng = np.random.default_rng(seed)
    sizes = zipf_values(rng, n_flows, zipf_s, v_max)
    keys = _random_flow_keys(rng, n_flows)
    counts = np.minimum(sizes, np.maximum(1, rng.poisson(mean_packets, n_flows)))
    parts = []
    for lo in range(0, n_flows, _FLOW_CHUNK):
        chunk = slice(lo, lo + _FLOW_CHUNK)
        parts.extend(_split_flows(rng, sizes[chunk], counts[chunk]).tolist())
    packets = _interleave(rng, parts, counts.tolist(), keys, concurrency=concurrency)
    totals = dict(zip(keys, sizes.tolist()))
    return packets, totals


def gen_trace(seed: int, n_flows: int, zipf_s: float, mean_packets: float,
              out_path: str, v_max: int = 32, concurrency: int = 256) -> str:
    """Write a deterministic Zipf trace CSV; same seed, same bytes."""
    packets, _ = generate_packets(seed, n_flows, zipf_s, mean_packets,
                                  v_max=v_max, concurrency=concurrency)
    write_trace(out_path, packets)
    return out_path


def uniform_packets(seed: int, n_flows: int, packets_per_flow: int,
                    packet_bytes: int, concurrency: int = 256) -> list[TracePacket]:
    """Packets of identical flows (fixed packet count and size), used to
    measure flowlet traffic reduction at a known operating point."""
    rng = np.random.default_rng(seed)
    keys = _random_flow_keys(rng, n_flows)
    return _interleave(rng, [packet_bytes] * (n_flows * packets_per_flow),
                       [packets_per_flow] * n_flows, keys, concurrency=concurrency)


def gen_uniform_trace(seed: int, n_flows: int, packets_per_flow: int,
                      packet_bytes: int, out_path: str, concurrency: int = 256) -> str:
    write_trace(out_path, uniform_packets(seed, n_flows, packets_per_flow,
                                          packet_bytes, concurrency=concurrency))
    return out_path


def write_trace(path: str, packets: list[TracePacket]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ts_ns", "src_ip", "dst_ip", "src_port", "dst_port", "proto", "bytes"])
        for p in packets:
            src, dst, sp, dp, proto = unpack_flow_key(p.key)
            writer.writerow([p.ts_ns, format_ip(src), format_ip(dst), sp, dp, proto, p.size_bytes])


def read_trace(path: str):
    """Yield TracePacket rows; raises ValueError with the line number on
    malformed input, a negative packet size included. Every field is
    plain ASCII digits, with dots in the two addresses: int() alone
    would also take signs, spaces, underscores and non-ASCII digits."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["ts_ns", "src_ip", "dst_ip", "src_port", "dst_port", "proto", "bytes"]:
            raise ValueError(f"unrecognized trace header: {header}")
        for lineno, row in enumerate(reader, start=2):
            try:
                ts, src, dst, sp, dp, proto, size = row
                key = pack_flow_key(parse_ip(src), parse_ip(dst), int(sp), int(dp), int(proto))
                size = int(size)
                if size < 0:
                    raise ValueError(f"negative packet size {size}")
                bad = _NOT_DIGIT_OR_DOT.search("".join(row))
                if bad:
                    raise ValueError(f"character {bad.group()!r} is not an ASCII digit")
                yield TracePacket(key, size, int(ts))
            except (ValueError, struct.error) as exc:
                raise ValueError(f"trace parse error at line {lineno}: {exc}") from exc
