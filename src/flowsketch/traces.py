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
"""

import csv
import re
import struct
from dataclasses import dataclass

import numpy as np

_KEY = struct.Struct("!IIHHB")
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
    keys = set()
    out = []
    while len(out) < n:
        key = pack_flow_key(
            int(rng.integers(0x0A000000, 0x0AFFFFFF)),
            int(rng.integers(0xC0A80000, 0xC0A8FFFF)),
            int(rng.integers(1024, 65536)),
            int(rng.integers(1, 1024)),
            (6, 17)[int(rng.integers(2))],  # rng.choice((6, 17))'s draw, 4x cheaper
        )
        if key not in keys:
            keys.add(key)
            out.append(key)
    return out


def _interleave(rng: np.random.Generator, per_flow_packets: list[list[int]],
                keys: list[bytes], concurrency: int = 256) -> list[TracePacket]:
    """Emit packets by repeatedly picking a random flow from a bounded
    active pool, replacing flows as they complete. The pool size sets
    how many flows are in flight at once, which is what downstream
    flowlet aggregation keys off."""
    concurrency = min(len(keys), concurrency)
    order = rng.permutation(len(keys))
    active = order[:concurrency].tolist()
    next_flow = concurrency
    cursor = [0] * len(keys)
    ts = 0
    packets = []
    while active:
        pick = int(rng.integers(len(active)))
        f = active[pick]
        ts += int(rng.integers(100, 1000))
        packets.append(TracePacket(keys[f], per_flow_packets[f][cursor[f]], ts))
        cursor[f] += 1
        if cursor[f] == len(per_flow_packets[f]):
            if next_flow < len(keys):
                active[pick] = int(order[next_flow])
                next_flow += 1
            else:
                active.pop(pick)
    return packets


def generate_packets(seed: int, n_flows: int, zipf_s: float, mean_packets: float,
                     v_max: int = 32, concurrency: int = 256,
                     ) -> tuple[list[TracePacket], dict[bytes, int]]:
    """Build the packet list and the exact per-flow totals."""
    if n_flows <= 0:
        raise ValueError("n_flows must be positive")
    rng = np.random.default_rng(seed)
    sizes = zipf_values(rng, n_flows, zipf_s, v_max)
    keys = _random_flow_keys(rng, n_flows)
    per_flow = []
    for size in sizes.tolist():
        n_pkts = min(size, max(1, int(rng.poisson(mean_packets))))
        if n_pkts > 1:
            # n_pkts - 1 distinct cut points in 1..size-1
            cuts = sorted(rng.choice(size - 1, size=n_pkts - 1, replace=False).tolist())
            bounds = [0, *(c + 1 for c in cuts), size]
            per_flow.append([b - a for a, b in zip(bounds, bounds[1:])])
        else:
            per_flow.append([size])
    packets = _interleave(rng, per_flow, keys, concurrency=concurrency)
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
    per_flow = [[packet_bytes] * packets_per_flow for _ in range(n_flows)]
    return _interleave(rng, per_flow, keys, concurrency=concurrency)


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
