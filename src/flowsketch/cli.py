"""Command-line harness: trace generation, model training, benchmarks,
sensitivity sweeps, the end-to-end pipeline, and store queries."""

import argparse
import json
import sys

from . import bench
from .bench import BenchmarkConfig, report_json, report_table, run_benchmark, run_sensitivity
from .clustering import ClusterModel, InvalidInputError
from .lss import check_layout
from .pipeline import QUERY_TASKS, SketchStore, WindowConfig, network_wide_query, run_pipeline
from .traces import gen_trace, gen_uniform_trace, read_trace


def _add_model_options(p: argparse.ArgumentParser, ratio: bool = True) -> None:
    """Options of the subcommands that fit a cluster model to a trace.
    The fit draws no random numbers, so it takes no seed."""
    p.add_argument("--window", type=int, default=bench.DEFAULT_WINDOW,
                   help="flows per sliding window")
    if ratio:
        p.add_argument("--ratio", type=float, default=bench.DEFAULT_RATIO,
                       help="buckets per flow (m/N)")
    p.add_argument("--clusters", type=int, default=bench.DEFAULT_CLUSTERS)
    p.add_argument("--train-samples", type=int, default=bench.DEFAULT_TRAIN_SAMPLES)


# gen options that shape one kind of trace: dest -> (default, type)
_ZIPF_ONLY = {"zipf_s": (bench.ZIPF_S, float), "mean_packets": (bench.MEAN_PACKETS, float),
              "max_size": (bench.ZIPF_VMAX, int)}
_UNIFORM_ONLY = {"packets_per_flow": (100, int), "packet_bytes": (1000, int)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flowsketch",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic packet trace")
    g.add_argument("out", help="output CSV path")
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--flows", type=int, default=bench.DEFAULT_WINDOW)
    g.add_argument("--concurrency", type=int, default=256)
    g.add_argument("--uniform", action="store_true",
                   help="fixed-size flows instead of Zipf sizes")
    for dest, (default, typ) in {**_ZIPF_ONLY, **_UNIFORM_ONLY}.items():
        shape = "uniform" if dest in _UNIFORM_ONLY else "Zipf"
        g.add_argument("--" + dest.replace("_", "-"), type=typ,
                       help=f"{shape} traces only (default {default})")

    t = sub.add_parser("train", help="train a cluster model from a trace")
    t.add_argument("trace")
    t.add_argument("out", help="output model JSON path")
    _add_model_options(t)

    b = sub.add_parser("bench", help="compare sketches on one trace")
    b.add_argument("--trace", help="CSV trace; omitted -> generated Zipf trace")
    b.add_argument("--ratios", type=float, nargs="+", default=[bench.DEFAULT_RATIO],
                   help="buckets per flow (m/N), one comparison each")
    b.add_argument("--sketches", nargs="+", default=list(bench.SKETCH_KINDS),
                   choices=bench.SKETCH_KINDS)
    b.add_argument("--out", help="write canonical JSON report here")
    b.add_argument("--check", action="store_true",
                   help="exit nonzero unless the clustered sketch beats the baselines")
    _add_model_options(b, ratio=False)
    b.add_argument("--seed", type=int, default=1, help="trace and hash seed")
    b.add_argument("--hh-percentile", type=float, default=bench.DEFAULT_HH_PERCENTILE)
    b.add_argument("--counter-width", type=int, default=32, choices=(16, 32, 64),
                   help="bits per counter in the memory accounting")

    s = sub.add_parser("sweep", help="sensitivity sweep along one axis")
    s.add_argument("axis", choices=list(bench.SENSITIVITY_AXES))
    s.add_argument("--out")
    _add_model_options(s)
    s.add_argument("--seed", type=int, default=1, help="trace and hash seed")
    s.add_argument("--hh-percentile", type=float, default=bench.DEFAULT_HH_PERCENTILE)

    p = sub.add_parser("pipeline", help="run ingestion -> sketching -> store")
    p.add_argument("trace")
    p.add_argument("store", help="store directory")
    p.add_argument("--model", required=True,
                   help="model JSON written by train; m is the sum of its allocation")
    p.add_argument("--ingest-capacity", type=int, default=1000)
    windows = p.add_mutually_exclusive_group()
    windows.add_argument("--window", type=int, default=bench.DEFAULT_WINDOW,
                         help="flows per sliding window")
    windows.add_argument("--time-window-ns", type=int,
                         help="use a time window of this many nanoseconds")
    p.add_argument("--seed", type=int, default=1, help="hash seed")

    q = sub.add_parser("query", help="network-wide query over a store directory")
    q.add_argument("store")
    q.add_argument("task", choices=QUERY_TASKS)
    q.add_argument("--t0", type=int, default=0)
    q.add_argument("--t1", type=int, default=(1 << 62))
    q.add_argument("--keys-from", help="trace whose flow keys to query")
    q.add_argument("--threshold", type=float)
    for command in sub.choices.values():  # exact names only: --ratio is not --ratios
        command.allow_abbrev = False
    return parser


def _shape_options(args) -> dict:
    """The trace-shape options of the requested kind of trace, defaults
    filled in; an option of the other kind is an error, not ignored."""
    own, other = (_UNIFORM_ONLY, _ZIPF_ONLY) if args.uniform else (_ZIPF_ONLY, _UNIFORM_ONLY)
    stray = ["--" + dest.replace("_", "-") for dest in other if getattr(args, dest) is not None]
    if stray:
        need = "cannot be combined with --uniform" if args.uniform else "need --uniform"
        raise ValueError(f"{', '.join(stray)} {need}")
    return {dest: default if getattr(args, dest) is None else getattr(args, dest)
            for dest, (default, _) in own.items()}


def _cmd_gen(args) -> int:
    opts = _shape_options(args)
    if args.uniform:
        gen_uniform_trace(args.seed, args.flows, opts["packets_per_flow"],
                          opts["packet_bytes"], args.out, concurrency=args.concurrency)
    else:
        gen_trace(args.seed, args.flows, opts["zipf_s"], opts["mean_packets"],
                  args.out, v_max=opts["max_size"], concurrency=args.concurrency)
    print(args.out)
    return 0


def _cmd_train(args) -> int:
    """Fit the cluster model to the first --train-samples flows of the
    trace and allocate it m = ratio * window buckets."""
    config = BenchmarkConfig(trace_path=args.trace, ratios=(args.ratio,),
                             clusters=args.clusters, window=args.window,
                             train_samples=args.train_samples)
    records, _ = bench.load_records(config)
    samples = bench.training_samples(records, args.train_samples)
    model, _ = bench.fit_model(config, samples, args.ratio)
    with open(args.out, "w") as fh:
        json.dump(model.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(args.out)
    return 0


def _cmd_bench(args) -> int:
    config = BenchmarkConfig(
        sketches=tuple(args.sketches), ratios=tuple(args.ratios),
        window=args.window, clusters=args.clusters,
        hh_percentile=args.hh_percentile, counter_width=args.counter_width,
        seed=args.seed, trace_path=args.trace, train_samples=args.train_samples,
    )
    report = run_benchmark(config)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report_json(report))
    print(report_table(report), end="")
    if args.check:
        return 0 if check_report(report) else 1
    return 0


def check_report(report: dict) -> bool:
    """Per-ratio acceptance thresholds for the comparison benchmark."""
    ok = True
    by_ratio: dict[float, dict[str, dict]] = {}
    for row in report["rows"]:
        by_ratio.setdefault(row["ratio"], {})[row["sketch"]] = row
    for ratio, rows in sorted(by_ratio.items()):
        if "lss" not in rows:
            continue
        lss = rows["lss"]
        for base in ("cm", "cs"):
            if base not in rows:
                continue
            if lss["flow_size"]["mean_re"] > 0.1 * rows[base]["flow_size"]["mean_re"]:
                print(f"CHECK FAIL ratio={ratio}: flow-size vs {base}", file=sys.stderr)
                ok = False
            if lss["heavy_hitters"]["f1"] < rows[base]["heavy_hitters"]["f1"]:
                print(f"CHECK FAIL ratio={ratio}: heavy-hitter F1 vs {base}", file=sys.stderr)
                ok = False
        # entropy and the absolute F1 floor are anchored at the default
        # ratio; below it the bucket budget cannot even represent the
        # true size distribution's entropy
        if abs(ratio - 0.1) < 1e-9:
            if "cm" in rows and lss["entropy_re"] > 0.25 * rows["cm"]["entropy_re"]:
                print(f"CHECK FAIL ratio={ratio}: entropy vs cm", file=sys.stderr)
                ok = False
            if lss["heavy_hitters"]["f1"] < 0.95:
                print(f"CHECK FAIL ratio={ratio}: heavy-hitter F1 < 0.95", file=sys.stderr)
                ok = False
        # exact up to the accepted 16-bit fingerprint misattribution rate
        if lss.get("cardinality_error", 0.0) > 1e-3:
            print(f"CHECK FAIL ratio={ratio}: cardinality off by more than 0.1%",
                  file=sys.stderr)
            ok = False
    return ok


def _cmd_sweep(args) -> int:
    config = BenchmarkConfig(
        ratios=(args.ratio,), window=args.window, clusters=args.clusters,
        hh_percentile=args.hh_percentile, seed=args.seed, train_samples=args.train_samples,
    )
    result = run_sensitivity(config, args.axis)
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def _cmd_pipeline(args) -> int:
    with open(args.model) as fh:
        model = ClusterModel.from_json(json.load(fh))
    if model.allocation is None:
        raise InvalidInputError(f"model {args.model} has no allocation; "
                                "write it with flowsketch train")
    m = sum(model.allocation)
    # reject a layout the sketch would reject before reading the trace
    check_layout(model.centers, model.allocation, m)
    if args.time_window_ns is not None:
        window = WindowConfig(mode="time", capacity=args.time_window_ns)
    else:
        window = WindowConfig(mode="sequence", capacity=args.window)
    store = SketchStore(args.store)
    stats = run_pipeline(read_trace(args.trace), model, m, store, window=window,
                         ingest_capacity=args.ingest_capacity, hash_seed=args.seed)
    conserved = stats.packet_bytes == stats.sketched_value
    print(json.dumps({
        "packets": stats.packets,
        "packet_bytes": stats.packet_bytes,
        "flowlet_records": stats.flowlet_records,
        "flowlet_batches": stats.flowlet_batches,
        "envelopes": stats.envelopes,
        "sketched_value": stats.sketched_value,
        "conserved": conserved,
        "traffic_reduction": stats.traffic_reduction,
        "fifo_violations": stats.fifo_violations,
    }, indent=2, sort_keys=True))
    return 0 if conserved and stats.fifo_violations == 0 else 1


def _cmd_query(args) -> int:
    store = SketchStore(args.store)
    params = {}
    if args.keys_from:
        params["keys"] = list(dict.fromkeys(p.key for p in read_trace(args.keys_from)))
    if args.threshold is not None:
        params["threshold"] = args.threshold
    report = network_wide_query(store, args.t0, args.t1, args.task, params)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "gen": _cmd_gen,
        "train": _cmd_train,
        "bench": _cmd_bench,
        "sweep": _cmd_sweep,
        "pipeline": _cmd_pipeline,
        "query": _cmd_query,
    }[args.command]
    try:
        return handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
