"""Child process that runs one workload and reports as it goes.

It writes one JSON object per line to the stdout it was started with:
one ``setup`` line per set-up, one ``op`` line per op, then ``end``
(peak RSS and, in a traced run, the per-layer metrics). The parent
(run.py) turns them into the result, so an op that hangs or a crash
still leaves every finished op counted.

    python3 perfbench/worker.py --workload query-store --seed 1 --seconds 30 \
        --trace 0 --work-dir .perfbench/run-1
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_package():
    """Import flowsketch from this checkout's src/, and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "flowsketch", "__init__.py")):
        raise SystemExit(f"flowsketch sources not found under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import flowsketch
    if not os.path.abspath(flowsketch.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"flowsketch imported from {flowsketch.__file__}, not {SRC}")


def run(args, emit) -> None:
    import tracing
    import workloads

    scale = workloads.TINY if args.scale == "tiny" else workloads.FULL
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracing.install(tracer)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.work_dir, scale, call=tracer.call if tracer else None)

    def timed_setup() -> None:
        t0 = time.perf_counter()
        workload.setup()
        emit({"event": "setup", "seconds": time.perf_counter() - t0, "unit": workload.unit})

    # the first set-up builds the inputs before the timed phase; in a
    # traced run it is the one that the setup.* metrics describe
    if tracer:
        tracer.enabled = True
    timed_setup()
    setup_totals = {}
    if tracer:
        tracer.enabled = False
        setup_totals = tracer.totals()
        tracer.reset()

    # The other set-ups are spread evenly over the timed phase, so that
    # setup_s samples the host's speed over the whole run, as the ops
    # do, and not only its first seconds. Each rebuilds the same inputs
    # from the same seed; the ops that follow use them.
    repeats = workload.setup_repeats()
    op_ms = []
    setups_done = 1
    start = time.perf_counter()
    deadline = start + args.seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        if (setups_done < repeats and
                time.perf_counter() - start >= args.seconds * setups_done / repeats):
            timed_setup()
            setups_done += 1
            continue
        units, error = 0, None
        if tracer:
            tracer.op_id = index
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            output = tracer.call("op", workload.op, index) if tracer else workload.op(index)
            seconds = time.perf_counter() - t0
            if tracer:
                tracer.enabled = False
            units = workload.check(index, output)
        except Exception as exc:  # the op failed: count it and go on
            seconds = time.perf_counter() - t0
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.enabled = False
            workload.cleanup(index)
        op_ms.append(seconds * 1000)
        emit({"event": "op", "index": index, "ms": seconds * 1000, "units": units,
              "error": error})
        index += 1
    # a run shorter than its set-ups still makes all of them
    while setups_done < repeats:
        timed_setup()
        setups_done += 1

    end = {"event": "end",
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        spans = tracer.spans()
        end["layers"] = tracing.layer_metrics(
            tracer.totals(), setup_totals, index, statistics.median(op_ms),
            tracing.op_accounted_share(spans), tracer.overhead_ns())
        tracer.dump(os.path.join(os.path.dirname(args.work_dir),
                                 f"spans-{args.workload}-{args.seed}.jsonl"))
    emit(end)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    # protocol lines go to the original stdout; anything the package
    # prints lands on stderr instead
    channel = os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1)
    sys.stdout = sys.stderr

    def emit(obj):
        channel.write(json.dumps(obj) + "\n")

    import_package()
    run(args, emit)
    channel.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
