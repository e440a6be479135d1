"""Benchmark entry point: runs one workload (or all) and prints the result.

    python3 perfbench/run.py --workload pipeline-zipf --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs in a child process (worker.py) under a wall-clock
limit. The child reports set-up times and every op as it finishes
them; if it hangs or dies, the parent stops it and counts the op in
flight as failed. The last line of stdout is the result object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones from a run with spans around every layer's entry points.
"""

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("pipeline-zipf", "bench-equal-memory", "query-store")
# the worker's wall-clock limit: a run must end within 180 s
CHILD_LIMIT_S = 170.0


def run_child(args, workload: str, limit_s: float) -> tuple[list[dict], int | None]:
    """Run the worker; return its protocol lines and its exit code
    (None when it was stopped at the wall-clock limit)."""
    work_dir = os.path.join(WORK, f"{workload}-{args.seed}-{os.getpid()}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--scale", args.scale]
    deadline = time.monotonic() + limit_s
    lines: list[dict] = []
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            buf = b""
            while True:
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(timeout=left):
                    break
                chunk = os.read(proc.stdout.fileno(), 65536)
                if not chunk:
                    break
                buf += chunk
                *done, buf = buf.split(b"\n")
                lines.extend(json.loads(line) for line in done if line.strip())
        try:
            code = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    return lines, code


def summarize(workload: str, lines: list[dict], code: int | None, trace: bool) -> dict | None:
    """Build the result object; None when set-up never finished."""
    setups = [l for l in lines if l["event"] == "setup"]
    end = next((l for l in lines if l["event"] == "end"), None)
    ops = [l for l in lines if l["event"] == "op"]
    if not setups:
        return None
    attempted, failed = len(ops), sum(1 for o in ops if o["error"])
    if end is None:  # stopped or crashed mid-op: that op failed
        attempted += 1
        failed += 1
    good = [o for o in ops if not o["error"]]
    for o in ops:
        if o["error"]:
            print(f"{workload}: op {o['index']} failed: {o['error']}")
    if code is None:
        print(f"{workload}: stopped at the wall-clock limit")
    elif end is None:
        print(f"{workload}: worker exited with code {code} before finishing")
    correct = end is not None and code == 0 and bool(good)
    if trace:
        layers = end["layers"] if end else {}
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        op_ms = [o["ms"] for o in good]
        busy_s = sum(o["ms"] for o in ops) / 1000
        metrics = {
            "setup_s": {"value": statistics.median(l["seconds"] for l in setups), "unit": "s"},
            "throughput_per_s": {"value": sum(o["units"] for o in good) / busy_s if busy_s else 0.0,
                                 "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(op_ms) if op_ms else 0.0, "unit": "ms"},
            "peak_rss_mb": {"value": end["peak_rss_mb"] if end else 0.0, "unit": "MB"},
        }
        print(f"{workload}: op_p50_ms over n={len(op_ms)} ops; throughput in {setups[0]['unit']}/s; "
              f"setup_s median of {len(setups)} set-ups; "
              f"op ms: {' '.join(f'{o:.1f}' for o in op_ms)}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "flowsketch", "__init__.py")):
        print(f"error: no flowsketch sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        lines, code = run_child(args, name, CHILD_LIMIT_S)
        result = summarize(name, lines, code, bool(args.trace))
        if result is None:
            print(f"error: {name} did not finish set-up (exit code {code})", file=sys.stderr)
            return 1
        results[name] = result
    if args.workload == "all":
        for name, result in results.items():
            print(json.dumps({"workload": name, **result}))
    print(json.dumps(results[names[-1]] if args.workload != "all" else {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
