"""Digests of every canonical output, for checking that a refactor
leaves them byte-identical.

    PYTHONPATH=src python tools/refactor_digests.py

Runs the CLI in-process in a temporary directory and prints one
``sha256  name`` line per output: the fixed-seed bench reports at seed
1 and at seed 598 (whose clustered-sketch fill lands increments on a
fingerprint-merged flow), the five sensitivity sweeps, the model
`train` writes for a generated trace, the `pipeline` summary, every
stored sketch payload, the five query reports over that store, and
every payload of a second `pipeline` run on a time window. That window
(25 ms of the 29 ms trace) holds more flows than the membership table
takes, so the run rotates early once and then rolls over on time. Run
it on both sides of a change and compare the lines.

Payloads are hashed rather than the envelope files: an envelope's
header carries the wall-clock time the store received it, so whole
files differ on every run.
"""

import contextlib
import hashlib
import io
import os
import tempfile

from flowsketch import cli
from flowsketch.bench import SENSITIVITY_AXES
from flowsketch.pipeline import QUERY_TASKS, SketchStore


# nanoseconds: 17,042 flows, more than the 15,564 the m = 1,000 table
# takes, arrive in the first window of the seed-5 trace
TIME_WINDOW_NS = 25_000_000


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(*argv: str) -> bytes:
    """Run one CLI command; returns its stdout, raising if it fails."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"flowsketch {' '.join(argv)} exited {code}")
    return out.getvalue().encode()


def digests(work: str) -> list[tuple[str, str]]:
    """(sha256, name) of every canonical output, written under work."""

    def path(name: str) -> str:
        return os.path.join(work, name)

    def read(name: str) -> bytes:
        with open(path(name), "rb") as fh:
            return fh.read()

    rows = []
    for seed in ("1", "598"):
        _cli("bench", "--ratios", "0.001", "0.01", "0.1", "--seed", seed,
             "--out", path("bench.json"))
        rows.append((_sha(read("bench.json")), f"bench --ratios 0.001 0.01 0.1 --seed {seed}"))
    for axis in SENSITIVITY_AXES:
        _cli("sweep", axis, "--seed", "1", "--out", path(f"sweep-{axis}.json"))
        rows.append((_sha(read(f"sweep-{axis}.json")), f"sweep {axis} --seed 1"))
    trace, model, store = path("trace.csv"), path("model.json"), path("store")
    _cli("gen", trace, "--seed", "5", "--flows", "20000")
    _cli("train", trace, model)
    rows.append((_sha(read("model.json")), "train model (gen --seed 5 --flows 20000)"))
    rows.append((_sha(_cli("pipeline", trace, store, "--model", model)), "pipeline stdout"))
    rows.extend(_payloads(store, "payload"))
    for task in QUERY_TASKS:
        report = _cli("query", store, task, "--keys-from", trace, "--threshold", "50")
        rows.append((_sha(report), f"query {task}"))
    timed = path("store-time")
    _cli("pipeline", trace, timed, "--model", model, "--time-window-ns", str(TIME_WINDOW_NS))
    rows.extend(_payloads(timed, f"payload --time-window-ns {TIME_WINDOW_NS}"))
    return rows


def _payloads(store: str, label: str) -> list[tuple[str, str]]:
    """(sha256, name) of every payload in a store, in window order."""
    envelopes = sorted(SketchStore(store).range(0, 1 << 62),
                       key=lambda e: (e.source, e.window_id))
    return [(_sha(e.payload), f"{label} {e.source}/{e.window_id} [{e.window_start}, {e.window_end}]")
            for e in envelopes]


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="refactor-digests-") as work:
        for digest, name in digests(work):
            print(f"{digest}  {name}")


if __name__ == "__main__":
    main()
