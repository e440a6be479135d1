"""Digests of every canonical output, for checking that a refactor
leaves them byte-identical.

    PYTHONPATH=src python tools/refactor_digests.py

Runs the CLI in-process in a temporary directory and prints one
``sha256  name`` line per output: the fixed-seed bench report, the five
sensitivity sweeps, the model `train` writes for a generated trace, the
`pipeline` summary, every stored sketch payload, and the five query
reports over that store. Run it on both sides of a change and compare
the lines.

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
    _cli("bench", "--ratios", "0.001", "0.01", "0.1", "--seed", "1", "--out", path("bench.json"))
    rows.append((_sha(read("bench.json")), "bench --ratios 0.001 0.01 0.1 --seed 1"))
    for axis in SENSITIVITY_AXES:
        _cli("sweep", axis, "--seed", "1", "--out", path(f"sweep-{axis}.json"))
        rows.append((_sha(read(f"sweep-{axis}.json")), f"sweep {axis} --seed 1"))
    trace, model, store = path("trace.csv"), path("model.json"), path("store")
    _cli("gen", trace, "--seed", "5", "--flows", "20000")
    _cli("train", trace, model)
    rows.append((_sha(read("model.json")), "train model (gen --seed 5 --flows 20000)"))
    rows.append((_sha(_cli("pipeline", trace, store, "--model", model)), "pipeline stdout"))
    envelopes = sorted(SketchStore(store).range(0, 1 << 62),
                       key=lambda e: (e.source, e.window_id))
    for e in envelopes:
        rows.append((_sha(e.payload),
                     f"payload {e.source}/{e.window_id} [{e.window_start}, {e.window_end}]"))
    for task in QUERY_TASKS:
        report = _cli("query", store, task, "--keys-from", trace, "--threshold", "50")
        rows.append((_sha(report), f"query {task}"))
    return rows


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="refactor-digests-") as work:
        for digest, name in digests(work):
            print(f"{digest}  {name}")


if __name__ == "__main__":
    main()
