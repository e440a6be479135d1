"""Span tracing around flowsketch's layer entry points.

Tracing is installed from the benchmark only: each entry point is
replaced where its caller looks it up (a module global such as
``flowsketch.lss.key_digest`` or a class attribute such as
``CuckooTable._find_slot``), so the package under test is not edited.

Every call becomes a span with a name, a start, an end and a parent.
Hot leaf spans (hundreds of thousands per op) are folded into
per-thread (calls, self time) totals as they close, which keeps memory
flat; the coarse spans (ops, worker threads, queries, store access,
serialization) are also kept whole and written out as JSON lines when
the run ends. A span's self time is its duration minus the time its
child spans cover.
"""

import json
import threading
import time

_now = time.perf_counter_ns

# spans kept whole in the dump; everything else is only aggregated
_KEEP = ("op", "pipeline.thread.", "pipeline.query.", "pipeline.store_", "pipeline.feed_batch",
         "lss.to_bytes", "lss.from_bytes", "bench.", "clustering.train_model",
         "traces.generate_packets")


class _ThreadState:
    __slots__ = ("stack", "agg", "spans", "thread", "overhead_ns")

    def __init__(self, thread: str):
        self.thread = thread
        self.overhead_ns = 0                 # time spent in the wrappers themselves
        self.stack: list[list] = []          # open spans: [name, child_ns]
        self.agg: dict[str, list] = {}       # name -> [calls, total_ns, self_ns, extra]
        self.spans: list[tuple] = []         # (name, thread, op, start, end, parent)


class Tracer:
    """Collects spans from every thread while ``enabled`` is true."""

    def __init__(self):
        self.enabled = False
        self.op_id = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.current_thread().name)
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def reset(self) -> None:
        """Drop everything recorded so far (frames still open stay open)."""
        with self._lock:
            for st in self._states:
                st.agg.clear()
                st.spans.clear()
                st.overhead_ns = 0

    def wrap(self, name: str, fn, *, count_exc=None, size_of_result=False):
        """Return fn wrapped in a span called name.

        count_exc: an exception type whose raises are counted under
          ``<name>:exc`` (the exception still propagates).
        size_of_result: add len(result) to the span's ``extra`` total.
        """
        keep = name.startswith(_KEEP)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            enter = _now()
            st = tracer._state()
            stack = st.stack
            frame = [name, 0]
            stack.append(frame)
            result = None
            start = _now()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                if count_exc is not None and isinstance(exc, count_exc):
                    st.agg.setdefault(name + ":exc", [0, 0, 0, 0])[0] += 1
                raise
            finally:
                end = _now()
                stack.pop()
                dur = end - start
                agg = st.agg.get(name)
                if agg is None:
                    agg = st.agg[name] = [0, 0, 0, 0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if size_of_result and result is not None:
                    agg[3] += len(result)
                if keep:
                    st.spans.append((name, st.thread, tracer.op_id, start, end,
                                     stack[-1][0] if stack else None))
                # the wrapper's own cost is charged to the parent as
                # child time and reported apart, not as anyone's self time
                leave = _now()
                if stack:
                    stack[-1][1] += leave - enter
                st.overhead_ns += leave - enter - dur

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        return self.wrap(name, fn)(*args, **kwargs)

    def totals(self) -> dict[str, list]:
        """name -> [calls, total_ns, self_ns, extra] summed over threads."""
        out: dict[str, list] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, agg in st.agg.items():
                acc = out.setdefault(name, [0, 0, 0, 0])
                for i in range(4):
                    acc[i] += agg[i]
        return out

    def overhead_ns(self) -> int:
        with self._lock:
            return sum(st.overhead_ns for st in self._states)

    def spans(self) -> list[tuple]:
        with self._lock:
            states = list(self._states)
        out = [span for st in states for span in st.spans]
        out.sort(key=lambda s: s[3])
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, thread, op, start, end, parent in self.spans():
                fh.write(json.dumps({"name": name, "thread": thread, "op": op,
                                     "start_ns": start, "end_ns": end,
                                     "parent": parent}) + "\n")
            for name, (calls, total, self_ns, extra) in sorted(self.totals().items()):
                fh.write(json.dumps({"aggregate": name, "calls": calls, "total_ns": total,
                                     "self_ns": self_ns, "extra": extra}) + "\n")


class _ThreadingShim:
    """Stands in for the ``threading`` module inside flowsketch.pipeline,
    so each pipeline worker runs inside a root span of its own."""

    def __init__(self, tracer: Tracer, real):
        self._tracer = tracer
        self._real = real

    def __getattr__(self, attr):
        return getattr(self._real, attr)

    def Thread(self, *args, target=None, name=None, **kwargs):
        if target is not None:
            target = self._tracer.wrap(f"pipeline.thread.{name}", target)
        return self._real.Thread(*args, target=target, name=name, **kwargs)


def _bus_wait_name(kind: str, topic: str) -> str:
    return f"bus.{topic.split('.', 1)[0]}.{kind}"


def install(tracer: Tracer) -> None:
    """Wrap flowsketch's layer entry points for the rest of the process."""
    from flowsketch import baselines, bench, bus, lss, membership, pipeline, traces

    def method(cls, attr, name, **kw):
        setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr], **kw))

    # hashing: looked up as module globals by the callers
    lss.key_digest = tracer.wrap("hashing.key_digest", lss.key_digest)
    membership.key_digest = tracer.wrap("hashing.key_digest", membership.key_digest)
    baselines.bank_hash = tracer.wrap("hashing.bank_hash", baselines.bank_hash)
    # clustering
    lss.nearest_center = tracer.wrap("clustering.nearest_center", lss.nearest_center)
    bench.train_model = tracer.wrap("clustering.train_model", bench.train_model)
    # traces
    bench.generate_packets = tracer.wrap("traces.generate_packets", bench.generate_packets)
    traces.generate_packets = tracer.wrap("traces.generate_packets", traces.generate_packets)
    # membership
    table = membership.CuckooTable
    method(table, "_find_slot", "membership.find_slot")
    method(table, "_insert_fp", "membership.insert_fp")
    method(table, "_lookup_fp", "membership.lookup_fp")
    # the clustered sketch
    sketch = lss.LssSketch
    method(sketch, "insert_duplicate", "lss.insert_duplicate", count_exc=lss.BucketUnderflowError)
    method(sketch, "query", "lss.query")
    method(sketch, "contains", "lss.contains")
    method(sketch, "to_bytes", "lss.to_bytes", size_of_result=True)
    sketch.from_bytes = classmethod(
        tracer.wrap("lss.from_bytes", sketch.__dict__["from_bytes"].__func__))
    # baselines and scoring
    method(baselines.CmSketch, "insert", "baselines.cm_insert")
    method(baselines.CmSketch, "query", "baselines.cm_query")
    method(baselines.CsSketch, "insert", "baselines.cs_insert")
    method(baselines.CsSketch, "query", "baselines.cs_query")
    bench._evaluate = tracer.wrap("metrics.score", bench._evaluate)
    # bus: a blocked publish or get is the wait
    real_publish = bus.TopicBus.__dict__["publish"]
    real_get = bus.Subscription.__dict__["get"]
    publish_names: dict[str, object] = {}
    get_names: dict[str, object] = {}

    def publish(self, topic, message):
        fn = publish_names.get(topic)
        if fn is None:
            fn = publish_names[topic] = tracer.wrap(_bus_wait_name("publish", topic), real_publish)
        return fn(self, topic, message)

    def get(self, timeout=None):
        fn = get_names.get(self.topic)
        if fn is None:
            fn = get_names[self.topic] = tracer.wrap(_bus_wait_name("get", self.topic), real_get)
        return fn(self, timeout)

    bus.TopicBus.publish = publish
    bus.Subscription.get = get
    # pipeline stages and the store
    method(pipeline.IngestStage, "ingest", "pipeline.ingest")
    method(pipeline.SketchingStage, "feed_batch", "pipeline.feed_batch")
    method(pipeline.SketchStore, "put", "pipeline.store_put")
    method(pipeline.SketchStore, "range", "pipeline.store_range")
    pipeline.threading = _ThreadingShim(tracer, pipeline.threading)


# per-layer metrics: (span name, fields); calls and self time are per op
LAYER_SPANS = (
    ("traces.generate_packets", ("self_s",)),
    ("hashing.key_digest", ("calls", "self_s")),
    ("hashing.bank_hash", ("calls", "self_s")),
    ("clustering.nearest_center", ("calls", "self_s")),
    ("clustering.train_model", ("self_s",)),
    ("membership.find_slot", ("calls", "self_s")),
    ("membership.insert_fp", ("calls", "self_s")),
    ("membership.lookup_fp", ("calls", "self_s")),
    ("lss.insert_duplicate", ("calls", "self_s")),
    ("lss.query", ("calls", "self_s")),
    ("lss.contains", ("calls", "self_s")),
    ("lss.to_bytes", ("calls", "self_s", "bytes")),
    ("lss.from_bytes", ("calls", "self_s")),
    ("baselines.cm_insert", ("self_s",)),
    ("baselines.cm_query", ("self_s",)),
    ("baselines.cs_insert", ("self_s",)),
    ("baselines.cs_query", ("self_s",)),
    ("metrics.score", ("self_s",)),
    ("pipeline.ingest", ("calls", "self_s")),
    ("pipeline.feed_batch", ("calls", "self_s")),
    ("pipeline.store_put", ("calls", "self_s")),
    ("pipeline.store_range", ("calls", "self_s")),
    ("pipeline.query.cardinality", ("self_s",)),
    ("pipeline.query.flow-size", ("self_s",)),
    ("pipeline.query.entropy", ("self_s",)),
    ("pipeline.query.heavy-hitters", ("self_s",)),
    ("pipeline.query.heavy-changes", ("self_s",)),
    ("bench.run_benchmark", ("self_s",)),
)
BUS_WAITS = ("bus.flowlets.publish", "bus.flowlets.get", "bus.sketches.publish", "bus.sketches.get")
SETUP_SPANS = ("traces.generate_packets", "clustering.train_model")
WORKER_THREADS = ("ingest_worker", "sketch_worker", "query_worker")
_UNITS = {"calls": "count", "self_s": "s", "bytes": "B"}


def layer_metrics(totals: dict, setup_totals: dict, n_ops: int, op_p50_ms: float,
                  op_accounted: float, overhead_ns: int) -> dict:
    """Per-layer metrics of a traced run as {name: (value, unit)}.

    Calls, self time and bytes are per op of the timed phase; the
    ``setup.`` metrics cover one set-up; ``trace.accounted.*`` is the
    share of a thread's time that layer spans, bus waits and the
    wrappers' own cost (``trace.overhead_s``) cover."""
    zero = [0, 0, 0, 0]
    out = {}
    for name, fields in LAYER_SPANS:
        calls, _total, self_ns, extra = totals.get(name, zero)
        values = {"calls": calls / n_ops, "self_s": self_ns / 1e9 / n_ops, "bytes": extra / n_ops}
        for f in fields:
            out[f"{name}.{f}"] = (values[f], _UNITS[f])
    out["lss.bucket_underflow.count"] = (
        totals.get("lss.insert_duplicate:exc", zero)[0] / n_ops, "count")
    publishes = 0
    for name in BUS_WAITS:
        calls, total, _self, _extra = totals.get(name, zero)
        out[f"{name}_wait_s"] = (total / 1e9 / n_ops, "s")
        if name.endswith("publish"):
            publishes += calls
    out["bus.publish.calls"] = (publishes / n_ops, "count")
    for name in SETUP_SPANS:
        out[f"setup.{name}.self_s"] = (setup_totals.get(name, zero)[2] / 1e9, "s")
    out["trace.op_p50_ms"] = (op_p50_ms, "ms")
    out["trace.overhead_s"] = (overhead_ns / 1e9 / n_ops, "s")
    out["trace.accounted.op"] = (op_accounted, "share")
    for thread in WORKER_THREADS:
        _calls, total, self_ns, _extra = totals.get(f"pipeline.thread.{thread}", zero)
        out[f"trace.accounted.{thread}"] = (1 - self_ns / total if total else 0.0, "share")
    return out


def op_accounted_share(spans: list[tuple]) -> float:
    """Share of the ops' wall time covered by their direct child spans
    and by the pipeline worker threads they wait on (median over ops)."""
    ops = {}
    covers: dict[int, list] = {}
    for name, _thread, op, start, end, parent in spans:
        if name == "op":
            ops[op] = (start, end)
        elif parent == "op" or (parent is None and name.startswith("pipeline.thread.")):
            covers.setdefault(op, []).append((start, end))
    shares = []
    for op, (start, end) in ops.items():
        covered, reach = 0, start
        for s, e in sorted(covers.get(op, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        shares.append(covered / (end - start))
    shares.sort()
    return shares[len(shares) // 2] if shares else 0.0
