"""Span wrappers for the traced run, installed from the benchmark's side.

Nothing here edits program code: :func:`install` replaces public entry
points with timing wrappers at run time, in the server process only.
A name that a caller imported by value is patched in that caller's
module as well, because that is where the caller looks it up.

Every span records its name, layer, wall start and end, thread, parent
span (same thread) and the window the service had open.  Durations are
taken twice: wall time (``perf_counter``) for latencies, and the
thread's CPU time (``thread_time``) for the coverage account.  A layer's
self time is its span time minus the time covered by its child spans.

Besides the wrapped entry points, every pass of the event loop is a
span, and so is every callback in it (``asyncio.events.Handle._run``).
A callback is charged to a layer only when the layer can be named: a
task step to the innermost coroutine it resumes that lives in a layer's
module (a connection task of the HTTP listener or the publisher stays
with that layer), a transport or socket callback to the service
listener that owns the socket, the callback that hands a ``to_thread``
result back to the loop to the layer of the function the thread ran.
Every other callback, and the part of a pass's own polling beyond
:data:`POLL_ALLOWANCE_S`, is charged to ``unattributed``.  Thread
hand-offs are spans too: each ``to_thread`` work item, charged to the
layer of the function it runs, and each pipe write to a shard worker.

Helper threads are charged by what they serve.  The CPU an executor
thread spends outside its work items (waking, taking the GIL, handing
the result back) goes to the layers of the work items it ran, in
proportion to their number; a multiprocessing queue's feeder thread,
which only pickles and writes the coordinator's commands to a shard
worker, goes to ``runtime.sharded``.  The event-loop thread gets no such
charge.

So the CPU time of the server process is either inside a layer,
inside the wrappers themselves (``trace``), or left over: charged to
``unattributed``, or outside every span on the event-loop thread or an
unknown thread.  ``run.py`` counts both kinds of left-over time against
the completeness gate.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import statistics
import threading
import time
import weakref
from collections import Counter, defaultdict

#: the program's layers, in table order
LAYERS = (
    "service.protocol",
    "service.server",
    "service.window",
    "runtime.partition",
    "runtime.sharded",
    "runtime.slim",
    "core.vectorized",
    "sketch.vectorized_tower",
    "temporal.store",
    "core.serialize",
    "replica.publisher",
    "service.http",
)

#: the wrappers' own cost
TRACE = "trace"

#: event-loop work that no layer can be named for
UNATTRIBUTED = "unattributed"

#: CPU seconds of one event-loop pass's own work (polling, timers,
#: dispatch) charged to ``service.server``; the rest goes to
#: UNATTRIBUTED.  With the wrappers installed, a pass on this
#: benchmark's workloads takes a median of 17-25 us on a 2-vCPU KVM
#: guest, so about half of the passes spill over.
POLL_ALLOWANCE_S = 20e-6

#: module prefix -> layer, for the coroutines a task step resumes and
#: the functions a thread hand-off runs
_MODULE_LAYERS = tuple(("repro." + layer, layer) for layer in LAYERS)

#: helper threads started by the standard library, by name -> the layer
#: they serve (multiprocessing names its queue feeder threads so)
_HELPER_THREADS = {"QueueFeederThread": "runtime.sharded"}

#: listeners whose connection tasks keep their layer whatever they await
_OWNING_LAYERS = ("service.http", "replica.publisher")

_perf = time.perf_counter
_cpu = time.thread_time

#: the submit span a sync span runs under (to_thread copies it along)
_submit_span = contextvars.ContextVar("perfbench_submit_span", default=None)


def _layer_of(module: str):
    """The layer that owns ``module`` (a dotted name), or None."""
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


def _coro_layer(coro):
    frame = coro.cr_frame
    return _layer_of(frame.f_globals.get("__name__", "")) if frame is not None else None


def _local_port(obj):
    """The local port of a transport or socket, else None."""
    sockname = None
    get_extra = getattr(obj, "get_extra_info", None)
    if callable(get_extra):
        sockname = get_extra("sockname")
    elif callable(getattr(obj, "getsockname", None)):
        try:
            sockname = obj.getsockname()
        except OSError:
            return None
    return sockname[1] if isinstance(sockname, tuple) else None


class Recorder:
    """In-memory span sink plus the per-layer accumulators."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        #: the service's window manager (window stamps of spans)
        self.manager = None
        #: listening port -> layer, for socket callbacks
        self.ports = {}
        #: executor future -> layer of the work item, for the callback
        #: that hands its result back to the event loop
        self.future_layers = weakref.WeakKeyDictionary()
        #: spans are kept only between mark() and stop()
        self.active = False
        self.reset()

    def reset(self) -> None:
        """Start a fresh timed region (earlier spans are discarded)."""
        with self._lock:
            self.spans = []
            self.self_cpu = defaultdict(float)
            self.calls = defaultdict(int)
            self.items = defaultdict(int)
            self.wall = defaultdict(list)
            self.values = defaultdict(list)
            #: per native thread id: CPU seconds per layer (with TRACE
            #: and UNATTRIBUTED), and the work items it ran per layer
            self.thread_cpu = defaultdict(lambda: defaultdict(float))
            self.work_items = defaultdict(Counter)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def window(self) -> int:
        manager = self.manager
        return manager.windows_closed if manager is not None else -1

    def _record(self, span_id, name, layer, w0, w1, parent, self_cpu,
                self_wall=None, items=None, extra=None, allowance=None):
        """Account one span; with an ``allowance``, self CPU beyond it
        is charged to UNATTRIBUTED instead of ``layer``."""
        with self._lock:
            thread = self.thread_cpu[threading.get_native_id()]
            charged = self_cpu
            if allowance is not None and self_cpu > allowance:
                charged = allowance
                self.self_cpu[UNATTRIBUTED] += self_cpu - allowance
                thread[UNATTRIBUTED] += self_cpu - allowance
            self.self_cpu[layer] += charged
            thread[layer] += charged
            self.calls[name] += 1
            if items is not None:
                self.items[name] += items
            if self_wall is not None:
                self.wall[name].append(self_wall)
            if extra:
                for key, value in extra.items():
                    self.values[key].append(value)
            self.spans.append((
                span_id, name, layer, w0, w1, threading.get_ident(),
                parent, self.window(), self_cpu,
            ))

    def _charge_trace(self, seconds: float) -> None:
        with self._lock:
            self.self_cpu[TRACE] += seconds
            self.thread_cpu[threading.get_native_id()][TRACE] += seconds

    def note_work_item(self, future, layer: str) -> None:
        """Remember the layer of an executor work item, for the callback
        that hands its result back and for its thread's charge."""
        with self._lock:
            self.future_layers[future] = layer
            if self.active:
                self.work_items[threading.get_native_id()][layer] += 1

    def charge_helpers(self, threads) -> dict:
        """Charge helper threads' CPU outside their spans to the layers
        they serve.  ``threads`` maps native thread id to ``(name, CPU
        seconds of the timed region)``; returns the seconds charged per
        thread id."""
        charged = {}
        with self._lock:
            for tid, (name, cpu) in threads.items():
                owners = self.work_items.get(tid)
                if not owners and name in _HELPER_THREADS:
                    owners = Counter({_HELPER_THREADS[name]: 1})
                if not owners:
                    continue
                rest = max(0.0, cpu - sum(self.thread_cpu[tid].values()))
                total = sum(owners.values())
                for layer, count in owners.items():
                    share = rest * count / total
                    self.self_cpu[layer] += share
                    self.thread_cpu[tid][layer] += share
                charged[tid] = rest
        return charged

    def run(self, name, layer, fn, args, kwargs, items=None, after=None,
            root=False, allowance=None):
        """Run ``fn`` inside one span; returns its result.

        ``layer`` may be a function of ``args`` naming the layer; it is
        called inside the wrappers' own budget.  A ``root`` span (an
        event-loop step, a thread hand-off) is not a layer call of its
        own: a submit span counts the wall time of the layer calls
        directly under it as hand-off, not as its own.
        """
        c0 = _cpu()
        if callable(layer):
            layer = layer(*args)
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        frame = [0.0, 0.0, span_id, root]  # child cpu, child wall, id, root
        stack.append(frame)
        w0 = _perf()
        c1 = _cpu()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            c2 = _cpu()
            w1 = _perf()
            stack.pop()
            wall = w1 - w0
            if self.active:
                self._record(
                    span_id, name, layer, w0, w1,
                    parent[2] if parent is not None else None,
                    (c2 - c1) - frame[0], wall - frame[1],
                    items(args) if items is not None else None,
                    after(args, result) if after is not None else None,
                    allowance,
                )
                submit = _submit_span.get()
                if submit is not None and (parent is None or parent[3]):
                    submit[1] += wall
            c3 = _cpu()
            if parent is not None:
                parent[0] += c3 - c0
                parent[1] += wall
            if self.active:
                self._charge_trace((c1 - c0) + (c3 - c2))

    def step_layer(self, handle) -> str:
        """The layer an event-loop callback serves, or UNATTRIBUTED."""
        callback = getattr(handle, "_callback", None)
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, asyncio.Task):
            coro = owner.get_coro()
            layer = _coro_layer(coro) if hasattr(coro, "cr_code") else None
            if layer in _OWNING_LAYERS:
                return layer
            coro = getattr(coro, "cr_await", None)
            while coro is not None and hasattr(coro, "cr_code"):
                layer = _coro_layer(coro) or layer
                coro = coro.cr_await
            return layer or UNATTRIBUTED
        for obj in (owner, *(getattr(handle, "_args", None) or ())):
            try:
                with self._lock:
                    layer = self.future_layers.get(obj)
            except TypeError:  # neither weakly referable nor hashable
                layer = None
            if layer is not None:
                return layer
            port = _local_port(obj)
            if port is not None:
                return self.ports.get(port, UNATTRIBUTED)
        return UNATTRIBUTED

    # ------------------------------------------------------------------
    # summaries

    def median_ms(self, name: str) -> float:
        values = self.wall.get(name)
        return statistics.median(values) * 1000 if values else 0.0

    def per_item_us(self, *names: str, per: str = None) -> float:
        """Self wall time of ``names`` per item counted by ``per``
        (default: the one name's own items)."""
        n = self.items.get(per or names[0], 0)
        total = sum(sum(self.wall.get(name, ())) for name in names)
        return total / n * 1e6 if n else 0.0

    def value_median(self, key: str) -> float:
        values = self.values.get(key)
        return statistics.median(values) if values else 0.0

    def value_mean(self, key: str) -> float:
        values = self.values.get(key)
        return statistics.fmean(values) if values else 0.0

    def write_spans(self, path) -> None:
        """All spans of the timed region as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tname\tlayer\tstart\tend\tthread\tparent\twindow\tself_cpu\n")
            for span in self.spans:
                out.write("\t".join(str(field) for field in span) + "\n")


def _wrap(recorder, owner, attr, name, layer, items=None, after=None, targets=()):
    """Replace ``owner.attr`` (and aliases of it in ``targets``)."""
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
    if isinstance(raw, classmethod):
        func = raw.__func__

        def class_wrapper(cls, *args, **kwargs):
            return recorder.run(name, layer, func, (cls, *args), kwargs, items, after)

        setattr(owner, attr, classmethod(functools.wraps(func)(class_wrapper)))
        return
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        return recorder.run(name, layer, original, args, kwargs, items, after)

    functools.update_wrapper(wrapper, original)
    setattr(owner, attr, wrapper)
    for module in targets:
        if getattr(module, attr, None) is original:
            setattr(module, attr, wrapper)


def _count(args) -> int:
    return len(args[-1])


def install(recorder: Recorder) -> None:
    """Wrap every layer's entry points (call before building the service)."""
    import concurrent.futures.thread
    import multiprocessing.connection
    import multiprocessing.reduction as reduction

    import repro.core.serialize as serialize
    import repro.replica.publisher as publisher
    import repro.runtime.sharded as sharded
    import repro.runtime.slim as slim
    import repro.service.http as http
    import repro.service.server as server
    import repro.service.window as window
    from repro.core.vectorized import VectorizedXSketch
    from repro.runtime.partition import KeyPartitioner
    from repro.sketch.vectorized_tower import VectorizedTower
    from repro.temporal.store import TemporalStore

    # service.protocol: decode + validate, looked up by the server module
    for attr in ("decode_payload", "parse_message"):
        _wrap(recorder, server, attr, "service.protocol." + attr, "service.protocol")

    # service.window: distinct keys per window, counted where the
    # window is handed to the engine
    seen = {"window": None, "keys": set(), "items": 0}

    def window_distinct(args, _result):
        batch = args[-1]
        closed = None
        current = recorder.window()
        if seen["window"] != current:
            if seen["items"]:
                closed = {"window_distinct": len(seen["keys"]) / seen["items"]}
            seen.update(window=current, keys=set(), items=0)
        seen["keys"].update(batch)
        seen["items"] += len(batch)
        return closed

    _wrap(recorder, window.WindowManager, "_engine_ingest",
          "service.window.engine_ingest", "service.window",
          items=_count, after=window_distinct)
    for attr in ("_engine_flush", "_publish_snapshot", "_slim_summary"):
        _wrap(recorder, window.WindowManager, attr,
              "service.window." + attr.lstrip("_"), "service.window")

    # service.window.submit is a coroutine: its CPU is charged through
    # the loop steps; the wrapper keeps its wall time, the resequencer
    # and lock wait it includes, and the queue wait before it
    original_submit = window.WindowManager.submit

    @functools.wraps(original_submit)
    async def submit(self, items, seq=None, received=None):
        start = _perf()
        span = [start, 0.0]
        token = _submit_span.set(span)
        try:
            return await original_submit(self, items, seq, received=received)
        finally:
            _submit_span.reset(token)
            if recorder.active:
                end = _perf()
                recorder._record(
                    next(recorder._ids), "service.window.submit", "service.window",
                    start, end, None, 0.0, (end - start) - span[1], len(items),
                    {"queue_wait": start - received} if received is not None else None,
                )

    window.WindowManager.submit = submit

    # runtime.partition
    def split_distinct(args, _result):
        batch = args[-1]
        return {"split_distinct": len(set(batch)) / len(batch)} if batch else None

    _wrap(recorder, KeyPartitioner, "split", "runtime.partition.split",
          "runtime.partition", items=_count, after=split_distinct)

    # runtime.sharded: routing, close, compaction, checkpoint, pickling
    _wrap(recorder, sharded.ShardedXSketch, "ingest_batch",
          "runtime.sharded.ingest_batch", "runtime.sharded", items=_count)
    for attr in ("flush_window", "merged_sketch", "_auto_checkpoint"):
        _wrap(recorder, sharded.ShardedXSketch, attr,
              "runtime.sharded." + attr.lstrip("_"), "runtime.sharded")
    _wrap(recorder, reduction.ForkingPickler, "dumps",
          "runtime.sharded.pickle", "runtime.sharded")
    _wrap(recorder, slim, "slim_summary", "runtime.slim.summary", "runtime.slim")

    # core.vectorized and its tower
    _wrap(recorder, VectorizedXSketch, "ingest_batch",
          "core.vectorized.ingest_batch", "core.vectorized", items=_count)
    _wrap(recorder, VectorizedXSketch, "end_window",
          "core.vectorized.end_window", "core.vectorized")
    _wrap(recorder, VectorizedTower, "positions",
          "sketch.vectorized_tower.positions", "sketch.vectorized_tower",
          items=_count)

    # temporal.store: write side and read side
    _wrap(recorder, TemporalStore, "observe_items",
          "temporal.store.observe_items", "temporal.store", items=_count)
    for attr in ("on_window", "range_reports"):
        _wrap(recorder, TemporalStore, attr, "temporal.store." + attr,
              "temporal.store")

    # core.serialize: imported by value into the sharded runtime
    for attr in ("snapshot_xsketch", "restore_xsketch"):
        _wrap(recorder, serialize, attr, "core.serialize." + attr,
              "core.serialize", targets=(sharded,))

    # replica.publisher: boundary stamping and frame encoding
    _wrap(recorder, publisher.SnapshotPublisher, "publish_boundary",
          "replica.publisher.publish_boundary", "replica.publisher")

    def frame_size(args, result):
        if result is None or not isinstance(args[0], dict):
            return None
        if args[0].get("type") != "delta":
            return None
        return {"delta_bytes": len(result)}

    _wrap(recorder, publisher, "encode_frame", "replica.publisher.encode_frame",
          "replica.publisher", after=frame_size)

    # service.http: route bodies (imported by value) and rendering
    for attr in ("reports_response", "history_response"):
        _wrap(recorder, server, attr, "service.http." + attr, "service.http")

    def response_size(_args, result):
        return {"response_bytes": len(result)} if result is not None else None

    _wrap(recorder, http, "render_response", "service.http.render_response",
          "service.http", after=response_size)

    # the event loop: each pass (its own polling is the server's work up
    # to an allowance) and each callback in it, charged to the layer the
    # callback serves
    original_run_once = asyncio.base_events.BaseEventLoop._run_once
    original_run = asyncio.events.Handle._run

    def run_once(loop):
        return recorder.run("loop.poll", "service.server", original_run_once,
                            (loop,), {}, root=True, allowance=POLL_ALLOWANCE_S)

    def handle_run(handle):
        return recorder.run("loop.step", recorder.step_layer,
                            original_run, (handle,), {}, root=True)

    asyncio.base_events.BaseEventLoop._run_once = run_once
    asyncio.events.Handle._run = handle_run

    # thread hand-offs: each work item a to_thread call runs, charged to
    # the layer of the function it runs (``to_thread`` hands over
    # ``partial(context.run, func, ...)``), and the pipe writes that
    # carry commands to the shard workers
    original_work = concurrent.futures.thread._WorkItem.run

    def work_layer(item):
        fn = item.fn
        if isinstance(fn, functools.partial) and fn.args:
            fn = fn.args[0]
        layer = _layer_of(getattr(fn, "__module__", None) or "") or UNATTRIBUTED
        recorder.note_work_item(item.future, layer)
        return layer

    def work_item(item):
        return recorder.run("thread.work_item", work_layer,
                            original_work, (item,), {}, root=True)

    concurrent.futures.thread._WorkItem.run = work_item
    _wrap(recorder, multiprocessing.connection.Connection, "send_bytes",
          "runtime.sharded.send_bytes", "runtime.sharded")
