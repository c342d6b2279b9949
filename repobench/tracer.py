"""Span recording for the traced benchmark run, installed from outside.

Nothing here is imported by the program.  :func:`install` replaces chosen
public functions and methods of ``repro`` with wrappers that record one
:class:`Span` per call: its name, start, end, the span that caused it and
the id of the request it belongs to.  The parent travels in a
``contextvars.ContextVar``, so it follows ``await`` chains, tasks (which
copy the context when created) and, because :func:`install` also patches
``run_in_executor``, the hop into an executor thread.  Spans stay in a
list in memory until the process writes them out with :meth:`Recorder.dump`.

Per-edge kernels are left unwrapped on purpose: a span per edge would cost
more than the work it measures.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import astuple, dataclass, field

#: Span name given to the wait between handing work to an executor and a
#: thread starting it.
QUEUE_WAIT = "service.executor.queue_wait"
#: The three spans of one HTTP request, which share its id: parsing, the
#: request itself (dispatch to answer) and serializing the answer.
PARSE = "service.http.read_request"
REQUEST = "service.request"
SERIALIZE = "service.http.response_bytes"

#: (module, qualified attribute, span name, counter hook).  The hook, when
#: given, maps ``(args, result)`` to ``{counter: amount}`` recorded on the
#: span; names follow the per-layer metrics in ``BENCHMARK.json``.
TARGETS = (
    ("repro.graph.builders", "from_edge_array", "graph.from_edge_array", None),
    ("repro.cache.store", "graph_fingerprint", "cache.graph_fingerprint", None),
    (
        "repro.intersect.batch",
        "BatchIntersector.arc_counts",
        "intersect.batched_arc_counts",
        lambda args, result: {"arcs": len(args[1])},
    ),
    (
        "repro.similarity.engine",
        "SimilarityEngine.resolve_arcs",
        "similarity.resolve_arcs",
        None,
    ),
    ("repro.core.gsindex", "GSIndex.__init__", "core.gsindex.build", None),
    ("repro.core.gsindex", "GSIndex.query", "core.gsindex.query", None),
    (
        "repro.core.dynamic_index",
        "DynamicGSIndex.apply_batch",
        "core.dynamic_index.apply_batch",
        lambda args, result: {"dirty": len(result.dirty)},
    ),
    (
        "repro.parallel.backend",
        "ProcessBackend.run_phase",
        "parallel.run_phase",
        None,
    ),
    (
        "repro.parallel.supervisor",
        "RecoveryEvent.__init__",
        "parallel.recovery_event",
        None,
    ),
    ("multiprocessing.process", "BaseProcess.start", "parallel.worker_start", None),
    (
        "repro.api",
        "GraphHandle.lookup",
        "api.lookup",
        lambda args, result: {"hit": int(result is not None)},
    ),
    ("repro.api", "GraphHandle.vertex", "api.vertex", None),
    (
        "repro.streaming.engine",
        "StreamingEngine.__init__",
        "streaming.engine_init",
        None,
    ),
    ("repro.streaming.engine", "StreamingEngine.apply", "streaming.apply", None),
    ("repro.service.wal", "ServiceWAL.append", "service.wal.append", None),
    ("repro.service.wal", "ServiceWAL.compact", "service.wal.compact", None),
    (
        "repro.service.wal",
        "ServiceWAL.spill_graph",
        "service.wal.spill_graph",
        None,
    ),
)

_CURRENT: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repobench_span", default=None
)
#: Request id of the last request this task served (read by the response
#: serializer, which runs after the request span has closed).
_REQUEST: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "repobench_request", default=None
)
_REQUEST_ATTR = "_repobench_request_id"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    root: int = 0
    tag: str = ""
    counts: dict = field(default_factory=dict)

    def as_row(self) -> list:
        return list(astuple(self))

    @classmethod
    def from_row(cls, row) -> "Span":
        return cls(*row)


class Recorder:
    """Holds every span of one process; ``tag`` labels spans opened while
    it is set (the cluster workload tags serial and process rounds)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.tag = ""
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def open(
        self, name: str, *, root: int | None = None, start: float | None = None
    ) -> Span:
        """A new span under the current one, started now or at ``start``;
        ``root`` overrides the request id it would inherit."""
        parent = _CURRENT.get()
        with self._lock:
            span_id = next(self._ids)
        if root is None:
            root = parent.root if parent is not None else span_id
        span = Span(
            span_id,
            name,
            time.perf_counter() if start is None else start,
            parent=parent.id if parent is not None else None,
            root=root,
            tag=parent.tag if parent is not None else self.tag,
        )
        with self._lock:
            self.spans.append(span)
        return span

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already-timed interval under the current span."""
        self.open(name, start=start).end = end

    def wrap(self, fn, name: str, hook=None):
        """``fn`` recording one span per call, the caller's span as parent."""
        recorder = self

        def count(span, args, result):
            if hook is not None:
                span.counts = hook(args, result)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span = recorder.open(name)
                token = _CURRENT.set(span)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    _CURRENT.reset(token)
                    span.end = time.perf_counter()
                count(span, args, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = recorder.open(name)
            token = _CURRENT.set(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                _CURRENT.reset(token)
                span.end = time.perf_counter()
            count(span, args, result)
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([s.as_row() for s in self.spans], fh)


class _RequestLineClock:
    """Stands in for a connection's ``StreamReader`` inside
    ``read_request`` and notes when the request line has arrived, so idle
    keep-alive time (the client's) is not charged to the parser.  It
    forwards only the two reads the parser uses; if the parser starts
    using another, the traced request fails instead of being mis-timed."""

    def __init__(self, reader) -> None:
        self._reader = reader
        self.arrived: float | None = None

    async def readuntil(self, separator: bytes = b"\n") -> bytes:
        line = await self._reader.readuntil(separator)
        if self.arrived is None:
            self.arrived = time.perf_counter()
        return line

    async def readexactly(self, n: int) -> bytes:
        return await self._reader.readexactly(n)


def wrap_read_request(recorder: Recorder, fn):
    """The parser: a span from the arrival of the request line to the
    parsed request, which starts a new request id and carries it on the
    request object."""

    @functools.wraps(fn)
    async def read_request(reader, *args, **kwargs):
        clock = _RequestLineClock(reader)
        request = await fn(clock, *args, **kwargs)
        if request is not None and clock.arrived is not None:
            span = recorder.open(PARSE, start=clock.arrived)
            span.end = time.perf_counter()
            object.__setattr__(request, _REQUEST_ATTR, span.root)
        return request

    return read_request


def wrap_respond(recorder: Recorder, fn):
    """Dispatch to answer, under the request id the parser gave the
    request; leaves the id in the connection task's context for the
    serializer, which runs after this span has closed."""

    @functools.wraps(fn)
    async def respond(service, request, *args, **kwargs):
        span = recorder.open(REQUEST, root=getattr(request, _REQUEST_ATTR, None))
        span.counts = {"get": int(request.method == "GET")}
        token = _CURRENT.set(span)
        try:
            return await fn(service, request, *args, **kwargs)
        finally:
            _CURRENT.reset(token)
            span.end = time.perf_counter()
            _REQUEST.set(span.root)

    return respond


def wrap_response_bytes(recorder: Recorder, fn):
    """The serializer, under the id of the request it answers."""

    @functools.wraps(fn)
    def response_bytes(*args, **kwargs):
        span = recorder.open(SERIALIZE, root=_REQUEST.get())
        token = _CURRENT.set(span)
        try:
            return fn(*args, **kwargs)
        finally:
            _CURRENT.reset(token)
            span.end = time.perf_counter()

    return response_bytes


#: The three spans of one HTTP request, wrapped by their own functions
#: because they pass the request id along: (module, attribute, wrapper).
REQUEST_TARGETS = (
    ("repro.service.http", "read_request", wrap_read_request),
    ("repro.service.server", "ClusteringService._respond", wrap_respond),
    ("repro.service.http", "response_bytes", wrap_response_bytes),
)


def _resolve(module_name: str, qualname: str):
    owner = sys.modules[module_name]
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(recorder: Recorder) -> None:
    """Wrap every target in :data:`TARGETS` and :data:`REQUEST_TARGETS`,
    and the executor hop.

    A module-level function is also re-bound wherever another loaded
    ``repro`` module imported it by name, so every caller goes through the
    wrapper.
    """
    import importlib

    wrappers = [
        (module, qualname, lambda fn, n=name, h=hook: recorder.wrap(fn, n, h))
        for module, qualname, name, hook in TARGETS
    ] + [
        (module, qualname, lambda fn, w=wrap: w(recorder, fn))
        for module, qualname, wrap in REQUEST_TARGETS
    ]
    for module_name, qualname, make in wrappers:
        importlib.import_module(module_name)
        owner, attr = _resolve(module_name, qualname)
        original = owner.__dict__[attr]
        wrapped = make(original)
        setattr(owner, attr, wrapped)
        if "." in qualname:
            continue
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    install_executor_hop(recorder)


def install_executor_hop(recorder: Recorder):
    """Make ``run_in_executor`` carry the caller's context into the thread
    and record the queue wait there; returns a function that undoes it."""
    loop_cls = asyncio.base_events.BaseEventLoop
    original = loop_cls.run_in_executor

    def run_in_executor(loop, executor, func, *args):
        submitted = time.perf_counter()
        context = contextvars.copy_context()

        def hop():
            context.run(recorder.add, QUEUE_WAIT, submitted, time.perf_counter())
            return context.run(func, *args)

        return original(loop, executor, hop)

    loop_cls.run_in_executor = run_in_executor

    def undo() -> None:
        loop_cls.run_in_executor = original

    return undo


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span), so overlapping async children count once."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        clipped = [
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(span.id, ())
            if min(e, span.end) > max(s, span.start)
        ]
        out[span.id] = (span.end - span.start) - _union_length(clipped)
    return out
