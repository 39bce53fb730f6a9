"""Spans around the program's layer entry points, recorded from outside.

The traced run wraps each layer's entry point where its caller looks it
up (a module global or a class attribute), so the program itself is not
changed. A span records its name, start, end, thread, parent span and
request id. Spans stay in memory and are written out when the run ends.

Self time is a span's duration minus the durations of its direct
children *on the same thread*. Work that a span hands to pool threads or
worker processes is reported separately as worker time, so wall time
and summed worker time are never added together.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass

PROCESS_THREAD = 0
"""Thread id given to time spent in worker processes (never a real id)."""

ENGINE_OPS = (
    "LoadTableTSV", "LoadTableBinary", "TableFromColumns", "TableFromHashMap",
    "Select", "Join", "ToGraph", "ApplyOps", "GetPageRank", "GetWcc",
    "GetTriangles",
)
"""The ``Ringo`` methods the workloads call; each becomes an ``engine.*`` span."""


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    thread: int
    parent: "int | None"
    request: object = None
    attrs: "dict | None" = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from wrapped functions on any thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- context --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> "int | None":
        """The innermost open span of this thread (or its remote parent)."""
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "parent", None)

    def request(self) -> object:
        return getattr(self._local, "request", None)

    def _run(self, name, fn, args, kwargs, attrs=None, request=None, pre=None):
        stack = self._stack()
        parent = stack[-1] if stack else getattr(self._local, "parent", None)
        span_id = next(self._ids)
        state = pre(args) if pre is not None else None
        stack.append(span_id)
        ok = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            extra = attrs(args, result, state) if ok and attrs is not None else None
            rid = request(args, result) if ok and request is not None else None
            self.spans.append(Span(
                span_id, name, start, end, threading.get_ident(), parent,
                rid if rid is not None else self.request(), extra,
            ))

    def wrap(self, name, fn, attrs=None, request=None, pre=None):
        """``fn`` recording one span per call.

        ``attrs(args, result, pre_state)`` adds attributes after a
        successful call, ``request(args, result)`` names the request the
        call served, and ``pre(args)`` captures state before the call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._run(name, fn, args, kwargs, attrs, request, pre)

        return traced

    def task(self, fn, parent, request):
        """A pool task that records a ``parallel.task`` span on its thread."""

        def traced(*args, **kwargs):
            local = self._local
            saved = getattr(local, "parent", None), getattr(local, "request", None)
            local.parent, local.request = parent, request
            try:
                return self._run("parallel.task", fn, args, kwargs)
            finally:
                local.parent, local.request = saved

        return traced

    # -- installation ---------------------------------------------------

    def patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def trace(self, owner, attribute: str, name: str, **hooks) -> None:
        self.patch(owner, attribute, self.wrap(name, getattr(owner, attribute), **hooks))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def install(self) -> "Recorder":
        """Wrap every layer entry point on the workloads' request path."""
        module = importlib.import_module
        tables = module("repro.tables")
        convert = module("repro.convert")
        algorithms = module("repro.algorithms")
        from repro.core import engine
        from repro.core.engine import Ringo
        from repro.parallel.executor import KernelDispatcher, WorkerPool
        from repro.parallel.procpool import ProcessPool
        from repro.recovery.wal import WriteAheadLog
        from repro.service import server, session

        self.trace(tables, "load_table_tsv", "tables.load_table_tsv",
                   attrs=lambda a, r, s: {"rows": r.num_rows})
        self.trace(tables, "load_table_npz", "tables.load_table_npz")
        self.trace(tables, "select", "tables.select")
        self.trace(tables, "join", "tables.join")
        self.trace(convert, "to_graph", "convert.to_graph",
                   attrs=lambda a, r, s: {"rows": a[0].num_rows})
        self.trace(convert, "table_from_hashmap", "convert.table_from_hashmap")
        self.trace(engine, "csr_snapshot", "graphs.csr_snapshot")
        self.trace(algorithms, "pagerank", "algorithms.pagerank")
        self.trace(algorithms, "total_triangles", "algorithms.total_triangles")
        self.trace(algorithms, "weakly_connected_components",
                   "algorithms.weakly_connected_components")
        for owner in (module("repro.algorithms.pagerank"), module("repro.algorithms.common")):
            self.trace(owner, "scores_to_dict", "algorithms.scores_to_dict")
        self.trace(module("repro.algorithms.common"), "counts_to_dict",
                   "algorithms.counts_to_dict")
        self.trace(KernelDispatcher, "run_kernel", "parallel.run_kernel")
        self._trace_pools(WorkerPool, ProcessPool)
        self.trace(WriteAheadLog, "append", "recovery.wal_append",
                   pre=lambda a: a[0]._handle.tell(),
                   attrs=lambda a, r, before: {"bytes": a[0]._handle.tell() - before})
        for op in ENGINE_OPS:
            self.trace(Ringo, op, f"engine.{op}")
        self._trace_service(server, session)
        return self

    def _trace_pools(self, worker_pool, process_pool) -> None:
        recorder = self
        map_chunks, map_range = worker_pool.map_chunks, worker_pool.map_range
        run_tasks, run_procs = worker_pool.run_tasks, process_pool.run

        def traced_map_chunks(pool, chunks, kernel, *rest, **kwargs):
            task = recorder.task(kernel, recorder.current(), recorder.request())
            return map_chunks(pool, chunks, task, *rest, **kwargs)

        def traced_map_range(pool, total, kernel, *rest, **kwargs):
            task = recorder.task(kernel, recorder.current(), recorder.request())
            return map_range(pool, total, task, *rest, **kwargs)

        def traced_run_tasks(pool, tasks, *rest, **kwargs):
            parent, request = recorder.current(), recorder.request()
            tasks = [recorder.task(t, parent, request) for t in tasks]
            return run_tasks(pool, tasks, *rest, **kwargs)

        def traced_run_procs(pool, *args, **kwargs):
            results, kernel_seconds = run_procs(pool, *args, **kwargs)
            end = time.perf_counter()
            recorder.spans.append(Span(
                next(recorder._ids), "parallel.process_kernel",
                end - kernel_seconds, end, PROCESS_THREAD, recorder.current(),
                recorder.request(),
            ))
            return results, kernel_seconds

        self.patch(worker_pool, "map_chunks", traced_map_chunks)
        self.patch(worker_pool, "map_range", traced_map_range)
        self.patch(worker_pool, "run_tasks", traced_run_tasks)
        self.patch(process_pool, "run", traced_run_procs)

    def _trace_service(self, server, session) -> None:
        recorder = self

        def line_id(args, result):
            return result.get("id") if isinstance(result, dict) else None

        self.trace(server, "load_line", "service.load_line", request=line_id)
        self.trace(server, "parse_request", "service.parse_request",
                   request=lambda a, r: r[0])
        self.trace(server, "dump_line", "service.dump_line",
                   request=lambda a, r: a[0].get("id"),
                   attrs=lambda a, r, s: {"bytes": len(r)})
        self.trace(session, "decode_args", "service.decode_args")
        self.trace(session, "encode_result", "service.encode_result")
        call_engine = session.TenantSession._call_engine

        def traced_call_engine(tenant_session, request):
            local = recorder._local
            saved = getattr(local, "request", None)
            local.request = request.id
            try:
                return call_engine(tenant_session, request)
            finally:
                local.request = saved

        self.patch(session.TenantSession, "_call_engine", traced_call_engine)

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def read_spans(path) -> list[Span]:
    with open(path) as handle:
        return [Span(**json.loads(line)) for line in handle if line.strip()]


# ----------------------------------------------------------------------
# Per-layer attribution
# ----------------------------------------------------------------------

SELF_TIME_METRICS = {
    "tables.load_tsv_s": ("tables.load_table_tsv",),
    "tables.select_s": ("tables.select",),
    "tables.join_s": ("tables.join",),
    "convert.to_graph_s": ("convert.to_graph",),
    "convert.table_from_hashmap_s": ("convert.table_from_hashmap",),
    "graphs.snapshot_build_s": ("graphs.csr_snapshot",),
    "algorithms.pagerank_s": ("algorithms.pagerank",),
    "algorithms.triangles_s": ("algorithms.total_triangles",),
    "algorithms.wcc_s": ("algorithms.weakly_connected_components",),
    "algorithms.scores_to_dict_s": (
        "algorithms.scores_to_dict", "algorithms.counts_to_dict",
    ),
    "parallel.run_kernel_s": ("parallel.run_kernel",),
    "recovery.wal_append_s": ("recovery.wal_append",),
}
"""Layer metrics that sum the self time of the named spans."""

WORKER_SPANS = ("parallel.task", "parallel.process_kernel")
DECODE_SPANS = ("service.load_line", "service.parse_request", "service.decode_args")
ENCODE_SPANS = ("service.encode_result", "service.dump_line")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus same-thread direct children."""
    by_id = {span.id: span for span in spans}
    covered: dict[int, float] = {}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None and parent.thread == span.thread:
            covered[parent.id] = covered.get(parent.id, 0.0) + span.seconds
    return {span.id: span.seconds - covered.get(span.id, 0.0) for span in spans}


def layer_times(spans: list[Span]) -> dict[str, float]:
    """Self-time layer metrics, worker time and WAL append sizes of a group."""
    own = self_times(spans)
    out = {
        metric: sum((own[s.id] for s in spans if s.name in names), 0.0)
        for metric, names in SELF_TIME_METRICS.items()
    }
    out["parallel.worker_s"] = sum(
        (s.seconds for s in spans if s.name in WORKER_SPANS), 0.0
    )
    loads = [s for s in spans if s.name == "tables.load_table_tsv" and s.attrs]
    load_seconds = sum(s.seconds for s in loads)
    out["tables.load_rows_per_s"] = (
        sum(s.attrs["rows"] for s in loads) / load_seconds if load_seconds else 0.0
    )
    appends = [s for s in spans if s.name == "recovery.wal_append" and s.attrs]
    out["recovery.wal_appends"] = float(len(appends))
    out["recovery.wal_bytes_per_append"] = (
        sum(s.attrs["bytes"] for s in appends) / len(appends) if appends else 0.0
    )
    return out


def service_split(spans: list[Span], latency: float) -> dict[str, float]:
    """One request's client latency split into decode, engine and encode."""
    own = self_times(spans)
    decode = sum(own[s.id] for s in spans if s.name in DECODE_SPANS)
    encode = sum(own[s.id] for s in spans if s.name in ENCODE_SPANS)
    engine = sum(s.seconds for s in spans if s.name.startswith("engine."))
    sent = [s for s in spans if s.name == "service.dump_line" and s.attrs]
    return {
        "service.decode_s": decode,
        "service.engine_s": engine,
        "service.encode_s": encode,
        "service.response_bytes": float(sum(s.attrs["bytes"] for s in sent)),
        "service.residual_s": latency - decode - engine - encode,
    }


def root_seconds(spans: list[Span], thread: int) -> float:
    """Time covered by the outermost spans of ``thread``."""
    on_thread = {s.id for s in spans if s.thread == thread}
    return sum(
        s.seconds for s in spans if s.thread == thread and s.parent not in on_thread
    )
