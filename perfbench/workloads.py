"""The benchmark's workloads: why each exists, what it predicts, how it runs.

Three workloads, each one process with at most two threads (the
reference host has two usable cores):

``so_pipeline``
    A fresh ``Ringo(workers=2)`` runs the paper's §4.1 listing on a
    synthetic StackOverflow ``posts.tsv`` (200,000 questions, 33,333
    users, about 535K rows): LoadTableTSV, Select Tag=Java, Select
    Type=question / Type=answer, Join, ToGraph, GetPageRank,
    GetTriangles, TableFromHashMap. It is the paper's headline loop and
    the ``tables`` layer dominates it (TSV load is about 90% of a lap).
    The graph is small (about 26K edges, below the 150K-edge process
    crossover), so conversion, snapshot, kernel and process-backend
    changes should leave it unchanged. GetTriangles is not in the
    paper's listing; it is added so that every end-to-end metric has a
    value on every workload, and costs about 1% of a lap.

``graph_analytics``
    A fresh ``Ringo(workers=2)`` with the default ``auto`` backend runs
    Table 3 and Table 5 at the reference size: on an R-MAT(15, 600K)
    edge table stored as a binary table, LoadTableBinary, ToGraph,
    GetPageRank, GetWcc, GetTriangles; then on a Watts-Strogatz
    (100,000 nodes, k=6, p=0.05) edge table, ToGraph(directed=False),
    GetPageRank. Conversion, snapshot build, kernels and the process
    backend do the work; the ``tables`` layer hardly appears. The
    small-world PageRank iterates about three times longer than
    R-MAT's, so kernel-loop and dispatch costs show in the lap and read
    times. ``pagerank_s`` is the R-MAT call alone: the small-world call's
    64 process round trips per call slow with the CPU time the host
    steals from the two vCPUs, and over ten runs its time spread 0.28 of
    its median (the R-MAT call's 0.14), more than the 0.25 bound.

``service_tcp``
    A ``repro serve`` subprocess (durable sessions, default flags)
    serves two closed-loop clients, one per tenant, which take turns
    cycle by cycle (see ``service.ServiceTcp.measure``). Each tenant loads
    an R-MAT(13, 60K) edge TSV, builds the graph, runs PageRank and
    triangles and builds a 100-row table, then repeats a cycle of
    ApplyOps (10 adds and 10 deletes of edges that exist), Select on
    the small table, GetPageRank and GetTriangles. Writes sit beside
    reads on one graph, so ``graphs`` and ``incremental`` do delta
    refreshes; only this workload crosses the wire, the dispatcher and
    the WAL fsync commit (``service``, ``recovery``). Closed loop is the
    real arrival process: each tenant is an analyst who sends the next
    command after seeing the result. The ``digest`` verb is kept out of
    the cycle (its cost grows with the catalog) and used only to check
    the end state.

``BENCHMARK.json`` lists only ``graph_analytics`` and ``service_tcp``.
``so_pipeline`` stays runnable by hand but is left out of the agreed
set: on the reference host its 10-run spreads reached 0.21 (lap) to
0.29 (triangles) of the median, over the 0.25 bound, because its
memory-bound TSV parsing slows with the host's neighbours; and dropping
it let the other two measure 35 s per run instead of 20 s within the
time the full set may take. Within the agreed set the ``tables`` layer
shows only in ``service_tcp``'s Select, so a ``tables`` change should
also report ``so_pipeline`` runs.

Which end-to-end metric each layer metric should move, and where the
prediction is "no change" (the workload that bypasses the layer):
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WHY = {
    "so_pipeline": "the paper's section 4.1 StackOverflow loop; TSV load "
                   "(tables layer) dominates, graph below the process crossover",
    "graph_analytics": "Table 3 and Table 5 kernels at reference size: ToGraph, "
                       "cold PageRank, WCC, triangles on R-MAT and Watts-Strogatz",
    "service_tcp": "two closed-loop TCP tenants, taking turns, mixing durable "
                   "writes with incremental PageRank and triangle reads",
}

PREDICTIONS = (
    # (layer, its metrics, end-to-end metric @ workload it moves, bypass)
    ("tables", "tables.load_tsv_s, tables.load_rows_per_s, tables.select_s, "
     "tables.join_s", "lap_p50_s @ so_pipeline", "graph_analytics"),
    ("convert", "convert.to_graph_s, convert.table_from_hashmap_s",
     "tograph_rows_per_s @ graph_analytics", "service_tcp steady cycle"),
    ("graphs", "graphs.snapshot_build_s, graphs.snapshot_conversions, "
     "graphs.snapshot_hits, graphs.snapshot_hit_ratio",
     "pagerank_s @ graph_analytics; read_p50_s @ service_tcp", "so_pipeline"),
    ("algorithms", "algorithms.pagerank_s, algorithms.triangles_s, "
     "algorithms.wcc_s, algorithms.scores_to_dict_s",
     "pagerank_s, triangles_s @ graph_analytics", "so_pipeline"),
    ("parallel", "parallel.run_kernel_s, parallel.worker_s, "
     "parallel.dispatch_threads, parallel.dispatch_processes, "
     "parallel.fallbacks, parallel.shm_export_bytes",
     "pagerank_s, triangles_s @ graph_analytics", "so_pipeline"),
    ("incremental", "incremental.delta_applied, incremental.warm_ratio, "
     "incremental.fallback_full, incremental.compactions",
     "read_p50_s @ service_tcp", "graph_analytics"),
    ("recovery", "recovery.wal_append_s, recovery.wal_appends, "
     "recovery.wal_bytes_per_append",
     "write_p50_s, throughput_rps @ service_tcp", "so_pipeline, graph_analytics"),
    ("service", "service.decode_s, service.engine_s, service.encode_s, "
     "service.response_bytes, service.residual_s",
     "read_p50_s, read_tail_s @ service_tcp", "so_pipeline, graph_analytics"),
)

WS_PAGERANK = "GetPageRank.ws"
"""Label of ``graph_analytics``' small-world PageRank call, which
``pagerank_s`` leaves out (see above)."""

READ_OPS = frozenset({"GetPageRank", WS_PAGERANK, "GetWcc", "GetTriangles"})
"""Analytic calls that publish nothing; every other call is a write."""

SIZES = {
    # name: (so questions, so users, rmat scale, rmat edges, ws nodes,
    #        service rmat scale, service rmat edges)
    "full": (200_000, 33_333, 15, 600_000, 100_000, 13, 60_000),
    "tiny": (2_000, 500, 10, 6_000, 2_000, 8, 1_500),
}


# ----------------------------------------------------------------------
# What one measured phase produced
# ----------------------------------------------------------------------


@dataclass
class Phase:
    """Raw samples of one measured phase.

    A lap is one pass of a workload's loop (one service cycle for
    ``service_tcp``). ``calls`` holds ``[op, seconds]`` per call.
    """

    laps: list = field(default_factory=list)  # {"wall", "calls", "rows_to_graph"}
    wall: float = 0.0  # time the laps ran: their sum, or elapsed if concurrent
    peak_rss_mb: float = 0.0
    failed_ops: int = 0
    counters: tuple = ()  # (before, after) flat_counters of a traced phase


class Checks:
    """Output and hygiene checks, tallied per name."""

    def __init__(self) -> None:
        self.tally: dict[str, dict] = {}

    def check(self, name: str, ok: bool, detail: object = "") -> bool:
        entry = self.tally.setdefault(name, {"runs": 0, "failed": 0, "detail": None})
        entry["runs"] += 1
        if not ok:
            entry["failed"] += 1
            if entry["detail"] is None:
                entry["detail"] = str(detail)
        return ok

    @property
    def runs(self) -> int:
        return sum(e["runs"] for e in self.tally.values())

    @property
    def failed(self) -> int:
        return sum(e["failed"] for e in self.tally.values())


def call(calls: list, op: str, fn, *args, **kwargs):
    """Run one engine call and append ``[op, seconds]`` to ``calls``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    calls.append([op, time.perf_counter() - start])
    return result


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def reset_peak_rss() -> None:
    """Restart this process's VmHWM from its current RSS (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # the peak then includes set-up


def flat_counters(health: dict) -> dict:
    """The process-wide counters a lap's layer metrics are deltas of."""
    cache, parallel, incremental = (
        health["snapshot_cache"], health["parallel"], health["incremental"]
    )
    algos = incremental["algorithms"].values()
    return {
        "hits": cache["hits"], "misses": cache["misses"],
        "conversions": cache["conversions"],
        "threads": parallel["decisions"]["threads"],
        "processes": parallel["decisions"]["processes"],
        "fallbacks": parallel["fallbacks"],
        "shm_bytes": parallel["shm"]["export_bytes_total"],
        "delta_applied": incremental["delta_applied"],
        "fallback_full": incremental["fallback_full"],
        "compactions": incremental["compactions"],
        "warm": sum(a.get("warm", 0) for a in algos),
        "seed": sum(a.get("seed", 0) for a in algos),
    }


def counter_metrics(before: dict, after: dict, laps: int) -> dict:
    """Per-lap counter layer metrics from two :func:`flat_counters`."""
    d = {key: after[key] - before[key] for key in before}
    per_lap = max(laps, 1)
    lookups = d["hits"] + d["misses"]
    algos = d["warm"] + d["seed"]
    return {
        "graphs.snapshot_conversions": d["conversions"] / per_lap,
        "graphs.snapshot_hits": d["hits"] / per_lap,
        "graphs.snapshot_hit_ratio": d["hits"] / lookups if lookups else 0.0,
        "parallel.dispatch_threads": d["threads"] / per_lap,
        "parallel.dispatch_processes": d["processes"] / per_lap,
        "parallel.fallbacks": d["fallbacks"] / per_lap,
        "parallel.shm_export_bytes": d["shm_bytes"] / per_lap,
        "incremental.delta_applied": d["delta_applied"] / per_lap,
        "incremental.warm_ratio": d["warm"] / algos if algos else 0.0,
        "incremental.fallback_full": d["fallback_full"] / per_lap,
        "incremental.compactions": d["compactions"] / per_lap,
    }


# ----------------------------------------------------------------------
# Independent references (numpy / scipy), computed in set-up
# ----------------------------------------------------------------------


def graph_reference(src: np.ndarray, dst: np.ndarray, directed: bool = True) -> dict:
    """Edge, weak-component and triangle counts of an edge list, via scipy."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    if not directed:
        src, dst = np.minimum(src, dst), np.maximum(src, dst)
    nodes, codes = np.unique(np.concatenate([src, dst]), return_inverse=True)
    n = len(nodes)
    u, v = codes[: len(src)], codes[len(src):]
    pairs = np.unique(u.astype(np.int64) * n + v)
    u, v = pairs // n, pairs % n
    ones = np.ones(len(u), dtype=np.int64)
    adjacency = sp.csr_matrix((ones, (u, v)), shape=(n, n))
    components, _ = connected_components(adjacency, directed=True, connection="weak")
    keep = u != v
    lo, hi = np.minimum(u[keep], v[keep]), np.maximum(u[keep], v[keep])
    upper = sp.csr_matrix((np.ones(len(lo), dtype=np.int64), (lo, hi)), shape=(n, n))
    upper.data[:] = 1  # duplicates (u->v and v->u) collapse to one edge
    triangles = int((upper @ upper).multiply(upper).sum())
    return {"edges": len(pairs), "components": int(components), "triangles": triangles}


def watts_strogatz_edges(nodes: int, k: int, p: float, seed: int):
    """A Watts-Strogatz small world drawn with numpy.

    Ring lattice with ``k/2`` neighbours each side; each lattice edge is
    rewired with probability ``p`` to a uniform target (self-loops
    skipped). Same model as ``repro.algorithms.watts_strogatz``, whose
    per-edge Python loop takes seconds at this size.
    """
    rng = np.random.default_rng(seed)
    src = np.repeat(np.arange(nodes, dtype=np.int64), k // 2)
    dst = (src + np.tile(np.arange(1, k // 2 + 1), nodes)) % nodes
    rewire = rng.random(len(src)) < p
    targets = rng.integers(0, nodes, size=int(rewire.sum()))
    dst[rewire] = np.where(targets == src[rewire], dst[rewire], targets)
    return src, dst


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------


class InProcess:
    """Shared lap loop of the in-process workloads."""

    def __init__(self, size: str, checks: Checks) -> None:
        self.size = SIZES[size]
        self.checks = checks

    def lap(self, state, recorder=None) -> "tuple[dict, dict]":
        """One timed lap in a fresh session; returns (samples, outputs)."""
        from repro import Ringo

        calls: list = []
        start = time.perf_counter()
        with Ringo(workers=2) as ringo:
            before = recorder and flat_counters(ringo.health())
            first_span = recorder and len(recorder.spans)
            outputs = self.steps(state, ringo, calls)
            after = recorder and flat_counters(ringo.health())
        lap = {"wall": time.perf_counter() - start, "calls": calls,
               "rows_to_graph": outputs.pop("rows_to_graph")}
        if recorder is not None:
            lap["spans"] = recorder.spans[first_span:]
            lap["counters"] = (before, after)
        return lap, outputs

    def measure(self, state, seconds: float, recorder=None) -> Phase:
        phase = Phase()
        reset_peak_rss()
        start = time.perf_counter()
        # Start a lap only if, at the last lap's pace, it ends in time.
        while not phase.laps or (
            time.perf_counter() - start + phase.laps[-1]["wall"] <= seconds
        ):
            try:
                lap, outputs = self.lap(state, recorder)
            except Exception as error:  # counted; the run then fails
                phase.failed_ops += 1
                self.checks.check("ops complete", False, repr(error))
                break
            phase.laps.append(lap)
            self.verify(state, outputs)
            # Collect the lap's garbage here, untimed, so that neither
            # the next lap's time nor its peak memory depends on when
            # the collector last ran.
            gc.collect()
        phase.wall = sum(lap["wall"] for lap in phase.laps)
        phase.peak_rss_mb = vm_hwm_mb()
        return phase

    def teardown(self, state, checks: "Checks | None" = None) -> None:
        shutil.rmtree(state["workdir"], ignore_errors=True)
        if checks is not None:
            checks.check("inputs removed", not state["workdir"].exists())
            self.hygiene()

    def hygiene(self) -> None:
        from repro.parallel.executor import kernel_dispatcher
        from repro.parallel.shm import leaked_segments, shm_registry

        kernel_dispatcher().shutdown()
        gc.collect()
        live = shm_registry().stats()["live_exports"]
        self.checks.check("no live shared-memory exports", live == 0, live)
        mine = f"ringo-{os.getpid():x}-"
        leaked = [name for name in leaked_segments() if name.startswith(mine)]
        self.checks.check("no leaked shared-memory segments", not leaked, leaked)


class SoPipeline(InProcess):
    def setup(self, seed: int, workdir: Path) -> dict:
        from repro.workflows.stackoverflow import (
            StackOverflowConfig, generate_stackoverflow, write_posts_tsv,
        )

        questions, users = self.size[0], self.size[1]
        data = generate_stackoverflow(
            StackOverflowConfig(num_questions=questions, num_users=users, seed=seed)
        )
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "posts.tsv"
        write_posts_tsv(data, path)
        state = {"workdir": workdir, "path": path, "data": data}
        self.lap(state)  # warm-up
        return state

    def references(self, state) -> None:
        """Expected outputs from the generated table, via numpy and scipy."""
        data = state.pop("data")
        posts = data.posts
        tag, kind = np.asarray(posts.values("Tag")), np.asarray(posts.values("Type"))
        java = tag == "Java"
        question, answer = java & (kind == "question"), java & (kind == "answer")
        accepted = posts.column("AnswerId")[question]
        answer_ids = posts.column("PostId")[answer]
        hit = np.isin(accepted, answer_ids)
        # Join rows pair each Java question with its accepted Java answer;
        # the graph links asker -> answerer.
        order = np.argsort(answer_ids)
        position = order[np.searchsorted(answer_ids, accepted[hit], sorter=order)]
        askers = posts.column("UserId")[question][hit]
        answerers = posts.column("UserId")[answer][position]
        state["join_rows"] = int(hit.sum())
        state["graph"] = graph_reference(askers, answerers)
        state["experts"] = set(data.experts_for("Java"))

    def steps(self, state, ringo, calls) -> dict:
        from repro.workflows.stackoverflow import POSTS_SCHEMA

        posts = call(calls, "LoadTableTSV", ringo.LoadTableTSV, POSTS_SCHEMA, state["path"])
        java = call(calls, "Select", ringo.Select, posts, "Tag=Java")
        questions = call(calls, "Select", ringo.Select, java, "Type=question")
        answers = call(calls, "Select", ringo.Select, java, "Type=answer")
        qa = call(calls, "Join", ringo.Join, questions, answers, "AnswerId", "PostId")
        graph = call(calls, "ToGraph", ringo.ToGraph, qa, "UserId-1", "UserId-2")
        ranks = call(calls, "GetPageRank", ringo.GetPageRank, graph)
        triangles = call(calls, "GetTriangles", ringo.GetTriangles, graph)
        scores = call(calls, "TableFromHashMap", ringo.TableFromHashMap, ranks, "User", "Scr")
        return {"rows_to_graph": qa.num_rows, "join_rows": qa.num_rows,
                "edges": graph.num_edges, "ranks": ranks, "triangles": triangles,
                "score_rows": scores.num_rows}

    def verify(self, state, out) -> None:
        check = self.checks.check
        ref = state["graph"]
        check("so join rows = numpy", out["join_rows"] == state["join_rows"],
              (out["join_rows"], state["join_rows"]))
        check("so graph edges = numpy", out["edges"] == ref["edges"],
              (out["edges"], ref["edges"]))
        check("so triangles = scipy", out["triangles"] == ref["triangles"],
              (out["triangles"], ref["triangles"]))
        ranks = out["ranks"]
        check("so pagerank sums to 1", abs(sum(ranks.values()) - 1.0) <= 1e-9,
              sum(ranks.values()))
        check("so score table has a row per user", out["score_rows"] == len(ranks))
        top = sorted(ranks, key=ranks.get, reverse=True)[:10]
        found = len(state["experts"].intersection(top))
        check("so top-10 pagerank holds planted Java experts", found >= 5, top)


class GraphAnalytics(InProcess):
    def setup(self, seed: int, workdir: Path) -> dict:
        from repro import Ringo
        from repro.algorithms.generators import DEFAULT_RMAT, rmat_edges
        from repro.tables import save_table_npz
        from repro.tables.table import Table

        _, _, scale, edges, ws_nodes, _, _ = self.size
        src, dst = rmat_edges(scale, edges, DEFAULT_RMAT, seed)
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "rmat.npz"
        save_table_npz(Table.from_columns({"src": src, "dst": dst}), path)
        ws_src, ws_dst = watts_strogatz_edges(ws_nodes, 6, 0.05, seed)
        state = {
            "workdir": workdir,
            "path": path,
            "ws_table": Table.from_columns({"src": ws_src, "dst": ws_dst}),
            "edges": (src, dst, ws_src, ws_dst),
        }
        # Warm-up: pool start, shared-memory export and crossover
        # observations on both graphs (triangles and WCC are left out
        # to keep set-up short; they run on the same pool path).
        with Ringo(workers=2) as ringo:
            graph = ringo.ToGraph(ringo.LoadTableBinary(path), "src", "dst")
            ringo.GetPageRank(graph)
            ringo.GetPageRank(ringo.ToGraph(state["ws_table"], "src", "dst", directed=False))
        return state

    def references(self, state) -> None:
        """Expected counts of both graphs, via numpy and scipy."""
        src, dst, ws_src, ws_dst = state.pop("edges")
        state["rmat"] = graph_reference(src, dst)
        state["ws"] = graph_reference(ws_src, ws_dst, directed=False)

    def steps(self, state, ringo, calls) -> dict:
        table = call(calls, "LoadTableBinary", ringo.LoadTableBinary, state["path"])
        graph = call(calls, "ToGraph", ringo.ToGraph, table, "src", "dst")
        ranks = call(calls, "GetPageRank", ringo.GetPageRank, graph)
        wcc = call(calls, "GetWcc", ringo.GetWcc, graph)
        triangles = call(calls, "GetTriangles", ringo.GetTriangles, graph)
        ws_table = state["ws_table"]
        ws = call(calls, "ToGraph", ringo.ToGraph, ws_table, "src", "dst", directed=False)
        ws_ranks = call(calls, WS_PAGERANK, ringo.GetPageRank, ws)
        return {"rows_to_graph": table.num_rows + ws_table.num_rows,
                "edges": graph.num_edges, "ranks": ranks,
                "components": len(set(wcc.values())), "triangles": triangles,
                "ws_edges": ws.num_edges, "ws_ranks": ws_ranks}

    def verify(self, state, out) -> None:
        check = self.checks.check
        rmat, ws = state["rmat"], state["ws"]
        check("rmat ToGraph edges = numpy unique pairs", out["edges"] == rmat["edges"],
              (out["edges"], rmat["edges"]))
        check("rmat WCC count = scipy", out["components"] == rmat["components"],
              (out["components"], rmat["components"]))
        check("rmat triangles = scipy", out["triangles"] == rmat["triangles"],
              (out["triangles"], rmat["triangles"]))
        check("ws ToGraph edges = numpy unique pairs", out["ws_edges"] == ws["edges"],
              (out["ws_edges"], ws["edges"]))
        for key in ("ranks", "ws_ranks"):
            total = sum(out[key].values())
            check(f"{key} sum to 1 within 1e-9", abs(total - 1.0) <= 1e-9, total)
