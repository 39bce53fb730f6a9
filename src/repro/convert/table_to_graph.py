"""Table → graph conversion (paper §2.4) — the "sort-first" algorithm.

"The algorithm builds a graph representation from a table by first making
copies of the source and destination columns, then sorting the column
copies, computing the number of neighbors for each node, and then copying
the neighbor vectors to the graph hash table."

The three phases map here as:

1. **sort** — lexsort copies of the (src, dst) columns twice: grouped by
   source (yielding out-adjacency runs) and grouped by destination
   (yielding in-adjacency runs). numpy's sort is the stand-in for the
   paper's parallel sort.
2. **count** — run boundaries via ``searchsorted`` give each node's
   neighbour count, so "there is no need to estimate the size of the
   hash table or neighbor vectors in advance".
3. **copy** — per-node adjacency vectors are sliced out of the sorted
   arrays and installed into the node hash table. Partitions of the node
   range are independent, so a worker pool copies them "with no
   contention among the threads".

Two alternative builders are kept as the baselines the paper says it
experimented against (benchmark A1): per-edge dynamic insertion, and
hash-accumulation with a final per-node sort.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConversionError
from repro.faults import fault_point
from repro.graphs.base import unique_sorted
from repro.graphs.directed import DirectedGraph
from repro.graphs.undirected import UndirectedGraph
from repro.obs.spans import trace
from repro.parallel.executor import WorkerPool, serial_pool
from repro.tables.schema import ColumnType
from repro.tables.table import Table


def _as_edge_arrays(sources, targets) -> tuple[np.ndarray, np.ndarray]:
    sources = np.ascontiguousarray(sources, dtype=np.int64)
    targets = np.ascontiguousarray(targets, dtype=np.int64)
    if sources.ndim != 1 or targets.ndim != 1:
        raise ConversionError("edge arrays must be one-dimensional")
    if len(sources) != len(targets):
        raise ConversionError(
            f"edge arrays disagree on length: {len(sources)} vs {len(targets)}"
        )
    if len(sources) and (sources.min() < 0 or targets.min() < 0):
        raise ConversionError("node ids must be non-negative")
    return sources, targets


def _dedup_sorted_pairs(primary: np.ndarray, secondary: np.ndarray) -> np.ndarray:
    """Keep-mask removing consecutive duplicate (primary, secondary) pairs.

    Arrays must already be sorted by (primary, secondary).
    """
    if len(primary) == 0:
        return np.empty(0, dtype=bool)
    keep = np.empty(len(primary), dtype=bool)
    keep[0] = True
    np.logical_or(
        primary[1:] != primary[:-1], secondary[1:] != secondary[:-1], out=keep[1:]
    )
    return keep


def sort_first_directed(
    sources: np.ndarray,
    targets: np.ndarray,
    pool: WorkerPool | None = None,
) -> DirectedGraph:
    """Build a :class:`DirectedGraph` with the paper's sort-first algorithm."""
    sources, targets = _as_edge_arrays(sources, targets)
    fault_point("convert.sort_first")
    pool = pool if pool is not None else serial_pool()
    graph = DirectedGraph()
    if len(sources) == 0:
        return graph

    with trace("convert.sort_first", rows=len(sources), directed=True) as span:
        # Phase 1: sort copies of the columns (by src then dst →
        # out-adjacency runs; by dst then src → in-adjacency runs).
        # lexsort keys read (secondary, primary).
        with trace("convert.sort"):
            out_order = np.lexsort((targets, sources))
            out_src = sources[out_order]
            out_dst = targets[out_order]
            out_keep = _dedup_sorted_pairs(out_src, out_dst)
            out_src = out_src[out_keep]
            out_dst = out_dst[out_keep]

            in_order = np.lexsort((sources, targets))
            in_src = sources[in_order]
            in_dst = targets[in_order]
            in_keep = _dedup_sorted_pairs(in_dst, in_src)
            in_src = in_src[in_keep]
            in_dst = in_dst[in_keep]

        # Phase 2: neighbour counts from run boundaries — exact sizes
        # known up front, no growth estimation needed.
        with trace("convert.count"):
            node_ids = unique_sorted(np.sort(np.concatenate([out_src, out_dst])))
            out_lo = np.searchsorted(out_src, node_ids, side="left")
            out_hi = np.searchsorted(out_src, node_ids, side="right")
            in_lo = np.searchsorted(in_dst, node_ids, side="left")
            in_hi = np.searchsorted(in_dst, node_ids, side="right")

        # Phase 3: copy neighbour vectors into the node hash table. Node
        # ranges are disjoint, so partitions write without contention.
        node_list = node_ids.tolist()

        def copy_partition(lo: int, hi: int) -> None:
            for index in range(lo, hi):
                graph._set_adjacency(
                    node_list[index],
                    in_src[in_lo[index]:in_hi[index]],
                    out_dst[out_lo[index]:out_hi[index]],
                )

        with trace("convert.copy", nodes=len(node_ids)):
            pool.map_range(len(node_ids), copy_partition)
        graph._set_edge_count(len(out_src))
        span.set_tag("nodes", len(node_ids))
        span.set_tag("edges", len(out_src))
    return graph


def sort_first_undirected(
    sources: np.ndarray,
    targets: np.ndarray,
    pool: WorkerPool | None = None,
) -> UndirectedGraph:
    """Sort-first build of an :class:`UndirectedGraph` (edges symmetrised)."""
    sources, targets = _as_edge_arrays(sources, targets)
    fault_point("convert.sort_first")
    pool = pool if pool is not None else serial_pool()
    graph = UndirectedGraph()
    if len(sources) == 0:
        return graph
    with trace("convert.sort_first", rows=len(sources), directed=False) as span:
        with trace("convert.sort"):
            loops = sources == targets
            sym_src = np.concatenate([sources, targets[~loops]])
            sym_dst = np.concatenate([targets, sources[~loops]])
            order = np.lexsort((sym_dst, sym_src))
            sym_src = sym_src[order]
            sym_dst = sym_dst[order]
            keep = _dedup_sorted_pairs(sym_src, sym_dst)
            sym_src = sym_src[keep]
            sym_dst = sym_dst[keep]

        with trace("convert.count"):
            node_ids = unique_sorted(sym_src)
            lo = np.searchsorted(sym_src, node_ids, side="left")
            hi = np.searchsorted(sym_src, node_ids, side="right")
        node_list = node_ids.tolist()

        def copy_partition(start: int, stop: int) -> None:
            for index in range(start, stop):
                graph._set_adjacency(node_list[index], sym_dst[lo[index]:hi[index]])

        with trace("convert.copy", nodes=len(node_ids)):
            pool.map_range(len(node_ids), copy_partition)
        # Each non-loop edge appears twice in the symmetrised pairs.
        loop_count = int(np.sum(sym_src == sym_dst))
        graph._set_edge_count((len(sym_src) - loop_count) // 2 + loop_count)
        span.set_tag("nodes", len(node_ids))
        span.set_tag("edges", graph.num_edges)
    return graph


def graph_from_edge_arrays(
    sources: np.ndarray,
    targets: np.ndarray,
    directed: bool = True,
    pool: WorkerPool | None = None,
) -> "DirectedGraph | UndirectedGraph":
    """Canonical bulk construction entry point (sort-first)."""
    if directed:
        return sort_first_directed(sources, targets, pool=pool)
    return sort_first_undirected(sources, targets, pool=pool)


def to_graph(
    table: Table,
    src_col: str,
    dst_col: str,
    directed: bool = True,
    pool: WorkerPool | None = None,
) -> "DirectedGraph | UndirectedGraph":
    """The paper's ``ringo.ToGraph(T, SrcCol, DstCol)``.

    Nodes are the distinct values of the two columns; each row is an
    edge. Key columns must be integer-typed (string keys should first be
    mapped to ids with :func:`repro.convert.ids.encode_id_columns` or a
    group-by).

    >>> table = Table.from_columns({"a": [1, 2], "b": [2, 3]})
    >>> to_graph(table, "a", "b").num_edges
    2
    """
    for name in (src_col, dst_col):
        if table.schema.require(name) is not ColumnType.INT:
            raise ConversionError(
                f"ToGraph requires integer node-id columns; {name!r} is "
                f"{table.schema[name].value}"
            )
    return graph_from_edge_arrays(
        table.column(src_col), table.column(dst_col), directed=directed, pool=pool
    )


def chunked_build(
    sources: np.ndarray,
    targets: np.ndarray,
    directed: bool = True,
    chunk_edges: int = 1 << 16,
) -> "DirectedGraph | UndirectedGraph":
    """Memory-frugal graph build: dynamic inserts over fixed-size chunks.

    The budget-degraded alternative to sort-first: instead of
    materialising whole-column sorted copies (transient memory
    proportional to the edge count), edges stream in ``chunk_edges``
    slices through dynamic ``add_edge`` calls. Slower, but its transient
    footprint is bounded by one chunk — the graceful-degradation path
    :class:`repro.memory.budget.MemoryBudget` selects.
    """
    sources, targets = _as_edge_arrays(sources, targets)
    if chunk_edges <= 0:
        raise ConversionError(f"chunk_edges must be positive, got {chunk_edges}")
    graph = DirectedGraph() if directed else UndirectedGraph()
    with trace(
        "convert.chunked_build",
        rows=len(sources),
        directed=directed,
        chunk_edges=chunk_edges,
    ):
        for start in range(0, len(sources), chunk_edges):
            stop = start + chunk_edges
            for src, dst in zip(
                sources[start:stop].tolist(), targets[start:stop].tolist()
            ):
                graph.add_edge(src, dst)
    return graph


# ----------------------------------------------------------------------
# Baseline builders (§2.4: "We experimented with several approaches")
# ----------------------------------------------------------------------


def per_edge_build(
    sources: np.ndarray, targets: np.ndarray, directed: bool = True
) -> "DirectedGraph | UndirectedGraph":
    """Baseline: one dynamic ``add_edge`` call per row.

    This is the natural dynamic-graph path; every insert pays a binary
    search plus an O(degree) vector shift, which is what the sort-first
    algorithm avoids. Benchmark A1 measures the gap.
    """
    sources, targets = _as_edge_arrays(sources, targets)
    graph = DirectedGraph() if directed else UndirectedGraph()
    for src, dst in zip(sources.tolist(), targets.tolist()):
        graph.add_edge(src, dst)
    return graph


def hash_accumulate_build(
    sources: np.ndarray, targets: np.ndarray, directed: bool = True
) -> "DirectedGraph | UndirectedGraph":
    """Baseline: accumulate neighbour lists in a hash table, sort at the end.

    Avoids per-insert shifting but pays Python-level appends and a final
    per-node sort+dedup; in the C++ original this is the approach needing
    thread-safe hash-table growth, which sort-first sidesteps.
    """
    sources, targets = _as_edge_arrays(sources, targets)
    out_lists: dict[int, list[int]] = {}
    in_lists: dict[int, list[int]] = {}
    for src, dst in zip(sources.tolist(), targets.tolist()):
        out_lists.setdefault(src, []).append(dst)
        in_lists.setdefault(dst, []).append(src)
        out_lists.setdefault(dst, [])
        in_lists.setdefault(src, [])
    if directed:
        graph = DirectedGraph()
        edge_count = 0
        for node in out_lists:
            out_nbrs = np.unique(np.asarray(out_lists[node], dtype=np.int64))
            in_nbrs = np.unique(np.asarray(in_lists[node], dtype=np.int64))
            graph._set_adjacency(node, in_nbrs, out_nbrs)
            edge_count += len(out_nbrs)
        graph._set_edge_count(edge_count)
        return graph
    undirected = UndirectedGraph()
    half_edges = 0
    loop_count = 0
    for node in out_lists:
        merged = np.unique(
            np.concatenate(
                [
                    np.asarray(out_lists[node], dtype=np.int64),
                    np.asarray(in_lists[node], dtype=np.int64),
                ]
            )
        )
        undirected._set_adjacency(node, merged)
        half_edges += len(merged)
        position = int(np.searchsorted(merged, node))
        if position < len(merged) and merged[position] == node:
            loop_count += 1
    undirected._set_edge_count((half_edges - loop_count) // 2 + loop_count)
    return undirected
