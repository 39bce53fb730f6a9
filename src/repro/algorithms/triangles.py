"""Triangle counting and clustering coefficients (paper §3, Table 3).

"Triangle counting is directly related to relational joins"; Ringo's
implementation is "a straightforward approach, similar to [PATRIC],
parallelizing the execution with a few OpenMP statements". The same
structure here: the *forward* node-iterator over a degree-rank
orientation, where each wedge — two forward edges ``(u, v)``,
``(u, w)`` of one row — closes a triangle iff ``(v, w)`` is a forward
edge too. Work is split by the global wedge index rather than by node,
so every worker gets the same number of wedges however skewed the
degrees are.

Directed input is treated as its undirected projection, matching the
paper's "undirected triangle counting".
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import as_csr, counts_to_dict
from repro.graphs.csr import CSRGraph
from repro.parallel.executor import WorkerPool, kernel_dispatcher

# Wedges closed per step of :func:`_triangle_partition`. It bounds the
# kernel's transient arrays to a few MB whatever the graph or span size,
# which keeps the triangle path's peak under 2x the projection's size.
_WEDGE_BATCH = 1 << 17


def _triangle_partition(arrays, lo: int, hi: int, count: int) -> np.ndarray:
    """Triangle credits (in rank space) for global wedges ``[lo, hi)``.

    Wedge ``g`` of forward edge ``e = (u, v)`` pairs it with the later
    edge ``e + 1 + (g - wedge_prefix[e])`` of the same row, ``(u, w)``;
    it closes iff the key ``v*n + w`` is a forward edge key. Only the
    ``i < j`` pairs of a row exist, each once. Wedges are taken
    ``_WEDGE_BATCH`` at a time, and a batch or span may start or stop
    inside an edge's run of wedges.

    Returns a full-length per-rank partial (a triangle credits ``u``,
    ``v`` and ``w``, which may lie outside the span); the caller sums
    the partials, so partitions never write shared state. Module-level
    and array-dict-driven so the process backend can dispatch it by
    reference over a shared-memory export — the thread backend runs the
    very same function.
    """
    keys = arrays["forward_edge_keys"]
    indices = arrays["forward_indices"]
    sources = arrays["forward_sources"]
    prefix = arrays["forward_wedge_prefix"]
    partial = np.zeros(count, dtype=np.int64)
    last = len(keys) - 1
    for start in range(lo, hi, _WEDGE_BATCH):
        stop = min(start + _WEDGE_BATCH, hi)
        # Edges [first, end) own this batch's wedges; runs[i] is how
        # many of edge first + i's wedges fall inside it.
        first = int(np.searchsorted(prefix, start, side="right")) - 1
        end = int(np.searchsorted(prefix, stop, side="left"))
        runs = np.minimum(prefix[first + 1:end + 1], stop) - np.maximum(
            prefix[first:end], start
        )
        partner = np.arange(start, stop) + np.repeat(
            np.arange(first + 1, end + 1) - prefix[first:end], runs
        )
        v = np.repeat(indices[first:end], runs)
        w = indices[partner]
        query = v * count + w
        position = np.searchsorted(keys, query)
        np.minimum(position, last, out=position)
        closed = keys[position] == query
        # Wedges come grouped by edge (u, v): prefix sums of ``closed``
        # give each edge's closures, which credit u and v in one
        # scatter each; w is credited per closed wedge.
        done = np.concatenate(([0], np.cumsum(closed)))
        edge_ends = np.cumsum(runs)
        per_edge = done[edge_ends] - done[edge_ends - runs]
        np.add.at(partial, sources[first:end], per_edge)
        np.add.at(partial, indices[first:end], per_edge)
        partial += np.bincount(w[closed], minlength=count)
    return partial


def _undirected_csr(graph) -> CSRGraph:
    """Symmetrised, loop-free CSR projection for triangle work.

    Delegates to the snapshot's cached projection, so the whole
    triangle/clustering/community family shares one symmetrisation per
    snapshot instead of redoing it per call.
    """
    return as_csr(graph).undirected_projection()


def triangle_counts(graph, pool: WorkerPool | None = None) -> dict[int, int]:
    """Number of triangles through each node.

    >>> from repro.graphs.undirected import UndirectedGraph
    >>> g = UndirectedGraph()
    >>> for u, v in [(1, 2), (2, 3), (3, 1), (3, 4)]:
    ...     _ = g.add_edge(u, v)
    >>> triangle_counts(g)[3]
    1
    """
    if not isinstance(graph, CSRGraph):
        from repro.incremental.algorithms import incremental_triangle_counts

        warm = incremental_triangle_counts(graph, pool=pool)
        if warm is not None:
            return warm
    sym = _undirected_csr(graph)
    counts = triangle_count_array(sym, pool=pool)
    return counts_to_dict(sym, counts)


def triangle_count_array(
    sym: CSRGraph,
    pool: WorkerPool | None = None,
    backend: str | None = None,
) -> np.ndarray:
    """Per-node triangle counts over a symmetrised, loop-free CSR.

    Forward algorithm with degree-rank ordering: every node keeps only
    its higher-ranked neighbours, so each triangle is closed exactly once
    (at its lowest-ranked vertex) and hub work collapses from O(d^2) to
    the O(m^1.5) bound — the "straightforward approach, similar to
    PATRIC" the paper cites. The batched wedge-closure kernel
    :func:`_triangle_partition` runs through the kernel dispatcher over
    spans of the global wedge index, so both backends get
    wedge-balanced spans: thread workers share the snapshot's cached
    forward structure in-process, process workers map its shared-memory
    export, and the per-partition integer partials sum identically
    either way. The rank-space totals map back to dense ids at the end.
    """
    forward = sym.forward_adjacency()
    totals = np.zeros(sym.num_nodes, dtype=np.int64)
    wedges = int(forward.wedge_prefix[-1])
    if wedges == 0:
        return totals
    partials = kernel_dispatcher().run_kernel(
        sym,
        _triangle_partition,
        arrays=(
            "forward_edge_keys",
            "forward_indices",
            "forward_sources",
            "forward_wedge_prefix",
        ),
        total=wedges,
        extra=(sym.num_nodes,),
        pool=pool,
        backend=backend,
    )
    for partial in partials:
        totals += partial
    return totals[forward.rank]


def total_triangles(graph, pool: WorkerPool | None = None) -> int:
    """Total number of distinct triangles in the graph."""
    if not isinstance(graph, CSRGraph):
        from repro.incremental.algorithms import incremental_triangle_counts

        warm = incremental_triangle_counts(graph, pool=pool)
        if warm is not None:
            return sum(warm.values()) // 3
    sym = _undirected_csr(graph)
    counts = triangle_count_array(sym, pool=pool)
    return int(counts.sum()) // 3


def clustering_coefficients(graph) -> dict[int, float]:
    """Local clustering coefficient per node (0 for degree < 2)."""
    sym = _undirected_csr(graph)
    counts = triangle_count_array(sym)
    degrees = sym.out_degrees().astype(np.float64)
    possible = degrees * (degrees - 1) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        local = np.where(possible > 0, counts / possible, 0.0)
    return dict(zip(sym.node_ids.tolist(), local.tolist()))


def average_clustering(graph) -> float:
    """Mean local clustering coefficient (0.0 for the empty graph)."""
    coefficients = clustering_coefficients(graph)
    if not coefficients:
        return 0.0
    return sum(coefficients.values()) / len(coefficients)


def global_clustering(graph) -> float:
    """Transitivity: ``3 * triangles / wedges`` (0.0 if no wedges)."""
    sym = _undirected_csr(graph)
    counts = triangle_count_array(sym)
    degrees = sym.out_degrees().astype(np.float64)
    wedges = float((degrees * (degrees - 1) / 2.0).sum())
    if wedges == 0:
        return 0.0
    return 3.0 * (float(counts.sum()) / 3.0) / wedges
