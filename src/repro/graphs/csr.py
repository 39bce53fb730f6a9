"""Compressed Sparse Row snapshot — the representation Ringo decided
*against* for its dynamic graphs (paper §2.2), kept here for two reasons:

* the A2 ablation benchmark measures the design trade-off the paper
  describes (CSR traversal speed vs prohibitive update cost), and
* the bulk analytics kernels (PageRank, triangles) run fastest over a
  CSR snapshot, mirroring how Ringo's C++ loops stream over contiguous
  adjacency data.

A :class:`CSRGraph` is immutable. Node ids are densified to ``0..n-1``;
``node_ids[dense]`` recovers the original id and :meth:`dense_of` maps
the other way.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.exceptions import GraphError, NodeNotFoundError
from repro.graphs.base import readonly, unique_sorted
from repro.graphs.directed import DirectedGraph
from repro.graphs.undirected import UndirectedGraph


class ForwardAdjacency(NamedTuple):
    """Degree-rank forward structure of a symmetric CSR (all read-only).

    Node ``d`` is renamed ``rank[d]``, its position in ascending
    ``(degree, id)`` order, and keeps only its higher-ranked neighbours.
    Every other array is in rank space; forward edge ``e`` runs from
    ``sources[e]`` to ``indices[e]``.
    """

    indptr: np.ndarray
    """Row pointer over ranks (``n + 1`` entries)."""
    indices: np.ndarray
    """Higher-ranked neighbours, ascending within each row."""
    keys: np.ndarray
    """Each forward edge as ``u*n + v``; globally ascending."""
    sources: np.ndarray
    """Row (rank) of each forward edge; ascending."""
    wedge_prefix: np.ndarray
    """Global wedge index: edge ``e`` owns wedges
    ``[wedge_prefix[e], wedge_prefix[e + 1])``, one per later edge of its
    row (``m + 1`` entries; the last is the wedge count)."""
    rank: np.ndarray
    """Rank of each dense node id."""


class CSRGraph:
    """Immutable CSR snapshot of a directed graph (in- and out-adjacency).

    >>> csr = CSRGraph.from_edges([0, 0, 1], [1, 2, 2])
    >>> csr.out_neighbors(0).tolist()
    [1, 2]
    >>> csr.num_edges
    3
    """

    def __init__(
        self,
        node_ids: np.ndarray,
        out_indptr: np.ndarray,
        out_indices: np.ndarray,
        in_indptr: np.ndarray,
        in_indices: np.ndarray,
    ) -> None:
        self._node_ids = np.ascontiguousarray(node_ids, dtype=np.int64)
        self._out_indptr = np.ascontiguousarray(out_indptr, dtype=np.int64)
        self._out_indices = np.ascontiguousarray(out_indices, dtype=np.int64)
        self._in_indptr = np.ascontiguousarray(in_indptr, dtype=np.int64)
        self._in_indices = np.ascontiguousarray(in_indices, dtype=np.int64)
        # Derived kernel inputs, computed lazily and exactly once — the
        # snapshot is immutable, so every algorithm invocation on the
        # same CSR shares these instead of rebuilding them per call.
        self._out_degrees: np.ndarray | None = None
        self._in_degrees: np.ndarray | None = None
        self._edge_sources: np.ndarray | None = None
        self._num_self_loops: int | None = None
        self._undirected: "CSRGraph | None" = None
        # Set on projections: the edge set is symmetric and loop-free,
        # so the snapshot is its own projection. A flag rather than a
        # self-reference keeps projections out of reference cycles.
        self._symmetric = False
        self._forward: ForwardAdjacency | None = None
        self._out_edge_keys: "np.ndarray | None" = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        sources: "np.ndarray | list[int]",
        targets: "np.ndarray | list[int]",
        deduplicate: bool = True,
    ) -> "CSRGraph":
        """Build from parallel edge arrays of original node ids.

        Node set = union of endpoints; parallel edges are removed unless
        ``deduplicate=False``.
        """
        sources = np.ascontiguousarray(sources, dtype=np.int64)
        targets = np.ascontiguousarray(targets, dtype=np.int64)
        if len(sources) != len(targets):
            raise GraphError("edge arrays must have equal length")
        node_ids = unique_sorted(np.sort(np.concatenate([sources, targets])))
        dense_src = np.searchsorted(node_ids, sources)
        dense_dst = np.searchsorted(node_ids, targets)
        if deduplicate and len(dense_src):
            count = len(node_ids)
            keys = unique_sorted(np.sort(dense_src * count + dense_dst))
            dense_src, dense_dst = np.divmod(keys, count)
        return cls._from_dense_edges(node_ids, dense_src, dense_dst)

    @classmethod
    def _from_dense_edges(
        cls, node_ids: np.ndarray, dense_src: np.ndarray, dense_dst: np.ndarray
    ) -> "CSRGraph":
        count = len(node_ids)
        out_order = np.lexsort((dense_dst, dense_src))
        out_indices = dense_dst[out_order]
        out_degrees = np.bincount(dense_src, minlength=count)
        out_indptr = np.concatenate(([0], np.cumsum(out_degrees)))
        in_order = np.lexsort((dense_src, dense_dst))
        in_indices = dense_src[in_order]
        in_degrees = np.bincount(dense_dst, minlength=count)
        in_indptr = np.concatenate(([0], np.cumsum(in_degrees)))
        return cls(node_ids, out_indptr, out_indices, in_indptr, in_indices)

    @classmethod
    def from_graph(
        cls, graph: "DirectedGraph | UndirectedGraph", pool=None
    ) -> "CSRGraph":
        """Snapshot a dynamic graph (undirected edges become symmetric).

        One build path for all inputs — isolated nodes are included from
        the start, so no mismatch-detect-and-rebuild ever happens. The
        dynamic adjacency vectors are already sorted, which lets the
        build skip the edge-list lexsort entirely and run the paper's
        sort-first phases directly: **count** (per-node degrees off the
        adjacency vectors) then **copy** (densify each node's vectors
        into its CSR slice). Both phases partition the node range into
        disjoint spans, so a :class:`~repro.parallel.executor.WorkerPool`
        (``pool=``) runs them with no write contention.
        """
        from repro.parallel.executor import serial_pool

        if pool is None:
            pool = serial_pool()
        node_ids = np.sort(graph.node_array())
        if graph.is_directed:
            return cls._from_directed_records(graph, node_ids, pool)
        return cls._from_undirected_records(graph, node_ids, pool)

    @classmethod
    def _from_directed_records(
        cls, graph: "DirectedGraph", node_ids: np.ndarray, pool
    ) -> "CSRGraph":
        records = graph._nodes
        id_list = node_ids.tolist()
        count = len(id_list)
        out_deg = np.zeros(count, dtype=np.int64)
        in_deg = np.zeros(count, dtype=np.int64)

        def count_partition(lo: int, hi: int) -> None:
            for index in range(lo, hi):
                record = records[id_list[index]]
                out_deg[index] = len(record.out_nbrs)
                in_deg[index] = len(record.in_nbrs)

        if count:
            pool.map_range(count, count_partition)
        out_indptr = np.concatenate(([0], np.cumsum(out_deg)))
        in_indptr = np.concatenate(([0], np.cumsum(in_deg)))
        out_indices = np.empty(int(out_indptr[-1]), dtype=np.int64)
        in_indices = np.empty(int(in_indptr[-1]), dtype=np.int64)

        def copy_partition(lo: int, hi: int) -> None:
            # Adjacency vectors are sorted by original id and node_ids is
            # sorted, so the densified slices stay sorted per row.
            for index in range(lo, hi):
                record = records[id_list[index]]
                if len(record.out_nbrs):
                    out_indices[out_indptr[index]:out_indptr[index + 1]] = (
                        np.searchsorted(node_ids, record.out_nbrs)
                    )
                if len(record.in_nbrs):
                    in_indices[in_indptr[index]:in_indptr[index + 1]] = (
                        np.searchsorted(node_ids, record.in_nbrs)
                    )

        if count:
            pool.map_range(count, copy_partition)
        return cls(node_ids, out_indptr, out_indices, in_indptr, in_indices)

    @classmethod
    def _from_undirected_records(
        cls, graph: "UndirectedGraph", node_ids: np.ndarray, pool
    ) -> "CSRGraph":
        vectors = graph._nodes
        id_list = node_ids.tolist()
        count = len(id_list)
        degrees = np.zeros(count, dtype=np.int64)

        def count_partition(lo: int, hi: int) -> None:
            for index in range(lo, hi):
                degrees[index] = len(vectors[id_list[index]])

        if count:
            pool.map_range(count, count_partition)
        indptr = np.concatenate(([0], np.cumsum(degrees)))
        indices = np.empty(int(indptr[-1]), dtype=np.int64)

        def copy_partition(lo: int, hi: int) -> None:
            for index in range(lo, hi):
                nbrs = vectors[id_list[index]]
                if len(nbrs):
                    indices[indptr[index]:indptr[index + 1]] = (
                        np.searchsorted(node_ids, nbrs)
                    )

        if count:
            pool.map_range(count, copy_partition)
        # Undirected adjacency is symmetric: out- and in-CSR share the
        # same physical arrays (the snapshot is immutable).
        return cls(node_ids, indptr, indices, indptr, indices)

    # ------------------------------------------------------------------
    # Queries (dense indices unless stated otherwise)
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._node_ids)

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return len(self._out_indices)

    @property
    def node_ids(self) -> np.ndarray:
        """Original node id per dense index (sorted ascending)."""
        return readonly(self._node_ids)

    @property
    def out_indptr(self) -> np.ndarray:
        """CSR row pointer for out-adjacency."""
        return readonly(self._out_indptr)

    @property
    def out_indices(self) -> np.ndarray:
        """CSR column indices for out-adjacency (dense ids)."""
        return readonly(self._out_indices)

    @property
    def in_indptr(self) -> np.ndarray:
        """CSR row pointer for in-adjacency."""
        return readonly(self._in_indptr)

    @property
    def in_indices(self) -> np.ndarray:
        """CSR column indices for in-adjacency (dense ids)."""
        return readonly(self._in_indices)

    def dense_of(self, original_id: int) -> int:
        """Dense index of an original node id (binary search, no dict)."""
        position = int(np.searchsorted(self._node_ids, original_id))
        if position >= len(self._node_ids) or self._node_ids[position] != original_id:
            raise NodeNotFoundError(original_id)
        return position

    def dense_of_array(self, original_ids) -> np.ndarray:
        """Vectorised dense-id mapper: ``searchsorted`` over ``node_ids``.

        Accepts any array-like of original ids and returns the dense
        index of each; raises :class:`NodeNotFoundError` naming the first
        unknown id. This replaces per-id Python-dict lookups with one
        vectorised binary search, so bulk translations (personalisation
        vectors, link-prediction pairs) cost O(k log n) numpy work.

        >>> csr = CSRGraph.from_edges([10, 10], [20, 30])
        >>> csr.dense_of_array([30, 10]).tolist()
        [2, 0]
        """
        original_ids = np.ascontiguousarray(original_ids, dtype=np.int64)
        positions = np.searchsorted(self._node_ids, original_ids)
        if len(self._node_ids) == 0:
            if len(original_ids):
                raise NodeNotFoundError(int(original_ids[0]))
            return positions
        clipped = np.clip(positions, 0, len(self._node_ids) - 1)
        mismatch = self._node_ids[clipped] != original_ids
        if np.any(mismatch):
            raise NodeNotFoundError(int(original_ids[np.argmax(mismatch)]))
        return clipped

    def dense_of_many(self, original_ids: np.ndarray) -> np.ndarray:
        """Alias of :meth:`dense_of_array` (kept for callers of the old name)."""
        return self.dense_of_array(original_ids)

    def out_neighbors(self, dense: int) -> np.ndarray:
        """Out-neighbours (dense ids, sorted) of a dense node index."""
        return readonly(
            self._out_indices[self._out_indptr[dense]:self._out_indptr[dense + 1]]
        )

    def in_neighbors(self, dense: int) -> np.ndarray:
        """In-neighbours (dense ids, sorted) of a dense node index."""
        return readonly(
            self._in_indices[self._in_indptr[dense]:self._in_indptr[dense + 1]]
        )

    def out_degrees(self) -> np.ndarray:
        """Out-degree per dense node index (cached, read-only)."""
        if self._out_degrees is None:
            self._out_degrees = np.diff(self._out_indptr)
            self._out_degrees.flags.writeable = False
        return self._out_degrees

    def in_degrees(self) -> np.ndarray:
        """In-degree per dense node index (cached, read-only)."""
        if self._in_degrees is None:
            self._in_degrees = np.diff(self._in_indptr)
            self._in_degrees.flags.writeable = False
        return self._in_degrees

    def edge_sources(self) -> np.ndarray:
        """Source dense id per out-edge, aligned with :attr:`out_indices`.

        The edge-list companion every scatter-add kernel (PageRank, HITS,
        Katz, ANF, …) needs; computed once per snapshot instead of a
        fresh ``np.repeat`` per algorithm invocation. Read-only.

        >>> CSRGraph.from_edges([0, 0, 1], [1, 2, 2]).edge_sources().tolist()
        [0, 0, 1]
        """
        if self._edge_sources is None:
            self._edge_sources = np.repeat(
                np.arange(self.num_nodes, dtype=np.int64), self.out_degrees()
            )
            self._edge_sources.flags.writeable = False
        return self._edge_sources

    def num_self_loops(self) -> int:
        """Number of self-loop edges in the snapshot (cached)."""
        if self._num_self_loops is None:
            self._num_self_loops = int(
                np.sum(self.edge_sources() == self._out_indices)
            )
        return self._num_self_loops

    def undirected_projection(self) -> "CSRGraph":
        """Symmetrised, loop-free CSR over the same node ids (cached).

        The shared input of the triangle/clustering/community family;
        one symmetrisation now serves every such call on this snapshot.
        Both directions of every non-loop edge become packed ``u*n + v``
        keys; one sort and a neighbour-compare dedupe leave them in CSR
        order. The edge set is symmetric, so the in-arrays are the
        out-arrays. A projection is its own projection: chained calls
        (e.g. girth after triangles) hit the same object.

        >>> csr = CSRGraph.from_edges([0, 1, 1, 2], [1, 0, 1, 0])
        >>> sym = csr.undirected_projection()
        >>> sym.out_indices.tolist(), sym.undirected_projection() is sym
        ([1, 2, 0, 0], True)
        """
        if self._symmetric:
            return self
        if self._undirected is None:
            count = self.num_nodes
            src = self.edge_sources()
            dst = self._out_indices
            keep = src != dst
            src, dst = src[keep], dst[keep]
            keys = np.concatenate([src * count + dst, dst * count + src])
            keys.sort()
            sym_src, sym_dst = np.divmod(unique_sorted(keys), count)
            indptr = np.concatenate(
                ([0], np.cumsum(np.bincount(sym_src, minlength=count)))
            )
            projection = CSRGraph(self._node_ids, indptr, sym_dst, indptr, sym_dst)
            projection._symmetric = True
            sym_src.flags.writeable = False
            projection._edge_sources = sym_src
            self._undirected = projection
        return self._undirected

    def forward_adjacency(self) -> ForwardAdjacency:
        """Degree-rank forward structure of this symmetric CSR (cached).

        Each node keeps only its neighbours of strictly higher
        ``(degree, id)`` rank — the orientation that closes every
        triangle exactly once, at its lowest-ranked vertex, while hub
        work collapses to the O(m^1.5) bound. The triangle kernel reads
        it in rank space (see :class:`ForwardAdjacency`): ascending
        rows, ascending edge keys for its wedge-closure search, and the
        wedge prefix that splits its work into balanced spans. Built
        once per snapshot; warm triangle and clustering calls skip it.

        >>> sym = CSRGraph.from_edges([0, 0, 1], [1, 2, 2]).undirected_projection()
        >>> int(sym.forward_adjacency().wedge_prefix[-1])
        1
        """
        if self._forward is None:
            count = self.num_nodes
            src = self.edge_sources()
            dst = self._out_indices
            rank = np.empty(count, dtype=np.int64)
            rank[np.argsort(self.out_degrees(), kind="stable")] = np.arange(count)
            keep = rank[src] < rank[dst]
            keys = rank[src[keep]]
            keys *= count
            keys += rank[dst[keep]]
            del keep
            keys.sort()
            sources, indices = np.divmod(keys, count)
            indptr = np.concatenate(
                ([0], np.cumsum(np.bincount(sources, minlength=count)))
            )
            # Edge e pairs with every later edge of its row.
            wedges = indptr[1:][sources]
            wedges -= 1
            wedges -= np.arange(len(keys))
            wedge_prefix = np.zeros(len(keys) + 1, dtype=np.int64)
            np.cumsum(wedges, out=wedge_prefix[1:])
            forward = ForwardAdjacency(
                indptr, indices, keys, sources, wedge_prefix, rank
            )
            for array in forward:
                array.flags.writeable = False
            self._forward = forward
        return self._forward

    def out_edge_keys(self) -> np.ndarray:
        """Each out edge ``(src, dst)`` as the sortable key ``src*n + dst``.

        Globally ascending for a simple graph (rows are sorted and
        grouped by ascending source), which makes whole-edge-set
        membership a single vectorised binary search — the delta
        sanitizer's no-dangling-delete / added-edge-present checks.
        Cached like the other derived arrays.
        """
        if self._out_edge_keys is None:
            keys = self.edge_sources() * self.num_nodes + self._out_indices
            keys.flags.writeable = False
            self._out_edge_keys = keys
        return self._out_edge_keys

    def memory_bytes(self) -> int:
        """Bytes held by the five CSR arrays (Table 2 / A2 accounting)."""
        return (
            self._node_ids.nbytes
            + self._out_indptr.nbytes
            + self._out_indices.nbytes
            + self._in_indptr.nbytes
            + self._in_indices.nbytes
        )

    def __repr__(self) -> str:
        return f"CSRGraph({self.num_nodes} nodes, {self.num_edges} edges)"

    # ------------------------------------------------------------------
    # The §2.2 design discussion: CSR updates are O(E)
    # ------------------------------------------------------------------

    def with_edge_deleted(self, src: int, dst: int) -> "CSRGraph":
        """A new CSR with one edge removed — deliberately O(E).

        The paper rejects CSR for dynamic graphs because "deleting a
        single edge requires time linear in the total number of edges".
        This method exists so the A2 ablation can measure that cost; it
        rebuilds both index arrays.
        """
        dense_src = self.dense_of(src)
        dense_dst = self.dense_of(dst)
        span = slice(self._out_indptr[dense_src], self._out_indptr[dense_src + 1])
        local = np.searchsorted(self._out_indices[span], dense_dst)
        position = int(self._out_indptr[dense_src]) + int(local)
        if (
            position >= self._out_indptr[dense_src + 1]
            or self._out_indices[position] != dense_dst
        ):
            raise GraphError(f"edge ({src} -> {dst}) not in graph")
        all_src = self.edge_sources()
        keep = np.ones(self.num_edges, dtype=bool)
        keep[position] = False
        return CSRGraph._from_dense_edges(
            self._node_ids, all_src[keep], self._out_indices[keep]
        )
