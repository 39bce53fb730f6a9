"""Tests for triangle counting, clustering, and k-cores vs networkx."""

import gc
import tracemalloc
import weakref

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp

from repro.algorithms import triangles
from repro.algorithms.cores import core_numbers, degeneracy, k_core
from repro.algorithms.generators import rmat_edges
from repro.algorithms.triangles import (
    average_clustering,
    clustering_coefficients,
    global_clustering,
    total_triangles,
    triangle_count_array,
    triangle_counts,
)
from repro.graphs.csr import CSRGraph
from repro.graphs.snapshot import csr_snapshot
from repro.parallel.executor import WorkerPool, kernel_dispatcher
from repro.parallel.shm import leaked_segments, shm_registry

from tests.helpers import (
    build_directed,
    build_undirected,
    random_undirected,
    to_networkx,
)

TRIANGLE_PLUS_TAIL = [(1, 2), (2, 3), (3, 1), (3, 4)]


class TestTriangles:
    def test_single_triangle(self):
        graph = build_undirected(TRIANGLE_PLUS_TAIL)
        counts = triangle_counts(graph)
        assert counts == {1: 1, 2: 1, 3: 1, 4: 0}
        assert total_triangles(graph) == 1

    def test_directed_uses_undirected_projection(self):
        graph = build_directed([(1, 2), (2, 3), (3, 1)])
        assert total_triangles(graph) == 1

    def test_self_loops_ignored(self):
        graph = build_undirected(TRIANGLE_PLUS_TAIL + [(1, 1)])
        assert total_triangles(graph) == 1

    def test_no_triangles_in_tree(self):
        graph = build_undirected([(1, 2), (2, 3), (2, 4)])
        assert total_triangles(graph) == 0

    def test_matches_networkx_on_random_graph(self):
        graph = random_undirected(60, 250, seed=21)
        expected = nx.triangles(to_networkx(graph))
        assert triangle_counts(graph) == expected

    def test_parallel_pool_matches_serial(self):
        graph = random_undirected(80, 400, seed=22)
        serial = triangle_counts(graph)
        with WorkerPool(4) as pool:
            parallel = triangle_counts(graph, pool=pool)
        assert serial == parallel

    def test_complete_graph_count(self):
        from repro.algorithms.generators import complete_graph

        graph = complete_graph(6)
        assert total_triangles(graph) == 20  # C(6,3)


def _edges(pairs):
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def _scipy_triangles(csr: CSRGraph) -> np.ndarray:
    """Per-node triangles of a directed CSR's edge list: ``diag(A^3) / 2``."""
    count = csr.num_nodes
    src, dst = csr.edge_sources(), csr.out_indices
    keep = src != dst
    ones = np.ones(int(keep.sum()), dtype=np.int64)
    upper = sp.coo_matrix((ones, (src[keep], dst[keep])), shape=(count, count))
    adjacency = (upper + upper.T).tocsr()
    adjacency.data[:] = 1
    return np.asarray((adjacency @ adjacency).multiply(adjacency).sum(axis=1)).ravel() // 2


EXACTNESS_GRAPHS = {
    "rmat": rmat_edges(10, 6000, seed=3),
    "empty": _edges([]),
    "star": _edges([(0, leaf) for leaf in range(1, 12)]),
    "clique": _edges([(u, v) for u in range(7) for v in range(7) if u != v]),
    "no_wedge": _edges([(0, 1), (2, 3), (5, 4), (6, 6)]),
}


class TestTriangleKernelExactness:
    """The wedge kernel against scipy, at any batch and span split."""

    @pytest.fixture(autouse=True)
    def _clean_backend(self):
        yield
        kernel_dispatcher().shutdown()
        shm_registry().drop_all()
        assert leaked_segments() == []

    @pytest.mark.parametrize("name", sorted(EXACTNESS_GRAPHS))
    @pytest.mark.parametrize("batch", [None, 1, 3])
    def test_counts_match_scipy(self, name, batch, monkeypatch):
        if batch is not None:
            # Tiny batches (and three spans) split edges' wedge runs.
            monkeypatch.setattr(triangles, "_WEDGE_BATCH", batch)
        csr = CSRGraph.from_edges(*EXACTNESS_GRAPHS[name])
        expected = _scipy_triangles(csr)
        sym = csr.undirected_projection()
        with WorkerPool(3) as pool:
            pooled = triangle_count_array(sym, pool=pool, backend="threads")
        serial = triangle_count_array(sym, backend="threads")
        assert serial.dtype == np.int64 and np.array_equal(serial, expected)
        assert np.array_equal(pooled, expected)

    def test_threads_and_processes_bitwise_equal(self):
        sym = CSRGraph.from_edges(*EXACTNESS_GRAPHS["rmat"]).undirected_projection()
        with WorkerPool(3) as pool:
            threads = triangle_count_array(sym, pool=pool, backend="threads")
        processes = triangle_count_array(sym, backend="processes")
        assert threads.tobytes() == processes.tobytes()
        assert int(threads.sum()) > 0

    def test_spans_split_the_wedge_index(self, monkeypatch):
        sym = CSRGraph.from_edges(*EXACTNESS_GRAPHS["rmat"]).undirected_projection()
        dispatcher = kernel_dispatcher()
        original = dispatcher.run_kernel
        seen = []

        def spy(csr, fn, arrays, total, **kwargs):
            seen.append(total)
            return original(csr, fn, arrays, total, **kwargs)

        monkeypatch.setattr(dispatcher, "run_kernel", spy)
        triangle_count_array(sym, backend="threads")
        assert seen == [int(sym.forward_adjacency().wedge_prefix[-1])]


def _old_projection(csr: CSRGraph) -> CSRGraph:
    """The structured-row ``np.unique`` construction the projection replaced."""
    src, dst = csr.edge_sources(), csr.out_indices
    keep = src != dst
    src, dst = src[keep], dst[keep]
    pairs = np.unique(
        np.stack([np.concatenate([src, dst]), np.concatenate([dst, src])], axis=1),
        axis=0,
    )
    return CSRGraph._from_dense_edges(csr.node_ids, pairs[:, 0], pairs[:, 1])


class TestUndirectedProjection:
    @pytest.mark.parametrize(
        "edges",
        [
            _edges([(1, 1), (1, 2), (2, 1), (2, 3), (3, 3), (4, 2), (9, 9)]),
            rmat_edges(9, 3000, seed=5),
            _edges([]),
        ],
        ids=["loops_and_reciprocal", "rmat", "empty"],
    )
    def test_bitwise_equal_to_row_unique_construction(self, edges):
        csr = CSRGraph.from_edges(*edges)
        new, old = csr.undirected_projection(), _old_projection(csr)
        for name in ("node_ids", "out_indptr", "out_indices", "in_indptr", "in_indices"):
            a, b = getattr(new, name), getattr(old, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert new.edge_sources().tobytes() == old.edge_sources().tobytes()

    def test_dropped_snapshot_projection_freed_without_cyclic_gc(self):
        graph = build_directed([(1, 2), (2, 3), (3, 1), (3, 4)])
        gc.disable()
        try:
            projection = csr_snapshot(graph).undirected_projection()
            projection.forward_adjacency()
            ref = weakref.ref(projection)
            del projection
            graph.add_edge(4, 1)
            csr_snapshot(graph)  # replaces (drops) the stale snapshot
            assert ref() is None
        finally:
            gc.enable()


def test_triangle_peak_memory_under_twice_the_projection():
    """Paper Table 3, X1: peak footprint stays under 2x the graph."""
    sym = CSRGraph.from_edges(*rmat_edges(15, 600_000, seed=1)).undirected_projection()
    tracemalloc.start()
    try:
        counts = triangle_count_array(sym, backend="threads")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert int(counts.sum()) > 0
    assert peak <= 2 * sym.memory_bytes()


class TestClustering:
    def test_local_coefficients_match_networkx(self):
        graph = random_undirected(50, 200, seed=23)
        ours = clustering_coefficients(graph)
        expected = nx.clustering(to_networkx(graph))
        for node, value in expected.items():
            assert ours[node] == pytest.approx(value)

    def test_average_matches_networkx(self):
        graph = random_undirected(50, 200, seed=24)
        assert average_clustering(graph) == pytest.approx(
            nx.average_clustering(to_networkx(graph))
        )

    def test_global_matches_networkx_transitivity(self):
        graph = random_undirected(50, 200, seed=25)
        assert global_clustering(graph) == pytest.approx(
            nx.transitivity(to_networkx(graph))
        )

    def test_empty_graph(self):
        from repro.graphs.undirected import UndirectedGraph

        assert average_clustering(UndirectedGraph()) == 0.0
        assert global_clustering(UndirectedGraph()) == 0.0


class TestCores:
    def test_triangle_tail(self):
        graph = build_undirected(TRIANGLE_PLUS_TAIL)
        cores = core_numbers(graph)
        assert cores == {1: 2, 2: 2, 3: 2, 4: 1}

    def test_matches_networkx(self):
        graph = random_undirected(70, 300, seed=31)
        reference = to_networkx(graph)
        reference.remove_edges_from(nx.selfloop_edges(reference))
        assert core_numbers(graph) == nx.core_number(reference)

    def test_k_core_subgraph(self):
        graph = build_undirected(TRIANGLE_PLUS_TAIL)
        core = k_core(graph, 2)
        assert sorted(core.nodes()) == [1, 2, 3]
        assert core.num_edges == 3

    def test_three_core_of_clique(self):
        from repro.algorithms.generators import complete_graph

        graph = complete_graph(5)
        assert k_core(graph, 3).num_nodes == 5
        assert k_core(graph, 5).num_nodes == 0

    def test_k_core_matches_networkx(self):
        graph = random_undirected(60, 240, seed=32)
        reference = to_networkx(graph)
        reference.remove_edges_from(nx.selfloop_edges(reference))
        for k in (2, 3):
            ours = k_core(graph, k)
            expected = nx.k_core(reference, k)
            assert sorted(ours.nodes()) == sorted(expected.nodes())

    def test_degeneracy(self):
        graph = build_undirected(TRIANGLE_PLUS_TAIL)
        assert degeneracy(graph) == 2

    def test_degeneracy_empty(self):
        from repro.graphs.undirected import UndirectedGraph

        assert degeneracy(UndirectedGraph()) == 0

    def test_directed_graph_uses_projection(self):
        graph = build_directed([(1, 2), (2, 3), (3, 1), (3, 4)])
        cores = core_numbers(graph)
        assert cores[1] == 2 and cores[4] == 1
