"""Sweep test: every session-level method runs once against live data.

Guards the public surface — a rename or signature break in any engine
method fails here even if no focused test covers it.
"""

import numpy as np
import pytest

from repro.core.engine import Ringo

# The timed methods the sweep below calls on its module session: each
# must record its own ``call_timings()`` entry, no more and no fewer.
SWEEP_TIMED = {
    "FindCycle", "GetAlgebraicConnectivity", "GetArticulationPoints",
    "GetBfsLevels", "GetBridges", "GetClusteringCoefficients", "GetColoring",
    "GetCommunities", "GetCoreNumbers", "GetDegreeCentrality",
    "GetDegreeDistribution", "GetDiameter", "GetEdgeTable",
    "GetEffectiveDiameter", "GetGirth", "GetHits", "GetKCore", "GetKTruss",
    "GetKatz", "GetLinkPredictions", "GetMatching", "GetMaxFlow", "GetMinCut",
    "GetNodeTable", "GetPageRank", "GetScc", "GetSpectralBisection", "GetSssp",
    "GetTriadCensus", "GetTriangleCounts", "GetTriangles", "GetWcc",
    "GetWeightedPageRank", "IsBipartite", "Join", "LoadTableTSV",
    "ToCoOccurrenceGraph", "ToGraph", "ToWeightedNetwork",
}

# Each session method's registry description (its first docstring line).
RINGO_DESCRIPTIONS = {
    "ringo.ApplyOps": "Fold a mutation op stream into a dynamic graph.",
    "ringo.Crosstab": "Wide-format cross-tabulation of two key columns.",
    "ringo.Describe": "Per-column summary statistics.",
    "ringo.Distinct": "Unique rows (first occurrence kept).",
    "ringo.FindCycle": "One directed cycle (closed node list), or None.",
    "ringo.Functions": "Registered function names (optionally one category).",
    "ringo.GenConfigurationModel": "Random graph approximating a degree sequence.",
    "ringo.GenErdosRenyi": "G(n, m) synthetic graph.",
    "ringo.GenPlantedPartition": (
        "Planted-partition synthetic graph (community-detection testbed)."
    ),
    "ringo.GenPrefAttach": "Barabási–Albert synthetic graph.",
    "ringo.GenRMat": "R-MAT synthetic graph.",
    "ringo.GetAlgebraicConnectivity": "Second-smallest Laplacian eigenvalue.",
    "ringo.GetArticulationPoints": "Cut vertices of the undirected projection.",
    "ringo.GetBfsLevels": "BFS hop distances from a source.",
    "ringo.GetBridges": "Cut edges of the undirected projection.",
    "ringo.GetClusteringCoefficients": "Local clustering coefficient per node.",
    "ringo.GetColoring": "Greedy proper node colouring.",
    "ringo.GetCommunities": "Label-propagation communities.",
    "ringo.GetCoreNumbers": "Core number per node.",
    "ringo.GetDegreeCentrality": "Degree centrality.",
    "ringo.GetDegreeDistribution": "Degree histogram as a session table.",
    "ringo.GetDiameter": "(Sampled) diameter.",
    "ringo.GetEdgeTable": "Graph → edge table (partitioned parallel writer).",
    "ringo.GetEffectiveDiameter": "(Sampled) 90th-percentile effective diameter.",
    "ringo.GetEgonet": "The induced subgraph around one node.",
    "ringo.GetGirth": "Shortest cycle length of the undirected projection.",
    "ringo.GetHits": "HITS ``(hubs, authorities)``.",
    "ringo.GetKCore": "The k-core subgraph (Table 6 benchmarks ``k=3``).",
    "ringo.GetKTruss": "The k-truss subgraph (edges with >= k-2 triangle supports).",
    "ringo.GetKatz": "Katz centrality.",
    "ringo.GetLinkPredictions": (
        "Top-k predicted links by a similarity index (Jaccard default)."
    ),
    "ringo.GetMatching": "Maximum bipartite matching (Hopcroft-Karp).",
    "ringo.GetMaxFlow": "Maximum s-t flow (Dinic).",
    "ringo.GetMinCut": "Minimum s-t cut node partition.",
    "ringo.GetNodeTable": "Graph → node table, optionally with degree columns.",
    "ringo.GetObject": "Look up a published object by catalog name.",
    "ringo.GetPageRank": "PageRank scores (the demo's expert-ranking step).",
    "ringo.GetScc": "Strongly connected component labels (Table 6's SCC).",
    "ringo.GetSnapshots": "Time-windowed interaction graphs from an event table.",
    "ringo.GetSpectralBisection": "Two-way partition by the Fiedler vector's sign.",
    "ringo.GetSssp": "Single-source shortest paths (Table 6's SSSP).",
    "ringo.GetTriadCensus": "The 16-class directed triad census.",
    "ringo.GetTriangleCounts": "Per-node triangle participation counts.",
    "ringo.GetTriangles": "Total distinct triangles (Table 3's second benchmark).",
    "ringo.GetWcc": "Weakly connected component labels.",
    "ringo.GetWeightedPageRank": (
        "PageRank with rank spread proportional to edge weights."
    ),
    "ringo.GroupBy": "Group & aggregate.",
    "ringo.Intersect": "Set intersection.",
    "ringo.IsBipartite": "Whether the undirected projection is 2-colourable.",
    "ringo.Join": "Inner equi-join; always a new table, clashes suffixed -1/-2.",
    "ringo.Limit": "The first ``count`` rows.",
    "ringo.LoadTableBinary": "Load a binary table snapshot (session-pooled).",
    "ringo.LoadTableTSV": "Load a TSV file into a table (paper §4.1 listing, line 1).",
    "ringo.Minus": "Set difference.",
    "ringo.NextK": "Temporal predecessor/successor join.",
    "ringo.NumFunctions": (
        "Size of the analytics surface — the paper's \"over 200\" claim."
    ),
    "ringo.Objects": "Names of objects the session has successfully published.",
    "ringo.OrderBy": "Sort rows.",
    "ringo.Project": "Keep only the named columns.",
    "ringo.Quantiles": "Quantiles of a numeric column.",
    "ringo.Rename": "Rename columns (new table, shared data).",
    "ringo.Rewire": "Degree-preserving double-edge-swap null model.",
    "ringo.Sample": "A uniform random row sample.",
    "ringo.SaveTableBinary": "Snapshot a table to a binary .npz archive.",
    "ringo.SaveTableTSV": "Write a table as TSV; returns the row count.",
    "ringo.Select": "Filter rows by predicate string/mask (``'Tag=Java'``).",
    "ringo.SimJoin": "Similarity join: rows whose key distance is below threshold.",
    "ringo.TableFromColumns": "Build a table from per-column data (session-pooled).",
    "ringo.TableFromHashMap": (
        "Result map → two-column table (paper §4.1 listing, last line)."
    ),
    "ringo.TailWal": "Stream committed ``ApplyOps`` records out of another WAL.",
    "ringo.ToCoOccurrenceGraph": (
        "Link actors sharing a group value (§4.1's alternative build)."
    ),
    "ringo.ToGraph": "Edge table → graph via the sort-first algorithm.",
    "ringo.ToWeightedNetwork": (
        "Collapse duplicate edges into a weight-attributed Network."
    ),
    "ringo.TopK": "The ``k`` extreme rows by one column.",
    "ringo.Union": "Set union (UNION ALL with ``distinct=False``).",
    "ringo.ValueCounts": "Distinct values with occurrence counts, descending.",
    "ringo.WithColumn": "Append a computed column from an arithmetic expression.",
    "ringo.call_timings": "Per-method call counts and cumulative seconds.",
    "ringo.checkpoint": "Write an atomic, checksummed snapshot of the session catalog.",
    "ringo.health": "One structured snapshot of the session's resilience state.",
    "ringo.profile": "Render the recorded span tree with per-node self/total times.",
    "ringo.recover": "Reconstruct a crashed session from its durability directory.",
    "ringo.workers_info": (
        "The worker pool's configuration and lifetime execution counters."
    ),
}


@pytest.fixture(scope="module")
def ringo():
    session = Ringo(workers=1)
    yield session
    session.close()


@pytest.fixture(scope="module")
def graph(ringo):
    table = ringo.TableFromColumns(
        {"a": [1, 2, 3, 1, 4, 5], "b": [2, 3, 1, 3, 5, 4]}
    )
    return ringo.ToGraph(table, "a", "b")


def test_every_session_method_exercised(ringo, graph, tmp_path):
    t = ringo.TableFromColumns(
        {"k": [1, 2, 2], "v": [1.5, 2.5, 3.5], "s": ["x", "y", "x"]}
    )

    exercised = {
        "TableFromColumns": t,
        "Select": ringo.Select(t, "k = 2"),
        "Join": ringo.Join(t, t, "k"),
        "Project": ringo.Project(t, ["k"]),
        "Rename": ringo.Rename(t, {"v": "w"}),
        "GroupBy": ringo.GroupBy(t, "k"),
        "OrderBy": ringo.OrderBy(t, "v"),
        "Union": ringo.Union(t, t),
        "Intersect": ringo.Intersect(t, t),
        "Minus": ringo.Minus(t, t),
        "Distinct": ringo.Distinct(t),
        "Limit": ringo.Limit(t, 1),
        "TopK": ringo.TopK(t, "v", 1),
        "ValueCounts": ringo.ValueCounts(t, "s"),
        "WithColumn": ringo.WithColumn(t.clone(), "c", "k + v"),
        "Sample": ringo.Sample(t, 1),
        "Describe": ringo.Describe(t),
        "Crosstab": ringo.Crosstab(t, "k", "s"),
        "Quantiles": ringo.Quantiles(t, "v", [0.5]),
        "SimJoin": ringo.SimJoin(t, t, "v", 1.0),
        "NextK": ringo.NextK(t, "v", 1),
        "ToGraph": graph,
        "GetEdgeTable": ringo.GetEdgeTable(graph),
        "GetNodeTable": ringo.GetNodeTable(graph, include_degrees=True),
        "TableFromHashMap": ringo.TableFromHashMap({1: 1.0}, "K", "V"),
        "GetPageRank": ringo.GetPageRank(graph),
        "GetHits": ringo.GetHits(graph),
        "GetTriangles": ringo.GetTriangles(graph),
        "GetTriangleCounts": ringo.GetTriangleCounts(graph),
        "GetClusteringCoefficients": ringo.GetClusteringCoefficients(graph),
        "GetKCore": ringo.GetKCore(graph, 2),
        "GetCoreNumbers": ringo.GetCoreNumbers(graph),
        "GetSssp": ringo.GetSssp(graph, 1),
        "GetBfsLevels": ringo.GetBfsLevels(graph, 1),
        "GetScc": ringo.GetScc(graph),
        "GetWcc": ringo.GetWcc(graph),
        "GetDegreeCentrality": ringo.GetDegreeCentrality(graph),
        "GetCommunities": ringo.GetCommunities(graph),
        "GetDiameter": ringo.GetDiameter(graph),
        "GetEffectiveDiameter": ringo.GetEffectiveDiameter(graph),
        "GetDegreeDistribution": ringo.GetDegreeDistribution(graph),
        "GetKatz": ringo.GetKatz(graph),
        "GetTriadCensus": ringo.GetTriadCensus(graph),
        "GetArticulationPoints": ringo.GetArticulationPoints(graph),
        "GetBridges": ringo.GetBridges(graph),
        "GetColoring": ringo.GetColoring(graph),
        "IsBipartite": ringo.IsBipartite(graph),
        "GetLinkPredictions": ringo.GetLinkPredictions(graph, k=2),
        "GetMaxFlow": ringo.GetMaxFlow(graph, 1, 3),
        "GetMinCut": ringo.GetMinCut(graph, 1, 3),
        "GetEgonet": ringo.GetEgonet(graph, 1),
        "FindCycle": ringo.FindCycle(graph),
        "GetGirth": ringo.GetGirth(graph),
        "GenRMat": ringo.GenRMat(5, 50, seed=1),
        "GenPrefAttach": ringo.GenPrefAttach(20, 2, seed=1),
        "GenErdosRenyi": ringo.GenErdosRenyi(10, 15, seed=1),
        "GenPlantedPartition": ringo.GenPlantedPartition(2, 5, 0.9, 0.1, seed=1),
        "GenConfigurationModel": ringo.GenConfigurationModel([2, 2, 2, 2]),
        "Functions": ringo.Functions(),
        "NumFunctions": ringo.NumFunctions(),
        "Objects": ringo.Objects(),
        "GetObject": ringo.GetObject(ringo.Objects()[0]),
        "workers_info": ringo.workers_info(),
        "health": ringo.health(),
        "call_timings": ringo.call_timings(),
        "profile": ringo.profile(),
    }
    # Deferred ones needing special setup:
    from repro.graphs.network import Network

    net = Network()
    net.add_edge(1, 2)
    net.set_edge_attr(1, 2, "w", 2.0)
    exercised["GetWeightedPageRank"] = ringo.GetWeightedPageRank(net, "w")

    bip = ringo.TableFromColumns({"g": [1, 1, 2], "u": [10, 11, 10]})
    co = ringo.ToCoOccurrenceGraph(bip, "g", "u")
    exercised["ToCoOccurrenceGraph"] = co
    exercised["GetMatching"] = ringo.GetMatching(
        ringo.GenErdosRenyi(2, 1, seed=1)
    )

    events = ringo.TableFromColumns({"t": [0, 1], "x": [1, 2], "y": [2, 3]})
    exercised["GetSnapshots"] = ringo.GetSnapshots(events, "t", "x", "y", 10)
    exercised["ToWeightedNetwork"] = ringo.ToWeightedNetwork(events, "x", "y")
    exercised["GetKTruss"] = ringo.GetKTruss(graph, 3)

    spectral_graph = ringo.GenPlantedPartition(2, 6, 0.9, 0.1, seed=2)
    exercised["GetSpectralBisection"] = ringo.GetSpectralBisection(spectral_graph)
    exercised["GetAlgebraicConnectivity"] = ringo.GetAlgebraicConnectivity(spectral_graph)
    exercised["Rewire"] = ringo.Rewire(ringo.GenErdosRenyi(10, 15, seed=2))

    path = tmp_path / "t.npz"
    exercised["SaveTableBinary"] = ringo.SaveTableBinary(t, path)
    exercised["LoadTableBinary"] = ringo.LoadTableBinary(path)
    tsv = tmp_path / "t.tsv"
    exercised["SaveTableTSV"] = ringo.SaveTableTSV(t, tsv)
    exercised["LoadTableTSV"] = ringo.LoadTableTSV(
        [("k", "int"), ("v", "float"), ("s", "string")], tsv
    )

    state = tmp_path / "state"
    with Ringo(workers=1, durability=state) as durable:
        durable.TableFromColumns({"a": [1, 2]})
        exercised["checkpoint"] = durable.checkpoint()
    with Ringo.recover(state, workers=1) as recovered:
        exercised["recover"] = recovered.Objects()

    stream = tmp_path / "stream"
    with Ringo(workers=1, durability=stream) as producer:
        edges = producer.TableFromColumns({"a": [1, 2], "b": [2, 3]})
        src = producer.ToGraph(edges, "a", "b")
        exercised["ApplyOps"] = producer.ApplyOps(src, [["add_edge", 3, 4]])
    with Ringo(workers=1) as follower:
        exercised["TailWal"] = follower.TailWal(stream)

    # Every public engine method must have been exercised above.
    public = {
        name
        for name in dir(Ringo)
        if not name.startswith("_")
        and callable(getattr(Ringo, name))
        and name not in ("close",)
    }
    missing = public - set(exercised)
    assert not missing, f"engine methods not exercised: {sorted(missing)}"
    assert set(ringo.call_timings()) == SWEEP_TIMED


def test_session_registry_descriptions_are_pinned(ringo):
    described = {
        entry.name: entry.description
        for entry in ringo.registry
        if entry.name.startswith("ringo.")
    }
    assert described == RINGO_DESCRIPTIONS
