"""Wire-protocol units: parsing, op allowlist, encoding, error envelopes."""

import asyncio

import numpy as np
import pytest

from repro.core.engine import Ringo
from repro.exceptions import AdmissionRejected, TransientError
from repro.service.protocol import (
    REF_KEY,
    ProtocolError,
    RemoteError,
    TransientRemoteError,
    allowed_engine_ops,
    decode_args,
    dump_line,
    encode_result,
    error_response,
    load_line,
    ok_response,
    parse_request,
    raise_remote_error,
)


def test_parse_request_happy_path():
    rid, tenant, op, args, deadline = parse_request(
        {"id": 7, "tenant": "alice", "op": "GetPageRank",
         "args": {"graph": {"$ref": "graph-1"}}, "deadline_ms": 500}
    )
    assert rid == 7
    assert tenant == "alice"
    assert op == "GetPageRank"
    assert args == {"graph": {"$ref": "graph-1"}}
    assert deadline == pytest.approx(0.5)


def test_parse_request_deadline_optional():
    *_, deadline = parse_request({"tenant": "t", "op": "ping"})
    assert deadline is None


@pytest.mark.parametrize("raw", [
    "not a dict",
    {"op": "ping"},                                   # no tenant
    {"tenant": "t"},                                  # no op
    {"tenant": "", "op": "ping"},                     # empty tenant
    {"tenant": "t", "op": "NoSuchOp"},                # unknown op
    {"tenant": "t", "op": "recover"},                 # lifecycle op denied
    {"tenant": "t", "op": "close"},                   # lifecycle op denied
    {"tenant": "t", "op": "ping", "args": [1, 2]},    # args not an object
    {"tenant": "t", "op": "ping", "deadline_ms": 0},  # non-positive deadline
    {"tenant": "t", "op": "ping", "deadline_ms": "soon"},
])
def test_parse_request_rejects_malformed(raw):
    with pytest.raises(ProtocolError):
        parse_request(raw)


def test_allowed_engine_ops_track_the_engine():
    ops = allowed_engine_ops()
    # The paper's CamelCase surface is served...
    assert {"LoadTableTSV", "Select", "Join", "ToGraph", "GetPageRank"} <= ops
    # ...but catalog access and lifecycle stay service-mediated.
    assert "Objects" not in ops and "GetObject" not in ops
    assert "checkpoint" not in ops and "close" not in ops


#: The exact engine surface remote tenants may call. A renamed, added or
#: removed CamelCase ``Ringo`` method changes what the wire serves, so it
#: must show up here as a deliberate edit.
SERVED_ENGINE_OPS = frozenset({
    "ApplyOps", "Crosstab", "Describe", "Distinct", "FindCycle", "Functions",
    "GenConfigurationModel", "GenErdosRenyi", "GenPlantedPartition",
    "GenPrefAttach", "GenRMat", "GetAlgebraicConnectivity",
    "GetArticulationPoints", "GetBfsLevels", "GetBridges",
    "GetClusteringCoefficients", "GetColoring", "GetCommunities",
    "GetCoreNumbers", "GetDegreeCentrality", "GetDegreeDistribution",
    "GetDiameter", "GetEdgeTable", "GetEffectiveDiameter", "GetEgonet",
    "GetGirth", "GetHits", "GetKCore", "GetKTruss", "GetKatz",
    "GetLinkPredictions", "GetMatching", "GetMaxFlow", "GetMinCut",
    "GetNodeTable", "GetPageRank", "GetScc", "GetSnapshots",
    "GetSpectralBisection", "GetSssp", "GetTriadCensus", "GetTriangleCounts",
    "GetTriangles", "GetWcc", "GetWeightedPageRank", "GroupBy", "Intersect",
    "IsBipartite", "Join", "Limit", "LoadTableBinary", "LoadTableTSV",
    "Minus", "NextK", "NumFunctions", "OrderBy", "Project", "Quantiles",
    "Rename", "Rewire", "Sample", "SaveTableBinary", "SaveTableTSV",
    "Select", "SimJoin", "TableFromColumns", "TableFromHashMap", "TailWal",
    "ToCoOccurrenceGraph", "ToGraph", "ToWeightedNetwork", "TopK", "Union",
    "ValueCounts", "WithColumn",
})


def test_served_engine_surface_is_pinned():
    assert len(SERVED_ENGINE_OPS) == 75
    assert allowed_engine_ops() == SERVED_ENGINE_OPS


def test_encode_result_table_and_graph_refs(tmp_path):
    # Durable, like every service-hosted session — derivations publish
    # to the catalog, so encoded results carry a $ref.
    with Ringo(workers=1, durability=tmp_path) as ringo:
        table = ringo.TableFromColumns({"src": [0, 1, 2], "dst": [1, 2, 0]})
        encoded = encode_result(ringo, table)
        assert encoded["kind"] == "table"
        assert encoded["rows"] == 3
        assert encoded["columns"] == ["src", "dst"]
        assert encoded[REF_KEY] in ringo.Objects()

        graph = ringo.ToGraph(table, "src", "dst")
        encoded = encode_result(ringo, graph)
        assert encoded["kind"] == "graph"
        assert encoded["nodes"] == 3 and encoded["edges"] == 3
        assert encoded["directed"] is True
        assert encoded[REF_KEY] in ringo.Objects()


def test_encode_result_plain_values():
    with Ringo(workers=1) as ringo:
        assert encode_result(ringo, np.int64(4)) == 4
        assert encode_result(ringo, np.float64(0.5)) == 0.5
        assert encode_result(ringo, np.array([1, 2])) == [1, 2]
        assert encode_result(ringo, {1: 0.5}) == {"1": 0.5}
        assert encode_result(ringo, {3, 1, 2}) == [1, 2, 3]
        assert encode_result(ringo, (1, "x")) == [1, "x"]


def test_decode_args_resolves_refs_recursively(tmp_path):
    with Ringo(workers=1, durability=tmp_path) as ringo:
        table = ringo.TableFromColumns({"a": [1, 2]})
        name = ringo.Objects()[0]
        decoded = decode_args(ringo, {
            "table": {"$ref": name},
            "nested": {"inner": [{"$ref": name}, 5]},
            "plain": "x",
        })
        assert decoded["table"] is table
        assert decoded["nested"]["inner"][0] is table
        assert decoded["nested"]["inner"][1] == 5
        assert decoded["plain"] == "x"


def test_error_response_marks_transient_retryable():
    class Flaky(TransientError):
        """Test transient error."""

    envelope = error_response(3, Flaky("busy"))
    assert envelope["ok"] is False
    assert envelope["error"]["type"] == "Flaky"
    assert envelope["error"]["retryable"] is True

    envelope = error_response(3, AdmissionRejected("t", 10, 5))
    assert envelope["error"]["retryable"] is False


def test_raise_remote_error_reconstructs_types():
    with pytest.raises(TransientRemoteError):
        raise_remote_error(
            {"error": {"type": "InjectedFaultError", "message": "x",
                       "retryable": True}}
        )
    with pytest.raises(RemoteError) as info:
        raise_remote_error(
            {"error": {"type": "AdmissionRejected", "message": "x",
                       "retryable": False}}
        )
    assert not isinstance(info.value, TransientError)
    assert info.value.error_type == "AdmissionRejected"


def test_line_framing_round_trip():
    message = ok_response(1, {"kind": "table", "rows": 2})
    line = dump_line(message)
    assert line.endswith(b"\n")
    assert load_line(line) == message
    with pytest.raises(ProtocolError):
        load_line(b"{not json}\n")


def test_request_future_resolution_is_single_shot():
    from repro.service.protocol import Request

    async def scenario():
        loop = asyncio.get_running_loop()
        request = Request(id=1, tenant="t", op="ping", future=loop.create_future())
        request.future.set_result(ok_response(1, "pong"))
        assert request.future.done()
        return await request.future

    assert asyncio.run(scenario())["result"] == "pong"
