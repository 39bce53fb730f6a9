"""Every durable op round-trips through the WAL.

For each durable op, and for the two adoption records, a small program
runs against a durable session. Two checks follow:

* ``Ringo.recover`` rebuilds a catalog whose digest equals the live
  session's (replay gives the same objects as the live call);
* the WAL records the program wrote equal the golden records in
  ``tests/fixtures/wal_records.json`` (op names, arg keys and arg
  values are a frozen on-disk format: old logs must still recover and
  replicas must keep receiving identical frames).

Regenerate the fixture only for a deliberate format change::

    PYTHONPATH=src python tests/test_recovery_oplog.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import Ringo
from repro.graphs.directed import DirectedGraph
from repro.recovery.digest import catalog_digest
from repro.recovery.ops import OPS
from repro.recovery.wal import WAL_FILENAME, read_wal
from repro.tables.table import Table

FIXTURE = Path(__file__).parent / "fixtures" / "wal_records.json"
TMP = "<tmp>"


def _table(ringo):
    return ringo.TableFromColumns(
        {"a": [1, 2, 3, 2], "b": [4, 3, 2, 3], "f": [0.5, 1.5, 2.5, 1.5],
         "s": ["x", "y", "x", "z"]}
    )


def _graph(ringo):
    return ringo.ToGraph(_table(ringo), "a", "b")


def _load_tsv(ringo, tmp):
    path = tmp / "posts.tsv"
    path.write_text("id\ttag\n1\tJava\n2\tPython\n3\tJava\n")
    ringo.LoadTableTSV([("id", "int"), ("tag", "string")], path, has_header=True)
    ringo.LoadTableTSV(None, path, has_header=True)


def _load_binary(ringo, tmp):
    path = tmp / "table.npz"
    ringo.SaveTableBinary(_table(ringo), path)
    ringo.LoadTableBinary(path)


def _select(ringo, tmp):
    table = _table(ringo)
    ringo.Select(table, "a > 1")
    ringo.Select(table, np.array([True, False, True, True]), in_place=True)


def _order_by(ringo, tmp):
    table = _table(ringo)
    ringo.OrderBy(table, ["b", "a"], ascending=False)
    ringo.OrderBy(table, "f", in_place=True)


def _apply_ops(ringo, tmp):
    graph = ringo.GenRMat(4, 20, seed=3)
    ringo.ApplyOps(graph, [["add_edge", 1, 99], ("add_node", 100), ["del_edge", 1, 99]])


def _adopt_table(ringo, tmp):
    external = Table.from_columns({"k": [3, 1, 2], "s": ["c", "a", "b"]}, pool=ringo.pool)
    ringo.Project(external.select("k > 1"), ["k"])


def _adopt_graph(ringo, tmp):
    external = DirectedGraph()
    for src, dst in [(1, 2), (2, 3), (3, 1)]:
        external.add_edge(src, dst)
    external.add_node(7)
    ringo.GetNodeTable(external)


#: op name -> a program that commits at least one record of that op.
PROGRAMS = {
    "LoadTableTSV": _load_tsv,
    "LoadTableBinary": _load_binary,
    "TableFromColumns": lambda r, tmp: _table(r),
    "TableFromHashMap": lambda r, tmp: r.TableFromHashMap({3: 0.25, 1: 0.5}, "K", "V"),
    "Select": _select,
    "Join": lambda r, tmp: r.Join(_table(r), _table(r), "a", "b", include_provenance=True),
    "Project": lambda r, tmp: r.Project(_table(r), ("a", "s")),
    "Rename": lambda r, tmp: r.Rename(_table(r), {"a": "x"}),
    "GroupBy": lambda r, tmp: r.GroupBy(_table(r), ["s"], {"n": ("count", "a"), "t": ("sum", "f")}),
    "OrderBy": _order_by,
    "Union": lambda r, tmp: r.Union(_table(r), r.Limit(_table(r), 2), distinct=False),
    "Intersect": lambda r, tmp: r.Intersect(_table(r), r.Limit(_table(r), 2)),
    "Minus": lambda r, tmp: r.Minus(_table(r), r.Limit(_table(r), 2)),
    "SimJoin": lambda r, tmp: r.SimJoin(_table(r), _table(r), "f", 1.1, include_distance=True),
    "NextK": lambda r, tmp: r.NextK(_table(r), "f", 1, group_col="s"),
    "Distinct": lambda r, tmp: r.Distinct(_table(r), ["s"]),
    "Limit": lambda r, tmp: r.Limit(_table(r), 3),
    "TopK": lambda r, tmp: r.TopK(_table(r), "f", 2, ascending=True),
    "ValueCounts": lambda r, tmp: r.ValueCounts(_table(r), "s"),
    "WithColumn": lambda r, tmp: r.WithColumn(_table(r), "c", "a * 2 + f"),
    "Sample": lambda r, tmp: r.Sample(_table(r), 2, seed=5),
    "ToGraph": lambda r, tmp: r.ToGraph(_table(r), "a", "b", directed=False),
    "GetEdgeTable": lambda r, tmp: r.GetEdgeTable(_graph(r)),
    "GetNodeTable": lambda r, tmp: r.GetNodeTable(_graph(r), include_degrees=True),
    "GenRMat": lambda r, tmp: r.GenRMat(5, 40, seed=1, directed=False),
    "GenPrefAttach": lambda r, tmp: r.GenPrefAttach(30, 2, seed=2),
    "GenErdosRenyi": lambda r, tmp: r.GenErdosRenyi(20, 30, directed=True, seed=3),
    "GenPlantedPartition": lambda r, tmp: r.GenPlantedPartition(2, 6, 0.5, 0.1, seed=4),
    "GenConfigurationModel": lambda r, tmp: r.GenConfigurationModel([2, 2, 2, 1, 1], seed=5),
    "Rewire": lambda r, tmp: r.Rewire(r.GenRMat(5, 40, seed=6, directed=False), swaps=10, seed=7),
    "ApplyOps": _apply_ops,
    "__adopt_table__": _adopt_table,
    "__adopt_graph__": _adopt_graph,
}


def durable_op_names():
    """Every op the WAL can hold, from the op table."""
    return sorted(OPS)


def run_program(op, tmp):
    """Run ``op``'s program durably; returns (live digest, WAL records)."""
    state = tmp / "state"
    with Ringo(workers=1, durability=state) as ringo:
        PROGRAMS[op](ringo, tmp)
        digest = catalog_digest(ringo)
    records, tail = read_wal(state / WAL_FILENAME)
    assert not tail.torn
    assert op in {record.op for record in records}
    return digest, records


def normalised(records, tmp):
    """Records as JSON-shaped dicts, temp paths replaced by ``<tmp>``."""
    text = json.dumps(
        [{"op": r.op, "args": r.args, "inputs": list(r.inputs), "output": r.output}
         for r in records],
        sort_keys=True,
    )
    return json.loads(text.replace(str(tmp), TMP))


def test_every_op_has_a_program_and_a_method():
    ops = durable_op_names()
    assert len(ops) == 33
    assert sorted(PROGRAMS) == ops
    for op in ops:
        assert op.startswith("__adopt_") or callable(getattr(Ringo, op, None)), op


@pytest.mark.parametrize("op", durable_op_names())
def test_recover_reproduces_live_catalog(op, tmp_path):
    digest, _records = run_program(op, tmp_path)
    with Ringo.recover(tmp_path / "state", strict=True, workers=1) as recovered:
        assert catalog_digest(recovered) == digest
        report = recovered.health()["recovery"]["last_recovery"]
        assert report["unrecovered"] == [] and report["replayed_ops"] >= 1


@pytest.mark.parametrize("op", durable_op_names())
def test_wal_records_match_golden(op, tmp_path):
    golden = json.loads(FIXTURE.read_text())
    _digest, records = run_program(op, tmp_path)
    actual = json.dumps(normalised(records, tmp_path), sort_keys=True)
    assert actual == json.dumps(golden[op], sort_keys=True)


def _regenerate():
    import tempfile

    golden = {}
    for op in durable_op_names():
        with tempfile.TemporaryDirectory() as tmp:
            _digest, records = run_program(op, Path(tmp))
            golden[op] = normalised(records, Path(tmp))
    lines = (f"{json.dumps(op)}: {json.dumps(golden[op], sort_keys=True)}" for op in golden)
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    _regenerate()
