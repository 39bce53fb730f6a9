"""The durable-op table: every catalog-producing operation, declared once.

Each durable (catalog-mutating) session operation has one
:class:`OpSpec` in :data:`OPS`. Its ``run`` is the one function both
paths execute: the live ``Ringo`` method calls it and logs its keyword
arguments to the WAL, and recovery and replica replay call it again
with the logged arguments (:func:`replay_record`). With no second copy
to drift, a replayed catalog is bit-identical to the original —
including persistent row ids, which every producing operator assigns
deterministically, and seeded generator output. Only an op whose logged
form differs from its call carries its own ``encode``/``decode``.
``run`` looks its implementation up at call time (``tables.select``),
so patched module attributes see live and replayed calls alike.

Two pseudo-ops carry *inline* state rather than a derivation:
``__adopt_table__`` / ``__adopt_graph__`` snapshot an input object that
was built outside the session's recorded surface (for example a table
passed in from user code), making the log self-contained.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import algorithms as alg
from repro import convert, tables
from repro.exceptions import RecoveryError, ReplayError
from repro.incremental import ingest
from repro.tables.schema import ColumnType, Schema
from repro.tables.table import Table

# ----------------------------------------------------------------------
# JSON-safe encoding helpers
# ----------------------------------------------------------------------


def encode_value(value):
    """Encode one argument value into JSON-safe form."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): encode_value(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise RecoveryError(
        f"cannot encode {type(value).__name__} value into a WAL record"
    )


def decode_value(value):
    """Invert :func:`encode_value`."""
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return np.asarray(value["__ndarray__"], dtype=np.dtype(value["dtype"]))
        return {k: decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        # Inline scalars as-is: long id and payload lists stay cheap.
        return [decode_value(v) if isinstance(v, (dict, list)) else v for v in value]
    return value


def encode_schema(schema) -> "list | None":
    """``Schema`` (or schema-shaped sequence) → ``[[name, type], ...]``."""
    if schema is None:
        return None
    if not isinstance(schema, Schema):
        schema = Schema(schema)
    return [[name, col_type.value] for name, col_type in schema]


def decode_schema(encoded) -> "Schema | None":
    """Invert :func:`encode_schema`."""
    if encoded is None:
        return None
    return Schema([(name, ColumnType.parse(type_name)) for name, type_name in encoded])


def encode_table_payload(table: Table) -> dict:
    """Snapshot a table's full contents inline (adoption records)."""
    columns: dict[str, object] = {}
    for name, col_type in table.schema:
        if col_type is ColumnType.STRING:
            columns[name] = list(table.values(name))
        else:
            columns[name] = table.column(name).tolist()
    return {
        "schema": encode_schema(table.schema),
        "columns": columns,
        "row_ids": table.row_ids.tolist(),
    }


def decode_table_payload(payload: dict, pool) -> Table:
    """Rebuild a table from an inline snapshot, row ids included."""
    schema = decode_schema(payload["schema"])
    table = Table.from_columns(payload["columns"], schema=schema, pool=pool)
    table._replace_columns(
        {name: table._raw_column(name) for name in schema.names},
        np.asarray(payload["row_ids"], dtype=np.int64),
    )
    return table


def encode_graph_payload(graph) -> dict:
    """Snapshot a graph's edges and nodes inline (adoption records)."""
    sources, targets = graph.edge_arrays()
    return {
        "directed": bool(graph.is_directed),
        "nodes": graph.node_array().tolist(),
        "sources": sources.tolist(),
        "targets": targets.tolist(),
    }


def decode_graph_payload(payload: dict, pool):
    """Rebuild a graph from an inline snapshot, isolated nodes included."""
    graph = convert.graph_from_edge_arrays(
        np.asarray(payload["sources"], dtype=np.int64),
        np.asarray(payload["targets"], dtype=np.int64),
        directed=payload["directed"],
        pool=pool,
    )
    for node_id in payload["nodes"]:
        graph.add_node(int(node_id))
    return graph




# ----------------------------------------------------------------------
# The op table
# ----------------------------------------------------------------------

#: Publish rules: a result is always catalogued (loads, Join, ToGraph),
#: catalogued only in a durable session, or the op mutates its first
#: input in place (``Select``/``OrderBy`` only when ``in_place``).
ALWAYS, DURABLE, IN_PLACE = "always", "durable", "in-place"


@dataclass(frozen=True)
class OpSpec:
    """One durable op: how it runs, what it publishes, how it is logged.

    ``kind`` (``"table"``/``"graph"``) prefixes the result's catalog
    name; ``inputs`` names the catalogued input objects, in call order.
    ``run(session, *inputs, **args)`` executes the op for the live call
    and for replay. ``encode(args, inputs, result)`` turns the call's
    keyword arguments into the record's args (an in-place op is encoded
    before it runs, with ``result=None``) and ``decode`` turns those
    back into ``run`` keyword arguments; both default to
    :func:`encode_value` / :func:`decode_value` per argument.
    """

    name: str
    kind: str
    inputs: tuple
    publish: str
    run: Callable
    encode: "Callable | None" = None
    decode: "Callable | None" = None

    def mutates(self, args: dict) -> bool:
        """Whether a call with ``args`` mutates its first input in place."""
        return self.publish == IN_PLACE and bool(args.get("in_place", True))

    def log_args(self, args: dict, inputs: tuple, result) -> dict:
        """The JSON-safe record args for one call."""
        if self.encode is not None:
            return self.encode(args, inputs, result)
        return {name: encode_value(value) for name, value in args.items()}

    def run_args(self, logged: dict) -> dict:
        """The ``run`` keyword arguments a record's args stand for."""
        if self.decode is not None:
            return self.decode(logged)
        return {name: decode_value(value) for name, value in logged.items()}


def _select_log(args, inputs, result):
    # A predicate string is logged as-is (readable provenance); a mask
    # or pre-built Predicate as the mask it selects from the input.
    predicate = args["predicate"]
    if isinstance(predicate, str):
        return {"predicate": {"expr": predicate}, "in_place": args["in_place"]}
    from repro.tables.expressions import as_predicate

    mask = np.asarray(as_predicate(predicate).mask(inputs[0]), dtype=bool)
    return {"predicate": {"mask": mask.tolist()}, "in_place": args["in_place"]}


def _select_args(logged):
    predicate = logged["predicate"]
    if "mask" in predicate:
        predicate = np.asarray(predicate["mask"], dtype=bool)
    else:
        predicate = predicate["expr"]
    return {"predicate": predicate, "in_place": logged["in_place"]}


TABLE, GRAPH = "table", "graph"
_T, _G, _LR = ("table",), ("graph",), ("left", "right")

#: op name → :class:`OpSpec`, for every record the WAL can hold.
OPS = {spec.name: spec for spec in (
    OpSpec("LoadTableTSV", TABLE, (), ALWAYS,
           lambda s, schema, path, kwargs: tables.load_table_tsv(
               schema, path, pool=s.pool, **kwargs),
           # Logs the *resulting* schema, so replay skips re-inference.
           lambda args, inputs, table: {
               "schema": encode_schema(table.schema), "path": os.fspath(args["path"]),
               "kwargs": encode_value(args["kwargs"])},
           lambda logged: {
               "schema": decode_schema(logged["schema"]), "path": logged["path"],
               "kwargs": decode_value(logged.get("kwargs") or {})}),
    OpSpec("LoadTableBinary", TABLE, (), ALWAYS,
           lambda s, path: tables.load_table_npz(path, pool=s.pool)),
    OpSpec("TableFromColumns", TABLE, (), DURABLE,
           lambda s, data, schema: Table.from_columns(data, schema=schema, pool=s.pool),
           # The data has no durable provenance: log the result inline.
           lambda args, inputs, table: {"payload": encode_table_payload(table)},
           lambda logged: {"data": logged["payload"]["columns"],
                           "schema": decode_schema(logged["payload"]["schema"])}),
    OpSpec("TableFromHashMap", TABLE, (), DURABLE,
           lambda s, mapping, key_col, value_col: convert.table_from_hashmap(
               mapping, key_col, value_col, pool=s.pool),
           lambda args, inputs, table: {
               "items": [[encode_value(k), encode_value(v)] for k, v in args["mapping"].items()],
               "key_col": args["key_col"], "value_col": args["value_col"]},
           lambda logged: {
               "mapping": {decode_value(k): decode_value(v) for k, v in logged["items"]},
               "key_col": logged["key_col"], "value_col": logged["value_col"]}),
    OpSpec("Select", TABLE, _T, IN_PLACE,
           lambda s, t, predicate, in_place: tables.select(t, predicate, in_place=in_place),
           _select_log, _select_args),
    OpSpec("Join", TABLE, _LR, ALWAYS,
           lambda s, left, right, left_on, right_on, kwargs: tables.join(
               left, right, left_on, right_on, **kwargs)),
    OpSpec("Project", TABLE, _T, DURABLE, lambda s, t, columns: tables.project(t, columns)),
    OpSpec("Rename", TABLE, _T, DURABLE, lambda s, t, mapping: tables.rename(t, mapping)),
    OpSpec("GroupBy", TABLE, _T, DURABLE,
           lambda s, t, keys, aggregations: tables.group_by(t, keys, aggregations)),
    OpSpec("OrderBy", TABLE, _T, IN_PLACE,
           lambda s, t, keys, ascending, in_place: tables.order_by(
               t, keys, ascending=ascending, in_place=in_place)),
    OpSpec("Union", TABLE, _LR, DURABLE,
           lambda s, left, right, distinct: tables.union(left, right, distinct=distinct)),
    OpSpec("Intersect", TABLE, _LR, DURABLE, lambda s, left, right: tables.intersect(left, right)),
    OpSpec("Minus", TABLE, _LR, DURABLE, lambda s, left, right: tables.minus(left, right)),
    OpSpec("SimJoin", TABLE, _LR, DURABLE,
           lambda s, left, right, on, threshold, kwargs: tables.sim_join(
               left, right, on, threshold, **kwargs)),
    OpSpec("NextK", TABLE, _T, DURABLE,
           lambda s, t, order_col, k, group_col: tables.next_k(
               t, order_col, k, group_col=group_col)),
    OpSpec("Distinct", TABLE, _T, DURABLE, lambda s, t, columns: tables.distinct(t, columns)),
    OpSpec("Limit", TABLE, _T, DURABLE, lambda s, t, count: tables.limit(t, count)),
    OpSpec("TopK", TABLE, _T, DURABLE,
           lambda s, t, column, k, ascending: tables.top_k(t, column, k, ascending=ascending)),
    OpSpec("ValueCounts", TABLE, _T, DURABLE,
           lambda s, t, column: tables.value_counts(t, column)),
    OpSpec("WithColumn", TABLE, _T, DURABLE,
           lambda s, t, name, expression, as_int: tables.with_column(
               t, name, expression, as_int=as_int)),
    OpSpec("Sample", TABLE, _T, DURABLE,
           lambda s, t, count, seed: tables.sample_rows(t, count, seed=seed)),
    OpSpec("ToGraph", GRAPH, _T, ALWAYS,
           lambda s, t, src_col, dst_col, directed: convert.to_graph(
               t, src_col, dst_col, directed=directed, pool=s.workers)),
    OpSpec("GetEdgeTable", TABLE, _G, DURABLE,
           lambda s, g: convert.to_edge_table(g, pool=s.workers, string_pool=s.pool)),
    OpSpec("GetNodeTable", TABLE, _G, DURABLE,
           lambda s, g, include_degrees: convert.to_node_table(
               g, include_degrees=include_degrees, pool=s.workers, string_pool=s.pool)),
    OpSpec("GenRMat", GRAPH, (), DURABLE,
           lambda s, scale, num_edges, seed, directed: alg.rmat(
               scale, num_edges, seed=seed, directed=directed)),
    OpSpec("GenPrefAttach", GRAPH, (), DURABLE,
           lambda s, num_nodes, edges_per_node, seed: alg.barabasi_albert(
               num_nodes, edges_per_node, seed=seed)),
    OpSpec("GenErdosRenyi", GRAPH, (), DURABLE,
           lambda s, num_nodes, num_edges, directed, seed: alg.erdos_renyi_gnm(
               num_nodes, num_edges, directed=directed, seed=seed)),
    OpSpec("GenPlantedPartition", GRAPH, (), DURABLE,
           lambda s, num_communities, community_size, p_in, p_out, seed:
               alg.planted_partition(num_communities, community_size, p_in, p_out, seed=seed)),
    OpSpec("GenConfigurationModel", GRAPH, (), DURABLE,
           lambda s, degrees, seed: alg.configuration_model(degrees, seed=seed)),
    OpSpec("Rewire", GRAPH, _G, DURABLE,
           lambda s, g, swaps, seed: alg.rewire(g, swaps=swaps, seed=seed)),
    # Crash replay and live streaming (Ringo.TailWal) share
    # apply_graph_ops, so a replayed graph's mutation log advances exactly
    # as the original's did. The ops are logged normalised.
    OpSpec("ApplyOps", GRAPH, _G, IN_PLACE,
           lambda s, g, ops: ingest.apply_graph_ops(g, ops),
           lambda args, inputs, summary: {
               "ops": [list(op) for op in ingest.validate_ops(args["ops"])]}),
    OpSpec("__adopt_table__", TABLE, (), DURABLE,
           lambda s, payload: decode_table_payload(payload, s.pool)),
    OpSpec("__adopt_graph__", GRAPH, (), DURABLE,
           lambda s, payload: decode_graph_payload(payload, s.workers)),
)}


def replay_record(session, record, resolved_inputs):
    """Re-execute one WAL record; returns the reconstructed object."""
    spec = OPS.get(record.op)
    if spec is None:
        raise ReplayError(record.lsn, record.op, "unknown operation in WAL")
    if len(resolved_inputs) < len(spec.inputs):
        raise ReplayError(
            record.lsn, record.op,
            f"record names {len(resolved_inputs)} input object(s), "
            f"the op takes {len(spec.inputs)}",
        )
    inputs = tuple(resolved_inputs[: len(spec.inputs)])
    result = spec.run(session, *inputs, **spec.run_args(record.args))
    return inputs[0] if record.mutates else result
