"""Session lifecycle through the service: eviction, revival, isolation.

The satellite-3 contract lives here: an evicted-then-revived session
must be :func:`~repro.recovery.digest.catalog_digest`-identical to a
never-evicted reference session that ran the same operations — including
when checkpoints fail under fault injection (the WAL still covers the
committed state).
"""

import asyncio
import logging
import socket

import pytest

from repro.core.engine import Ringo
from repro.faults import inject_faults
from repro.recovery.digest import catalog_digest
from repro.service import ServiceConfig, ServiceHandle

SCHEMA = [["src", "int"], ["dst", "int"]]


@pytest.fixture
def edges_tsv(tmp_path):
    path = tmp_path / "edges.tsv"
    with open(path, "w") as fh:
        for i in range(50):
            fh.write(f"{i}\t{(i * 7 + 3) % 50}\n")
    return str(path)


@pytest.fixture
def handle(tmp_path):
    config = ServiceConfig(
        spool_dir=str(tmp_path / "spool"),
        global_budget_bytes=256 << 20,
        default_tenant_budget_bytes=64 << 20,
        idle_evict_s=3600.0,  # lifecycle tests evict explicitly
    )
    with ServiceHandle(config) as running:
        yield running


def build_workload(handle, tenant, edges_tsv):
    """The canonical tenant workload: load → graph → pagerank."""
    table = handle.call(tenant, "LoadTableTSV", path=edges_tsv, schema=SCHEMA)
    graph = handle.call(
        tenant, "ToGraph", table={"$ref": table["$ref"]},
        src_col="src", dst_col="dst",
    )
    handle.call(tenant, "GetPageRank", graph={"$ref": graph["$ref"]})
    return table, graph


def reference_digest(tmp_path, edges_tsv):
    """The same workload in a plain durable session, never evicted."""
    with Ringo(workers=1, durability=tmp_path / "reference") as ringo:
        table = ringo.LoadTableTSV(SCHEMA, edges_tsv)
        graph = ringo.ToGraph(table, "src", "dst")
        ringo.GetPageRank(graph)
        return catalog_digest(ringo)


def force_evict(handle, tenant):
    """Drive one eviction from the test thread; returns success."""
    manager = handle.service.manager
    record = manager.tenants[tenant]
    future = asyncio.run_coroutine_threadsafe(
        manager.evict(record), handle._loop
    )
    return future.result(30.0)


def tenant_health(handle, tenant):
    return handle.health()["service"]["tenants"][tenant]


def test_evict_then_revive_preserves_catalog_digest(handle, tmp_path, edges_tsv):
    build_workload(handle, "alice", edges_tsv)
    before = handle.call("alice", "digest")

    assert force_evict(handle, "alice") is True
    entry = tenant_health(handle, "alice")
    assert entry["resident"] is False
    assert entry["evictions"] == 1
    assert handle.health()["service"]["ledger"]["charged_bytes"] == 0

    # The next request lazily revives the session from its checkpoint.
    after = handle.call("alice", "digest")
    assert after == before
    assert after == reference_digest(tmp_path, edges_tsv)
    entry = tenant_health(handle, "alice")
    assert entry["resident"] is True
    assert entry["revivals"] == 1


def test_revived_session_keeps_working_and_numbering(handle, edges_tsv):
    table, _ = build_workload(handle, "alice", edges_tsv)
    assert force_evict(handle, "alice")
    # Post-revival derivations extend the same catalog namespace.
    filtered = handle.call(
        "alice", "Select", table={"$ref": table["$ref"]}, predicate="src<10"
    )
    assert filtered["rows"] == 10
    names = handle.call("alice", "objects")
    assert table["$ref"] in names and filtered["$ref"] in names


def test_eviction_survives_checkpoint_write_fault(handle, tmp_path, edges_tsv):
    build_workload(handle, "alice", edges_tsv)
    before = handle.call("alice", "digest")

    with inject_faults({"recovery.checkpoint.write": 1.0}, seed=11):
        assert force_evict(handle, "alice") is False
    entry = tenant_health(handle, "alice")
    assert entry["resident"] is True  # aborted cleanly, still usable
    assert entry["eviction_failures"] == 1

    # Disarmed, the retry succeeds and the round trip still matches.
    assert force_evict(handle, "alice") is True
    assert handle.call("alice", "digest") == before
    assert handle.call("alice", "digest") == reference_digest(tmp_path, edges_tsv)


def test_eviction_survives_service_evict_fault(handle, edges_tsv):
    build_workload(handle, "alice", edges_tsv)
    with inject_faults({"service.evict": 1.0}, seed=3):
        assert force_evict(handle, "alice") is False
    assert tenant_health(handle, "alice")["resident"] is True
    assert force_evict(handle, "alice") is True


def test_dispatch_fault_degrades_only_the_faulted_request(handle, edges_tsv):
    build_workload(handle, "alice", edges_tsv)
    build_workload(handle, "bob", edges_tsv)
    bob_digest = handle.call("bob", "digest")

    # A non-retryable fault fires exactly once: the request that drew it
    # fails typed; the tenant, the other tenant, and the server all live.
    with inject_faults(
        {"service.dispatch": {"rate": 1.0, "error": RuntimeError,
                              "max_triggers": 1}}, seed=5,
    ) as plan:
        envelope = handle.submit(
            {"id": 99, "tenant": "alice", "op": "digest", "args": {}}
        )
        assert envelope["ok"] is False
        assert envelope["error"]["type"] == "RuntimeError"
        assert envelope["error"]["retryable"] is False
    assert plan.triggered["service.dispatch"] == 1

    assert handle.call("alice", "ping") == "pong"
    assert handle.call("bob", "digest") == bob_digest
    assert tenant_health(handle, "alice")["failed"] == 1


def test_transient_dispatch_fault_is_absorbed_by_retry(handle, edges_tsv):
    build_workload(handle, "alice", edges_tsv)
    before = handle.call("alice", "digest")
    # InjectedFaultError is transient; the dispatcher's shared
    # RetryPolicy re-attempts and the request still succeeds.
    with inject_faults(
        {"service.dispatch": {"rate": 1.0, "max_triggers": 2}}, seed=7
    ) as plan:
        assert handle.call("alice", "digest") == before
    assert plan.triggered["service.dispatch"] == 2
    assert tenant_health(handle, "alice")["retries"] >= 2


def test_accept_fault_is_a_retryable_typed_response(handle):
    with inject_faults(
        {"service.accept": {"rate": 1.0, "max_triggers": 1}}, seed=2
    ):
        envelope = handle.submit(
            {"id": 1, "tenant": "alice", "op": "ping", "args": {}}
        )
        assert envelope["ok"] is False
        assert envelope["error"]["type"] == "InjectedFaultError"
        assert envelope["error"]["retryable"] is True
        # The very next accept succeeds: the loop never died.
        assert handle.call("alice", "ping") == "pong"


def test_admission_rejection_is_typed_and_isolated(tmp_path, edges_tsv):
    config = ServiceConfig(
        spool_dir=str(tmp_path / "spool"),
        global_budget_bytes=64 << 20,
        default_tenant_budget_bytes=32 << 20,
        idle_evict_s=3600.0,
    )
    with ServiceHandle(config) as handle:
        # A budget larger than the whole ledger can never be admitted.
        handle.call("greedy", "open", budget_bytes=128 << 20)
        envelope = handle.submit(
            {"id": 1, "tenant": "greedy", "op": "objects", "args": {}}
        )
        assert envelope["ok"] is False
        assert envelope["error"]["type"] == "AdmissionRejected"
        assert envelope["error"]["retryable"] is False
        # A reasonable tenant is admitted alongside the rejection.
        build_workload(handle, "modest", edges_tsv)
        assert tenant_health(handle, "modest")["resident"] is True


def test_admission_pressure_evicts_idle_sessions_lru(tmp_path, edges_tsv):
    config = ServiceConfig(
        spool_dir=str(tmp_path / "spool"),
        global_budget_bytes=80 << 20,
        default_tenant_budget_bytes=32 << 20,
        idle_evict_s=3600.0,
    )
    with ServiceHandle(config) as handle:
        build_workload(handle, "first", edges_tsv)
        build_workload(handle, "second", edges_tsv)
        # Both resident (64 MiB of 80); a third tenant does not fit
        # until the least-recently-active one is evicted for it.
        handle.call("third", "objects")
        health = handle.health()["service"]
        assert health["tenants"]["first"]["resident"] is False
        assert health["tenants"]["first"]["evictions"] == 1
        assert health["tenants"]["second"]["resident"] is True
        assert health["tenants"]["third"]["resident"] is True
        # The displaced tenant still answers (revives on demand).
        assert "table-1" in handle.call("first", "objects")


def test_idle_sessions_are_swept_to_checkpoint(tmp_path, edges_tsv):
    import time

    config = ServiceConfig(
        spool_dir=str(tmp_path / "spool"),
        idle_evict_s=0.2,
        tick_s=0.05,
    )
    with ServiceHandle(config) as handle:
        build_workload(handle, "alice", edges_tsv)
        before = handle.call("alice", "digest")
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if not tenant_health(handle, "alice")["resident"]:
                break
            time.sleep(0.05)
        assert tenant_health(handle, "alice")["resident"] is False
        # Still serving: revival is lazy and invisible to the client.
        assert handle.call("alice", "digest") == before


def test_drain_checkpoints_dirty_sessions(tmp_path, edges_tsv):
    spool = tmp_path / "spool"
    config = ServiceConfig(spool_dir=str(spool), idle_evict_s=3600.0)
    handle = ServiceHandle(config).start()
    try:
        build_workload(handle, "alice", edges_tsv)
        before = handle.call("alice", "digest")
    finally:
        report = handle.stop()
    assert report["checkpointed"] == 1
    assert report["checkpoint_failures"] == 0
    # The spool alone reconstructs the session bit-for-bit.
    with Ringo.recover(spool / "alice", workers=1) as revived:
        assert catalog_digest(revived) == before


def test_stop_with_idle_connection_logs_nothing(tmp_path, caplog):
    # An idle client's handler sits in readline(); stopping must close
    # it cleanly rather than cancel it, which the loop reports through
    # its exception handler (logged on the "asyncio" logger).
    handle = ServiceHandle(ServiceConfig(spool_dir=str(tmp_path / "spool"))).start()
    idle = socket.create_connection(handle.address)
    try:
        # One answered request: the handler is now back in readline().
        idle.sendall(b'{"id": 1, "tenant": "t1", "op": "ping"}\n')
        assert b"pong" in idle.recv(4096)
        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            handle.stop()
        assert idle.recv(1) == b""  # the server closed the connection
    finally:
        idle.close()
    assert [r for r in caplog.records if r.name == "asyncio"] == []
