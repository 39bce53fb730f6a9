"""Tests for repro.parallel.shm: export lifecycle and leak-freedom.

The hard property under test: no shared-memory segment outlives the
snapshot identity it was exported for — across cache eviction,
invalidation, garbage collection, worker crashes, and interpreter exit.
"""

import gc
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.exceptions import ExecutionError
from repro.faults import inject_faults
from repro.graphs.snapshot import csr_snapshot, snapshot_cache
from repro.parallel import shm
from repro.parallel.shm import (
    ShmRegistry,
    attach_arrays,
    export_key,
    leaked_segments,
    shm_registry,
)
from tests.helpers import build_directed

EDGES = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_fresh_interpreter(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path
        for path in (
            os.path.join(_REPO_ROOT, "src"),
            _REPO_ROOT,
            env.get("PYTHONPATH", ""),
        )
        if path
    )
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=_REPO_ROOT,
        env=env,
    )


def _arrays(csr):
    return {"out_indptr": csr.out_indptr, "out_indices": csr.out_indices}


@pytest.fixture(autouse=True)
def _no_leaks_and_clean_registry():
    """Every test starts and ends with an empty registry and shm dir."""
    shm_registry().drop_all()
    yield
    shm_registry().drop_all()
    assert leaked_segments() == []


class TestExportKey:
    def test_cached_snapshot_keyed_by_graph_version(self):
        graph = build_directed(EDGES)
        csr = csr_snapshot(graph)
        kind, *_ = export_key(csr)
        assert kind == "snapshot"
        # Warm repeat: same snapshot object, same identity.
        assert export_key(csr_snapshot(graph)) == export_key(csr)

    def test_anonymous_csr_keyed_by_object_identity(self):
        graph = build_directed(EDGES)
        projection = csr_snapshot(graph).undirected_projection()
        assert export_key(projection)[0] in ("snapshot", "csr")
        assert export_key(projection) != export_key(csr_snapshot(graph))


class TestLeaseRelease:
    def test_lease_reuses_segments_and_counts_refs(self):
        registry = ShmRegistry()
        csr = csr_snapshot(build_directed(EDGES))
        export_a, desc_a = registry.lease(csr, _arrays(csr))
        export_b, desc_b = registry.lease(csr, _arrays(csr))
        assert export_a is export_b
        assert export_a.refs == 2
        assert desc_a == desc_b
        registry.release(export_a)
        registry.release(export_b)
        assert export_a.refs == 0
        registry.drop_all()

    def test_finalizer_firing_inside_lease_does_not_deadlock(self):
        # An exported CSR freed while ``lease`` holds the registry lock
        # runs its finalizer (``drop``) on the leasing thread. Run in a
        # fresh interpreter, so a deadlock ends in os._exit (atexit
        # finalizers would block on the held lock) and the stdlib's
        # resource tracker sweeps the stranded segment.
        script = (
            "import os, threading\n"
            "from repro.graphs.csr import CSRGraph\n"
            "from repro.parallel import shm\n"
            "registry = shm.ShmRegistry()\n"
            "def arrays(csr):\n"
            "    return {'out_indptr': csr.out_indptr}\n"
            "doomed = [CSRGraph.from_edges([0, 1], [1, 2])]\n"
            "registry.release(registry.lease(doomed[0], arrays(doomed[0]))[0])\n"
            "real_segment = shm._ArraySegment\n"
            "def segment(array, name):\n"
            "    doomed.clear()  # its finalizer runs here, under the lock\n"
            "    return real_segment(array, name)\n"
            "shm._ArraySegment = segment\n"
            "csr = CSRGraph.from_edges([0, 1, 2], [1, 2, 0])\n"
            "def lease():\n"
            "    registry.release(registry.lease(csr, arrays(csr))[0])\n"
            "worker = threading.Thread(target=lease, daemon=True)\n"
            "worker.start()\n"
            "worker.join(timeout=10)\n"
            "if worker.is_alive():\n"
            "    print('deadlocked', flush=True)\n"
            "    os._exit(1)\n"
            "assert registry.stats()['live_exports'] == 1\n"
            "registry.drop_all()\n"
            "print('leased')\n"
        )
        result = _run_fresh_interpreter(script)
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.strip() == "leased"
        assert leaked_segments() == []

    def test_attached_views_are_readonly_and_equal(self):
        registry = shm_registry()
        csr = csr_snapshot(build_directed(EDGES))
        export, descriptor = registry.lease(csr, _arrays(csr))
        try:
            views = attach_arrays(descriptor)
            assert np.array_equal(views["out_indptr"], csr.out_indptr)
            assert np.array_equal(views["out_indices"], csr.out_indices)
            with pytest.raises(ValueError):
                views["out_indptr"][0] = 99
        finally:
            registry.release(export)

    def test_drop_while_busy_defers_unlink_to_last_release(self):
        registry = shm_registry()
        csr = csr_snapshot(build_directed(EDGES))
        export, _ = registry.lease(csr, _arrays(csr))
        assert leaked_segments() != []
        registry.drop(export_key(csr))
        # Still pinned by the in-flight dispatch: segments survive.
        assert export.dead
        assert export.segments
        registry.release(export)
        assert not export.segments
        assert leaked_segments() == []

    def test_export_fault_site_degrades_with_no_partial_segments(self):
        registry = shm_registry()
        csr = csr_snapshot(build_directed(EDGES))
        with inject_faults({"parallel.shm.export": 1.0}):
            with pytest.raises(ExecutionError):
                registry.lease(csr, _arrays(csr))
        assert leaked_segments() == []

    def test_stats_track_live_and_lifetime_counters(self):
        registry = ShmRegistry()
        csr = csr_snapshot(build_directed(EDGES))
        export, _ = registry.lease(csr, _arrays(csr))
        stats = registry.stats()
        assert stats["live_exports"] == 1
        assert stats["live_segments"] == 2
        assert stats["live_bytes"] > 0
        registry.release(export)
        registry.drop_all()
        stats = registry.stats()
        assert stats["live_exports"] == 0
        assert stats["exports_total"] == 1
        assert stats["unlinked_total"] == 1


class TestSnapshotCacheIntegration:
    def test_graph_mutation_drops_stale_export(self):
        graph = build_directed(EDGES)
        csr = csr_snapshot(graph)
        export, _ = shm_registry().lease(csr, _arrays(csr))
        shm_registry().release(export)
        assert leaked_segments() != []
        graph.add_edge(4, 0)
        csr_snapshot(graph)  # replaces the stale cache entry
        assert leaked_segments() == []

    def test_cache_invalidate_drops_export(self):
        graph = build_directed(EDGES)
        csr = csr_snapshot(graph)
        export, _ = shm_registry().lease(csr, _arrays(csr))
        shm_registry().release(export)
        snapshot_cache().invalidate(graph)
        assert leaked_segments() == []

    def test_cache_clear_drops_all_exports(self):
        graphs = [build_directed(EDGES), build_directed(EDGES[:3])]
        for graph in graphs:
            csr = csr_snapshot(graph)
            export, _ = shm_registry().lease(csr, _arrays(csr))
            shm_registry().release(export)
        assert len(leaked_segments()) == 4
        snapshot_cache().clear()
        assert leaked_segments() == []

    def test_collected_anonymous_csr_finalizer_unlinks(self):
        from repro.graphs.csr import CSRGraph

        # An anonymous CSR never enters the cache, so only its weakref
        # finalizer stands between a collection and a leaked segment.
        csr = CSRGraph.from_graph(build_directed(EDGES))
        export, _ = shm_registry().lease(csr, _arrays(csr))
        shm_registry().release(export)
        assert leaked_segments() != []
        del export, csr
        gc.collect()
        assert leaked_segments() == []


class TestInterpreterExit:
    def test_atexit_unlinks_surviving_segments(self):
        # A fresh interpreter that exports and exits without any cleanup
        # must leave /dev/shm empty — the atexit hook owns the sweep.
        script = (
            "import sys\n"
            "from tests.helpers import build_directed\n"
            "from repro.graphs.snapshot import csr_snapshot\n"
            "from repro.parallel.shm import leaked_segments, shm_registry\n"
            "csr = csr_snapshot(build_directed([(0, 1), (1, 2), (2, 0)]))\n"
            "shm_registry().lease(\n"
            "    csr, {'out_indptr': csr.out_indptr, 'out_indices': csr.out_indices}\n"
            ")\n"
            "assert leaked_segments() != []\n"
            "sys.stdout.write('exported')\n"
        )
        result = _run_fresh_interpreter(script)
        assert result.returncode == 0, result.stderr
        assert "exported" in result.stdout
        assert leaked_segments() == []

    def test_leak_detector_actually_detects(self):
        # Control: leaked_segments() must see a segment that bypasses
        # the registry entirely, or the clean-exit assertions above are
        # vacuous. (A child process leak is swept by the stdlib's
        # resource tracker, so the control plants the file directly.)
        name = "ringo-deadbeef-control"
        path = f"/dev/shm/{name}"
        with open(path, "wb") as handle:
            handle.write(b"\0")
        try:
            assert name in leaked_segments()
        finally:
            os.unlink(path)
        assert name not in leaked_segments()
