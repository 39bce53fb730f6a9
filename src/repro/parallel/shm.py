"""Zero-copy shared-memory export of immutable CSR snapshot arrays.

The process-pool backend (:mod:`repro.parallel.procpool`) runs kernels in
long-lived worker processes. Shipping a million-edge CSR to every worker
by pickle would cost O(E) serialisation per dispatch — the opposite of
the paper's "operations on large graphs complete at interactive speeds"
posture. Instead, each immutable snapshot's arrays are written **once**
into named :mod:`multiprocessing.shared_memory` segments and re-mapped
zero-copy by every worker that needs them:

* exports are keyed by the snapshot cache's ``(graph id, version)``
  identity (:func:`export_key`), so an export goes stale exactly when
  the cached snapshot does — no second invalidation protocol;
* segments are **reference-counted** around kernel dispatch: a cache
  eviction (or a dropped anonymous CSR) marks the export dead, and the
  actual ``unlink`` happens when the last in-flight dispatch releases
  it;
* every export passes the ``parallel.shm.export`` fault site, so tests
  can prove a failed export degrades cleanly to the thread backend;
* an :mod:`atexit` hook unlinks every surviving segment, and a
  ``weakref.finalize`` per exported CSR unlinks exports whose snapshot
  was garbage-collected without ever passing through the cache.

Worker processes attach with :func:`attach_arrays`; attachments are
cached per segment name (names are never reused, so the cache needs no
invalidation). Ownership is strictly parent-side: on 3.11 a plain
attach registers the segment with the resource tracker (bpo-39959), so
workers that own their tracker (spawn-started) unregister after
attaching — otherwise worker exit would tear parent-owned segments down
— while fork-started workers, which share the parent's tracker, leave
the parent's registration alone (see :func:`_should_untrack`).
"""

from __future__ import annotations

import atexit
import os
import threading
import weakref
from multiprocessing import shared_memory

import numpy as np

from repro.exceptions import ExecutionError
from repro.faults import fault_point
from repro.obs.metrics import registry as _metrics_registry
from repro.obs.spans import enabled as _tracing_enabled
from repro.obs.spans import event as _obs_event

SEGMENT_PREFIX = "ringo"

# Fixed export set most kernels need; derived arrays are added lazily
# per lease, so e.g. the forward adjacency is only materialised into
# shared memory for snapshots that actually run the triangle kernel.
_EXPORT_SEQ = 0


def _next_segment_name(array_name: str) -> str:
    """A process-unique segment name (never reused, so attach caches
    in workers need no invalidation protocol)."""
    global _EXPORT_SEQ
    _EXPORT_SEQ += 1
    short = array_name.replace("_", "")[:10]
    return f"{SEGMENT_PREFIX}-{os.getpid():x}-{_EXPORT_SEQ:x}-{short}"


def export_key(csr) -> tuple:
    """The registry identity of a snapshot's export.

    CSRs served by the versioned snapshot cache carry the cache's
    ``(graph id, version)`` stamp (set in
    :meth:`repro.graphs.snapshot.SnapshotCache.get`), so the export
    lifecycle piggybacks on snapshot invalidation. Anonymous CSRs
    (derived projections, hand-built snapshots) fall back to object
    identity and rely on the per-CSR finalizer for cleanup.
    """
    stamped = getattr(csr, "_snapshot_key", None)
    if stamped is not None:
        return ("snapshot",) + tuple(stamped)
    return ("csr", id(csr))


class _ArraySegment:
    """One exported array: its segment plus reconstruction metadata."""

    __slots__ = ("name", "shm", "shape", "dtype")

    def __init__(self, array: np.ndarray, array_name: str) -> None:
        self.name = _next_segment_name(array_name)
        self.shape = tuple(array.shape)
        self.dtype = array.dtype.str
        # A zero-length array still needs a mappable segment.
        self.shm = shared_memory.SharedMemory(
            name=self.name, create=True, size=max(1, array.nbytes)
        )
        if array.nbytes:
            view = np.ndarray(self.shape, dtype=self.dtype, buffer=self.shm.buf)
            view[...] = array

    def descriptor(self) -> tuple:
        """Picklable ``(segment name, shape, dtype)`` triple."""
        return (self.name, self.shape, self.dtype)

    def unlink(self) -> None:
        """Close the mapping and remove the segment from the system."""
        try:
            self.shm.close()
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class SnapshotExport:
    """All shared segments for one snapshot, reference-counted.

    ``refs`` counts in-flight process dispatches using the export;
    ``dead`` is set by cache eviction (or the CSR finalizer) and the
    segments are unlinked as soon as both conditions meet.
    """

    __slots__ = ("key", "segments", "refs", "dead")

    def __init__(self, key: tuple) -> None:
        self.key = key
        self.segments: dict[str, _ArraySegment] = {}
        self.refs = 0
        self.dead = False

    def descriptor(self, names) -> dict[str, tuple]:
        """Picklable descriptor for the named arrays."""
        return {name: self.segments[name].descriptor() for name in names}

    def nbytes(self) -> int:
        """Total bytes of shared memory held by this export."""
        return sum(seg.shm.size for seg in self.segments.values())

    def _unlink_all(self) -> None:
        for segment in self.segments.values():
            segment.unlink()
        self.segments.clear()


class ShmRegistry:
    """Process-wide table of live snapshot exports.

    The parent (dispatching) process owns every segment: workers only
    map them. ``lease``/``release`` bracket one process-backend
    dispatch; ``drop`` is the invalidation hook the snapshot cache (and
    CSR finalizers) call; ``drop_all`` is the interpreter-exit hook.
    """

    def __init__(self) -> None:
        # Reentrant: a CSR finalizer (``drop``) can fire on this thread
        # while it holds the lock, whenever an allocation inside
        # ``lease``/``drop_all`` lets the garbage collector free an
        # exported snapshot. A plain lock deadlocks the thread there.
        self._lock = threading.RLock()
        self._exports: dict[tuple, SnapshotExport] = {}
        self._exports_total = 0
        self._unlinked_total = 0
        self._export_bytes_total = 0

    # ------------------------------------------------------------------
    # Dispatch-side lifecycle
    # ------------------------------------------------------------------

    def lease(self, csr, arrays: "dict[str, np.ndarray]") -> tuple:
        """Ensure ``arrays`` are exported for ``csr``; pin and describe.

        Returns ``(export, descriptor)`` with the export's refcount
        already incremented — callers must pair with :meth:`release`.
        Raises :class:`~repro.exceptions.ExecutionError` (or the armed
        injected fault) if a segment cannot be created; a partial
        export is torn down before raising.
        """
        key = export_key(csr)
        with self._lock:
            export = self._exports.get(key)
            if export is None or export.dead:
                export = SnapshotExport(key)
                self._exports[key] = export
                self._exports_total += 1
                # Unlink even if the CSR is dropped without any cache
                # eviction ever firing (anonymous/projection snapshots).
                weakref.finalize(csr, self.drop, key)
            missing = [name for name in arrays if name not in export.segments]
            if missing:
                fault_point("parallel.shm.export")
                created: list[_ArraySegment] = []
                try:
                    for name in missing:
                        segment = _ArraySegment(arrays[name], name)
                        created.append(segment)
                        self._export_bytes_total += segment.shm.size
                except Exception as error:
                    for segment in created:
                        segment.unlink()
                    if isinstance(error, ExecutionError):
                        raise
                    raise ExecutionError(
                        f"shared-memory export failed: {error}"
                    ) from error
                for name, segment in zip(missing, created):
                    export.segments[name] = segment
                if _tracing_enabled():
                    _metrics_registry().counter("shm.exports_total").inc(len(created))
                    _obs_event(
                        "shm.export",
                        arrays=len(created),
                        bytes=sum(seg.shm.size for seg in created),
                    )
            export.refs += 1
            return export, export.descriptor(arrays.keys())

    def release(self, export: SnapshotExport) -> None:
        """Unpin one dispatch; unlink a dead export once idle."""
        with self._lock:
            export.refs -= 1
            if export.dead and export.refs <= 0:
                self._unlink_entry(export)

    # ------------------------------------------------------------------
    # Invalidation hooks
    # ------------------------------------------------------------------

    def drop(self, key: tuple) -> bool:
        """Invalidate one export (cache eviction / CSR collected).

        Busy exports are marked dead and unlinked by the last
        :meth:`release`; idle ones are unlinked immediately. Returns
        whether an export was present.
        """
        with self._lock:
            export = self._exports.get(key)
            if export is None:
                return False
            export.dead = True
            if export.refs <= 0:
                self._unlink_entry(export)
            return True

    def drop_for_csr(self, csr) -> None:
        """Invalidate the export of ``csr`` and of its cached projection."""
        self.drop(export_key(csr))
        projection = getattr(csr, "_undirected", None)
        if projection is not None:
            self.drop(export_key(projection))

    def drop_all(self) -> None:
        """Unlink every surviving segment (interpreter-exit hook)."""
        with self._lock:
            for export in list(self._exports.values()):
                export.dead = True
                self._unlink_entry(export)

    def _unlink_entry(self, export: SnapshotExport) -> None:
        # Caller holds the lock.
        if export.segments:
            self._unlinked_total += 1
            export._unlink_all()
        self._exports.pop(export.key, None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Counter snapshot for ``Ringo.health()["parallel"]["shm"]``."""
        with self._lock:
            live = [e for e in self._exports.values() if e.segments]
            return {
                "live_exports": len(live),
                "live_segments": sum(len(e.segments) for e in live),
                "live_bytes": sum(e.nbytes() for e in live),
                "exports_total": self._exports_total,
                "unlinked_total": self._unlinked_total,
                "export_bytes_total": self._export_bytes_total,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._exports)


_REGISTRY = ShmRegistry()
atexit.register(_REGISTRY.drop_all)


def shm_registry() -> ShmRegistry:
    """The process-wide export registry (what the process backend uses)."""
    return _REGISTRY


def notify_snapshot_dropped(csr) -> None:
    """Snapshot-cache eviction hook: invalidate the CSR's exports.

    Called (lazily, to keep :mod:`repro.graphs.snapshot` import-light)
    whenever the cache evicts, replaces, or loses a snapshot — the
    export must not outlive the snapshot identity it was keyed by.
    """
    _REGISTRY.drop_for_csr(csr)


def leaked_segments() -> list[str]:
    """Names of this package's segments still present in ``/dev/shm``.

    Linux-only diagnostic used by the leak tests and the multicore
    benchmark gate; returns an empty list where ``/dev/shm`` does not
    exist (the lifecycle still holds, it just cannot be observed this
    way).
    """
    root = "/dev/shm"
    if not os.path.isdir(root):  # pragma: no cover - non-Linux
        return []
    return sorted(
        entry for entry in os.listdir(root)
        if entry.startswith(f"{SEGMENT_PREFIX}-")
    )


# ----------------------------------------------------------------------
# Worker-side attachment
# ----------------------------------------------------------------------

_ATTACH_CACHE: "dict[str, tuple[shared_memory.SharedMemory, np.ndarray]]" = {}
_ATTACH_CACHE_CAP = 64
_UNTRACK_ON_ATTACH: "bool | None" = None


def _should_untrack() -> bool:
    # On 3.11 a plain attach registers the segment with the resource
    # tracker (bpo-39959). Whether that must be undone depends on how
    # this process came to be: a fork-started worker inherits the
    # parent's tracker connection, so its registrations land in the
    # shared cache the parent balances with unlink — unregistering here
    # would corrupt that accounting. A spawn-started worker (or a fork
    # before the parent ever created a segment) has no inherited
    # connection; its attach spawns a worker-owned tracker that would
    # unlink parent-owned segments at worker exit, so there we must
    # unregister. Decided once, before the first attach spins a tracker
    # up.
    global _UNTRACK_ON_ATTACH
    if _UNTRACK_ON_ATTACH is None:
        try:
            from multiprocessing import resource_tracker

            _UNTRACK_ON_ATTACH = resource_tracker._resource_tracker._fd is None
        except Exception:  # pragma: no cover - tracker internals moved
            _UNTRACK_ON_ATTACH = False
    return _UNTRACK_ON_ATTACH


def _untrack(shm: shared_memory.SharedMemory) -> None:
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    # Tracker internals are CPython-private; a failure here must never
    # break attach.  # ringo-lint: disable=R011
    except Exception:  # pragma: no cover - tracker internals moved
        pass


def attach_arrays(descriptor: "dict[str, tuple]") -> "dict[str, np.ndarray]":
    """Map a descriptor's segments as read-only numpy views (zero-copy).

    Worker-process side of the export protocol. Attachments are cached
    by segment name — names are never reused, so a cached mapping can
    never be stale — and capped; evicted attachments close their local
    mapping only (the parent owns unlinking).
    """
    untrack = _should_untrack()
    arrays: dict[str, np.ndarray] = {}
    for array_name, (segment_name, shape, dtype) in descriptor.items():
        cached = _ATTACH_CACHE.get(segment_name)
        if cached is None:
            shm = shared_memory.SharedMemory(name=segment_name)
            if untrack:
                _untrack(shm)
            view = np.ndarray(tuple(shape), dtype=dtype, buffer=shm.buf)
            view.flags.writeable = False
            if len(_ATTACH_CACHE) >= _ATTACH_CACHE_CAP:
                _, (old_shm, _) = _ATTACH_CACHE.popitem()
                old_shm.close()
            _ATTACH_CACHE[segment_name] = cached = (shm, view)
        arrays[array_name] = cached[1]
    return arrays
