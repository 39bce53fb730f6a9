"""Process-pool kernel execution over shared-memory CSR exports.

The thread pool in :mod:`repro.parallel.executor` is the right substrate
for numpy-bound kernels (they release the GIL), but any kernel with real
Python-level work serializes on one core. This module supplies the other
half of the paper's §2.5 story — actual multi-core execution — while
keeping the pool's hardened semantics:

* kernels run in **long-lived worker processes** (one
  ``ProcessPoolExecutor`` reused across dispatches, fork-started where
  available so workers inherit the import state instead of re-importing
  per call);
* CSR inputs arrive via the **zero-copy** shared-memory exports of
  :mod:`repro.parallel.shm` — a dispatch pickles only the segment
  descriptor, the span bounds, and any small per-call extras;
* **deadlines** (:class:`~repro.exceptions.WorkerTimeoutError` on
  expiry, pending partitions cancelled), **first-error cancellation**,
  and **worker-side retries** under the shared picklable
  :class:`~repro.parallel.resilience.RetryPolicy` all match the thread
  pool's contract;
* a dead worker (SIGKILL, OOM) surfaces as
  :class:`~repro.exceptions.WorkerCrashedError`; the pool rebuilds its
  executor and, after ``degrade_after`` consecutive crashes, marks
  itself degraded so the dispatcher stops routing work to processes.

Kernels dispatched here must be **module-level functions** of signature
``fn(arrays, lo, hi, *extra)`` returning a picklable per-partition
result — lint rule R007 enforces exactly this at call sites.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
from concurrent.futures import FIRST_EXCEPTION, wait
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

from repro.exceptions import (
    ExecutionError,
    PoolClosedError,
    TransientError,
    WorkerCrashedError,
    WorkerTimeoutError,
)
from repro.faults import InjectedFaultError, active_plan, fault_point
from repro.obs.metrics import registry as _metrics_registry
from repro.obs.spans import enabled as _tracing_enabled
from repro.obs.spans import trace
from repro.parallel.resilience import PoolStats, RetryPolicy, run_with_retry
from repro.parallel.shm import attach_arrays

_MP_CONTEXT_ENV = "REPRO_MP_CONTEXT"

# Array name -> builder over a CSRGraph. The dispatcher materialises
# exactly the arrays a kernel declares, so e.g. the forward adjacency is
# only exported for snapshots that actually run the triangle kernel.
ARRAY_PROVIDERS = {
    "node_ids": lambda csr: csr.node_ids,
    "out_indptr": lambda csr: csr.out_indptr,
    "out_indices": lambda csr: csr.out_indices,
    "in_indptr": lambda csr: csr.in_indptr,
    "in_indices": lambda csr: csr.in_indices,
    "out_degrees": lambda csr: csr.out_degrees(),
    "in_degrees": lambda csr: csr.in_degrees(),
    "edge_sources": lambda csr: csr.edge_sources(),
    "forward_indices": lambda csr: csr.forward_adjacency().indices,
    "forward_edge_keys": lambda csr: csr.forward_adjacency().keys,
    "forward_sources": lambda csr: csr.forward_adjacency().sources,
    "forward_wedge_prefix": lambda csr: csr.forward_adjacency().wedge_prefix,
}


def build_arrays(csr, names) -> dict:
    """Materialise the named provider arrays for one CSR snapshot.

    Shared by both backends: the thread path hands the dict straight to
    the kernel, the process path exports it to shared memory — same
    inputs either way, which is what makes threads-vs-processes digest
    equality a testable property.
    """
    try:
        return {name: ARRAY_PROVIDERS[name](csr) for name in names}
    except KeyError as error:
        raise ExecutionError(
            f"unknown kernel array {error.args[0]!r}; known: "
            f"{', '.join(sorted(ARRAY_PROVIDERS))}"
        ) from None


def _safe_exception(error: BaseException) -> BaseException:
    """An exception equivalent to ``error`` that survives pickling.

    Multi-argument exception classes (``InjectedFaultError``,
    ``RetryExhaustedError``…) break the default ``__reduce__`` on the
    way back to the parent, which would poison the whole executor.
    Retryability is preserved so the parent still classifies correctly.
    """
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        message = f"{type(error).__name__}: {error}"
        if isinstance(error, TransientError):
            return TransientError(message)
        return ExecutionError(message)


def _warm() -> int:
    """No-op worker task: forces the executor to actually spawn a worker."""
    return os.getpid()


def _proc_worker_run(task: tuple) -> tuple:
    """Worker-process entry point: attach, run (with retries), report.

    ``task`` is ``(fn, descriptor, lo, hi, extra, policy)``. Returns
    ``(result, kernel_seconds, retries)`` so the parent can feed the
    crossover model; failures raise a pickle-safe exception.
    """
    fn, descriptor, lo, hi, extra, policy = task
    retries = [0]

    def count_retry(attempt, error) -> None:
        retries[0] += 1

    try:
        arrays = attach_arrays(descriptor)
        start = time.perf_counter()
        if policy is None:
            result = fn(arrays, lo, hi, *extra)
        else:
            result = run_with_retry(
                lambda: fn(arrays, lo, hi, *extra), policy, on_retry=count_retry
            )
        return (result, time.perf_counter() - start, retries[0])
    except BaseException as error:
        raise _safe_exception(error) from None


def _preferred_context_name() -> str:
    """Start method for worker processes: env override, else fork.

    Fork keeps dispatch latency low (no per-worker re-import of numpy
    and the package); platforms without it fall back to spawn.
    """
    import multiprocessing

    override = os.environ.get(_MP_CONTEXT_ENV)
    if override:
        return override
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"  # pragma: no cover - non-Linux


class ProcessPool:
    """Long-lived process executor with the thread pool's semantics.

    The executor is created lazily (a session that never crosses the
    process threshold never forks) and rebuilt after a crash. ``stats``
    mirrors :class:`~repro.parallel.resilience.PoolStats` so
    ``Ringo.health()`` reports both backends uniformly.
    """

    def __init__(
        self,
        workers: "int | None" = None,
        retry_policy: "RetryPolicy | None" = None,
        degrade_after: "int | None" = 3,
        context: "str | None" = None,
    ) -> None:
        from repro.parallel.executor import effective_worker_count

        self.workers = effective_worker_count(workers)
        self.retry_policy = retry_policy
        self.degrade_after = degrade_after
        self.stats = PoolStats()
        self.crashes = 0
        self._context_name = context or _preferred_context_name()
        self._lock = threading.Lock()
        self._executor: "ProcessPoolExecutor | None" = None
        self._closed = False
        self._crash_streak = 0

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def degraded(self) -> bool:
        """Whether repeated worker crashes retired the process backend."""
        return self.stats.degraded

    def close(self) -> None:
        """Shut down worker processes (idempotent)."""
        with self._lock:
            self._closed = True
            if self._executor is not None:
                self._executor.shutdown(wait=True, cancel_futures=True)
                self._executor = None

    def _ensure_executor(self) -> ProcessPoolExecutor:
        import multiprocessing

        with self._lock:
            if self._closed:
                raise PoolClosedError(self.workers)
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context(self._context_name),
                )
            return self._executor

    def _discard_executor(self) -> None:
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None

    def _maybe_crash_worker(self, executor: ProcessPoolExecutor) -> None:
        # The ``parallel.proc.worker_crash`` site does not raise — a
        # firing SIGKILLs a live worker so tests exercise the *real*
        # broken-pool recovery path, not a simulation of it.
        plan = active_plan()
        if plan is None:
            return
        try:
            plan.check("parallel.proc.worker_crash")
        except InjectedFaultError:
            # Workers spawn lazily on first submit; make sure one exists
            # before aiming at it.
            victim = executor.submit(_warm).result()
            os.kill(victim, signal.SIGKILL)

    def run(
        self,
        fn,
        descriptor: dict,
        spans,
        extra: tuple = (),
        timeout: "float | None" = None,
        retry: "RetryPolicy | None" = None,
    ) -> "tuple[list, float]":
        """Run ``fn(arrays, lo, hi, *extra)`` over ``spans`` in workers.

        Returns ``(results_in_span_order, total_kernel_seconds)``; the
        seconds aggregate feeds the adaptive crossover. Raises
        :class:`WorkerTimeoutError` on deadline expiry,
        :class:`WorkerCrashedError` when the pool breaks, or the
        kernel's (pickle-safe) error with pending siblings cancelled.
        """
        if self._closed:
            raise PoolClosedError(self.workers)
        fault_point("parallel.proc.dispatch")
        executor = self._ensure_executor()
        self._maybe_crash_worker(executor)
        self.stats.record_call()
        policy = retry if retry is not None else self.retry_policy
        tasks = [(fn, descriptor, lo, hi, tuple(extra), policy) for lo, hi in spans]
        if _tracing_enabled():
            _metrics_registry().counter("procpool.dispatches_total").inc(len(tasks))
        with trace("procpool.dispatch", partitions=len(tasks)):
            try:
                futures = [executor.submit(_proc_worker_run, t) for t in tasks]
                done, not_done = wait(
                    futures, timeout=timeout, return_when=FIRST_EXCEPTION
                )
                failed = next(
                    (f for f in futures if f in done and f.exception() is not None),
                    None,
                )
                if failed is not None:
                    cancelled = sum(1 for future in not_done if future.cancel())
                    error = failed.exception()
                    if isinstance(error, BrokenProcessPool):
                        raise error
                    self.stats.record_failure(cancelled=cancelled)
                    raise error
                if not_done:
                    cancelled = sum(1 for future in not_done if future.cancel())
                    self.stats.record_timeout(cancelled=cancelled)
                    assert timeout is not None
                    raise WorkerTimeoutError(
                        timeout, pending=len(not_done), cancelled=cancelled
                    )
            except BrokenProcessPool as error:
                self._note_crash()
                raise WorkerCrashedError(
                    f"process pool worker died mid-kernel: {error}"
                ) from error
        self._crash_streak = 0
        results = []
        kernel_seconds = 0.0
        for future in futures:
            result, seconds, retries = future.result()
            results.append(result)
            kernel_seconds += seconds
            for _ in range(retries):
                self.stats.record_retry(0, None)
        return results, kernel_seconds

    def _note_crash(self) -> None:
        self.crashes += 1
        self.stats.record_failure(cancelled=0)
        self._discard_executor()
        if self.degrade_after is None:
            return
        self._crash_streak += 1
        if self._crash_streak >= self.degrade_after and not self.stats.degraded:
            self.stats.mark_degraded()

    def snapshot(self) -> dict:
        """Plain-dict state for ``Ringo.health()["parallel"]``."""
        state = self.stats.snapshot()
        state["workers"] = self.workers
        state["context"] = self._context_name
        state["crashes"] = self.crashes
        state["live"] = self._executor is not None
        return state
