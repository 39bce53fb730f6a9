"""Run one benchmark workload; print its metrics as the last stdout line.

    python3 perfbench/run.py --workload so_pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Set-up (inputs from ``--seed``, files, server start and warm-up) runs
three times and ``setup_s`` is their median. The reference answers are
then computed once, untimed, and the last set-up's inputs are measured
for ``--seconds``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` measures half
the time untraced and half with the layer wrappers of :mod:`tracing`
installed, and prints the per-layer metrics, the tracing overhead
(traced minus untraced median) and the time no span covers.

The last line is ``{"correct", "attempted", "failed", "metrics"}``;
``attempted`` counts engine calls or requests plus output checks, and
``failed`` those that failed. Every sample, the machine and the commit
go to ``.perfbench/runs/``. The exit code is 0 only if every call and
check passed.

Every process the run starts has ended when it exits, on every path
out: the run adopts its orphaned descendants (the server's resource
tracker outlives the server), and before exiting it shuts the kernel
process pool, closes its own resource tracker's pipe and waits for each
child.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 3
CHILD_WAIT_S = 30.0
PR_SET_CHILD_SUBREAPER = 36
WORKLOADS = ("so_pipeline", "graph_analytics", "service_tcp")

UNITS = {
    "setup_s": "s", "lap_p50_s": "s", "lap_tail_s": "s",
    "tograph_rows_per_s": "rows/s", "pagerank_s": "s", "triangles_s": "s",
    "read_p50_s": "s", "read_tail_s": "s", "write_p50_s": "s",
    "throughput_rps": "req/s", "peak_rss_mb": "MiB",
}
"""End-to-end metrics (``--trace 0``). The write tail is left out: it is
kept in every run record, but on the reference host 2-20% of the
millisecond durable writes meet a 5-10 ms scheduling or fsync stall, so
its 10-run spread was 0.5 of its median, twice the largest bound."""

LAYER_UNITS = {
    "tables.load_tsv_s": "s", "tables.load_rows_per_s": "rows/s",
    "tables.select_s": "s", "tables.join_s": "s",
    "convert.to_graph_s": "s", "convert.table_from_hashmap_s": "s",
    "graphs.snapshot_build_s": "s", "graphs.snapshot_conversions": "count",
    "graphs.snapshot_hits": "count", "graphs.snapshot_hit_ratio": "ratio",
    "algorithms.pagerank_s": "s", "algorithms.triangles_s": "s",
    "algorithms.wcc_s": "s", "algorithms.scores_to_dict_s": "s",
    "parallel.run_kernel_s": "s", "parallel.worker_s": "s",
    "parallel.dispatch_threads": "count", "parallel.dispatch_processes": "count",
    "parallel.fallbacks": "count", "parallel.shm_export_bytes": "B",
    "incremental.delta_applied": "count", "incremental.warm_ratio": "ratio",
    "incremental.fallback_full": "count", "incremental.compactions": "count",
    "recovery.wal_append_s": "s", "recovery.wal_appends": "count",
    "recovery.wal_bytes_per_append": "B",
    "service.decode_s": "s", "service.engine_s": "s", "service.encode_s": "s",
    "service.response_bytes": "B", "service.residual_s": "s",
    "trace.overhead_lap_s": "s", "trace.overhead_read_s": "s",
    "trace.unattributed_s": "s", "error_ratio": "ratio",
}
"""Per-layer metrics (``--trace 1``): per-lap times and counts, median
over laps. ``service.*`` sum the lap's read requests."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing ({SRC})", file=sys.stderr)
        return 2
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    tmp = STATE / "tmp" / f"{stem}-{os.getpid()}"
    runs = STATE / "runs"
    tmp.mkdir(parents=True)
    runs.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    sys.path.insert(0, str(SRC))
    adopt_orphans()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        record, spans = run(args, tmp)
    finally:
        stop_children()
        shutil.rmtree(tmp, ignore_errors=True)
    if spans is not None:
        record["spans_file"] = str((runs / f"{stem}.spans.jsonl").relative_to(ROOT))
        spans.write(ROOT / record["spans_file"])
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    print(f"raw samples: {(runs / f'{stem}.json').relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


def run(args, tmp: Path):
    import tracing
    from service import ServiceTcp
    from workloads import Checks, GraphAnalytics, SoPipeline

    checks = Checks()
    kinds = {"so_pipeline": SoPipeline, "graph_analytics": GraphAnalytics,
             "service_tcp": ServiceTcp}
    workload = kinds[args.workload](args.size, checks)
    service = args.workload == "service_tcp"
    setup_samples, rates, state = [], [], None
    for rep in range(SETUP_REPEATS):
        if state is not None:
            workload.teardown(state, checks)
        start = time.perf_counter()
        state = workload.setup(args.seed, tmp / f"setup-{rep}")
        setup_samples.append(time.perf_counter() - start)
        rates.extend(state.get("tograph_rates", []))
    workload.references(state)

    seconds = args.seconds / 2 if args.trace else args.seconds
    recorder = None
    try:
        phase = workload.measure(state, seconds)
        phases = {"untraced": phase}
        if args.trace and service:
            workload.teardown(state, checks)
            state = None
            spans_path = tmp / "server-spans.jsonl"
            state = workload.setup(args.seed, tmp / "traced", spans_path)
            phases["traced"] = workload.measure(state, seconds, recorder=True)
            workload.teardown(state, checks)
            state = None
            recorder = tracing.Recorder()
            recorder.spans = tracing.read_spans(spans_path)
        elif args.trace:
            recorder = tracing.Recorder().install()
            try:
                phases["traced"] = workload.measure(state, seconds, recorder)
            finally:
                recorder.uninstall()
    finally:
        if state is not None:  # also stops the server if a phase failed
            workload.teardown(state, checks)

    calls = sum(len(lap["calls"]) for p in phases.values() for lap in p.laps)
    failed_ops = sum(p.failed_ops for p in phases.values())
    attempted = calls + failed_ops + checks.runs
    failed = failed_ops + checks.failed
    untraced = end_to_end(phase, setup_samples, rates)
    if args.trace:
        metrics = per_layer(phases["traced"], recorder, service)
        traced_e2e = end_to_end(phases["traced"], setup_samples, rates)
        metrics["trace.overhead_lap_s"] = traced_e2e["lap_p50_s"] - untraced["lap_p50_s"]
        metrics["trace.overhead_read_s"] = traced_e2e["read_p50_s"] - untraced["read_p50_s"]
        metrics["error_ratio"] = failed / attempted
        units = LAYER_UNITS
    else:
        metrics, units = untraced, UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "machine": machine(), "code": commit(),
        "setup_samples_s": setup_samples, "tograph_setup_rates": rates,
        "timings": timings(phase),
        "phases": {name: raw(p) for name, p in phases.items()},
        "checks": checks.tally, "result": result,
    }
    return record, recorder


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------


def adopt_orphans() -> None:
    """Become the parent of descendants whose own parent exits (Linux).

    ``repro serve`` starts a ``multiprocessing`` resource tracker, which
    ends only after the server has: without this it would be left
    running, re-parented to init, when the benchmark exits.
    """
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux; orphans then go to init as usual


def children() -> list:
    """Pids of this process's live children, from ``/proc``."""
    me, found = os.getpid(), []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry.name))
    return found


def stop_children() -> None:
    """End every child process and wait for each, on every path out.

    The kernel process pool is shut down and this process's resource
    tracker is told to stop by closing its pipe (it then unlinks any
    segment still registered and exits). Children that have not ended
    after ``CHILD_WAIT_S`` are killed.
    """
    executor = sys.modules.get("repro.parallel.executor")
    if executor is not None:
        try:
            executor.kernel_dispatcher().shutdown()
        except Exception as error:  # still wait for the rest below
            print(f"perfbench: pool shutdown failed: {error!r}", file=sys.stderr)
    tracker = getattr(sys.modules.get("multiprocessing.resource_tracker"),
                      "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None  # reaped below
    deadline = time.monotonic() + CHILD_WAIT_S
    killed = False
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # none left
        if pid:
            continue
        if not killed and time.monotonic() > deadline:
            for pid in children():
                print(f"perfbench: killing child {pid} still running", file=sys.stderr)
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
        time.sleep(0.02)


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------


def timing(values) -> dict:
    """Median and tail of a timing, with the sample count.

    The tail is the highest percentile with ten samples beyond it,
    ``100 * (1 - 10/n)``, but never below p90: with fewer than 100
    samples it is p90 (interpolated), which is steadier than the
    maximum a handful of laps would otherwise give.
    """
    import numpy as np

    n = len(values)
    if n == 0:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": None, "n": 0}
    pct = max(90.0, 100.0 * (1.0 - 10.0 / n))
    return {"p50": float(np.percentile(values, 50)),
            "tail": float(np.percentile(values, pct)), "tail_pct": pct, "n": n}


def lap_sums(phase, ops, inside: bool = True) -> list:
    """Per lap, the seconds spent in calls whose op is (not) in ``ops``."""
    return [sum(s for op, s in lap["calls"] if (op in ops) == inside)
            for lap in phase.laps]


def timings(phase) -> dict:
    """Lap, read and write time per lap.

    Reads and writes are summed per lap, not taken per request: a lap
    mixes request types whose latencies differ several-fold in equal
    numbers, and a per-request median then falls in the gap between
    them and jumps between runs.
    """
    from workloads import READ_OPS

    return {
        "lap": timing([lap["wall"] for lap in phase.laps]),
        "read": timing(lap_sums(phase, READ_OPS)),
        "write": timing(lap_sums(phase, READ_OPS, inside=False)),
    }


def end_to_end(phase, setup_samples, setup_rates) -> dict:
    from workloads import median_or_zero

    t = timings(phase)
    rates = []
    for lap, seconds in zip(phase.laps, lap_sums(phase, {"ToGraph"})):
        if lap["rows_to_graph"] and seconds:
            rates.append(lap["rows_to_graph"] / seconds)
    calls = sum(len(lap["calls"]) for lap in phase.laps)
    return {
        "setup_s": median_or_zero(setup_samples),
        "lap_p50_s": t["lap"]["p50"], "lap_tail_s": t["lap"]["tail"],
        "tograph_rows_per_s": median_or_zero(rates or setup_rates),
        "pagerank_s": median_or_zero(lap_sums(phase, {"GetPageRank"})),
        "triangles_s": median_or_zero(lap_sums(phase, {"GetTriangles"})),
        "read_p50_s": t["read"]["p50"], "read_tail_s": t["read"]["tail"],
        "write_p50_s": t["write"]["p50"],
        "throughput_rps": calls / phase.wall if phase.wall else 0.0,
        "peak_rss_mb": phase.peak_rss_mb,
    }


def per_layer(phase, recorder, service: bool) -> dict:
    """Median over laps of each layer metric; ``service.*`` sum a lap's reads."""
    import tracing
    from workloads import READ_OPS, counter_metrics, median_or_zero

    per_lap = []
    if service:
        by_request = defaultdict(list)
        for span in recorder.spans:
            by_request[span.request].append(span)
        for lap in phase.laps:
            values = tracing.layer_times(
                [s for rid in lap["ids"] for s in by_request.get(rid, [])]
            )
            splits = [
                (op, tracing.service_split(by_request.get(rid, []), seconds))
                for (op, seconds), rid in zip(lap["calls"], lap["ids"])
            ]
            for name in tracing.service_split([], 0.0):
                values[name] = sum(split[name] for op, split in splits if op in READ_OPS)
            values["trace.unattributed_s"] = lap["wall"] - sum(
                seconds - split["service.residual_s"]
                for (_, seconds), (_, split) in zip(lap["calls"], splits)
            )
            per_lap.append(values)
        counters = counter_metrics(*phase.counters, len(phase.laps))
    else:
        main_thread = threading.get_ident()
        for lap in phase.laps:
            values = tracing.layer_times(lap["spans"])
            values["trace.unattributed_s"] = (
                lap["wall"] - tracing.root_seconds(lap["spans"], main_thread)
            )
            values.update(counter_metrics(*lap["counters"], 1))
            per_lap.append(values)
        counters = {}
    metrics = {name: 0.0 for name in LAYER_UNITS}
    for name in per_lap[0] if per_lap else ():
        metrics[name] = median_or_zero([values[name] for values in per_lap])
    metrics.update(counters)
    return metrics


def raw(phase) -> dict:
    laps = [{k: v for k, v in lap.items() if k not in ("spans", "counters")}
            for lap in phase.laps]
    return {"wall_s": phase.wall, "peak_rss_mb": phase.peak_rss_mb,
            "failed_ops": phase.failed_ops, "laps": laps}


# ----------------------------------------------------------------------
# Where and on what the run happened
# ----------------------------------------------------------------------


def machine() -> dict:
    import multiprocessing

    import numpy

    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "platform": platform.platform(),
    }


def commit() -> dict:
    """The checkout's git commit and dirty flag (null outside a git tree)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*command):
        return subprocess.run(["git", *command], cwd=ROOT, env=env, timeout=30,
                              capture_output=True, text=True)

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return {"commit": None, "dirty": None}
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


if __name__ == "__main__":
    sys.exit(main())
