"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 perfbench/smoke.py

Runs every workload (also ``so_pipeline``, which ``BENCHMARK.json``
leaves out) untraced and traced for a few seconds and checks
that each run exits 0, prints exactly the metrics ``BENCHMARK.json``
names with their units, ran every output and hygiene check and left no
process of its session running. Then
checks that the benchmark fails, without printing a result, in a
directory that holds only ``BENCHMARK.json`` and ``perfbench/``.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import PREDICTIONS, WHY  # noqa: E402

TINY_PROC_THRESHOLD = 1_000

COMMON_CHECKS = ("inputs removed", "no live shared-memory exports",
                 "no leaked shared-memory segments")
EXPECTED_CHECKS = {
    "so_pipeline": COMMON_CHECKS + (
        "so join rows = numpy", "so graph edges = numpy", "so triangles = scipy",
        "so pagerank sums to 1", "so score table has a row per user",
        "so top-10 pagerank holds planted Java experts",
    ),
    "graph_analytics": COMMON_CHECKS + (
        "rmat ToGraph edges = numpy unique pairs", "rmat WCC count = scipy",
        "rmat triangles = scipy", "ws ToGraph edges = numpy unique pairs",
        "ranks sum to 1 within 1e-9", "ws_ranks sum to 1 within 1e-9",
    ),
    "service_tcp": (
        "replay publishes the same catalog names",
        "digest = in-process replay", "triangles = in-process replay",
        "pagerank within incremental epsilon of a cold run",
        "server exits 0 after SIGTERM", "drain report with zero checkpoint failures",
        "spool and inputs removed",
    ),
}


def fail(message: str) -> None:
    raise SystemExit(f"FAIL: {message}")


def session_processes(session: int) -> list:
    """Pids of live processes in a session, from ``/proc``."""
    found = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text() if entry.name.isdigit() else ""
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, pgrp, session.
        if stat and int(stat.rsplit(")", 1)[1].split()[3]) == session:
            found.append(int(entry.name))
    return found


def run(workload: str, trace: int, spec: dict) -> None:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", "2", "--trace", str(trace), "--size", "tiny"]
    # A low crossover sends the tiny graphs to the process backend too,
    # so its pool, shared memory and resource trackers get cleaned up.
    env = dict(os.environ, REPRO_PROC_THRESHOLD=str(TINY_PROC_THRESHOLD))
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, env=env,
                               stderr=subprocess.PIPE, text=True, start_new_session=True)
    stdout, stderr = process.communicate(timeout=300)
    if process.returncode != 0:
        fail(f"{workload} trace={trace} exited {process.returncode}: {stderr[-2000:]}")
    left = session_processes(process.pid)
    if left:
        fail(f"{workload} trace={trace} left processes running: {left}")
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload}: {result}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if got != units:
        fail(f"{workload} trace={trace}: metrics {got} != {units}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry["value"], (int, float)):
            fail(f"{workload}: {name} value {entry['value']!r}")
    record = json.loads((ROOT / lines[-2].split(": ", 1)[1]).read_text())
    missing = [c for c in EXPECTED_CHECKS[workload] if c not in record["checks"]]
    if missing:
        fail(f"{workload}: checks did not run: {missing}")
    print(f"ok  {workload} trace={trace}: {len(got)} metrics, "
          f"{sum(c['runs'] for c in record['checks'].values())} checks")


def bare_directory_fails(spec: dict) -> None:
    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        command = [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
                   "--seconds", "1", "--trace", "0"]
        done = subprocess.run(command, cwd=bare, capture_output=True, text=True,
                              timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        fail("the benchmark succeeded without the program's source")
    print("ok  fails without the program's source")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        if WHY.get(workload["name"]) != workload["why"]:
            fail(f"BENCHMARK.json workload {workload['name']} differs from workloads.WHY")
    layer_names = {m["name"] for m in spec["per_layer"]}
    for layer, metrics, _, _ in PREDICTIONS:
        unknown = [m for m in metrics.split(", ") if m not in layer_names]
        if unknown:
            fail(f"prediction for {layer} names unknown metrics {unknown}")
    for workload in WHY:
        for trace in (0, 1):
            run(workload, trace, spec)
    bare_directory_fails(spec)


if __name__ == "__main__":
    main()
