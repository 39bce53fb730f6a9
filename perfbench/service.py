"""The ``service_tcp`` workload: two closed-loop tenants over TCP, taking turns.

See :mod:`workloads` for why it exists. The server runs as a subprocess
(``python -m repro serve``, or ``perfbench/serve.py`` when traced). A
lap is one tenant's cycle of four requests. After a phase each tenant's
``digest`` and final triangle count are compared with an in-process
``Ringo`` that replays the tenant's write requests, and its final
PageRank with a cold in-process run.
"""

from __future__ import annotations

import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import SIZES, Checks, Phase, vm_hwm_mb

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = [["src", "int"], ["dst", "int"]]
TENANTS = ("alpha", "beta")
WARMUP_CYCLES = 5
TOGRAPH_SAMPLES = 3
OPS_PER_KIND = 10
DRAIN = re.compile(r"drained: .*?(\d+) checkpoint failure")


class Tenant:
    """One analyst: a connection, its catalog refs and a mirror of its graph."""

    def __init__(self, index: int, name: str, port: int, seed: int, edges) -> None:
        from repro.service.client import ServiceClient

        self.name = name
        self.client = ServiceClient("127.0.0.1", port, tenant=name, timeout=120.0)
        # Request ids are per connection; offsetting them makes them
        # unique across tenants, so server-side spans join by id alone.
        self.client._next_id = (index + 1) * 1_000_000_000
        self.rng = random.Random(seed * 100 + index)
        self.edges = set(edges)
        self.edge_list = list(self.edges)
        self.nodes = 1 + max(max(e) for e in self.edge_list)
        self.history: list = []  # (op, args, ref) of every write, for replay
        self.refs: dict = {}

    def send(self, op: str, write: bool, **args):
        """One request; returns (result, request id, seconds)."""
        start = time.perf_counter()
        request_id = self.client.send(op, **args)
        envelope = self.client.wait(request_id)
        seconds = time.perf_counter() - start
        if not envelope.get("ok"):
            raise RuntimeError(f"{op} failed: {envelope.get('error')}")
        result = envelope["result"]
        if write:
            ref = result.get("$ref") if isinstance(result, dict) else None
            self.history.append((op, args, ref))
        return result, request_id, seconds

    def setup(self, path: str) -> list:
        """Load, build, analyse; returns ToGraph rows/s seen by the client.

        The graph is built ``TOGRAPH_SAMPLES`` times, because one build
        per set-up is too few samples for a steady rate; the last build
        is the one the cycle uses.
        """
        table, _, _ = self.send("LoadTableTSV", True, schema=SCHEMA, path=path)
        rates = []
        for _ in range(TOGRAPH_SAMPLES):
            graph, _, seconds = self.send("ToGraph", True, table={"$ref": table["$ref"]},
                                          src_col="src", dst_col="dst")
            rates.append(table["rows"] / seconds)
        self.refs["graph"] = {"$ref": graph["$ref"]}
        self.send("GetPageRank", False, graph=self.refs["graph"])
        self.send("GetTriangles", False, graph=self.refs["graph"])
        small, _, _ = self.send("TableFromColumns", True, data={
            "key": list(range(100)), "value": [(i * 37) % 100 for i in range(100)],
        })
        self.refs["small"] = {"$ref": small["$ref"]}
        return rates

    def ops(self) -> list:
        """10 deletes of existing edges, then 10 adds of absent ones."""
        doomed = self.rng.sample(self.edge_list, OPS_PER_KIND)
        for edge in doomed:
            self.edges.discard(edge)
        added = []
        while len(added) < OPS_PER_KIND:
            u, v = self.rng.randrange(self.nodes), self.rng.randrange(self.nodes)
            if u != v and (u, v) not in self.edges:
                self.edges.add((u, v))
                added.append((u, v))
        self.edge_list = list(self.edges)
        return ([["del_edge", u, v] for u, v in doomed]
                + [["add_edge", u, v] for u, v in added])

    def cycle(self) -> dict:
        calls, ids = [], []
        graph = self.refs["graph"]
        requests = (
            ("ApplyOps", True, {"graph": graph, "ops": self.ops()}),
            ("Select", True, {"table": self.refs["small"],
                              "predicate": f"value >= {self.rng.randrange(100)}"}),
            ("GetPageRank", False, {"graph": graph}),
            ("GetTriangles", False, {"graph": graph}),
        )
        start = time.perf_counter()
        for op, write, args in requests:
            result, request_id, seconds = self.send(op, write, **args)
            if op == "ApplyOps" and result.get("skipped"):
                raise RuntimeError(f"ApplyOps skipped {result['skipped']} op(s)")
            calls.append([op, seconds])
            ids.append(request_id)
        return {"wall": time.perf_counter() - start, "calls": calls,
                "rows_to_graph": 0, "tenant": self.name, "ids": ids}


class Server:
    """A ``repro serve`` subprocess on a fresh spool."""

    def __init__(self, workdir: Path, spans_path: "Path | None") -> None:
        self.spool = workdir / "spool"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        serve = ["serve", "--spool", str(self.spool), "--port", "0"]
        if spans_path is None:
            command = [sys.executable, "-u", "-m", "repro", *serve]
        else:
            command = [sys.executable, "-u", str(ROOT / "perfbench" / "serve.py"),
                       str(spans_path), *serve]
        # stderr goes to a file: a pipe nobody reads could fill and stall it.
        self.errors = open(workdir / "server.err", "w+")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self.errors, text=True, env=env,
        )
        line = self.process.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("listening on")[1].split()[0].rsplit(":", 1)[1])

    def stop(self, checks: "Checks | None" = None) -> None:
        """SIGTERM, then wait for the drain."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            stdout, _ = self.process.communicate(timeout=90)
        except subprocess.TimeoutExpired:
            self.process.kill()
            stdout, _ = self.process.communicate()
        self.errors.seek(0)
        stderr = self.errors.read()
        self.errors.close()
        if checks is not None:
            checks.check("server exits 0 after SIGTERM", self.process.returncode == 0,
                         stderr[-500:])
            drained = DRAIN.search(stdout)
            checks.check("drain report with zero checkpoint failures",
                         drained is not None and drained.group(1) == "0", stdout[-300:])


class ServiceTcp:
    def __init__(self, size: str, checks: Checks) -> None:
        self.size = SIZES[size]
        self.checks = checks

    def setup(self, seed: int, workdir: Path, spans_path=None) -> dict:
        from repro.algorithms.generators import DEFAULT_RMAT, rmat_edges

        scale, count = self.size[5], self.size[6]
        src, dst = rmat_edges(scale, count, DEFAULT_RMAT, seed)
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "edges.tsv"
        np.savetxt(path, np.column_stack([src, dst]), fmt="%d", delimiter="\t")
        server = Server(workdir, spans_path)
        state = {"workdir": workdir, "path": path, "server": server, "tenants": []}
        try:
            edges = list(zip(src.tolist(), dst.tolist()))
            rates = []
            for index, name in enumerate(TENANTS):
                tenant = Tenant(index, name, server.port, seed, edges)
                state["tenants"].append(tenant)
                rates.extend(tenant.setup(str(path)))
                for _ in range(WARMUP_CYCLES):
                    tenant.cycle()
            state["tograph_rates"] = rates
        except Exception:
            self.teardown(state)
            raise
        return state

    def references(self, state) -> None:
        """Nothing to precompute: :meth:`verify` replays the requests."""

    def teardown(self, state, checks: "Checks | None" = None) -> None:
        for tenant in state["tenants"]:
            tenant.client.close()
        state["server"].stop(checks)
        shutil.rmtree(state["workdir"], ignore_errors=True)
        if checks is not None:
            checks.check("spool and inputs removed", not state["workdir"].exists())

    def health_counters(self, state) -> dict:
        from workloads import flat_counters

        health = state["tenants"][0].client.call("health")
        return flat_counters(health["layers"])

    def measure(self, state, seconds: float, recorder=None) -> Phase:
        """Closed loop; the two tenants take turns, one cycle each.

        Run side by side, every latency depended on how the tenants'
        requests overlapped. Free-running clients drift in and out of
        phase, and medians moved by 2x between runs. In lockstep, two
        concurrent requests hand the server's GIL back and forth, and
        millisecond writes doubled whenever the host slowed; the write
        tail varied 3x between runs. Taking turns keeps both sessions
        and connections live without that coupling.
        """
        phase = Phase()
        before = self.health_counters(state) if recorder else None
        start = time.perf_counter()
        try:
            while time.perf_counter() - start < seconds:
                for tenant in state["tenants"]:
                    phase.laps.append(tenant.cycle())
        except Exception as error:  # counted; the run then fails
            phase.failed_ops += 1
            self.checks.check("ops complete", False, repr(error))
        phase.wall = time.perf_counter() - start
        phase.peak_rss_mb = vm_hwm_mb(state["server"].process.pid)
        if recorder is not None:
            phase.counters = (before, self.health_counters(state))
        self.verify(state)
        return phase

    def verify(self, state) -> None:
        """Compare each tenant's end state with an in-process replay."""
        from repro import Ringo
        from repro.algorithms import pagerank
        from repro.graphs.csr import CSRGraph
        from repro.incremental.engine import pagerank_epsilon
        from repro.recovery.digest import catalog_digest
        from repro.service.protocol import decode_args

        check = self.checks.check
        for tenant in state["tenants"]:
            graph = tenant.refs["graph"]
            digest = tenant.client.call("digest")
            triangles = tenant.client.call("GetTriangles", graph=graph)
            ranks = {int(k): v for k, v in tenant.client.call("GetPageRank", graph=graph).items()}
            replay_dir = state["workdir"] / f"replay-{tenant.name}"
            with Ringo(workers=1, durability=replay_dir) as ringo:
                refs_match = True
                for op, args, ref in tenant.history:
                    result = getattr(ringo, op)(**decode_args(ringo, args))
                    if ref is not None:
                        refs_match &= ringo.GetObject(ref) is result
                check("replay publishes the same catalog names", refs_match, tenant.name)
                check("digest = in-process replay", digest == catalog_digest(ringo),
                      tenant.name)
                replayed = ringo.GetObject(graph["$ref"])
                check("triangles = in-process replay",
                      triangles == ringo.GetTriangles(replayed),
                      (triangles, tenant.name))
                # A CSR built here bypasses the snapshot cache and the
                # warm state, so this PageRank starts cold.
                cold_ranks = pagerank(CSRGraph.from_graph(replayed))
            same_nodes = set(cold_ranks) == set(ranks)
            distance = sum(abs(ranks.get(k, 0.0) - v) for k, v in cold_ranks.items())
            check("pagerank within incremental epsilon of a cold run",
                  same_nodes and distance <= pagerank_epsilon(0.85, 1e-9),
                  (distance, tenant.name))
            shutil.rmtree(replay_dir, ignore_errors=True)
