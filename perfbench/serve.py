"""Start ``repro serve`` with the benchmark's span wrappers installed.

    python perfbench/serve.py SPANS.jsonl serve --spool DIR --port 0

Installs the same wrappers as the in-process traced run, adds the
process-wide layer counters (snapshot cache, kernel dispatcher,
incremental engine) to the ``health`` verb's reply under ``layers``,
then hands the remaining arguments to ``repro.cli.main``. When the
server has drained, the spans are written to ``SPANS.jsonl``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import tracing  # noqa: E402


def layer_counters() -> dict:
    from repro.graphs.snapshot import snapshot_cache
    from repro.incremental.engine import incremental_engine
    from repro.parallel.executor import kernel_dispatcher

    return {
        "snapshot_cache": snapshot_cache().stats(),
        "parallel": kernel_dispatcher().snapshot(),
        "incremental": incremental_engine().stats(),
    }


def main(argv: list) -> int:
    from repro import cli
    from repro.service.server import SessionService

    spans_path, serve_argv = argv[0], argv[1:]
    recorder = tracing.Recorder().install()
    health = SessionService.health

    def health_with_layers(service) -> dict:
        report = health(service)
        report["layers"] = layer_counters()
        return report

    recorder.patch(SessionService, "health", health_with_layers)
    try:
        return cli.main(serve_argv)
    finally:
        recorder.write(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
