"""Run a streaming ingestion daemon: ``python -m repro.service``.

    python -m repro.service \\
        --spec '{"kind": "sharded", "inner": {"kind": "count_min", ...},
                 "executor": "process", "num_shards": 4}' \\
        --unix /tmp/repro.sock --snapshot /var/lib/repro/tables.snap

``--spec`` takes inline JSON or ``@path/to/spec.json``.  If the snapshot
file already exists the daemon resumes from it (the spec is then only a
fallback); on SIGTERM/SIGINT it drains, rewrites the snapshot atomically,
and exits 0 — the restart loop is just "run the same command again".
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from repro.obs import StructuredLogger
from repro.service.server import (
    DEFAULT_FLUSH_INTERVAL,
    DEFAULT_MAX_BUFFERED_KEYS,
    StreamingService,
)


def _parse_spec(text):
    if text is None:
        return None
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as handle:
            return json.load(handle)
    return json.loads(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Streaming frequency-estimation ingestion daemon.",
    )
    parser.add_argument(
        "--spec",
        help="estimator spec as inline JSON, or @FILE to read it from disk",
    )
    parser.add_argument(
        "--backend",
        choices=("auto", "native", "numpy"),
        help="kernel backend for the sketch hot paths; overrides the spec's "
        "own 'backend' field (drilling through sharded/windowed wrappers)",
    )
    parser.add_argument("--unix", help="Unix socket path to listen on")
    parser.add_argument("--host", help="TCP host to listen on")
    parser.add_argument("--port", type=int, default=0, help="TCP port (0=ephemeral)")
    parser.add_argument(
        "--snapshot",
        help="snapshot path: resumed from at startup if present, rewritten "
        "atomically on graceful shutdown",
    )
    parser.add_argument(
        "--flush-interval",
        type=float,
        default=DEFAULT_FLUSH_INTERVAL,
        help="micro-batch coalescing deadline in seconds",
    )
    parser.add_argument(
        "--max-buffered-keys",
        type=int,
        default=DEFAULT_MAX_BUFFERED_KEYS,
        help="backpressure bound on accepted-but-unapplied arrivals",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        help="serve Prometheus text at GET /metrics on this HTTP port "
        "(0=ephemeral); omit to disable the HTTP listener (the in-protocol "
        "'metrics' op is always available)",
    )
    parser.add_argument(
        "--metrics-host",
        default="127.0.0.1",
        help="bind address of the /metrics listener (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--wal-dir",
        help="write-ahead log directory: every acked ingest batch is logged "
        "before the ack, so a crash (even SIGKILL) loses no acknowledged "
        "data — restart replays the log on top of the last snapshot",
    )
    parser.add_argument(
        "--wal-sync",
        choices=("os", "always"),
        default="os",
        help="WAL durability: 'os' flushes to the page cache (survives "
        "process death; default), 'always' fsyncs every record (survives "
        "power loss, slower)",
    )
    parser.add_argument(
        "--no-supervise",
        action="store_true",
        help="disable the shard supervisor (a dead shard worker then parks "
        "the service instead of being restarted in place)",
    )
    parser.add_argument(
        "--max-restarts",
        type=int,
        default=5,
        help="circuit breaker: park the service after this many restarts of "
        "one shard within --restart-window seconds",
    )
    parser.add_argument(
        "--restart-window",
        type=float,
        default=60.0,
        help="sliding window (seconds) for the --max-restarts budget",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON-lines logs (lifecycle events, per-stage "
        "shutdown timings) on stderr",
    )
    args = parser.parse_args(argv)
    if args.unix is None and args.host is None:
        parser.error("pass --unix PATH or --host HOST [--port PORT]")
    spec = _parse_spec(args.spec)
    if args.backend is not None:
        if spec is None:
            parser.error("--backend requires --spec (it rewrites the spec)")
        from repro.api.registry import spec_with_backend
        from repro.api.specs import SpecError, spec_from_dict

        try:
            spec = spec_with_backend(
                spec_from_dict(spec), args.backend
            ).to_dict()
        except SpecError as error:
            parser.error(str(error))

    service = StreamingService(
        spec,
        snapshot_path=args.snapshot,
        unix_path=args.unix,
        host=args.host,
        port=args.port if args.host is not None else None,
        flush_interval=args.flush_interval,
        max_buffered_keys=args.max_buffered_keys,
        metrics_host=args.metrics_host,
        metrics_port=args.metrics_port,
        wal_dir=args.wal_dir,
        wal_sync=args.wal_sync,
        supervise=not args.no_supervise,
        max_restarts=args.max_restarts,
        restart_window=args.restart_window,
        log=StructuredLogger("repro.service", sys.stderr) if args.log_json else None,
    )

    async def run():
        await service.start()
        service.install_signal_handlers()
        origin = "restored snapshot" if service.restored else "fresh spec"
        kernel = getattr(service.session.estimator, "kernel_backend", None)
        kernel_note = f", kernels={kernel}" if kernel is not None else ""
        print(
            f"repro.service listening on {service.endpoint} "
            f"(kind={service.session.kind}, {origin}{kernel_note})",
            flush=True,
        )
        if args.metrics_port is not None:
            host, port = service.metrics_endpoint
            print(f"metrics at http://{host}:{port}/metrics", flush=True)
        await service.serve_until_stopped()

    asyncio.run(run())
    return 0


if __name__ == "__main__":
    sys.exit(main())
