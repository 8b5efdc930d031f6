"""Benchmark-side server launcher for ``serve-kv``'s comparison runs.

Builds the server ``repro serve <workspace> --wal --wal-sync batch``
builds — same engine parameters, default ``ServerConfig``, a batch-sync
WAL — but hands it a :class:`~perfbench.tracing.TimedEngine` instead of
the bare engine.  Both halves of the traced run and both sides of the
sensitivity tests use this launcher, so each comparison is between runs
of one server program.  On Ctrl-C (SIGINT) it stops like ``repro serve``.

    python3 -m perfbench.served WORKSPACE [--trace --stats-out PATH]
                                [--delay get=0.002] [--burn commit_block=0.005]

``--trace`` records the time and pages of every engine call inside the
server and writes the span summary to ``--stats-out`` at exit.
``--delay METHOD=SECONDS`` sleeps before each call of one engine method
and ``--burn METHOD=SECONDS`` starts that much CPU-bound background work
after each call (the benchmark's sensitivity tests use them).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os


def _seconds_by_method(items):
    out = {}
    for item in items:
        method, _, seconds = item.partition("=")
        out[method] = float(seconds)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description="COLE* server for benchmark comparisons")
    parser.add_argument("workspace")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--stats-out")
    parser.add_argument("--delay", action="append", default=[],
                        help="METHOD=SECONDS slept before each engine call")
    parser.add_argument("--burn", action="append", default=[],
                        help="METHOD=SECONDS of background CPU work after each call")
    args = parser.parse_args()
    if args.trace and not args.stats_out:
        parser.error("--trace needs --stats-out")

    from repro.core import Cole
    from repro.server import ColeServer, ServerConfig
    from repro.server.eventloop import install_event_loop_policy
    from repro.wal import WriteAheadLog

    from perfbench.serve import ENGINE_PARAMS
    from perfbench.tracing import SpanIOStats, TimedEngine, Tracer

    tracer = Tracer() if args.trace else None
    engine = Cole(args.workspace, ENGINE_PARAMS,
                  **({"stats": SpanIOStats(tracer)} if tracer else {}))
    wal = WriteAheadLog(os.path.join(args.workspace, "wal"), sync_policy="batch")
    timed = TimedEngine(engine, tracer, _seconds_by_method(args.delay),
                        _seconds_by_method(args.burn))
    server = ColeServer(timed, host="127.0.0.1", port=0, config=ServerConfig(), wal=wal)

    async def serve() -> None:
        host, port = await server.start()
        if tracer is not None:
            tracer.reset()  # drop the WAL replay start() just ran
        print(f"serving {args.workspace} on {host}:{port}", flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    install_event_loop_policy()
    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    finally:
        timed.join_background()
        wal.close()
        engine.close()
        if tracer is not None:
            pages = {}
            for (span, category), count in tracer.pages.items():
                pages.setdefault(span, {})[category] = count
            with open(args.stats_out, "w") as handle:
                json.dump({"spans": tracer.summary(), "pages": pages}, handle)


if __name__ == "__main__":
    main()
