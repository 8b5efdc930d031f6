"""Workload ``serve-kv``: closed-loop KV clients against ``repro serve``.

Set-up builds a COLE* workspace in-process (32 768 keys, four times the
server's default 8192-entry read cache), logging every block to a WAL
the way the serving layer does, waits for merges, and starts
``python -m repro.cli serve <workspace> --wal --wal-sync batch`` with
the default ``ServerConfig`` as a subprocess; the timed phase begins once
it answers.  This process is the one client: 2 connections (one per
core), each a closed loop of a fixed number of requests.  The point
requests follow YCSB workload B (95% GET, 5% PUT, the mix
``YCSBGenerator.MIXES["B"]`` that ``repro loadgen`` also uses); after
every ``SCAN_EVERY`` of them the connection sends one SCAN of
``SCAN_LIMIT`` addresses, so SCANs are 1 request in 21.  Keys are
uniform over the whole space rather than YCSB's zipfian, so the read
cache rarely hits and GETs take the engine path; each connection PUTs
only keys of its own partition.

Latency slots (client round trips): main = GET, second = PUT (the
durable ack), third = SCAN.  ``ops_per_s`` counts requests.  Times are
reported at reference speed (``CoreSampler``: a slice on every core
between chunks of ``CHUNK`` requests per connection).

The traced run serves the same workspace from ``perfbench/served.py``,
which builds the same server around a timing proxy of the engine: first
untraced, then restarted with spans on, plus ROOT probes (the transport
floor) and a STATS read.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Set

from repro.common.params import ColeParams
from repro.core import Cole
from repro.server import ServerClient
from repro.wal import WriteAheadLog, replay_wal
from repro.workloads import YCSBGenerator

from perfbench.common import (
    ROOT,
    SETUP_REPEATS,
    SRC,
    CoreSampler,
    ReferenceClock,
    Result,
    Samples,
    fresh_workdir,
    mean,
    peak_rss_mb,
    percentile,
    remove,
    repeated_setup,
    safe_div,
)
from perfbench.tracing import Tracer

KEYS = 32_768
VALUE_SIZE = 40
#: The parameters ``repro serve`` opens a single-engine workspace with.
ENGINE_PARAMS = ColeParams(async_merge=True, mem_capacity=512)
LOAD_BATCH = 512
CONNECTIONS = 2
#: Point requests: YCSB-B, 95% GET and 5% PUT.
GET_SHARE = YCSBGenerator.MIXES["B"].read_fraction
#: One SCAN follows every SCAN_EVERY point requests of a connection.
SCAN_EVERY = 20
SCAN_LIMIT = 8
#: Requests per ``--seconds`` over both connections (a fixed count,
#: sized so the phase takes about that long on a 2-core host).
OPS_PER_SECOND = 1700
ROOT_PROBES = 300  # per connection, traced run only
CHUNK = 50  # requests per connection between reference ticks
START_TIMEOUT_S = 60.0
PAIR_BYTES = 32 + VALUE_SIZE

_now = time.perf_counter


def _addr(index: int) -> bytes:
    return hashlib.blake2b(b"perfbench-key-%d" % index, digest_size=32).digest()


def _value(seed: int, index: int, version: int) -> bytes:
    return hashlib.blake2b(
        b"%d:%d:%d" % (seed, index, version), digest_size=VALUE_SIZE
    ).digest()


class ServedState:
    """The workspace, the server process, and the model of every value
    written to each key."""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.workspace = os.path.join(workdir, "ws")
        self.addrs = [_addr(i) for i in range(KEYS)]
        self.order = sorted(range(KEYS), key=self.addrs.__getitem__)
        self.sorted_addrs = [self.addrs[i] for i in self.order]
        self.latest = [_value(seed, i, 0) for i in range(KEYS)]
        self.ever: List[Set[bytes]] = [{value} for value in self.latest]
        self.written: Set[int] = set()
        self.versions = 0
        self.puts_acked = 0
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        #: Where a traced ``perfbench.served`` writes its span summary.
        self.stats_out = os.path.join(workdir, "served.json")

    def build(self, ref: ReferenceClock) -> None:
        engine = Cole(self.workspace, ENGINE_PARAMS)
        wal = WriteAheadLog(os.path.join(self.workspace, "wal"), sync_policy="batch")
        try:
            for height, start in enumerate(range(0, KEYS, LOAD_BATCH), 1):
                ref.tick()
                items = [
                    (self.addrs[i], self.latest[i])
                    for i in range(start, min(KEYS, start + LOAD_BATCH))
                ]
                wal.append_puts(items, height)
                engine.begin_block(height)
                engine.put_many(items)
                wal.append_commit(height, engine.commit_block())
            engine.wait_for_merges()
            wal.truncate(engine.shard_checkpoints())
        finally:
            wal.close()
            engine.close()

    # -- server process ------------------------------------------------------

    def start(self, served: bool = False, trace: bool = False,
              delays: Optional[Dict[str, float]] = None,
              burn: Optional[Dict[str, float]] = None) -> None:
        """Start ``repro serve`` on the workspace or, with ``served``, the
        benchmark's launcher of the same server (``perfbench/served.py``),
        which can also trace, delay or burn (see there)."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, ROOT]))
        if served:
            cmd = [sys.executable, "-m", "perfbench.served", self.workspace]
            if trace:
                cmd += ["--trace", "--stats-out", self.stats_out]
            for flag, table in (("--delay", delays), ("--burn", burn)):
                for method, seconds in (table or {}).items():
                    cmd += [flag, f"{method}={seconds}"]
        else:
            cmd = [sys.executable, "-m", "repro.cli", "serve", self.workspace,
                   "--port", "0", "--wal", "--wal-sync", "batch"]
        log = open(os.path.join(self.workdir, "server.log"), "a")
        try:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log
            )
        finally:
            log.close()
        # Raw reads: a buffered reader would hide lines from select().
        fd, banner = self.proc.stdout.fileno(), b""
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([fd], [], [], max(0.0, remaining))
            chunk = os.read(fd, 4096) if ready else b""
            banner += chunk
            found = re.search(rb" on [\d.]+:(\d+)", banner)
            if found:
                self.port = int(found.group(1))
                return
            if not chunk:
                self.stop()
                raise RuntimeError(f"server did not start: {' '.join(cmd)}")

    def server_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Stop the server the way Ctrl-C does, and wait for it."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        try:
            proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()

    def close(self) -> None:
        self.stop()
        remove(self.workdir)

    # -- after the run ----------------------------------------------------------

    def final_checks(self, result: Result) -> float:
        """Reopen the stopped server's workspace (WAL replayed), read back
        every key written during the run plus a sample, and return the
        on-disk bytes per user byte."""
        engine = Cole(self.workspace, ENGINE_PARAMS)
        wal = WriteAheadLog(os.path.join(self.workspace, "wal"))
        try:
            replay_wal(engine, wal)
            engine.wait_for_merges()
            for index in sorted(self.written | set(range(0, KEYS, 16))):
                result.check(engine.get(self.addrs[index]) == self.latest[index],
                             f"durable value of key {index}")
            return engine.storage_bytes() / ((KEYS + self.puts_acked) * PAIR_BYTES)
        finally:
            wal.close()
            engine.close()


class Phase:
    def __init__(self, ref: ReferenceClock) -> None:
        self.ref = ref
        self.samples = {op: Samples() for op in ("get", "put", "scan", "root")}
        self.chunks = Samples()  # wall time of each chunk of requests

    @property
    def requests(self) -> int:
        return sum(len(self.samples[op]) for op in ("get", "put", "scan"))

    def ops_per_s(self, scaled: bool = True) -> float:
        chunks = self.ref.scale(self.chunks) if scaled else self.chunks.raw
        return self.requests / sum(chunks)

    def scaled(self, op: str) -> List[float]:
        return self.ref.scale(self.samples[op])


async def _worker(state: ServedState, client: ServerClient, conn: int, first: int,
                  count: int, rng: random.Random, phase: Phase, result: Result,
                  tracer: Optional[Tracer], ref: int) -> None:
    samples = phase.samples
    for request in range(first, first + count):
        if request % (SCAN_EVERY + 1) == SCAN_EVERY:
            op, index = "scan", rng.randrange(KEYS)
        elif rng.random() < GET_SHARE:
            op, index = "get", rng.randrange(KEYS)
        else:
            op, index = "put", rng.randrange(KEYS // CONNECTIONS) * CONNECTIONS + conn
        span = tracer.begin(f"client.{op}", req=(request, conn)) if tracer else None
        try:
            if op == "get":
                tick = _now()
                value = await client.get(state.addrs[index])
                samples["get"].add(_now() - tick, ref)
                if index % CONNECTIONS == conn:
                    ok = value == state.latest[index]
                else:
                    ok = value in state.ever[index]
                result.check(ok, f"GET key {index}")
            elif op == "put":
                state.versions += 1
                value = _value(state.seed, index, state.versions)
                state.ever[index].add(value)
                tick = _now()
                await client.put(state.addrs[index], value)
                samples["put"].add(_now() - tick, ref)
                state.latest[index] = value
                state.written.add(index)
                state.puts_acked += 1
                result.check(True, "PUT")
            else:
                start = bisect.bisect_left(state.sorted_addrs, state.addrs[index])
                tick = _now()
                rows = await client.scan(state.addrs[index], b"\xff" * 32,
                                         limit=SCAN_LIMIT)
                samples["scan"].add(_now() - tick, ref)
                want = state.order[start:start + SCAN_LIMIT]
                ok = [row[0] for row in rows] == [state.addrs[i] for i in want] and all(
                    row[2] in state.ever[i] for row, i in zip(rows, want)
                )
                result.check(ok, f"SCAN from key {index}")
        except Exception as exc:  # a refused or broken request is a failed answer
            result.check(False, f"{op} key {index}: {exc!r}")
        finally:
            if span is not None:
                tracer.end(span)


async def _phase(state: ServedState, per_conn: int, rng: random.Random, result: Result,
                 ref: ReferenceClock, tracer: Optional[Tracer] = None, probes: int = 0):
    phase = Phase(ref)
    clients = [ServerClient("127.0.0.1", state.port) for _ in range(CONNECTIONS)]
    stats = None
    try:
        for client in clients:
            await client.connect()

        async def probe(client: ServerClient) -> None:
            for _ in range(probes):
                tick = _now()
                await client.root()
                phase.samples["root"].add(_now() - tick, 0)

        await asyncio.gather(*(probe(client) for client in clients))
        rngs = [random.Random(rng.random()) for _ in clients]
        # Chunks of requests with a reference tick between them, taken
        # while no request is in flight.
        for first in range(0, per_conn, CHUNK):
            count = min(CHUNK, per_conn - first)
            slice_index = ref.tick()
            started = _now()
            await asyncio.gather(*(
                _worker(state, client, conn, first, count, rngs[conn], phase, result,
                        tracer, slice_index)
                for conn, client in enumerate(clients)
            ))
            phase.chunks.add(_now() - started, slice_index)
        if tracer is not None:
            stats = await clients[0].stats()
    finally:
        for client in clients:
            await client.close()
    return phase, stats


def setup(seed: int, ref: ReferenceClock, launch: bool = True) -> ServedState:
    state = ServedState(seed, fresh_workdir(f"serve-{seed}"))
    try:
        state.build(ref)
        if launch:
            state.start()
    except BaseException:
        state.close()
        raise
    return state


def _op_mean_us(stats: dict, op: str) -> float:
    row = stats["latency"]["op"].get(op, {"count": 0, "sum": 0.0})
    return safe_div(row["sum"], row["count"]) * 1e6


def run(seed: int, seconds: float, trace: bool, delays=None, burn=None,
        served: bool = False, setup_repeats: int = SETUP_REPEATS) -> Result:
    """One run.  ``served``, ``delays`` or ``burn`` serve the timed phase
    from ``perfbench/served.py`` instead of ``repro serve``."""
    result = Result()
    per_conn = max(2, round(seconds * OPS_PER_SECOND / CONNECTIONS))
    rng = random.Random(seed * 7919 + 3)
    ref = CoreSampler()
    state: Optional[ServedState] = None
    try:
        if not trace:
            state = repeated_setup(result, lambda: setup(seed, ref), setup_repeats, ref)
            if served or delays or burn:
                state.stop()
                state.start(served=True, delays=delays, burn=burn)
            phase, _ = asyncio.run(_phase(state, per_conn, rng, result, ref))
            rss = state.server_rss_mb()
            state.stop()
            storage = state.final_checks(result)
            gets = phase.samples["get"].raw
            result.add("ops_per_s", phase.ops_per_s(), "1/s", phase.requests)
            result.add_latency("main_p50_us", phase.scaled("get"), 0.5)
            result.add_latency("main_p90_us", phase.scaled("get"), 0.9)
            result.add_latency("second_p50_us", phase.scaled("put"), 0.5)
            result.add_latency("third_p50_us", phase.scaled("scan"), 0.5)
            result.add("storage_bytes_per_user_byte", storage, "B/B",
                       KEYS + state.puts_acked)
            result.add("peak_rss_mb", rss, "MB")
            result.notes.append(
                f"raw ops_per_s {phase.ops_per_s(scaled=False):.1f}, main_p50_us "
                f"{percentile(gets, 0.5) * 1e6:.1f}, main_p90_us "
                f"{percentile(gets, 0.9) * 1e6:.1f}; reference scale {ref.overall():.3f}"
            )
            return result

        # Both halves run on the same launcher, each on a fresh start.
        state = setup(seed, ref, launch=False)
        state.start(served=True)
        plain, _ = asyncio.run(_phase(state, per_conn // 2, rng, result, ref))
        state.stop()
        tracer = Tracer()
        state.start(served=True, trace=True)
        traced, stats = asyncio.run(
            _phase(state, per_conn // 2, rng, result, ref, tracer, ROOT_PROBES)
        )
        state.stop()
        with open(state.stats_out) as handle:
            server_trace = json.load(handle)
        state.final_checks(result)
        _layer_metrics(result, plain, traced, stats, server_trace)
        result.tracer = tracer
        return result
    finally:
        if state is not None:
            state.close()
        ref.close()


def _layer_metrics(result: Result, plain: Phase, traced: Phase, stats: dict,
                   server_trace: dict) -> None:
    samples = {op: values.raw for op, values in traced.samples.items()}
    gets, puts = len(samples["get"]), len(samples["put"])
    spans = server_trace["spans"]
    engine_get = spans.get("core.get", {"count": 0, "total_s": 0.0})
    root_rtt = mean(samples["root"]) * 1e6
    result.add("transport.root_rtt_us", root_rtt, "us", len(samples["root"]))
    for op in ("get", "put", "scan"):
        result.add(f"server.op_mean_us.{op}", _op_mean_us(stats, op), "us",
                   stats["latency"]["op"].get(op, {}).get("count", 0))
    for name in ("core.get", "core.put_many", "core.commit_plain", "core.commit_flush",
                 "core.scan"):
        row = spans.get(name, {"count": 0, "total_s": 0.0})
        result.add(f"{name}_us", safe_div(row["total_s"], row["count"]) * 1e6, "us",
                   row["count"])
    server_gets = stats["ops"]["get"]
    engine_per_get = engine_get["total_s"] / server_gets * 1e6
    server_get = _op_mean_us(stats, "get")
    rtt = mean(samples["get"]) * 1e6
    result.add("server.cache_hit_frac", stats["cache"]["hit_rate"], "1",
               stats["cache"]["lookups"])
    result.add("server.negative_hit_frac", stats["negative_cache"]["hit_rate"], "1",
               stats["negative_cache"]["lookups"])
    result.add("server.engine_pages_per_get",
               sum(server_trace["pages"].get("core.get", {}).values()) / server_gets, "count",
               server_gets)
    batcher = stats["batcher"]
    result.add("server.commits", batcher["commits"], "count")
    result.add("server.avg_batch", batcher["avg_batch"], "count", batcher["commits"])
    result.add("server.timer_flush_frac",
               safe_div(batcher["timer_flushes"], batcher["commits"]), "1",
               batcher["commits"])
    flushes = spans.get("core.commit_flush", {"count": 0})["count"]
    result.add("core.flushes", flushes, "count")
    result.add("core.write_amp", stats["engine"]["compaction"]["write_amp"], "1")
    result.add("core.disk_levels", stats["engine"]["disk_levels"], "count")
    merges = stats["latency"]["merge"]
    result.add("server.merge_s", sum(row["sum"] for row in merges.values()), "s",
               sum(row["count"] for row in merges.values()))
    result.add("server.hop_us", server_get - engine_per_get, "us", server_gets)
    fsync = stats["latency"].get("wal_fsync", {"count": 0, "sum": 0.0})
    result.add("wal.fsync_mean_us", safe_div(fsync["sum"], fsync["count"]) * 1e6, "us",
               fsync["count"])
    result.add("wal.fsyncs_per_put", safe_div(stats["wal"]["syncs"], puts), "count", puts)
    result.add("budget.get.rtt_mean_us", rtt, "us", gets)
    result.add("budget.get.client_transport_us", rtt - root_rtt - server_get, "us", gets)
    result.add("budget.get.engine_us", engine_per_get, "us", server_gets)
    get_s = plain.scaled("get")
    result.add_latency("tail.main_p99_us", get_s, 0.99)
    result.add("tail.main_max_us", max(get_s) * 1e6, "us", len(get_s))
    result.add_latency("tail.second_p99_us", plain.scaled("put"), 0.99)
    result.add("trace.overhead_frac", 1 - traced.ops_per_s() / plain.ops_per_s(), "1",
               traced.requests)
    result.notes.append(
        f"served GET budget (mean us): rtt {rtt:.1f} = root floor {root_rtt:.1f}"
        f" + client/transport {rtt - root_rtt - server_get:.1f}"
        f" + server handler {server_get:.1f}"
        f" (hop {server_get - engine_per_get:.1f} + engine {engine_per_get:.1f})"
    )
