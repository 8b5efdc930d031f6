"""Workload ``history-prov``: read-only historical queries on COLE*.

Set-up builds a chain in the shape of ``repro.workloads.ProvenanceWorkload``:
its 200 base keys rewritten continuously through the KVStore contract,
100 distinct keys per block for 200 blocks, so each address carries
about 100 versions spread over the in-memory level and the disk levels.  The
timed phase then runs a fixed number of query rounds on one thread, each
round one of each: a provenance query over the last ``PROV_RANGE`` blocks
followed by ``verify_provenance`` against ``root_digest()`` (Figure 14's
shape), a ``get_at`` at a random past height, and a short ``scan``.  It
performs no writes.

Where the numbers come from: ``PROV_RANGE`` = 64 is a point of Figure
14's block-range sweep (``run_provenance_range``, q = 2 to 128) whose
range reaches past the in-memory level (B = 512, five blocks of writes)
into the disk levels, so proofs carry run items and bloom negatives.
No published mix of historical queries exists, so each round runs one
query of each kind: every latency slot gets the same number of samples,
and ``ops_per_s`` is the query rate of that fixed round.

Latency slots: main = provenance query + verification, second =
``get_at``, third = ``scan`` (``SCAN_LIMIT`` addresses).  ``ops_per_s``
counts queries.  Times are reported at reference speed
(``ReferenceClock``: one slice per query round).
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional

from repro.bench.harness import BENCH_CONTEXT, BENCH_SYSTEM, make_engine
from repro.chain.executor import BlockExecutor
from repro.chain.transaction import Transaction
from repro.common.errors import VerificationError
from repro import verify_provenance
from repro.core.proofs import MemProofItem, RunNegativeItem, RunProofItem, StubItem
from repro.diskio.iostats import IOStats
from repro.workloads import ProvenanceWorkload

from perfbench.common import (
    SETUP_REPEATS,
    ReferenceClock,
    Result,
    Samples,
    fresh_workdir,
    peak_rss_mb,
    percentile,
    remove,
    repeated_setup,
    safe_div,
)
from perfbench.tracing import SpanIOStats, TimedEngine, Tracer

BASE_KEYS = 200
BLOCK_KEYS = 100
BUILD_BLOCKS = 200
PROV_RANGE = 64
SCAN_LIMIT = 8
#: Timed query rounds per ``--seconds`` (a fixed count, sized so the
#: phase takes about that long on a 2-core host).
ROUNDS_PER_SECOND = 150
PAIR_BYTES = BENCH_SYSTEM.addr_size + BENCH_SYSTEM.value_size
PROOF_KINDS = (
    ("mem", MemProofItem),
    ("run", RunProofItem),
    ("bloom_negative", RunNegativeItem),
    ("stub", StubItem),
)

_now = time.perf_counter


class HistoryState:
    """A built chain plus the model of every version written into it."""

    def __init__(self, seed: int, workdir: str, ref: ReferenceClock,
                 tracer: Optional[Tracer]) -> None:
        self.seed = seed
        self.ref = ref
        self.workdir = workdir
        self.stats = SpanIOStats(tracer) if tracer is not None else IOStats()
        self.engine = make_engine("cole*", workdir, self.stats)
        #: addr -> {blk: value}: every version the benchmark wrote.
        self.history: Dict[bytes, Dict[int, bytes]] = {}
        self.addrs: List[bytes] = []
        self.height = 0
        self.root = b""

    def build(self) -> None:
        # Every block rewrites BLOCK_KEYS distinct base keys, so the level
        # layout is the same for every seed; only keys and payloads vary.
        rng = random.Random(self.seed)
        keys = ProvenanceWorkload(num_base_keys=BASE_KEYS, seed=self.seed).base_keys()
        executor = BlockExecutor(self.engine, BENCH_CONTEXT, record_latencies=False)
        contract = executor.contracts["kvstore"]
        for _ in range(BUILD_BLOCKS):
            self.ref.tick()
            self.height += 1
            self.engine.begin_block(self.height)
            for key in rng.sample(keys, BLOCK_KEYS):
                payload = "%032x" % rng.getrandbits(128)
                executor.execute_transaction(Transaction("kvstore", "write", (key, payload)))
                self.history.setdefault(contract.key_addr(key), {})[self.height] = (
                    BENCH_CONTEXT.encode_blob(payload.encode())
                )
            self.engine.commit_block()
        self.engine.wait_for_merges()
        self.addrs = sorted(self.history)
        self.root = self.engine.root_digest()

    def value_at(self, addr: bytes, blk: int) -> Optional[bytes]:
        versions = self.history[addr]
        older = [b for b in versions if b <= blk]
        return versions[max(older)] if older else None

    def close(self) -> None:
        self.engine.close()
        remove(self.workdir)


class Phase:
    def __init__(self, ref: ReferenceClock) -> None:
        self.ref = ref
        self.prov = Samples()
        self.get_at = Samples()
        self.scan = Samples()
        self.proof_bytes = 0
        self.proof_items = {kind: 0 for kind, _cls in PROOF_KINDS}
        self.scan_rows = 0

    def ops_per_s(self, scaled: bool = True) -> float:
        kinds = (self.prov, self.get_at, self.scan)
        scale = self.ref.scale if scaled else (lambda samples: samples.raw)
        return sum(len(k) for k in kinds) / sum(sum(scale(k)) for k in kinds)


def _queries(state: HistoryState, rounds: int, result: Result, rng: random.Random,
             engine=None, tracer: Optional[Tracer] = None) -> Phase:
    engine = engine if engine is not None else state.engine
    addrs, height, root = state.addrs, state.height, state.root
    low = height - PROV_RANGE + 1
    phase = Phase(state.ref)
    for _ in range(rounds):
        ref = state.ref.tick()
        # Provenance query + verification (one timed operation).
        addr = addrs[rng.randrange(len(addrs))]
        tick = _now()
        answer = engine.prov_query(addr, low, height)
        span = tracer.begin("core.verify") if tracer is not None else None
        try:
            verified = verify_provenance(answer, root, addr_size=BENCH_SYSTEM.addr_size)
        except VerificationError as exc:
            verified = f"rejected: {exc}"
        if span is not None:
            tracer.end(span)
        phase.prov.add(_now() - tick, ref)
        expected = sorted((b, v) for b, v in state.history[addr].items() if b >= low)
        result.check(verified == expected and answer.versions == expected,
                     f"prov {addr.hex()[:8]}")
        phase.proof_bytes += answer.proof.size_bytes()
        for item in answer.proof.items:
            for kind, cls in PROOF_KINDS:
                if isinstance(item, cls):
                    phase.proof_items[kind] += 1

        # Point lookup at a random past height.
        addr = addrs[rng.randrange(len(addrs))]
        blk = rng.randint(1, height)
        tick = _now()
        value = engine.get_at(addr, blk)
        phase.get_at.add(_now() - tick, ref)
        result.check(value == state.value_at(addr, blk), f"get_at {addr.hex()[:8]}@{blk}")

        # Short key-ordered scan of the latest state.
        start = rng.randrange(len(addrs))
        tick = _now()
        rows = engine.scan(addrs[start], b"\xff" * len(addrs[start]), limit=SCAN_LIMIT)
        phase.scan.add(_now() - tick, ref)
        phase.scan_rows += len(rows)
        want = []
        for addr in addrs[start:start + SCAN_LIMIT]:
            blk = max(state.history[addr])
            want.append((addr, blk, state.history[addr][blk]))
        result.check([tuple(row) for row in rows] == want, f"scan {start}")
    return phase


def setup(seed: int, ref: ReferenceClock, tracer: Optional[Tracer] = None) -> HistoryState:
    state = HistoryState(seed, fresh_workdir(f"history-{seed}"), ref, tracer)
    state.build()
    return state


def run(seed: int, seconds: float, trace: bool, delays=None,
        setup_repeats: int = SETUP_REPEATS) -> Result:
    result = Result()
    ref = ReferenceClock()
    rounds = max(2, round(seconds * ROUNDS_PER_SECOND))
    rng = random.Random(seed * 7919 + 1)
    if not trace:
        state = repeated_setup(result, lambda: setup(seed, ref), setup_repeats, ref)
        engine = TimedEngine(state.engine, delays=delays) if delays else None
        phase = _queries(state, rounds, result, rng, engine)
        prov_s = ref.scale(phase.prov)
        result.add("ops_per_s", phase.ops_per_s(), "1/s", 3 * rounds)
        result.add_latency("main_p50_us", prov_s, 0.5)
        result.add_latency("main_p90_us", prov_s, 0.9)
        result.add_latency("second_p50_us", ref.scale(phase.get_at), 0.5)
        result.add_latency("third_p50_us", ref.scale(phase.scan), 0.5)
        result.add("storage_bytes_per_user_byte",
                   state.engine.storage_bytes() / (state.engine.puts_total * PAIR_BYTES),
                   "B/B", state.engine.puts_total)
        result.add("peak_rss_mb", peak_rss_mb(), "MB")
        result.notes.append(
            f"raw ops_per_s {phase.ops_per_s(scaled=False):.1f}, main_p50_us "
            f"{percentile(phase.prov.raw, 0.5) * 1e6:.1f}, main_p90_us "
            f"{percentile(phase.prov.raw, 0.9) * 1e6:.1f}; reference scale "
            f"{ref.overall():.3f}"
        )
        state.close()
        return result

    tracer = Tracer()
    state = setup(seed, ref, tracer)
    plain = _queries(state, rounds // 2, result, rng)
    traced = _queries(state, rounds // 2, result, rng,
                      TimedEngine(state.engine, tracer), tracer)
    spans = tracer.summary()
    count = len(traced.prov)
    for name in ("core.prov_query", "core.verify", "core.get_at", "core.scan"):
        row = spans[name]
        result.add(f"{name}_us", row["total_s"] / row["count"] * 1e6, "us", row["count"])
    for kind, _cls in PROOF_KINDS:
        result.add(f"core.proof_items.{kind}", traced.proof_items[kind] / count, "count",
                   count)
    searched = traced.proof_items["run"] + traced.proof_items["bloom_negative"]
    result.add("bloom.negative_frac",
               safe_div(traced.proof_items["bloom_negative"], searched), "1", searched)
    result.add("core.prov_proof_bytes", traced.proof_bytes / count, "B", count)
    pages = tracer.pages_of("core.prov_query")
    for category in ("value", "index", "merkle"):
        result.add(f"diskio.pages_per_prov.{category}", pages.get(category, 0) / count,
                   "count", count)
    result.add("diskio.pages_per_get_at",
               sum(tracer.pages_of("core.get_at").values()) / count, "count", count)
    result.add("core.scan_rows", traced.scan_rows / count, "count", count)
    result.add("diskio.pages_per_scan",
               sum(tracer.pages_of("core.scan").values()) / count, "count", count)
    prov_s = ref.scale(plain.prov)
    result.add_latency("tail.main_p99_us", prov_s, 0.99)
    result.add("tail.main_max_us", max(prov_s) * 1e6, "us", len(prov_s))
    result.add_latency("tail.second_p99_us", ref.scale(plain.get_at), 0.99)
    result.add("trace.overhead_frac", 1 - traced.ops_per_s() / plain.ops_per_s(), "1",
               3 * count)
    result.tracer = tracer
    state.close()
    return result
