"""Workload ``chain-smallbank``: SmallBank blocks executed on COLE*.

A Blockbench SmallBank stream (``repro.workloads.SmallBankWorkload``) at
the paper's 100 transactions per block, executed by ``BlockExecutor`` on
the ``cole*`` engine of ``repro.bench.harness``.  10 000 customers hold
20 000 account states, about 40 times the in-memory level (B = 512), so
contract reads reach the disk levels.  Set-up creates the accounts and
runs warm-up blocks through several flush and merge cycles, then waits
for merges.  The timed phase is a fixed number of blocks.

Latency slots: main = one whole block (execution plus ``commit_block``;
p90 lands in blocks whose commit flushes L0), second = one transaction
(contract reads, then one ``put_many``), third = ``commit_block``.
``ops_per_s`` counts transactions.  Times are reported at reference
speed (``ReferenceClock``: one slice per block).
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, Optional

from repro.bench.harness import BENCH_CONTEXT, BENCH_SYSTEM, make_engine
from repro.chain.executor import BlockExecutor
from repro.diskio.iostats import IOStats
from repro.workloads import SmallBankWorkload

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

ACCOUNTS = 10_000
TXS_PER_BLOCK = 100
WARMUP_BLOCKS = 60
#: Timed blocks per ``--seconds``: sized so the phase takes about that
#: long on a 2-core host.  A fixed count, not a time window.
BLOCKS_PER_SECOND = 30
PAIR_BYTES = BENCH_SYSTEM.addr_size + BENCH_SYSTEM.value_size

_now = time.perf_counter


class SmallBankModel:
    """The benchmark's own SmallBank ledger: the expected result of
    every transaction, computed without the storage engine."""

    def __init__(self) -> None:
        self.savings: Dict[str, int] = {}
        self.checking: Dict[str, int] = {}

    def apply(self, tx) -> Optional[int]:
        op, args = tx.op, tx.args
        sav, chk = self.savings, self.checking
        if op == "create_account":
            customer, savings, checking = args
            sav[customer], chk[customer] = savings, checking
            return None
        if op == "get_balance":
            return sav[args[0]] + chk[args[0]]
        if op == "update_balance":
            chk[args[0]] += args[1]
            return chk[args[0]]
        if op == "update_saving":
            sav[args[0]] += args[1]
            return sav[args[0]]
        if op == "write_check":
            chk[args[0]] -= args[1]
            return chk[args[0]]
        if op == "send_payment":
            sender, receiver, amount = args
            sent = chk[sender] - amount
            received = chk[receiver] + amount
            chk[sender], chk[receiver] = sent, received
            return sent
        if op == "amalgamate":
            customer, target = args
            total = sav[customer] + chk[customer] + chk[target]
            sav[customer] = chk[customer] = 0
            chk[target] = total
            return total
        raise ValueError(f"unknown SmallBank op {op}")


class ChainState:
    """One built chain: engine, executor, transaction stream and model."""

    def __init__(self, seed: int, workdir: str, ref: ReferenceClock,
                 tracer: Optional[Tracer]) -> None:
        self.workdir = workdir
        self.ref = ref
        stats = SpanIOStats(tracer) if tracer is not None else IOStats()
        self.engine = make_engine("cole*", workdir, stats)
        self.stats = stats
        self.executor = BlockExecutor(
            self.engine, BENCH_CONTEXT, txs_per_block=TXS_PER_BLOCK, record_latencies=False
        )
        self.model = SmallBankModel()
        workload = SmallBankWorkload(num_accounts=ACCOUNTS, seed=seed)
        self.creates = workload.setup_transactions()
        self.stream = workload.transactions(10**12)  # drawn lazily
        self.height = 0

    def close(self) -> None:
        self.engine.close()
        remove(self.workdir)


class Phase:
    def __init__(self, ref: ReferenceClock) -> None:
        self.ref = ref
        self.commit = Samples()
        self.tx = Samples()
        self.block = Samples()

    def ops_per_s(self, scaled: bool = True) -> float:
        blocks = self.ref.scale(self.block) if scaled else self.block.raw
        return len(self.tx) / sum(blocks)


def _blocks(state: ChainState, source, count: int, result: Result,
            backend=None, tracer: Optional[Tracer] = None) -> Phase:
    """Execute ``count`` blocks drawn from ``source``, timing each part
    and checking every transaction's result against the model."""
    backend = backend if backend is not None else state.engine
    executor = state.executor
    executor.backend = backend
    execute = executor.execute_transaction
    phase = Phase(state.ref)
    for _ in range(count):
        txs = list(itertools.islice(source, TXS_PER_BLOCK))
        if not txs:
            break
        state.height += 1
        outputs = []
        ref = state.ref.tick()
        started = _now()
        backend.begin_block(state.height)
        for tx in txs:
            span = tracer.begin("chain.tx") if tracer is not None else None
            tick = _now()
            outputs.append(execute(tx))
            phase.tx.add(_now() - tick, ref)
            if span is not None:
                tracer.end(span)
        tick = _now()
        backend.commit_block()
        done = _now()
        phase.commit.add(done - tick, ref)
        phase.block.add(done - started, ref)
        for tx, output in zip(txs, outputs):
            expected = state.model.apply(tx)
            result.check(output == expected, f"{tx.op}{tx.args}: {output} != {expected}")
    return phase


def setup(seed: int, result: Result, ref: ReferenceClock,
          tracer: Optional[Tracer] = None) -> ChainState:
    state = ChainState(seed, fresh_workdir(f"chain-{seed}"), ref, tracer)
    _blocks(state, state.creates, 10**9, result)
    _blocks(state, state.stream, WARMUP_BLOCKS, result)
    state.engine.wait_for_merges()
    return state


def _final_checks(state: ChainState, result: Result) -> None:
    """Read back a sample of accounts through ``get`` after the run."""
    contract = state.executor.contracts["smallbank"]
    decode = BENCH_CONTEXT.decode_int
    for index in range(0, ACCOUNTS, 37):
        customer = f"acct{index}"
        got = decode(state.engine.get(contract.checking_addr(customer)))
        result.check(got == state.model.checking[customer], f"checking {customer}")
        got = decode(state.engine.get(contract.savings_addr(customer)))
        result.check(got == state.model.savings[customer], f"savings {customer}")


def _storage_ratio(state: ChainState) -> float:
    state.engine.wait_for_merges()
    return state.engine.storage_bytes() / (state.engine.puts_total * PAIR_BYTES)


def run(seed: int, seconds: float, trace: bool, delays=None, burn=None,
        setup_repeats: int = SETUP_REPEATS) -> Result:
    result = Result()
    ref = ReferenceClock()
    blocks = max(2, round(seconds * BLOCKS_PER_SECOND))
    if not trace:
        state = repeated_setup(result, lambda: setup(seed, result, ref),
                               setup_repeats, ref)
        backend = None
        if delays or burn:
            backend = TimedEngine(state.engine, delays=delays, burn=burn)
        phase = _blocks(state, state.stream, blocks, result, backend)
        if backend is not None:
            backend.join_background()
        _final_checks(state, result)
        block_s = phase.block.raw
        result.add("ops_per_s", phase.ops_per_s(), "1/s", len(phase.tx))
        result.add_latency("main_p50_us", ref.scale(phase.block), 0.5)
        result.add_latency("main_p90_us", ref.scale(phase.block), 0.9)
        result.add_latency("second_p50_us", ref.scale(phase.tx), 0.5)
        result.add_latency("third_p50_us", ref.scale(phase.commit), 0.5)
        result.add("storage_bytes_per_user_byte", _storage_ratio(state), "B/B",
                   state.engine.puts_total)
        result.add("peak_rss_mb", peak_rss_mb(), "MB")
        result.notes.append(
            f"raw ops_per_s {phase.ops_per_s(scaled=False):.1f}, main_p50_us "
            f"{percentile(block_s, 0.5) * 1e6:.1f}, main_p90_us "
            f"{percentile(block_s, 0.9) * 1e6:.1f}; reference scale "
            f"{ref.overall():.3f}"
        )
        state.close()
        return result

    tracer = Tracer()
    state = setup(seed, result, ref, tracer)
    plain = _blocks(state, state.stream, blocks // 2, result)
    state.engine.wait_for_merges()
    writes_before = state.stats.total_writes
    puts_before = state.engine.puts_total
    traced = _blocks(state, state.stream, blocks // 2, result,
                     TimedEngine(state.engine, tracer), tracer)
    state.engine.wait_for_merges()
    _final_checks(state, result)
    spans = tracer.summary()
    txs = spans["chain.tx"]
    gets = spans.get("core.get", {"count": 0, "total_s": 0.0})
    puts = state.engine.puts_total - puts_before
    result.add("chain.tx_self_us", txs["self_s"] / txs["count"] * 1e6, "us", txs["count"])
    result.add("core.get_us", safe_div(gets["total_s"], gets["count"]) * 1e6, "us",
               gets["count"])
    result.add("core.gets_per_tx", gets["count"] / txs["count"], "count", txs["count"])
    for name in ("core.put_many", "core.commit_plain", "core.commit_flush"):
        row = spans.get(name, {"count": 0, "total_s": 0.0})
        result.add(f"{name}_us", safe_div(row["total_s"], row["count"]) * 1e6, "us",
                   row["count"])
    result.add("core.flushes", spans.get("core.commit_flush", {"count": 0})["count"],
               "count")
    result.add("core.write_amp", state.engine.compaction_stats()["write_amp"], "1")
    result.add("core.disk_levels", state.engine.num_disk_levels(), "count")
    result.add("diskio.page_writes_per_user_kb",
               (state.stats.total_writes - writes_before) / (puts * PAIR_BYTES / 1024),
               "count", puts)
    pages = tracer.pages_of("core.get")
    for category in ("value", "index", "merkle"):
        result.add(f"diskio.page_reads_per_get.{category}",
                   safe_div(pages.get(category, 0), gets["count"]), "count", gets["count"])
    block_s = ref.scale(plain.block)
    result.add_latency("tail.main_p99_us", block_s, 0.99)
    result.add("tail.main_max_us", max(block_s) * 1e6, "us", len(block_s))
    result.add_latency("tail.second_p99_us", ref.scale(plain.tx), 0.99)
    result.add("trace.overhead_frac", 1 - traced.ops_per_s() / plain.ops_per_s(), "1",
               len(traced.tx))
    result.tracer = tracer
    state.close()
    return result
