"""The non-blocking read tier: ``try_*`` engine reads and the server's
inline read path.

Most tests replace the no-wait page read with a plain ``pread`` (the
``cached_reads`` fixture): they check the tier's logic — parity with the
blocking reads, the gate try-acquire, the budget — the same way on any
filesystem, including tmpfs, which refuses ``RWF_NOWAIT``.  One test
exercises the real flag where the filesystem supports it; the fallback
tests make ``os.preadv`` fail the two ways the kernel does.
"""

import asyncio
import errno
import itertools
import os
import random
import threading
import time

import pytest

from repro.common.errors import StorageError, WouldBlockError
from repro.common.gate import CommitGate
from repro.common.params import ColeParams, ShardParams, SystemParams
from repro.core import Cole
from repro.core.readtier import GATE_BUSY, OVER_BUDGET, WOULD_BLOCK
from repro.diskio import nowait
from repro.diskio.nowait import no_wait_reads
from repro.diskio.pagefile import PagedFile
from repro.server import ServerClient, ServerConfig, ServerThread
from repro.sharding import ShardedCole

ADDR = 20
VALUE = 24
PARAMS = ColeParams(
    system=SystemParams(addr_size=ADDR, value_size=VALUE),
    mem_capacity=32,
    size_ratio=2,
    async_merge=True,
)
KEYS = 96
BLOCKS = 40


def addr_of(n: int) -> bytes:
    return n.to_bytes(4, "big") * 5


def value_of(n: int, version: int) -> bytes:
    return n.to_bytes(4, "big") + version.to_bytes(4, "big") + b"\x00" * (VALUE - 8)


@pytest.fixture(autouse=True)
def no_deadline(monkeypatch):
    """A frozen tier clock: no attempt runs out of time, so no answer or
    count here depends on the host's speed.  The budget tests install a
    stepping clock instead."""
    monkeypatch.setattr(nowait, "clock", lambda: 0.0)


@pytest.fixture
def cached_reads(monkeypatch):
    """No-wait page reads that always find their page in the OS cache."""

    def read(self, page_id):
        return os.pread(self._fd, self.page_size, page_id * self.page_size)

    monkeypatch.setattr(PagedFile, "_pread_nowait", read)


def load(engine, seed: int = 7, blocks: int = BLOCKS) -> None:
    """A random write history: each block rewrites a random third of
    the key space (so keys spread over L0 and several runs)."""
    rng = random.Random(seed)
    for blk in range(1, blocks + 1):
        engine.begin_block(blk)
        chosen = rng.sample(range(KEYS), KEYS // 3)
        engine.put_many([(addr_of(n), value_of(n, blk)) for n in chosen])
        engine.commit_block()


def make_engine(kind: str, tmp_path):
    if kind == "sharded":
        return ShardedCole(
            str(tmp_path / "ws"), ShardParams(cole=PARAMS, num_shards=3)
        )
    params = PARAMS if kind == "async" else ColeParams(
        system=PARAMS.system, mem_capacity=32, size_ratio=2, async_merge=False
    )
    return Cole(str(tmp_path / "ws"), params)


# =============================================================================
# engine: try_* parity with the blocking reads
# =============================================================================

@pytest.mark.parametrize("kind", ["async", "sync", "sharded"])
def test_try_reads_match_blocking_reads(tmp_path, cached_reads, kind):
    engine = make_engine(kind, tmp_path)
    try:
        load(engine)
        rng = random.Random(11)
        absent = [addr_of(KEYS + n) for n in range(4)]
        for n in range(KEYS):
            addr = addr_of(n)
            assert engine.try_get(addr) == engine.get(addr)
            blk = rng.randint(0, BLOCKS + 2)
            assert engine.try_get_at(addr, blk) == engine.get_at(addr, blk)
        for addr in absent:
            assert engine.try_get(addr) is None
        for _ in range(10):
            batch = [addr_of(rng.randrange(KEYS)) for _ in range(rng.randint(1, 40))]
            batch += rng.sample(absent, 2) + batch[:3]  # absent keys, duplicates
            assert engine.try_get_many(batch) == engine.get_many(batch)
        for _ in range(20):
            low, high = sorted(rng.sample(range(KEYS), 2))
            at_blk = rng.choice([None, rng.randint(0, BLOCKS)])
            limit = rng.choice([None, 1, 7, 50])
            expected = engine.scan(
                addr_of(low), addr_of(high), at_blk=at_blk, limit=limit
            )
            assert engine.try_scan(
                addr_of(low), addr_of(high), at_blk=at_blk, limit=limit
            ) == expected
        assert engine.try_scan(addr_of(0), addr_of(1), limit=0) == []
    finally:
        engine.close()


def test_try_scan_validates_like_scan(tmp_path, cached_reads):
    engine = make_engine("async", tmp_path)
    try:
        for low, high in ((addr_of(5), addr_of(1)), (b"short", addr_of(1))):
            with pytest.raises(StorageError):
                engine.scan(low, high)
            with pytest.raises(StorageError):
                engine.try_scan(low, high)
    finally:
        engine.close()


def test_real_no_wait_reads_answer_cached_pages(tmp_path):
    """On a filesystem with ``RWF_NOWAIT`` (ext4, xfs, btrfs), pages a
    blocking read just touched are in the OS page cache, so the tier
    answers inline."""
    probe = PagedFile(str(tmp_path / "probe"), 4096)
    probe.append_page(b"x")
    try:
        with no_wait_reads():
            probe.read_page(0)
    except WouldBlockError:
        pytest.skip("this filesystem (or platform) has no RWF_NOWAIT reads")
    finally:
        probe.close()
    engine = make_engine("async", tmp_path)
    try:
        load(engine)
        for n in range(KEYS):
            expected = engine.get(addr_of(n))  # warms the OS page cache
            assert engine.try_get(addr_of(n)) == expected
    finally:
        engine.close()


def cache_state(engine):
    """The engine's page-access counters and every run value file's
    segmented-LRU contents."""
    stats = engine.stats
    files = [
        source.source.value_file._file
        for source in engine._read_sources()
        if source.kind == "run"
    ]
    return (
        dict(stats.page_reads),
        dict(stats.cache_hits),
        dict(stats.cache_misses),
        dict(stats.cache_promotions),
        [(list(f._probation), list(f._protected)) for f in files],
    )


def test_abandoned_attempt_is_billed_like_one_blocking_read(tmp_path, monkeypatch):
    """A no-wait attempt that gives up partway through a lookup (its
    second run's index page is "not cached") and then retries blocking
    leaves the same counts and cache segments as one blocking lookup:
    pages the attempt touched are neither billed twice nor promoted."""
    params = ColeParams(
        system=PARAMS.system,
        mem_capacity=32,
        size_ratio=2,
        async_merge=False,
        value_cache_pages=64,
    )
    blocking, tiered = (Cole(str(tmp_path / name), params) for name in ("a", "b"))
    for engine in (blocking, tiered):
        load(engine)

    def pread(self, page_id):
        touched = nowait.TIER.attempt.touched
        if self.category == "index" and any(f.category == "value" for f, *_ in touched):
            raise WouldBlockError("a second run's index page is not cached")
        return os.pread(self._fd, self.page_size, page_id * self.page_size)

    monkeypatch.setattr(PagedFile, "_pread_nowait", pread)
    fallbacks = 0
    try:
        for _pass in range(2):  # cold value-page caches, then warm ones
            for n in range(KEYS):
                addr = addr_of(n)
                expected = blocking.get_at(addr, 1)
                answer = tiered.try_get_at(addr, 1)
                if answer is WOULD_BLOCK:
                    fallbacks += 1
                    answer = tiered.get_at(addr, 1)
                assert answer == expected
            assert cache_state(tiered) == cache_state(blocking)
        assert fallbacks > 0
        assert tiered.stats.cache_hits["value"] > 0
    finally:
        blocking.close()
        tiered.close()


# =============================================================================
# engine: the gate try-acquire
# =============================================================================

def test_gate_try_acquire_refuses_active_and_waiting_writers():
    gate = CommitGate("t")
    assert gate.try_acquire_shared()
    gate.release_shared()
    # A waiting writer (blocked on our shared hold) turns new readers away.
    gate.acquire_shared()
    writer = threading.Thread(target=gate.acquire_exclusive)
    writer.start()
    deadline = time.monotonic() + 10
    while not gate._writers_waiting and time.monotonic() < deadline:
        time.sleep(0.001)
    assert gate._writers_waiting
    assert not gate.try_acquire_shared()
    gate.release_shared()
    writer.join()
    # The writer now holds the gate exclusively.
    assert not gate.try_acquire_shared()
    gate.release_exclusive()
    assert gate.try_acquire_shared()
    gate.release_shared()


@pytest.mark.parametrize("kind", ["async", "sharded"])
def test_exclusive_holder_makes_try_reads_return_at_once(tmp_path, cached_reads, kind):
    engine = make_engine(kind, tmp_path)
    load(engine)
    addr = addr_of(3)
    expected = engine.get(addr)
    # For the sharded engine, the owning shard's gate blocks point reads
    # and the top-level gate blocks scans.
    gates = (
        [engine.gate, engine._shard_for(addr).gate] if kind == "sharded" else [engine.gate]
    )
    holding, release = threading.Event(), threading.Event()

    def hold() -> None:
        for gate in gates:
            gate.acquire_exclusive()
        holding.set()
        release.wait()
        for gate in reversed(gates):
            gate.release_exclusive()

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert holding.wait(10)
        started = time.perf_counter()
        assert engine.try_get(addr) is GATE_BUSY
        assert engine.try_get_at(addr, 5) is GATE_BUSY
        assert engine.try_get_many([addr, addr_of(4)]) is GATE_BUSY
        assert engine.try_scan(addr_of(0), addr_of(KEYS)) is GATE_BUSY
        # "At once": nowhere near a wait for the holder (which never lets go).
        assert time.perf_counter() - started < 1.0
    finally:
        release.set()
        holder.join()
    assert engine.try_get(addr) == expected
    engine.close()


def shard_page_reads(engine):
    return [dict(shard.stats.page_reads) for shard in engine.shards]


def test_sharded_attempt_bills_nothing_when_a_later_shard_is_busy(tmp_path, cached_reads):
    engine = make_engine("sharded", tmp_path)
    load(engine)
    engine.wait_for_merges()
    batch = [addr_of(n) for n in range(KEYS)]
    last = engine.shards[-1]
    before = shard_page_reads(engine)
    last.gate.acquire_exclusive()
    try:
        assert engine.try_get_many(batch) is GATE_BUSY
    finally:
        last.gate.release_exclusive()
    # The earlier shards answered, but the batch did not: nothing billed.
    assert shard_page_reads(engine) == before
    assert engine.try_get_many(batch) == engine.get_many(batch)
    assert shard_page_reads(engine) != before
    engine.close()


# =============================================================================
# engine: the inline budget (injected clock, no real timing)
# =============================================================================

class StepClock:
    """A clock that advances ``step`` seconds every time it is read."""

    def __init__(self, step: float) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def test_budget_stops_a_big_batch_and_a_long_scan(tmp_path, cached_reads, monkeypatch):
    engine = make_engine("async", tmp_path)
    try:
        load(engine)
        batch = [addr_of(n) for n in range(KEYS)]
        expected = engine.get_many(batch)
        # The frozen clock never runs out: the whole batch answers inline.
        assert engine.try_get_many(batch) == expected
        # One millisecond per clock read: the sixth budget check (a run
        # source or a page read) is past the 5 ms deadline.
        monkeypatch.setattr(nowait, "clock", StepClock(0.001))
        assert engine.try_get_many(batch) is OVER_BUDGET
        assert engine.try_scan(addr_of(0), addr_of(KEYS)) is OVER_BUDGET
        # A clock a thousand times slower stays inside the same budget.
        monkeypatch.setattr(nowait, "clock", StepClock(1e-6))
        assert engine.try_get_many(batch) == expected
    finally:
        engine.close()


# =============================================================================
# server: inline answers, fallbacks, budget, and a commit hammer
# =============================================================================

def serve(engine, **config_kwargs):
    return ServerThread(engine, config=ServerConfig(**config_kwargs))


def disk_loaded_engine(tmp_path):
    engine = make_engine("async", tmp_path)
    load(engine)
    engine.wait_for_merges()
    return engine


async def read_everything(host, port, expected):
    """GET, GET_AT, MULTI_GET and SCAN over disjoint key sets (so no
    answer comes from the read cache); returns STATS."""
    thirds = KEYS // 3
    async with ServerClient(host, port) as client:
        for n in range(thirds):
            assert await client.get(addr_of(n)) == expected[n]
        for n in range(thirds, 2 * thirds):
            assert await client.get_at(addr_of(n), BLOCKS) == expected[n]
        rest = list(range(2 * thirds, KEYS))
        assert await client.multi_get([addr_of(n) for n in rest]) == [
            expected[n] for n in rest
        ]
        rows = await client.scan(addr_of(0), addr_of(KEYS - 1), page_size=32)
        assert [(addr, value) for addr, _blk, value in rows] == [
            (addr_of(n), expected[n]) for n in sorted(expected) if expected[n] is not None
        ]
        return await client.stats()


def tier_totals(stats: dict) -> dict:
    totals = dict.fromkeys(("inline", "gate_busy", "would_block", "budget"), 0)
    for counts in stats["read_tier"].values():
        for outcome, count in counts.items():
            totals[outcome] += count
    return totals


def test_server_answers_inline_when_pages_are_cached(tmp_path, cached_reads):
    engine = disk_loaded_engine(tmp_path)
    expected = {n: engine.get(addr_of(n)) for n in range(KEYS)}
    with serve(engine) as thread:
        stats = asyncio.run(read_everything(*thread.start(), expected))
    engine.close()
    totals = tier_totals(stats)
    assert totals["inline"] > 0
    assert totals["would_block"] == totals["budget"] == 0
    assert stats["read_tier"]["scan"]["inline"] >= 1
    assert stats["read_tier"]["multi_get"]["inline"] == 1


@pytest.mark.parametrize(
    "failure",
    [
        BlockingIOError(errno.EAGAIN, "page not cached"),
        OSError(errno.EOPNOTSUPP, "Operation not supported"),
    ],
    ids=["eagain", "eopnotsupp"],
)
def test_server_falls_back_when_no_wait_reads_fail(tmp_path, monkeypatch, failure):
    engine = disk_loaded_engine(tmp_path)
    expected = {n: engine.get(addr_of(n)) for n in range(KEYS)}
    attempts = []

    def preadv(fd, buffers, offset, flags=0):
        attempts.append(fd)
        raise failure

    monkeypatch.setattr(os, "preadv", preadv)
    with serve(engine) as thread:
        stats = asyncio.run(read_everything(*thread.start(), expected))
    engine.close()
    assert attempts
    totals = tier_totals(stats)
    assert totals["would_block"] > 0
    # Every fallback still answered (read_everything checked the values).
    assert stats["read_tier"]["multi_get"]["would_block"] == 1
    if failure.errno == errno.EOPNOTSUPP:
        # The refusal is remembered per file: one syscall each, at most.
        assert len(attempts) == len(set(attempts))


def test_server_inline_budget_falls_back(tmp_path, cached_reads, monkeypatch):
    engine = disk_loaded_engine(tmp_path)
    expected = {n: engine.get(addr_of(n)) for n in range(KEYS)}
    with serve(engine) as thread:
        host, port = thread.start()
        # Every clock read is one second later: any inline request that
        # reads a page is over its 5 ms budget at that read.
        monkeypatch.setattr(nowait, "clock", StepClock(1.0))
        stats = asyncio.run(read_everything(host, port, expected))
    engine.close()
    assert stats["read_tier"]["scan"]["budget"] >= 1
    assert stats["read_tier"]["multi_get"]["budget"] == 1
    assert stats["read_tier"]["get"]["budget"] > 0


def test_get_never_older_than_own_acked_put_under_commit_hammer(
    tmp_path, cached_reads
):
    """Clients PUT and immediately GET their own keys while small group
    commits, L0 flushes and merges run underneath: every GET and
    MULTI_GET must return the client's latest acked value."""
    engine = make_engine("async", tmp_path)
    load(engine, blocks=10)
    clients, rounds, own = 4, 120, 6

    async def client_loop(host, port, cid):
        mine = [addr_of(1000 + cid * own + k) for k in range(own)]
        latest = {}
        async with ServerClient(host, port) as client:
            for i in range(rounds):
                addr = mine[i % own]
                value = value_of(cid, i)
                await client.put(addr, value)
                latest[addr] = value
                other = mine[(i + 3) % own]
                assert await client.get(addr) == value
                assert await client.get(other) == latest.get(other)
                if i % 10 == 0:
                    assert await client.multi_get(mine) == [latest.get(a) for a in mine]

    async def scenario(host, port):
        await asyncio.gather(*(client_loop(host, port, c) for c in range(clients)))
        async with ServerClient(host, port) as client:
            return await client.stats()

    with serve(engine, batch_max_puts=4, batch_max_delay=0.001) as thread:
        stats = asyncio.run(scenario(*thread.start()))
    engine.close()
    assert stats["batcher"]["commits"] > 20
    assert tier_totals(stats)["inline"] > 0


def test_read_tier_metrics_and_query_row(tmp_path, cached_reads):
    from repro.obs.query import collect_caches

    engine = disk_loaded_engine(tmp_path)

    async def scenario(host, port):
        async with ServerClient(host, port) as client:
            for n in range(8):
                await client.get(addr_of(n))
            return await client.stats(), await client.metrics()

    with serve(engine) as thread:
        stats, text = asyncio.run(scenario(*thread.start()))
    engine.close()
    assert 'repro_read_tier_total{op="get",outcome="inline"} 8' in text
    for op, outcome in itertools.product(
        ("get", "get_at", "multi_get", "scan"),
        ("inline", "gate_busy", "would_block", "budget"),
    ):
        assert f'repro_read_tier_total{{op="{op}",outcome="{outcome}"}}' in text
    rows = {row["cache"]: row for row in collect_caches(stats)}
    assert rows["read_tier"]["hits"] == 8
    assert rows["read_tier"]["lookups"] == 8
    assert rows["read_tier"]["hit_rate"] == 1.0
