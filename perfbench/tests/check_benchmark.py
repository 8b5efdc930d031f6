"""Tests of the benchmark itself: its gates must be able to fail.

Run from the repository root (the file name keeps it out of the
repository's own test suite, which it would slow down by about a minute):

    python3 -m pytest perfbench/tests/check_benchmark.py -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import chain, history, serve  # noqa: E402
from perfbench.common import (  # noqa: E402
    ReferenceClock,
    Result,
    Samples,
    percentile,
)
from perfbench.tracing import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
BOUNDS = {metric["name"]: metric["bound"] for metric in SPEC["end_to_end"]}

#: Short runs: one set-up, about a second of timed work.
SHORT = dict(seconds=1.0, trace=False, setup_repeats=1)


def value(result: Result, name: str) -> float:
    return result.metrics[name][0]


def test_percentile_uses_raw_samples():
    samples = list(range(1, 101))
    random.Random(3).shuffle(samples)
    assert percentile(samples, 0.5) == 50
    assert percentile(samples, 0.9) == 90
    assert percentile(samples, 0.99) == 99
    assert percentile([7.0], 0.99) == 7.0


def test_self_time_subtracts_children():
    tracer = Tracer()
    outer = tracer.begin("outer", req=1)
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    tracer.spans[outer][1:3] = [0.0, 10.0]
    tracer.spans[inner][1:3] = [2.0, 6.0]
    summary = tracer.summary()
    assert summary["outer"]["self_s"] == pytest.approx(6.0)
    assert summary["inner"]["self_s"] == pytest.approx(4.0)
    assert tracer.spans[inner][3] == outer and tracer.spans[inner][4] == 1


def test_reference_scale_follows_local_slices():
    clock = ReferenceClock()
    clock.samples = [2 * clock.NOMINAL_S] * 40 + [clock.NOMINAL_S / 2] * 40
    samples = Samples()
    samples.add(1.0, 5)  # taken while slices ran at half speed
    samples.add(1.0, 75)  # taken while slices ran at double speed
    assert clock.scale(samples) == [pytest.approx(0.5), pytest.approx(2.0)]


def worse_beyond_bound(base: Result, slow: Result, metric: str) -> bool:
    """``slow`` is worse than ``base`` by more than the metric's bound."""
    if metric == "ops_per_s":
        return value(slow, metric) < value(base, metric) * (1 - BOUNDS[metric])
    return value(slow, metric) > value(base, metric) * (1 + BOUNDS[metric])


#: serve-kv's baseline runs on the same launcher as its slowed run.
SAME_SERVER = {chain: {}, history: {}, serve: {"served": True}}


@pytest.mark.parametrize(
    "module, method, delay, metric",
    [
        (chain, "commit_block", 0.010, "main_p50_us"),
        (history, "prov_query", 0.002, "main_p50_us"),
        (serve, "get", 0.002, "main_p50_us"),
    ],
    ids=["chain-smallbank", "history-prov", "serve-kv"],
)
def test_injected_delay_moves_metric_beyond_bound(module, method, delay, metric):
    base = module.run(11, **SHORT, **SAME_SERVER[module])
    slow = module.run(11, delays={method: delay}, **SHORT)
    assert base.failed == 0 and slow.failed == 0
    assert worse_beyond_bound(base, slow, metric)


@pytest.mark.parametrize(
    "module, burn, metrics",
    [
        (chain, 0.025, ["ops_per_s", "main_p90_us"]),
        (serve, 0.020, ["ops_per_s"]),
    ],
    ids=["chain-smallbank", "serve-kv"],
)
def test_background_cpu_work_moves_metrics_beyond_bound(module, burn, metrics):
    """CPU-bound work on a background thread after each commit (a merge
    that got costlier) holds the GIL and a core.  The reference slices
    must not absorb it: the metrics still get worse beyond their bounds."""
    base = module.run(11, **SHORT, **SAME_SERVER[module])
    slow = module.run(11, burn={"commit_block": burn}, **SHORT)
    assert base.failed == 0 and slow.failed == 0
    for metric in metrics:
        assert worse_beyond_bound(base, slow, metric), metric


COUNT_METRICS = {
    chain: ["diskio.page_reads_per_get.value", "diskio.page_reads_per_get.index",
            "diskio.page_reads_per_get.merkle", "core.gets_per_tx", "core.flushes",
            "core.write_amp", "diskio.page_writes_per_user_kb"],
    history: ["core.prov_proof_bytes", "core.proof_items.run",
              "core.proof_items.bloom_negative", "diskio.pages_per_prov.value",
              "diskio.pages_per_prov.index", "diskio.pages_per_prov.merkle",
              "diskio.pages_per_get_at", "diskio.pages_per_scan"],
}


@pytest.mark.parametrize("module", [chain, history], ids=["chain-smallbank", "history-prov"])
def test_same_seed_gives_identical_counts(module):
    first = module.run(5, seconds=1.0, trace=True)
    second = module.run(5, seconds=1.0, trace=True)
    for name in COUNT_METRICS[module]:
        assert value(first, name) == value(second, name), name
    plain = [module.run(5, **SHORT) for _ in range(2)]
    assert value(plain[0], "storage_bytes_per_user_byte") == value(
        plain[1], "storage_bytes_per_user_byte"
    )


class _StaleHistory:
    """An engine whose historical reads answer one block too early."""

    def __init__(self, engine) -> None:
        self._engine = engine

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def get_at(self, addr, blk):
        return self._engine.get_at(addr, max(0, blk - 1))


def test_oracle_counts_wrong_answers():
    state = history.setup(2, ReferenceClock())
    try:
        result = Result()
        history._queries(state, 50, result, random.Random(1), _StaleHistory(state.engine))
        assert result.failed > 0
    finally:
        state.close()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "history-prov",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
