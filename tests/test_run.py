"""Unit tests for on-disk runs (Algorithm 7 search + provenance scans)."""

import random

import pytest

from repro.bloomfilter import BloomFilter
from repro.common.params import ColeParams, SystemParams
from repro.core.compound import CompoundKey
from repro.core.merklefile import verify_range_proof
from repro.core.run import Run
from repro.diskio.workspace import Workspace


@pytest.fixture
def params():
    system = SystemParams(addr_size=8, value_size=8, page_size=256)
    return ColeParams(system=system, mem_capacity=16, size_ratio=3, mht_fanout=4)


def make_run(tmp_path, params, entries, name="r0"):
    ws = Workspace(str(tmp_path / "ws"), params.system.page_size)
    return Run.build(ws, name, 1, iter(entries), len(entries), params)


def make_entries(params, num_addrs=10, versions=5, seed=2):
    rng = random.Random(seed)
    addrs = sorted(rng.randbytes(params.system.addr_size) for _ in range(num_addrs))
    entries = []
    for addr in addrs:
        for blk in range(1, versions + 1):
            key = CompoundKey(addr=addr, blk=blk).to_int()
            entries.append((key, rng.randbytes(params.system.value_size)))
    return sorted(entries), addrs


def test_build_and_floor_search(tmp_path, params):
    entries, addrs = make_entries(params)
    run = make_run(tmp_path, params, entries)
    assert run.num_entries == len(entries)
    for key, value in entries:
        found = run.floor_search(key)
        assert found is not None
        assert found[0] == (key, value)


def test_floor_search_latest_version(tmp_path, params):
    entries, addrs = make_entries(params, versions=5)
    run = make_run(tmp_path, params, entries)
    sentinel = CompoundKey.latest_of(addrs[3]).to_int()
    (key, _value), _pos = run.floor_search(sentinel)
    assert CompoundKey.from_int(key, params.system.addr_size).addr == addrs[3]
    assert CompoundKey.from_int(key, params.system.addr_size).blk == 5


def test_floor_before_run_returns_none(tmp_path, params):
    entries, _addrs = make_entries(params)
    run = make_run(tmp_path, params, entries)
    assert run.floor_search(entries[0][0] - 1) is None


def test_bloom_filters_unknown_addresses(tmp_path, params):
    entries, addrs = make_entries(params)
    run = make_run(tmp_path, params, entries)
    assert all(run.may_contain(BloomFilter.hash_pair(addr)) for addr in addrs)
    rng = random.Random(99)
    misses = sum(
        1
        for _ in range(100)
        if run.may_contain(BloomFilter.hash_pair(rng.randbytes(params.system.addr_size)))
    )
    assert misses < 20


def test_commitment_binds_bloom(tmp_path, params):
    entries, _addrs = make_entries(params)
    run = make_run(tmp_path, params, entries)
    base = run.commitment()
    run.bloom.add(b"\xee" * params.system.addr_size)
    assert run.commitment() != base


def test_prov_scan_discloses_boundaries(tmp_path, params):
    entries, addrs = make_entries(params, versions=6)
    run = make_run(tmp_path, params, entries)
    addr = addrs[4]
    key_low = CompoundKey(addr=addr, blk=2).to_int()
    key_high = CompoundKey(addr=addr, blk=4).to_int()
    scan = run.prov_scan(key_low, key_high)
    disclosed_keys = [key for key, _value in scan.entries]
    assert disclosed_keys[0] <= key_low
    assert disclosed_keys[-1] > key_high or scan.hi == run.num_entries - 1
    verify_range_proof(scan.entries, scan.proof, run.merkle_file.root(), params.system.key_size)


def test_prov_scan_entire_run(tmp_path, params):
    entries, addrs = make_entries(params)
    run = make_run(tmp_path, params, entries)
    scan = run.prov_scan(entries[0][0], entries[-1][0])
    assert scan.lo == 0
    assert scan.hi == run.num_entries - 1
    assert scan.entries == entries


def test_run_count_mismatch_rejected(tmp_path, params):
    from repro.common.errors import StorageError

    entries, _addrs = make_entries(params)
    ws = Workspace(str(tmp_path / "ws2"), params.system.page_size)
    with pytest.raises(StorageError):
        Run.build(ws, "bad", 1, iter(entries), len(entries) + 5, params)


def test_run_load_round_trip(tmp_path, params):
    entries, addrs = make_entries(params)
    ws = Workspace(str(tmp_path / "ws3"), params.system.page_size)
    built = Run.build(ws, "persist", 1, iter(entries), len(entries), params)
    loaded = Run.load(ws, "persist", 1, len(entries), params, built.merkle_root)
    assert loaded.commitment() == built.commitment()
    sentinel = CompoundKey.latest_of(addrs[0]).to_int()
    assert loaded.floor_search(sentinel) == built.floor_search(sentinel)


def test_run_delete_removes_files(tmp_path, params):
    entries, _addrs = make_entries(params)
    ws = Workspace(str(tmp_path / "ws4"), params.system.page_size)
    run = Run.build(ws, "victim", 1, iter(entries), len(entries), params)
    assert run.storage_bytes() > 0
    run.delete()
    assert run.storage_bytes() == 0


def test_large_run_search_io_is_bounded(tmp_path, params):
    entries, addrs = make_entries(params, num_addrs=60, versions=20, seed=5)
    ws = Workspace(str(tmp_path / "ws5"), params.system.page_size)
    run = Run.build(ws, "big", 2, iter(entries), len(entries), params)
    stats = ws.stats
    before = stats.snapshot()
    sentinel = CompoundKey.latest_of(addrs[30]).to_int()
    assert run.floor_search(sentinel) is not None
    delta = stats.delta(before)
    # One or two pages per index layer plus at most three value pages.
    assert delta.total_reads <= 3 * run.index_file.num_layers + 3


def linear_entries(params, count=100):
    """Evenly spaced addresses, one version each: compound keys are
    linear in position, so the learned index predicts every page."""
    step = 2**40
    return [
        (
            CompoundKey(addr=((i + 1) * step).to_bytes(8, "big"), blk=1).to_int(),
            bytes([i]) * params.system.value_size,
        )
        for i in range(count)
    ]


def test_correct_page_prediction_bills_one_value_read(tmp_path, params):
    entries = linear_entries(params)
    run = make_run(tmp_path, params, entries)
    per_page = run.value_file.pairs_per_page
    stats = run.workspace.stats
    for position in (0, per_page + per_page // 2, len(entries) - 1):
        key = entries[position][0]
        assert run.index_file.search(key) // per_page == position // per_page
        before = stats.page_reads["value"]
        assert run.floor_search(key) == (entries[position], position)
        assert stats.page_reads["value"] - before == 1


def test_single_point_lookup_leaves_its_page_in_probation(tmp_path, params):
    cached = ColeParams(
        system=params.system,
        mem_capacity=params.mem_capacity,
        size_ratio=params.size_ratio,
        mht_fanout=params.mht_fanout,
        value_cache_pages=5,
    )
    entries = linear_entries(cached)
    built = make_run(tmp_path, cached, entries)
    built.workspace.close()
    # Reopened: the build's page fills are gone, the cache starts cold.
    workspace = Workspace(str(tmp_path / "ws"), cached.system.page_size)
    run = Run.load(workspace, "r0", 1, len(entries), cached, built.merkle_root)
    position = 2 * run.value_file.pairs_per_page + 3
    assert run.floor_search(entries[position][0]) == (entries[position], position)
    pages = run.value_file._file
    assert list(pages._probation) == [2]
    assert not pages._protected
    assert workspace.stats.cache_promotions["value"] == 0
