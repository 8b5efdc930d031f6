"""Unit and property tests for the bloom filter."""

import random

from hypothesis import given, strategies as st

from repro.bloomfilter import BloomFilter


def test_added_items_are_members():
    bloom = BloomFilter(1024, 5)
    items = [f"item{i}".encode() for i in range(50)]
    for item in items:
        bloom.add(item)
    assert all(item in bloom for item in items)


def test_count_tracks_adds():
    bloom = BloomFilter(256, 3)
    bloom.add(b"a")
    bloom.add(b"b")
    assert bloom.count == 2


def test_false_positive_rate_is_reasonable():
    rng = random.Random(7)
    bloom = BloomFilter.for_capacity(1000, bits_per_key=10, num_hashes=7)
    members = [rng.randbytes(16) for _ in range(1000)]
    for item in members:
        bloom.add(item)
    negatives = [rng.randbytes(16) for _ in range(2000)]
    false_positives = sum(1 for item in negatives if item in bloom)
    assert false_positives / len(negatives) < 0.05  # theory: ~0.8%


def test_serialization_round_trip():
    bloom = BloomFilter(512, 4)
    for i in range(20):
        bloom.add(f"k{i}".encode())
    restored = BloomFilter.from_bytes(bloom.to_bytes())
    assert restored.num_bits == bloom.num_bits
    assert restored.num_hashes == bloom.num_hashes
    assert restored.count == bloom.count
    assert all(f"k{i}".encode() in restored for i in range(20))
    assert restored.digest() == bloom.digest()


def test_digest_changes_with_content():
    a = BloomFilter(256, 3)
    b = BloomFilter(256, 3)
    a.add(b"x")
    assert a.digest() != b.digest()


def test_empty_filter_rate_is_zero():
    assert BloomFilter(256, 3).false_positive_rate() == 0.0


def test_size_bytes_matches_serialization():
    bloom = BloomFilter(1000, 5)
    assert bloom.size_bytes() == len(bloom.to_bytes())


@given(st.lists(st.binary(min_size=1, max_size=32), min_size=1, max_size=100, unique=True))
def test_no_false_negatives_property(items):
    bloom = BloomFilter.for_capacity(len(items), 10, 7)
    for item in items:
        bloom.add(item)
    assert all(item in bloom for item in items)


def test_filter_bytes_are_pinned():
    """Hashing once per address and probing lazily must not move a
    single bit: filter bytes are folded into every run's commitment."""
    bloom = BloomFilter.for_capacity(100, 10, 7)
    for i in range(100):
        bloom.add(b"addr-%03d" % i)
    assert bloom.digest().hex() == (
        "c6f5c5d48b4f7ae1bb2882f380c49718e2540a98c9d2f5e630145ed5ffac7073"
    )


@given(st.lists(st.binary(min_size=1, max_size=24), max_size=40), st.binary(max_size=24))
def test_hashed_probe_matches_membership(members, probe):
    """One hash pair serves every filter, whatever its size."""
    pair = BloomFilter.hash_pair(probe)
    for num_bits, num_hashes in ((8, 1), (97, 3), (1000, 7)):
        bloom = BloomFilter(num_bits, num_hashes)
        for item in members:
            bloom.add(item)
        assert bloom.contains_hashed(pair) == (probe in bloom)
        for item in members:
            assert bloom.contains_hashed(BloomFilter.hash_pair(item))


class _CountingBits(bytearray):
    reads = 0

    def __getitem__(self, index):
        _CountingBits.reads += 1
        return super().__getitem__(index)


def test_probe_stops_at_the_first_clear_bit():
    bloom = BloomFilter(1024, 7)
    bloom._bits = _CountingBits(bloom._bits)  # all clear
    _CountingBits.reads = 0
    assert b"absent" not in bloom
    assert _CountingBits.reads == 1
