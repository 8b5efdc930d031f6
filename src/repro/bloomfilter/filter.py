"""A classic double-hashing bloom filter.

Double hashing (Kirsch & Mitzenmacher) derives the k probe positions from
two independent halves of a single SHA-256 digest, so membership is
deterministic across processes — required because blockchain nodes must
agree on the filter bytes that are hashed into the state root.  The
digest does not depend on the filter, so one hash of an address serves
every filter it is probed against (:meth:`BloomFilter.hash_pair`).
"""

from __future__ import annotations

import hashlib
import math
from typing import Tuple

from repro.common.codec import decode_u32, encode_u32
from repro.common.errors import StorageError
from repro.common.hashing import Digest, hash_bytes

#: ``(h1, h2)`` from :meth:`BloomFilter.hash_pair`.
HashPair = Tuple[int, int]


class BloomFilter:
    """Fixed-size bloom filter over byte-string items (state addresses)."""

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        """Create an empty filter with ``num_bits`` bits and ``num_hashes`` probes."""
        if num_bits < 8:
            num_bits = 8
        if num_hashes < 1:
            raise StorageError("bloom filter needs at least one hash function")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = bytearray((num_bits + 7) // 8)
        self._count = 0
        self._cached_digest: Digest | None = None

    @classmethod
    def for_capacity(cls, capacity: int, bits_per_key: int, num_hashes: int) -> "BloomFilter":
        """Size a filter for ``capacity`` expected keys at ``bits_per_key``."""
        return cls(max(8, capacity * bits_per_key), num_hashes)

    # -- membership ----------------------------------------------------------

    @staticmethod
    def hash_pair(item: bytes) -> HashPair:
        """The ``(h1, h2)`` double-hashing pair of ``item``: the two
        halves of one SHA-256 digest, ``h2`` forced odd.

        The one definition of the filter's hashing.  It does not depend
        on the filter's size, so a reader probing many filters (one per
        run) hashes an address once and hands the pair to each
        :meth:`contains_hashed` (Kirsch & Mitzenmacher, "Less Hashing,
        Same Performance").
        """
        digest = hashlib.sha256(item).digest()
        return (
            int.from_bytes(digest[:16], "big"),
            int.from_bytes(digest[16:], "big") | 1,  # odd => full cycle
        )

    def add(self, item: bytes) -> None:
        """Insert ``item`` into the filter."""
        h1, h2 = self.hash_pair(item)
        bits, num_bits = self._bits, self.num_bits
        for i in range(self.num_hashes):
            position = (h1 + i * h2) % num_bits
            bits[position >> 3] |= 1 << (position & 7)
        self._count += 1
        self._cached_digest = None

    def contains_hashed(self, pair: HashPair) -> bool:
        """Membership of the item whose :meth:`hash_pair` is ``pair``.

        Probes position ``(h1 + i*h2) mod m`` for ``i = 0..k-1`` and
        stops at the first clear bit, so a true negative usually costs
        one or two probes instead of ``k``.
        """
        bits, num_bits = self._bits, self.num_bits
        position = pair[0] % num_bits
        step = pair[1] % num_bits
        for _ in range(self.num_hashes):
            if not bits[position >> 3] & (1 << (position & 7)):
                return False
            position += step
            if position >= num_bits:
                position -= num_bits
        return True

    def __contains__(self, item: bytes) -> bool:
        return self.contains_hashed(self.hash_pair(item))

    def may_contain(self, item: bytes) -> bool:
        """True if ``item`` may be present (false positives possible)."""
        return item in self

    # -- statistics ----------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of ``add`` calls so far."""
        return self._count

    def false_positive_rate(self) -> float:
        """Theoretical false-positive probability at the current load."""
        if self._count == 0:
            return 0.0
        k, n, m = self.num_hashes, self._count, self.num_bits
        return (1.0 - math.exp(-k * n / m)) ** k

    # -- serialization (part of provenance proofs) ----------------------------

    def to_bytes(self) -> bytes:
        """Serialize to a stable byte string (used in proofs and digests)."""
        header = encode_u32(self.num_bits) + encode_u32(self.num_hashes) + encode_u32(self._count)
        return header + bytes(self._bits)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomFilter":
        """Reconstruct a filter serialized by :meth:`to_bytes`."""
        if len(data) < 12:
            raise StorageError("truncated bloom filter")
        num_bits = decode_u32(data, 0)
        num_hashes = decode_u32(data, 4)
        count = decode_u32(data, 8)
        bloom = cls(num_bits, num_hashes)
        payload = data[12:]
        if len(payload) != len(bloom._bits):
            raise StorageError("bloom filter payload size mismatch")
        bloom._bits = bytearray(payload)
        bloom._count = count
        return bloom

    def digest(self) -> Digest:
        """Digest of the serialized filter (folded into the state root, §4).

        Cached between mutations: runs are immutable once built, and the
        digest is recomputed into ``Hstate`` at every block commit.
        """
        if self._cached_digest is None:
            self._cached_digest = hash_bytes(self.to_bytes())
        return self._cached_digest

    def size_bytes(self) -> int:
        """Serialized size in bytes (counted in storage accounting)."""
        return 12 + len(self._bits)
