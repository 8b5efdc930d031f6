"""Value files: the sorted compound key-value pairs of one run (Section 3.2).

Pairs are fixed-width (``addr || blk || value``) and packed
``pairs_per_page`` to a page, so position ``p`` lives on page
``p // pairs_per_page`` — exactly the geometry the learned models' error
bound ε is derived from (2ε = one page of pairs).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

from repro.common.errors import StorageError
from repro.common.params import SystemParams
from repro.diskio.pagefile import PagedFile

Entry = Tuple[int, bytes]  # (compound key as big int, value bytes)


class ValueFileWriter:
    """Streaming writer: appends sorted pairs page by page."""

    def __init__(self, file: PagedFile, params: SystemParams) -> None:
        self._file = file
        self._params = params
        self._pairs_per_page = params.pairs_per_page  # hoisted off the add loop
        self._buffer = bytearray()
        self._count = 0
        self._last_key: Optional[int] = None

    def add(self, key: int, value: bytes) -> int:
        """Append one pair; returns its position.  Keys must be increasing."""
        if self._last_key is not None and key <= self._last_key:
            raise StorageError("value file pairs must be strictly increasing")
        if len(value) != self._params.value_size:
            raise StorageError(
                f"value must be {self._params.value_size} bytes, got {len(value)}"
            )
        self._last_key = key
        self._buffer += _encode_pair(key, value, self._params)
        position = self._count
        self._count += 1
        if self._count % self._pairs_per_page == 0:
            self._file.append_page(bytes(self._buffer))
            self._buffer.clear()
        return position

    def finish(self) -> int:
        """Flush the trailing partial page; returns the total pair count."""
        if self._buffer:
            self._file.append_page(bytes(self._buffer))
            self._buffer.clear()
        self._file.flush()
        return self._count

    @property
    def count(self) -> int:
        """Pairs written so far."""
        return self._count


class ValueFile:
    """Read access to a finished value file of ``num_entries`` pairs.

    Decoding is deliberately lazy: page reads return raw bytes, and
    pairs are materialized one slot at a time only when a caller
    consumes them.  Floor searches binary-search the *raw* page (a
    handful of key decodes) instead of materializing every pair on it —
    page decode was the dominant cost of the whole read path.
    """

    def __init__(self, file: PagedFile, num_entries: int, params: SystemParams) -> None:
        self._file = file
        self._params = params
        self.num_entries = num_entries
        # Hoisted off every decode: the frozen-dataclass properties cost
        # a call per access, and a scan decodes many pairs.
        self._pairs_per_page = params.pairs_per_page
        self._pair_size = params.pair_size
        self._key_size = params.key_size

    @property
    def pairs_per_page(self) -> int:
        """Pairs per page (``2ε``)."""
        return self._pairs_per_page

    def page_of(self, position: int) -> int:
        """Page id holding the pair at ``position``."""
        return position // self._pairs_per_page

    def _page_count(self, page_id: int) -> int:
        """Number of pairs stored on ``page_id``."""
        return min(self._pairs_per_page, self.num_entries - page_id * self._pairs_per_page)

    def _slot_key(self, data: bytes, slot: int) -> int:
        offset = slot * self._pair_size
        return int.from_bytes(data[offset : offset + self._key_size], "big")

    def _slot_entry(self, data: bytes, slot: int) -> Entry:
        offset = slot * self._pair_size
        return (
            int.from_bytes(data[offset : offset + self._key_size], "big"),
            data[offset + self._key_size : offset + self._pair_size],
        )

    def read_page_entries(self, page_id: int) -> List[Entry]:
        """Decode all pairs stored on ``page_id`` (one page read)."""
        data = self._file.read_page(page_id)
        count = self._page_count(page_id)
        if count <= 0:
            raise StorageError(f"page {page_id} has no entries")
        return [self._slot_entry(data, slot) for slot in range(count)]

    def entry_at(self, position: int) -> Entry:
        """The pair at ``position`` (one page read, minus cache hits)."""
        if not 0 <= position < self.num_entries:
            raise StorageError(f"position {position} out of range")
        data = self._file.read_page(self.page_of(position))
        return self._slot_entry(data, position % self._pairs_per_page)

    def page_data(self, page_id: int) -> bytes:
        """The raw bytes of ``page_id`` (one page read, minus cache
        hits), for the ``*_in_data`` probes below."""
        return self._file.read_page(page_id)

    def bounds_in_data(self, data: bytes, page_id: int) -> Tuple[int, int]:
        """``(first_key, last_key)`` of page ``page_id`` whose bytes are
        ``data`` — two key decodes, no IO (the page-stepping probe of
        Algorithm 7)."""
        count = self._page_count(page_id)
        if count <= 0:
            raise StorageError(f"page {page_id} has no entries")
        return self._slot_key(data, 0), self._slot_key(data, count - 1)

    def floor_in_data(
        self, data: bytes, page_id: int, key: int
    ) -> Optional[Tuple[Entry, int]]:
        """Largest pair on page ``page_id`` (bytes ``data``) with pair
        key <= ``key``, if any.

        Binary search over the raw page: ~log2(pairs_per_page) key
        decodes plus one pair decode for the hit.
        """
        count = self._page_count(page_id)
        lo, hi = 0, count
        while lo < hi:
            mid = (lo + hi) // 2
            if self._slot_key(data, mid) <= key:
                lo = mid + 1
            else:
                hi = mid
        if lo == 0:
            return None
        slot = lo - 1
        return self._slot_entry(data, slot), page_id * self._pairs_per_page + slot

    def floor_in_page(self, page_id: int, key: int) -> Optional[Tuple[Entry, int]]:
        """:meth:`floor_in_data` on a fresh read of ``page_id``."""
        return self.floor_in_data(self.page_data(page_id), page_id, key)

    def scan_from(
        self, position: int, sequential: bool = True
    ) -> Iterator[Tuple[Entry, int]]:
        """Yield ``(pair, position)`` sequentially starting at ``position``.

        The streaming read of provenance queries (Algorithm 8 lines
        14-17) and of every run cursor: one page read per
        ``pairs_per_page`` pairs, each pair decoded only when the
        consumer actually pulls it (a limit-bounded scan stops paying
        mid-page).  Pages are read with the ``sequential`` hint (default
        on — every scan_from caller is streaming), so one large scan
        cannot evict the page cache's protected hot set.
        """
        page_id = self.page_of(position)
        while position < self.num_entries:
            data = self._file.read_page(page_id, sequential=sequential)
            first = page_id * self._pairs_per_page
            for slot in range(position - first, self._page_count(page_id)):
                yield self._slot_entry(data, slot), position
                position += 1
            page_id += 1

    def iter_entries(self) -> Iterator[Entry]:
        """Yield all pairs in key order (sequential page reads)."""
        for entry, _position in self.scan_from(0, sequential=True):
            yield entry


def _encode_pair(key: int, value: bytes, params: SystemParams) -> bytes:
    addr_and_blk = key.to_bytes(params.key_size, "big")
    return addr_and_blk + value


def write_value_file(
    file: PagedFile, entries: Iterable[Entry], params: SystemParams
) -> int:
    """Write ``entries`` (sorted) to ``file``; returns the pair count."""
    writer = ValueFileWriter(file, params)
    for key, value in entries:
        writer.add(key, value)
    return writer.finish()
