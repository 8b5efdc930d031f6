"""No-wait page reads: the IO half of the engine's non-blocking read tier.

The serving layer answers cache-miss reads on its event loop when it
can do so without waiting, in the spirit of RocksDB's
``read_tier = kBlockCacheTier`` (answer from memory or report
"incomplete").  This module holds the per-thread switch that turns
every :meth:`PagedFile.read_page <repro.diskio.pagefile.PagedFile.read_page>`
on the calling thread into a no-wait read, one :class:`Attempt` per
request:

* a page is read with ``os.preadv(..., os.RWF_NOWAIT)``, which the
  kernel answers only from the OS page cache; a page that would need
  disk IO raises :class:`~repro.common.errors.WouldBlockError`, as does
  a filesystem that refuses the flag (tmpfs answers EOPNOTSUPP) or a
  platform without it;
* the attempt may run for one GIL switch interval
  (``sys.getswitchinterval()``, 5 ms by default) — no longer than an
  executor thread holding the GIL already keeps the event loop
  waiting.  Past that deadline the next page read (or explicit
  :func:`check_read_budget`) raises
  :class:`~repro.common.errors.ReadBudgetExceeded`;
* the attempt holds back its page-cache bookkeeping (hit and miss
  counts, segmented-LRU fills and promotions) and applies it only when
  the request answers.  An attempt that gives up leaves no trace, so
  its blocking retry bills every access exactly once.

The mode is thread-local, so background merge threads sharing the same
file handles keep reading normally.  Outside :func:`no_wait_reads`
nothing changes.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import ReadBudgetExceeded

#: The clock of every attempt's deadline (tests replace it, so they
#: never time real work).
clock = time.perf_counter


class Attempt:
    """One no-wait request on the calling thread: its deadline, the
    pages it has read so far, and the page-cache bookkeeping it holds
    back until it answers."""

    __slots__ = ("deadline", "pages", "touched", "abandoned")

    def __init__(self) -> None:
        self.deadline = clock() + sys.getswitchinterval()
        #: ``(file, page_id) -> bytes`` of every page this attempt read,
        #: so a page touched twice costs one syscall.
        self.pages: Dict[Tuple[Any, int], bytes] = {}
        #: ``(file, page_id, sequential, data)`` per page access, in order.
        self.touched: List[Tuple[Any, int, bool, bytes]] = []
        self.abandoned = False

    def check(self) -> None:
        """Raise :class:`ReadBudgetExceeded` once the deadline has passed."""
        if clock() >= self.deadline:
            raise ReadBudgetExceeded("no-wait read budget exhausted")

    def abandon(self) -> None:
        """Give up: the attempt's page accesses are never billed."""
        self.abandoned = True

    def settle(self) -> None:
        """Bill every page access, in order, as a blocking read would
        have (see :meth:`PagedFile.settle_read
        <repro.diskio.pagefile.PagedFile.settle_read>`)."""
        for file, page_id, sequential, data in self.touched:
            file.settle_read(page_id, sequential, data)


class _TierState(threading.local):
    """Per-thread tier state: ``attempt`` is the active :class:`Attempt`
    while the thread is inside :func:`no_wait_reads`, else ``None``.
    The class default keeps the per-read check a plain attribute load
    on every thread (a ``getattr`` default on a missing thread-local
    attribute costs an exception, ~0.6 µs per page read)."""

    attempt: Optional[Attempt] = None


TIER = _TierState()


class no_wait_reads:
    """``with no_wait_reads() as attempt:`` — page reads on this thread
    become no-wait reads of one :class:`Attempt`.

    Nested blocks join the outer attempt (one deadline, one
    settlement).  The outermost block settles the attempt on exit,
    unless something in it raised or called :meth:`Attempt.abandon`.
    """

    __slots__ = ("_outer",)

    def __enter__(self) -> Attempt:
        self._outer = TIER.attempt
        if self._outer is None:
            TIER.attempt = Attempt()
        return TIER.attempt

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        attempt = TIER.attempt
        if exc_type is not None:
            attempt.abandon()
        if self._outer is None:
            TIER.attempt = None
            if not attempt.abandoned:
                attempt.settle()


def check_read_budget() -> None:
    """Raise :class:`ReadBudgetExceeded` if this thread is in no-wait
    mode past its deadline; a no-op otherwise.  For engine loops that
    can run long without reading a page (bloom probes of a big batch)."""
    attempt = TIER.attempt
    if attempt is not None:
        attempt.check()
