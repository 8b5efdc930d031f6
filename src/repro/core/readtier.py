"""The engine's non-blocking read tier: an answer, or "incomplete".

Every engine read has a ``try_*`` twin (``try_get``, ``try_get_at``,
``try_get_many``, ``try_scan``) that runs the same ungated read-path
internals, but never waits: it try-acquires the
:class:`~repro.common.gate.CommitGate` shared and reads pages in no-wait
mode (:mod:`repro.diskio.nowait`).  Where the blocking call would have
waited, the twin returns one of the :class:`Incomplete` sentinels below
instead — RocksDB's ``Status::Incomplete`` under
``read_tier = kBlockCacheTier``.  The caller (the serving layer's event
loop) then falls back to the blocking call on a thread pool.

The sentinels' ``reason`` strings double as the serving layer's
``repro_read_tier_total`` outcome labels, next to ``"inline"`` for an
answered request (:data:`OUTCOMES`).
"""

from __future__ import annotations


class Incomplete:
    """A ``try_*`` read that gave up instead of waiting, and why."""

    __slots__ = ("reason",)

    def __init__(self, reason: str) -> None:
        self.reason = reason

    def __repr__(self) -> str:
        return f"Incomplete({self.reason!r})"


#: The gate is held (or wanted) exclusively by a commit, put or rewind.
GATE_BUSY = Incomplete("gate_busy")
#: A page is not in the OS page cache, or the filesystem cannot say.
WOULD_BLOCK = Incomplete("would_block")
#: The request ran past its one-switch-interval deadline
#: (:class:`~repro.diskio.nowait.Attempt`).
OVER_BUDGET = Incomplete("budget")

#: Every outcome of a read-tier attempt, answered one first.
OUTCOMES = ("inline", GATE_BUSY.reason, WOULD_BLOCK.reason, OVER_BUDGET.reason)
