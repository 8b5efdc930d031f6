"""Exception hierarchy for the reproduction.

A single root (:class:`ReproError`) lets callers catch everything the
library raises on purpose, while the subclasses distinguish storage-layer
faults from authentication failures.
"""


class ReproError(Exception):
    """Root of the library's exception hierarchy."""


class StorageError(ReproError):
    """A disk-level operation failed (bad page id, truncated file, ...)."""


class IntegrityError(ReproError):
    """Stored data failed an internal consistency check."""


class VerificationError(ReproError):
    """A Merkle proof failed to verify against the published root digest."""


class RecoveryError(ReproError):
    """Crash recovery could not restore a consistent state."""


class WouldBlockError(ReproError):
    """A no-wait read could not complete without waiting.

    Raised by :class:`~repro.diskio.pagefile.PagedFile` in no-wait mode
    (see :mod:`repro.diskio.nowait`) when a page is not in the OS page
    cache, or when the filesystem cannot answer a no-wait read at all
    (tmpfs refuses ``RWF_NOWAIT`` with EOPNOTSUPP).  The engine's
    non-blocking read tier turns it into an "incomplete" answer; it
    never escapes a blocking read.
    """


class ReadBudgetExceeded(WouldBlockError):
    """A no-wait read ran past its time budget (the read tier's bound
    on how long one request may keep the event loop)."""
