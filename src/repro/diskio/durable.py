"""Durable file publication: the one atomic-write path.

A small metadata document (an engine or cluster manifest, snapshot
metadata, the WAL header) is published by writing a temp file in the
same directory, fsyncing it, renaming it over the target, and fsyncing
the directory so the rename itself survives power loss.  A reader sees
either the old document or the new one, never a torn mix.
"""

from __future__ import annotations

import os
import secrets


def fsync_dir(path: str) -> None:
    """fsync a directory so freshly created or renamed entries survive
    a crash."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: str, text: str, sync_dir: bool = True) -> None:
    """Durably replace ``path`` with ``text`` (UTF-8).

    The temp name is unique per call, so concurrent writers never share
    one; on any failure the temp is removed and ``path`` is untouched.
    ``sync_dir=False`` skips the directory fsync and leaves the rename
    to the file system's next journal commit.
    """
    directory = os.path.dirname(os.path.abspath(path))
    temp = f"{path}.{secrets.token_hex(4)}.tmp"
    try:
        with open(temp, "x", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except FileNotFoundError:
            pass
        raise
    if sync_dir:
        fsync_dir(directory)
