"""Fixture: the same engine shapes, written to the gate contract."""

from repro.common.gate import CommitGate


class Engine:
    def __init__(self):
        self.gate = CommitGate()
        self.current_blk = -1
        self.levels = []

    def begin_block(self, height):
        with self.gate.exclusive():
            self.current_blk = height

    def commit_block(self):
        with self.gate.exclusive():
            self.levels = []
            return self._root_digest()

    def root_digest(self):
        with self.gate.shared():
            return self._root_digest()

    def _root_digest(self):
        # Underscore helper: the gate is already held by the caller.
        return b""

    def prov_query(self):
        with self.gate.shared():
            return self._root_digest()

    def try_get(self):
        # Non-blocking shared acquire, released like a blocking one.
        if not self.gate.try_acquire_shared():
            return None
        try:
            return self._root_digest()
        finally:
            self.gate.release_shared()
