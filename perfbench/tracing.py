"""Benchmark-side tracing: spans recorded around calls into the layers.

Nothing here reaches inside the program.  :class:`TimedEngine` wraps an
engine and times its public methods; :class:`SpanIOStats` is the
``IOStats`` the engine is opened with, and bills every page access to
the span open on the calling thread, so background merge threads (which
run outside any span) do not pollute per-query page counts.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.diskio.iostats import IOStats

_now = time.perf_counter


class Tracer:
    """In-memory span recorder: (name, start, end, parent, request id).

    Spans nest per thread; a span's parent is the span open on the same
    thread when it began.  Everything stays in memory until :meth:`dump`.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (span name, page category) -> pages read inside such spans.
        self.pages: Dict[Tuple[str, str], int] = defaultdict(int)

    def reset(self) -> None:
        """Forget everything recorded so far.  Call only while no span
        is open (between phases)."""
        with self._lock:
            self.spans.clear()
            self.pages.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, req: Optional[int] = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if req is None and parent is not None:
            req = self.spans[parent][4]
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, _now(), 0.0, parent, req])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = _now()
        self._stack().pop()

    def current(self) -> Optional[str]:
        """Name of the innermost span open on this thread, if any."""
        stack = getattr(self._local, "stack", None)
        return self.spans[stack[-1]][0] if stack else None

    def add_pages(self, category: str, pages: int) -> None:
        name = self.current()
        if name is not None:
            with self._lock:
                self.pages[(name, category)] += pages

    def summary(self) -> Dict[str, dict]:
        """Per span name: count, total time and self time (seconds).

        Self time is the span's duration minus its direct children's.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _req in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Dict[str, dict] = {}
        for index, (name, start, end, _parent, _req) in enumerate(self.spans):
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        return out

    def pages_of(self, span: str) -> Dict[str, int]:
        return {cat: n for (name, cat), n in self.pages.items() if name == span}

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (once, at the end of a run)."""
        with open(path, "w") as handle:
            for name, start, end, parent, req in self.spans:
                handle.write(json.dumps([name, start, end, parent, req]) + "\n")


class SpanIOStats(IOStats):
    """``IOStats`` that also bills page reads to the caller's open span."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    def record_read(self, category: str, pages: int = 1) -> None:
        super().record_read(category, pages)
        self.tracer.add_pages(category, pages)


def _spin(seconds: float) -> None:
    """Hold the GIL doing pure-Python work for ``seconds`` of this
    thread's CPU time (what a costlier background merge does)."""
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


class TimedEngine:
    """Engine proxy: spans around the engine's public calls.

    ``tracer`` may be ``None`` (no spans).  The sensitivity tests use the
    other two arguments to make one layer slower on purpose: ``delays``
    maps a method name to seconds slept before the real call, and
    ``burn`` maps a method name to seconds of CPU-bound work started on a
    background thread after each call, which competes for the GIL and a
    core as merge threads do.  ``commit_block`` is recorded as
    ``core.commit_flush`` or ``core.commit_plain`` by asking
    ``needs_cascade()`` first.  Every other attribute passes through.
    """

    def __init__(self, engine, tracer: Optional[Tracer] = None, delays=None,
                 burn=None) -> None:
        self._engine = engine
        self._tracer = tracer
        self._delays = dict(delays or {})
        self._burn = dict(burn or {})
        self._background: List[threading.Thread] = []

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def _call(self, method: str, span: str, *args, **kwargs):
        delay = self._delays.get(method)
        tracer = self._tracer
        index = tracer.begin(span) if tracer is not None else None
        try:
            if delay:
                time.sleep(delay)
            return getattr(self._engine, method)(*args, **kwargs)
        finally:
            if index is not None:
                tracer.end(index)
            burn = self._burn.get(method)
            if burn:
                self._background = [t for t in self._background if t.is_alive()]
                thread = threading.Thread(target=_spin, args=(burn,), daemon=True)
                thread.start()
                self._background.append(thread)

    def join_background(self) -> None:
        """Wait for the background work ``burn`` started."""
        for thread in self._background:
            thread.join()
        self._background.clear()

    def get(self, addr):
        return self._call("get", "core.get", addr)

    def get_at(self, addr, blk):
        return self._call("get_at", "core.get_at", addr, blk)

    def put_many(self, items):
        return self._call("put_many", "core.put_many", items)

    def commit_block(self, *args, **kwargs):
        span = "core.commit_flush" if self._engine.needs_cascade() else "core.commit_plain"
        return self._call("commit_block", span, *args, **kwargs)

    def scan(self, *args, **kwargs):
        return self._call("scan", "core.scan", *args, **kwargs)

    def prov_query(self, addr, blk_low, blk_high):
        return self._call("prov_query", "core.prov_query", addr, blk_low, blk_high)
