"""Shared pieces of the benchmark: the metric list, sample statistics,
the result record, the host-speed reference clocks, work directories and
memory readings."""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Root of the checkout the benchmark runs in (the parent of perfbench/).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for workspaces, server logs and trace files.
WORK = os.path.join(ROOT, ".perfbench_work")

#: Times set-up is repeated per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def metric_units(section: str) -> Dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` lists under
    ``section`` (``end_to_end`` or ``per_layer``), in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of raw samples (``fraction`` in 0..1)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def mean(samples: Sequence[float]) -> float:
    return sum(samples) / len(samples) if samples else 0.0


def safe_div(num: float, den: float) -> float:
    """``num / den``, or 0 when the layer did no work (``den`` is 0)."""
    return num / den if den else 0.0


@dataclass
class Result:
    """What one run measured: metrics with units and sample counts, plus
    the correctness tally."""

    metrics: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: The traced run's span recorder, dumped by run.py at the end.
    tracer: Optional[object] = None

    def add(self, name: str, value: float, unit: str, count: int = 1) -> None:
        self.metrics[name] = (float(value), unit, int(count))

    def add_latency(self, name: str, samples_s: Sequence[float], fraction: float) -> None:
        """A percentile of ``samples_s`` (seconds), reported in µs."""
        self.add(name, percentile(samples_s, fraction) * 1e6, "us", len(samples_s))

    def check(self, ok: bool, what: str) -> None:
        """Count one correctness check; keep the first few failures."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)


class Samples:
    """Raw operation durations, each tagged with the reference slice
    timed just before it (see :class:`ReferenceClock`)."""

    def __init__(self) -> None:
        self.raw: List[float] = []
        self.ticks: List[int] = []

    def add(self, seconds: float, tick: int) -> None:
        self.raw.append(seconds)
        self.ticks.append(tick)

    def __len__(self) -> int:
        return len(self.raw)


class ReferenceSlice:
    """A fixed slice of reference work: blake2b over 512-byte slices of
    pages picked at random from 4 MiB, keyed into a dict — the engine's
    own mix of page copies, hashing and dict work, with a working set
    large enough to feel cache pressure as the engine does.

    The slice is timed in thread CPU time.  That clock stops while the
    thread waits for the GIL or for a core, so the program's own
    background work (merge threads, a busy server on the same core)
    cannot slow the slice and cancel its cost out of the scaled times.
    It still runs while the host slows the core on a host that accounts
    no steal time (as the 2-core host of NOTES.md): there, CPU time
    equals wall time while the thread runs alone.
    """

    PAGES = 1024
    READS = 100

    def __init__(self) -> None:
        rng = random.Random(0)
        self._pages = [rng.randbytes(4096) for _ in range(self.PAGES)]
        self._order = [rng.randrange(self.PAGES) for _ in range(self.READS)]

    def time(self) -> float:
        """Run the slice once; returns its thread CPU time in seconds."""
        started = time.thread_time()
        digests = {}
        pages = self._pages
        for n, index in enumerate(self._order):
            digests[hashlib.blake2b(pages[index][:512]).digest()] = n
        return time.thread_time() - started


class ReferenceClock:
    """Host-speed reference for in-process workloads.

    On a small shared host the interpreter's speed on one core swings by
    up to 2x within seconds (see NOTES.md), and a busy thread rarely
    changes core.  So the measuring thread itself times a
    :class:`ReferenceSlice` between operations, never inside one.
    :meth:`scale` turns a raw duration into reference-speed time: raw x
    ``NOMINAL_S`` / the median slice time around it.
    """

    #: The slice's duration on an unloaded core of the reference host.
    NOMINAL_S = 200e-6
    #: Reference slices on each side of an operation that set its scale.
    WINDOW = 15

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._slice = ReferenceSlice()

    def _measure(self) -> float:
        return self._slice.time()

    def tick(self) -> int:
        """Time one reference slice; returns its index."""
        self.samples.append(self._measure())
        return len(self.samples) - 1

    def factor(self, index: int) -> float:
        """Reference-speed seconds per raw second around slice ``index``."""
        window = sorted(self.samples[max(0, index - self.WINDOW):index + self.WINDOW + 1])
        return self.NOMINAL_S / window[len(window) // 2]

    def scale(self, samples: Samples) -> List[float]:
        """``samples`` in reference-speed seconds, each scaled by the
        slices around the one timed just before it."""
        factors: Dict[int, float] = {}
        out = []
        for sample, index in zip(samples.raw, samples.ticks):
            if index not in factors:
                factors[index] = self.factor(index)
            out.append(sample * factors[index])
        return out

    def overall(self, start: int = 0) -> float:
        """Reference-speed seconds per raw second over the slices from
        index ``start`` on."""
        ordered = sorted(self.samples[start:])
        return self.NOMINAL_S / ordered[len(ordered) // 2]


def sampler_main() -> None:
    """Helper process of :class:`CoreSampler`: time a slice for each
    line read from stdin, write its time as a line; stop at end of input."""
    ref = ReferenceSlice()
    for _ in sys.stdin:
        sys.stdout.write(f"{ref.time()!r}\n")
        sys.stdout.flush()


class CoreSampler(ReferenceClock):
    """:class:`ReferenceClock` whose slices run on every core at once.

    For a workload spread over processes that hop between cores (client
    and server), the speed that matters is the cores' average, which a
    slice in one thread cannot see.  One helper process per core times a
    slice at each :meth:`tick`, all at the same moment, while the
    workload has nothing in flight; the tick records their mean.  The
    helpers are plain child processes on pipes (no ``multiprocessing``,
    whose resource tracker would outlive the run); :meth:`close` ends
    and waits for every one of them.
    """

    def __init__(self) -> None:
        self.samples = []
        self._procs = []
        env = dict(os.environ, PYTHONPATH=ROOT)
        code = "from perfbench.common import sampler_main; sampler_main()"
        try:
            for _ in range(os.cpu_count() or 2):
                self._procs.append(subprocess.Popen(
                    [sys.executable, "-c", code], cwd=ROOT, env=env,
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                ))
        except BaseException:
            self.close()
            raise

    def _measure(self) -> float:
        for proc in self._procs:
            proc.stdin.write("\n")
            proc.stdin.flush()
        return sum(float(proc.stdout.readline()) for proc in self._procs) / len(self._procs)

    def close(self) -> None:
        """Stop the helpers and wait for them."""
        procs, self._procs = self._procs, []
        for proc in procs:
            try:
                proc.stdin.close()
            except OSError:
                pass
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


def repeated_setup(result: Result, build, repeats: int,
                   ref: Optional[ReferenceClock] = None):
    """Run ``build()`` ``repeats`` times, closing every state but the
    last, and report ``setup_s`` as the median set-up time (scaled by the
    slices ``build`` ticks on ``ref``, when given).  Returns the last
    state."""
    state = None
    raw: List[float] = []
    scaled: List[float] = []
    for _ in range(repeats):
        if state is not None:
            state.close()
        first, started = len(ref.samples) if ref else 0, time.perf_counter()
        state = build()
        raw.append(time.perf_counter() - started)
        scaled.append(raw[-1] * ref.overall(first) if ref else raw[-1])
    result.add("setup_s", sorted(scaled)[len(scaled) // 2], "s", len(scaled))
    if ref is not None:
        result.notes.append("raw setup_s " + " ".join(f"{t:.3f}" for t in raw))
    return state


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size of this process, or of ``pid`` (Linux)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def fresh_workdir(name: str) -> str:
    """An empty directory under the benchmark's scratch space."""
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
