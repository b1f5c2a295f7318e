"""Machine speed: end-to-end timings are given at a fixed reference speed.

The benchmark runs on shared virtual machines whose CPUs change speed
with their neighbours' load, by up to 2x within a minute, and each virtual
CPU drifts on its own.  So the program runs pinned to one CPU
(``cpus()[0]``), and a sampler process pinned to the same CPU times a fixed
pure-Python reference scan every ``SAMPLE_EVERY`` seconds, by the scan's
own CPU time.  A ``Timebase`` built from those samples maps a wall-clock
interval to the time it would have taken on a CPU where the scan takes
``REFERENCE_S``.  The scan never imports the program, so a change under
test cannot move it.

Run as ``python3 perfbench/speed.py CPU``: the sampler pins itself to
``CPU``, samples until its stdin closes, then prints one JSON list of
``[monotonic time, scan CPU seconds]`` pairs.
"""

from __future__ import annotations

import bisect
import json
import os
import random
import select
import subprocess
import sys
import time
from typing import List, Sequence, Tuple

#: CPU seconds of one reference scan at the reference speed.
REFERENCE_S = 0.0016
#: Size of the reference scan's fixed input.
REFERENCE_BYTES = 8 * 1024
SAMPLE_EVERY = 0.05
#: Samples in the running median that gives each sample's speed.
SMOOTH = 3
MIN_SAMPLES = 3


#: The CPUs this benchmark may use, read before it pins itself.
AVAILABLE_CPUS = sorted(os.sched_getaffinity(0))


def cpus() -> Tuple[List[int], List[int]]:
    """CPUs for the program and its sampler, and CPUs for the benchmark
    process (the same CPU when only one is available)."""
    return AVAILABLE_CPUS[:1], AVAILABLE_CPUS[1:] or AVAILABLE_CPUS


def _reference_text() -> str:
    """A fixed tag-dense forest over ``a b c d`` (the same on every run)."""
    rng = random.Random(20050405)
    parts = ["<forest>"]

    def emit(depth: int) -> int:
        tag = rng.choice("abcd")
        if depth < 8 and rng.random() < 0.7:
            parts.append(f"<{tag}>")
            written = 2 * len(tag) + 5
            for _ in range(rng.randint(1, 3)):
                written += emit(depth + 1)
            parts.append(f"</{tag}>")
            return written
        piece = f"<{tag}>{rng.choice(('1', '2', 'x', 'hello'))}</{tag}>"
        parts.append(piece)
        return len(piece)

    size = 8
    while size < REFERENCE_BYTES:
        size += emit(1)
    parts.append("</forest>")
    return "".join(parts)


class _Node:
    __slots__ = ("tag", "depth", "children", "has_b")

    def __init__(self, tag: str, depth: int) -> None:
        self.tag = tag
        self.depth = depth
        self.children = 0
        self.has_b = False


def reference_scan(text: str) -> int:
    """Stack-based scan counting ``//a[b]//c``-like candidates: string
    search, slicing, small objects and dicts, the interpreter work the
    program does."""
    find = text.find
    stack: List[_Node] = []
    counts = {}
    found = 0
    position = 0
    while True:
        open_at = find("<", position)
        if open_at < 0:
            return found
        close_at = find(">", open_at)
        if text[open_at + 1] == "/":
            node = stack.pop()
            if node.tag == "c" and any(s.tag == "a" and s.has_b for s in stack):
                found += 1
            if stack and node.tag == "b":
                stack[-1].has_b = True
        else:
            tag = text[open_at + 1 : close_at]
            if stack:
                stack[-1].children += 1
            stack.append(_Node(tag, len(stack)))
            counts[tag] = counts.get(tag, 0) + 1
        position = close_at + 1


def _sample(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    text = _reference_text()
    samples = []
    while not select.select([sys.stdin], [], [], SAMPLE_EVERY)[0]:
        at = time.monotonic()
        start = time.thread_time()
        reference_scan(text)
        samples.append([at, time.thread_time() - start])
    sys.stdout.write(json.dumps(samples) + "\n")


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


class Timebase:
    """Wall-clock intervals converted to reference-speed seconds.

    Each sample's speed factor is ``REFERENCE_S`` over the running median
    of ``SMOOTH`` scan times around it; the factor holds from the midpoint
    with the previous sample to the midpoint with the next, and the
    converted length of an interval is the integral of the factor over it.
    """

    def __init__(self, samples: Sequence[Sequence[float]]) -> None:
        if len(samples) < MIN_SAMPLES:
            raise RuntimeError(f"only {len(samples)} machine-speed samples")
        times = [t for t, _ in samples]
        scans = [s for _, s in samples]
        half = SMOOTH // 2
        self.factors = [
            REFERENCE_S / _median(scans[max(0, k - half) : k + half + 1]) for k in range(len(scans))
        ]
        self.bounds = [(a + b) / 2.0 for a, b in zip(times, times[1:])]
        self.cumulative = [0.0]
        for k in range(1, len(self.bounds)):
            self.cumulative.append(self.cumulative[-1] + self.factors[k] * (self.bounds[k] - self.bounds[k - 1]))
        self.samples = len(samples)

    def at(self, t: float) -> float:
        """Reference-speed seconds from the first cell boundary to ``t``."""
        k = bisect.bisect_right(self.bounds, t)
        if k == 0:
            return (t - self.bounds[0]) * self.factors[0]
        return self.cumulative[k - 1] + (t - self.bounds[k - 1]) * self.factors[k]

    def factor_at(self, t: float) -> float:
        """Speed factor at wall-clock time ``t``."""
        return self.factors[bisect.bisect_right(self.bounds, t)]

    def cpu_timeline(self, points: Sequence[Sequence[float]]) -> List[float]:
        """Reference-speed time along a process's CPU clock.

        ``points`` are ``(wall, cpu)`` readings in order; the result gives,
        for each, the process's CPU time since the first reading, each step
        converted by the mean speed factor between its two readings.
        """
        timeline = [0.0]
        for (t0, c0), (t1, c1) in zip(points, points[1:]):
            factor = self.scale(t0, t1) if t1 > t0 else self.factor_at(t0)
            timeline.append(timeline[-1] + (c1 - c0) * factor)
        return timeline

    def span(self, start: float, end: float) -> float:
        """Reference-speed length of the wall-clock interval [start, end]."""
        return self.at(end) - self.at(start)

    def scale(self, start: float, end: float) -> float:
        """Mean speed factor over [start, end]; converts CPU time spent then."""
        return self.span(start, end) / (end - start)

    def median_factor(self) -> float:
        return _median(self.factors)


class Sampler:
    """The sampler process, pinned to the program's CPU."""

    def __init__(self, cpu: int) -> None:
        self.process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(cpu)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def stop(self) -> Timebase:
        """Stop sampling; return the timebase of the samples taken."""
        out, _ = self.process.communicate("", timeout=30)
        if self.process.returncode != 0:
            raise RuntimeError(f"machine-speed sampler failed (exit {self.process.returncode})")
        return Timebase(json.loads(out))

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


if __name__ == "__main__":
    _sample(int(sys.argv[1]))
