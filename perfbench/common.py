"""Shared helpers: medians, /proc readers, spans, child processes."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

#: Root of the checkout the benchmark runs in (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent
#: The program under test is imported from source, never from an install.
SRC = ROOT / "src"
#: Where traced runs write their spans (listed in the root .gitignore).
OUT = Path(__file__).resolve().parent / "out"

_TICKS = os.sysconf("SC_CLK_TCK")


def child_env() -> Dict[str, str]:
    """Environment for processes that import the program from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


# ---------------------------------------------------------------- /proc


def _proc_stat_cpu(pid: int) -> float:
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    # utime and stime are fields 14 and 15 of stat(5); the split drops 2.
    return (int(fields[11]) + int(fields[12])) / _TICKS


def process_tree(pid: int) -> List[int]:
    """``pid`` and its live descendants."""
    pids = [pid]
    index = 0
    while index < len(pids):
        current = pids[index]
        index += 1
        try:
            with open(f"/proc/{current}/task/{current}/children") as handle:
                pids.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return pids


def cpu_seconds(pids: Iterable[int]) -> Dict[int, float]:
    """User plus system CPU seconds of each live process in ``pids``."""
    result = {}
    for pid in pids:
        try:
            result[pid] = _proc_stat_cpu(pid)
        except OSError:
            continue
    return result


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


# ---------------------------------------------------------------- spans


class Tracer:
    """In-memory spans recorded around the benchmark's own calls.

    Only the traced run creates one; untraced runs call the layer
    functions directly, so no span code sits in a timed loop there.  The
    wrapped calls never nest, so a span's self time is its duration.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float]] = []

    def wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        spans = self.spans
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                spans.append((name, start, clock()))

        return traced

    def wrap_async(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        """``wrap`` for a coroutine function."""
        spans = self.spans
        clock = time.perf_counter

        async def traced(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return await function(*args, **kwargs)
            finally:
                spans.append((name, start, clock()))

        return traced

    def dump(self) -> List[List[Any]]:
        return [list(span) for span in self.spans]


def span_seconds(spans: List[List[Any]]) -> Dict[str, float]:
    """Total duration per span name."""
    totals: Dict[str, float] = {}
    for name, start, end in spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


# ---------------------------------------------------------------- processes


def stop_process(process: subprocess.Popen, grace: float = 10.0) -> None:
    """Terminate ``process`` (and wait); kill it if it ignores SIGTERM."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    for stream in (process.stdin, process.stdout, process.stderr):
        if stream is not None:
            try:
                stream.close()
            except OSError:
                pass


def python_child(args: List[str], cpus: Sequence[int], **kwargs: Any) -> subprocess.Popen:
    """Start ``python3 args...`` on ``cpus``, with the program importable
    from ``src``.  The CPUs are set before the program starts, so any
    process it spawns inherits them."""
    return subprocess.Popen(
        [sys.executable, *args], env=child_env(), preexec_fn=lambda: os.sched_setaffinity(0, cpus), **kwargs
    )
