"""What one workload run produced: metrics, checks and context for the layers."""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from common import median

#: End-to-end metrics: name -> unit.  Every workload reports all of them,
#: and every timing among them is in reference-speed seconds (``speed.py``).
END_TO_END = {
    "setup_s": "s",
    "elements_s": "elements/s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "cpu_ms_per_match": "ms",
    "peak_rss_mb": "MiB",
}


def latency_stats(samples: Sequence[Tuple[float, int]]) -> Dict[str, float]:
    """Weighted nearest-rank percentiles of ``(value, count)`` samples,
    with the number of samples beyond each tail percentile."""
    ordered = sorted(samples)
    total = sum(count for _, count in ordered)
    if total == 0:
        raise ValueError("no latency samples")

    def rank_value(rank: int) -> float:
        seen = 0
        for value, count in ordered:
            seen += count
            if seen >= rank:
                return value
        return ordered[-1][0]

    stats: Dict[str, float] = {"samples": total}
    for label, q in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
        rank = max(1, math.ceil(q * total))
        stats[label] = rank_value(rank)
        stats[f"beyond_{label}"] = total - rank
    return stats


def window_rate(start: float, finished: Sequence[float], work: Sequence[float], window: int) -> Tuple[float, int]:
    """Median work rate over consecutive windows of ``window`` units.

    ``finished[i]`` is when unit ``i`` completed and ``work[i]`` its size;
    the first window opens at ``start``.  A median over windows keeps a
    brief stall from setting the whole run's rate.  Returns the rate and
    the number of windows.
    """
    rates = []
    opened = start
    for end in range(window, len(finished) + 1, window):
        closed = finished[end - 1]
        rates.append(sum(work[end - window : end]) / (closed - opened))
        opened = closed
    if not rates:
        return sum(work) / (finished[-1] - start), 1
    return median(rates), len(rates)


class Outcome:
    """One workload run: metrics, check counts, and the inputs the per-layer
    passes reuse (``context``)."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.lines: List[Tuple[str, float, str, int, Optional[int]]] = []
        self.layer: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.context: Dict[str, Any] = {}
        self.spans: Optional[List[Any]] = None

    def check(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def e2e(
        self,
        setup_s: float,
        elements_s: float,
        latency: Dict[str, float],
        cpu_ms_per_match: float,
        peak_rss_mb: float,
    ) -> None:
        self.metrics = {
            "setup_s": setup_s,
            "elements_s": elements_s,
            "latency_ms.p50": latency["p50"],
            "latency_ms.p90": latency["p90"],
            "cpu_ms_per_match": cpu_ms_per_match,
            "peak_rss_mb": peak_rss_mb,
        }

    def report(
        self, name: str, value: float, unit: str, samples: int, beyond: Optional[int] = None
    ) -> None:
        """A line of the human-readable report (stderr), with sample count."""
        self.lines.append((name, value, unit, samples, beyond))

    def report_speed(self, timebase: Any) -> None:
        """The machine's median speed factor (reference over measured)."""
        self.report("machine.speed_factor", timebase.median_factor(), "x", timebase.samples)

    def report_latency(self, prefix: str, latency: Dict[str, float]) -> None:
        for label in ("p50", "p90", "p99"):
            beyond = None if label == "p50" else int(latency[f"beyond_{label}"])
            self.report(f"{prefix}.{label}", latency[label], "ms", int(latency["samples"]), beyond)
