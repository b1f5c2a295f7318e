"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric
(a traced pass, an untraced pass and isolated per-layer passes).  A
human-readable report, with sample counts, goes to stderr.
``--workload all`` runs every workload in turn; its metric names are then
prefixed with ``<workload>/``.  See
``perfbench/README.md`` for the workloads, metrics and the layer ledger.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT, SRC, span_seconds  # noqa: E402
from outcome import END_TO_END  # noqa: E402
from speed import cpus  # noqa: E402

WORKLOADS = ("twig-scan", "ticker-stream", "pubsub-fanout")


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    import inproc
    import pubsub

    if name == "twig-scan":
        return inproc.twig_scan(seed, seconds, trace)
    if name == "ticker-stream":
        return inproc.ticker_stream(seed, seconds, trace)
    return pubsub.run(seed, seconds, trace)


def measure(name: str, seed: int, seconds: float, trace: bool) -> Tuple[Any, Dict[str, Dict[str, Any]]]:
    """Run one workload; print its report on stderr; return it and its metrics."""
    outcome = run_workload(name, seed, seconds, trace)
    if trace:
        import layers

        metrics = layers.per_layer(outcome)
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{name}-{seed}.json"
        spans = outcome.spans or []
        trace_file.write_text(
            json.dumps({"workload": name, "span_seconds": span_seconds(spans), "spans": spans})
        )
        print(f"spans written to {trace_file}", file=sys.stderr)
    else:
        metrics = {metric: {"value": outcome.metrics[metric], "unit": unit} for metric, unit in END_TO_END.items()}

    print(f"# {name} seed={seed} seconds={seconds:g} trace={int(trace)}", file=sys.stderr)
    for metric, value, unit, samples, beyond in outcome.lines:
        extra = f", {beyond} beyond" if beyond is not None else ""
        print(f"  {metric:<28} {value:>14.4f} {unit:<10} (n={samples}{extra})", file=sys.stderr)
    for metric, entry in metrics.items():
        print(f"  {metric:<28} {entry['value']:>14.4f} {entry['unit']}", file=sys.stderr)
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(
        f"  failed_ratio {ratio:.6f} (failed={outcome.failed} attempted={outcome.attempted})",
        file=sys.stderr,
    )
    return outcome, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The program and the machine-speed sampler get the first CPU; this
    # process (generators, oracles, pub/sub clients) keeps off it.
    os.sched_setaffinity(0, cpus()[1])

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    merged: Dict[str, Dict[str, Any]] = {}
    for name in names:
        outcome, metrics = measure(name, args.seed, args.seconds, bool(args.trace))
        attempted += outcome.attempted
        failed += outcome.failed
        if len(names) == 1:
            merged = metrics
        else:
            merged.update({f"{name}/{metric}": entry for metric, entry in metrics.items()})
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": merged}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
