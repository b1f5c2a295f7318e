"""The benchmark side of the in-process workloads: twig-scan and ticker-stream.

The engine runs in ``engine_proc.py``, pinned to the program CPU beside the
machine-speed sampler (``speed.py``); this side generates the inputs, times
set-up, ships the work, converts the engine's timings to reference speed,
and checks every result against an oracle computed outside the timed region.
"""

from __future__ import annotations

import json
import subprocess
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from common import median, python_child, stop_process
from inputs import JOIN_EVERY, RETAIN, TICKER_LATE_QUERY, TICKER_QUERIES, TWIG_QUERY, ticker_inputs, twig_slices
from outcome import Outcome, latency_stats, window_rate
from speed import Sampler, Timebase, cpus

ENGINE_PROC = str(Path(__file__).resolve().parent / "engine_proc.py")
SETUP_REPEATS = 5
CHILD_TIMEOUT = 150.0


def start_engine(workload: str, program_cpus: List[int]) -> Tuple[subprocess.Popen, List[Tuple[float, float]]]:
    """Start the engine process ``SETUP_REPEATS`` times; keep the last.

    Set-up runs from spawning the process to its ``ready`` line:
    interpreter start, imports, engine construction, subscriptions and
    (ticker-stream) the open document stream.  Returns the process and the
    ``(start, ready)`` times of each start.
    """
    times = []
    process = None
    for attempt in range(SETUP_REPEATS):
        start = time.monotonic()
        process = python_child(
            [ENGINE_PROC, workload], program_cpus, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        line = process.stdout.readline()
        times.append((start, time.monotonic()))
        if not line.startswith('{"ready"'):
            stop_process(process)
            raise RuntimeError(f"engine process for {workload} did not start")
        if attempt < SETUP_REPEATS - 1:
            process.stdin.close()
            process.wait(timeout=30)
            stop_process(process)
    return process, times


def run_engine(
    workload: str, passes: List[Dict[str, Any]], payload: Dict[str, Any]
) -> Tuple[Dict[str, Any], List[float], Timebase]:
    """Run the engine process under the sampler.  Returns its result, the
    set-up times in reference-speed seconds, and the run's timebase."""
    program_cpus, _ = cpus()
    sampler = Sampler(program_cpus[0])
    try:
        process, setup = start_engine(workload, program_cpus)
        try:
            data = json.dumps({"passes": passes}) + "\n" + json.dumps(payload) + "\n"
            out, _ = process.communicate(data, timeout=CHILD_TIMEOUT)
        finally:
            stop_process(process)
        timebase = sampler.stop()
    finally:
        sampler.kill()
    if process.returncode != 0 or not out:
        raise RuntimeError(f"engine process for {workload} failed (exit {process.returncode})")
    return json.loads(out), [timebase.span(start, ready) for start, ready in setup], timebase


def passes_for(seconds: float, trace: bool) -> List[Dict[str, Any]]:
    """One untraced pass, or an untraced and a traced half for the trace run."""
    if not trace:
        return [{"seconds": seconds, "traced": False}]
    return [{"seconds": seconds / 2, "traced": False}, {"seconds": seconds / 2, "traced": True}]


def multiset_misses(got: Sequence[Any], expected: Sequence[Any]) -> int:
    """Size of the multiset symmetric difference of two key lists."""
    a, b = Counter(got), Counter(expected)
    return sum(((a - b) + (b - a)).values())


# ---------------------------------------------------------------- twig-scan


def _call_times(evaluations: List[List[Any]], timebase: Timebase) -> List[float]:
    """Each call's time on the engine's CPU clock, in reference-speed
    seconds: time the CPU gave to other processes does not count."""
    return [cpu * timebase.scale(start, end) for _, start, end, cpu, _, _ in evaluations]


def _scan_rates(evaluations: List[List[Any]], sizes: List[float], times: List[float]) -> List[float]:
    """Per-call rate: the slice's size over the call's time."""
    return [sizes[call[0]] / t for call, t in zip(evaluations, times)]


def twig_scan(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.baselines.dom_eval import DomEvaluator

    slices = twig_slices(seed)
    elements = [text.count("<") - text.count("</") for text in slices]
    mib = [len(text.encode("utf-8")) / (1024 * 1024) for text in slices]
    result, setup, timebase = run_engine("twig-scan", passes_for(seconds, trace), {"slices": slices})

    outcome = Outcome()
    expected = [sorted(s.key() for s in DomEvaluator(TWIG_QUERY).evaluate(text).solutions) for text in slices]
    for keys, want in zip(result["keys"], expected):
        outcome.check(len(want), multiset_misses([tuple(k) for k in keys], want))
    for run in result["passes"] + [result["expat"]]:
        for slice_id, _, _, _, _, same in run["evaluations"]:
            outcome.check(len(expected[slice_id]), 0 if same else len(expected[slice_id]))

    timed = result["passes"][0]["evaluations"]
    times = _call_times(timed, timebase)
    # Every match of an evaluate() call is delivered when the call returns.
    lat = latency_stats([(t * 1000.0, 1) for t in times])
    matches = sum(call[4] for call in timed)
    elements_s = median(_scan_rates(timed, elements, times))
    outcome.e2e(
        setup_s=median(setup),
        elements_s=elements_s,
        latency=lat,
        cpu_ms_per_match=sum(times) * 1000.0 / matches,
        peak_rss_mb=result["vm_hwm_mb"],
    )
    outcome.report("scan_mb_s.pure", median(_scan_rates(timed, mib, times)), "MiB/s", len(timed))
    expat = result["expat"]["evaluations"]
    expat_mib_s = _scan_rates(expat, mib, _call_times(expat, timebase))
    outcome.report("scan_mb_s.expat", median(expat_mib_s), "MiB/s", len(expat))
    outcome.report_latency("latency_ms", lat)
    outcome.report_speed(timebase)
    # The layer ledger compares wall times: the median wall time of each
    # slice, summed over the slices.
    per_slice: Dict[int, List[float]] = {}
    for slice_id, start, end, _, _, _ in timed:
        per_slice.setdefault(slice_id, []).append(end - start)
    outcome.context.update(
        documents=slices,
        elements=sum(elements),
        parser="pure",
        queries=[TWIG_QUERY],
        e2e_seconds_per_input=sum(median(v) for v in per_slice.values()),
        ledger_layers=["tokenizer.events_s", "transitions.match_s"],
    )
    if trace:
        traced = result["passes"][1]
        traced_rate = median(_scan_rates(traced["evaluations"], elements, _call_times(traced["evaluations"], timebase)))
        outcome.layer["trace.overhead_pct"] = (elements_s / traced_rate - 1.0) * 100.0
        outcome.spans = traced["spans"]
    return outcome


# ---------------------------------------------------------------- ticker-stream


def _expected_ticker(pool: List[str]) -> Tuple[List[Dict[str, List[int]]], List[List[int]]]:
    """Per pool document, from a per-document ``evaluate``: the sorted
    element orders of each standing query's matches, and the late query's
    orders in document order.  Each query fixes its solutions' kind and
    attribute, so the element order identifies a solution."""
    from repro import Engine

    per_doc, late = [], []
    for text in pool:
        engine = Engine(parser="expat")
        for index, query in enumerate(TICKER_QUERIES):
            engine.subscribe(query, name=f"q{index}")
        engine.subscribe(TICKER_LATE_QUERY, name="late")
        results = engine.evaluate(text)
        per_doc.append(
            {name: sorted(s.node.order for s in results[name].solutions) for name in results if name != "late"}
        )
        late.append(sorted(s.node.order for s in results["late"].solutions))
        engine.close()
    return per_doc, late


def _feed_clock(run: Dict[str, Any], timebase: Timebase) -> List[Tuple[float, float]]:
    """Start and end of each chunk's feed on the engine's CPU clock, in
    reference-speed seconds: time the CPU gave to other processes (the
    sampler, or anything else on it) does not count."""
    points = []
    for wall0, cpu0, wall1, cpu1 in run["chunk_times"]:
        points += [(wall0, cpu0), (wall1, cpu1)]
    timeline = timebase.cpu_timeline(points)
    return list(zip(timeline[0::2], timeline[1::2]))


def _wall_clock(run: Dict[str, Any]) -> List[Tuple[float, float]]:
    return [(wall0, wall1) for wall0, _, wall1, _ in run["chunk_times"]]


def _stream_rate(run: Dict[str, Any], pool: List[str], clock: List[Tuple[float, float]]) -> Tuple[float, int]:
    """Median elements/s over windows of ``JOIN_EVERY`` fed documents
    (each window holds one replay join), on ``clock``."""
    sizes = [text.count("<") - text.count("</") for text in pool]
    finished = [clock[last][1] for _, _, _, last in run["docs"]]
    work = [sizes[pool_id] for _, pool_id, _, _ in run["docs"]]
    return window_rate(clock[0][0], finished, work, JOIN_EVERY)


def ticker_stream(seed: int, seconds: float, trace: bool) -> Outcome:
    pool, order = ticker_inputs(seed)
    result, setup, timebase = run_engine("ticker-stream", passes_for(seconds, trace), {"pool": pool, "order": order})
    outcome = Outcome()
    expected, late_expected = _expected_ticker(pool)

    def pool_of(global_doc: int) -> int:
        return order[global_doc % len(order)]

    latencies: List[Tuple[float, int]] = []
    for number, run in enumerate(result["passes"]):
        clock = _feed_clock(run, timebase)
        outcome.check(run["strays"], run["strays"])
        for name, sequence in run["standing"].items():
            position = 0
            for global_doc, pool_id, first_chunk, last_chunk in run["docs"]:
                want = expected[pool_id][name]
                got = sequence[position : position + len(want)]
                position += len(want)
                outcome.check(len(want), multiset_misses([k for _, k in got], want))
                if number == 0:
                    due = clock[first_chunk][0]
                    for chunk, _ in got:
                        latencies.append(((clock[chunk][1] - due) * 1000.0, 1))
            outcome.check(0, len(sequence) - position)
        for late in run["lates"]:
            join = late["join_docs"]
            window: List[int] = []
            for global_doc in range(max(0, join - RETAIN), join):
                window.extend(late_expected[pool_of(global_doc)])
            through_join_doc = len(window) + len(late_expected[pool_of(join)])
            tail: List[int] = []
            for global_doc in range(join, join + 3):
                tail.extend(late_expected[pool_of(global_doc)])
            want = window + tail
            got = list(late["replayed"])
            got += [k for chunk, k in late["live"] if chunk <= late["leave_chunk"]]
            got_live_after = sum(1 for chunk, _ in late["live"] if chunk > late["leave_chunk"])
            required = through_join_doc if late["leave_docs"] >= join + 1 else len(window)
            wrong = sum(1 for a, b in zip(got, want) if a != b) + max(0, len(got) - len(want))
            missing = max(0, required - len(got))
            # The replay alone must cover every retained sealed document.
            short_replay = max(0, len(window) - len(late["replayed"]))
            outcome.check(max(required, len(got)), wrong + missing + short_replay + got_live_after)

    timed = result["passes"][0]
    elements_s, windows = _stream_rate(timed, pool, _feed_clock(timed, timebase))
    lat = latency_stats(latencies)
    delivered = sum(len(seq) for seq in timed["standing"].values())
    delivered += sum(len(late["live"]) for late in timed["lates"])
    times = timed["chunk_times"]
    cpu = timed["cpu"] * timebase.scale(times[0][0], times[-1][2])
    outcome.e2e(
        setup_s=median(setup),
        elements_s=elements_s,
        latency=lat,
        cpu_ms_per_match=cpu * 1000.0 / delivered,
        peak_rss_mb=result["vm_hwm_mb"],
    )
    replay = [s * 1000.0 for s in timed["replay_s"]]
    outcome.report("stream_elements_s", elements_s, "elements/s", windows)
    outcome.report_latency("latency_ms", lat)
    if replay:
        outcome.report("replay_ms.p50", median(replay), "ms", len(replay))
    outcome.report_speed(timebase)
    used = [pool[i] for i in sorted({pool_id for _, pool_id, _, _ in timed["docs"]})]
    used_elements = sum(text.count("<") - text.count("</") for text in used)
    outcome.context.update(
        documents=used,
        elements=used_elements,
        parser="expat",
        queries=list(TICKER_QUERIES),
        # The layer ledger compares wall times.
        e2e_seconds_per_input=used_elements / _stream_rate(timed, pool, _wall_clock(timed))[0],
        ledger_layers=[
            "docstream.boundary_scan_s",
            "expat.events_s",
            "transitions.match_s",
            "eventcodec.encode_us_per_doc",
        ],
        replay_ms=replay,
        snapshot_ms=[s * 1000.0 for s in timed["snapshot_s"]],
        spool_bytes=timed["spool_bytes"],
    )
    if trace:
        traced = result["passes"][1]
        traced_rate = _stream_rate(traced, pool, _feed_clock(traced, timebase))[0]
        outcome.layer["trace.overhead_pct"] = (elements_s / traced_rate - 1.0) * 100.0
        outcome.spans = traced["spans"]
        outcome.context["snapshot_bytes"] = traced["snapshot_bytes"]
        outcome.context["snapshot_ms"] += [s * 1000.0 for s in traced["snapshot_s"]]
        outcome.context["replay_ms"] += [s * 1000.0 for s in traced["replay_s"]]
    return outcome
