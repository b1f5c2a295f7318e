"""The engine process of the in-process workloads (twig-scan, ticker-stream).

Run as ``python3 perfbench/engine_proc.py <workload>`` with ``src`` on the
path.  It sets up the engine, prints one ``{"ready": ...}`` line and then
reads its work from stdin: a header line ``{"passes": [{"seconds": s,
"traced": bool}, ...]}`` and one JSON payload line with the inputs.  An
immediate end of input means "set-up only" and the process exits.  It
prints one JSON result line.

The engine runs in its own process so that its peak RSS is not inflated by
the generator or the oracle, which stay in the benchmark process.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from array import array
from typing import Any, Dict, List, Optional

from common import Tracer, vm_hwm_mb
from inputs import CHUNK, JOIN_EVERY, RETAIN, SNAPSHOT_EVERY, TICKER_LATE_QUERY, TICKER_QUERIES, TWIG_QUERY


# ---------------------------------------------------------------- twig-scan


class TwigScan:
    """``Engine.evaluate`` with a fresh engine per call, one slice per call:
    timed passes on the default parser, then one expat call per slice for
    the report and the oracle."""

    def __init__(self) -> None:
        from repro import Engine

        self.Engine = Engine
        self.engine = self._fresh()

    def _fresh(self, parser: Optional[str] = None) -> Any:
        engine = self.Engine() if parser is None else self.Engine(parser=parser)
        engine.subscribe(TWIG_QUERY, name="q")
        return engine

    def _calls(self, slices: List[str], expected: List[List[Any]], seconds: float,
               parser: Optional[str] = None, tracer: Optional[Tracer] = None) -> Dict[str, Any]:
        """Evaluate the slices in turn until ``seconds`` pass, and at least
        once each.  Records ``[slice, start, end, cpu, matches, same]`` per
        call, where ``same`` says the result equals the warm-up result."""
        evaluations = []
        deadline = time.monotonic() + seconds
        index = 0
        while time.monotonic() < deadline or index < len(slices):
            slice_id = index % len(slices)
            index += 1
            engine = self._fresh(parser)
            evaluate = engine.evaluate
            if tracer is not None:
                evaluate = tracer.wrap("engine.evaluate", evaluate)
            gc.collect()
            cpu0 = time.process_time()
            start = time.monotonic()
            result = evaluate(slices[slice_id])
            end = time.monotonic()
            cpu = time.process_time() - cpu0
            got = result["q"].solutions
            same = sorted(solution.key() for solution in got) == expected[slice_id]
            evaluations.append([slice_id, start, end, cpu, len(got), same])
            engine.close()
        return {"evaluations": evaluations, "spans": tracer.dump() if tracer is not None else None}

    def run(self, passes: List[Dict[str, Any]], payload: Dict[str, Any]) -> Dict[str, Any]:
        slices = payload["slices"]
        # The engine made during set-up answers the first warm-up call; the
        # warm-up results are what the oracle checks.
        expected = []
        for number, text in enumerate(slices):
            engine = self.engine if number == 0 else self._fresh()
            expected.append(sorted(solution.key() for solution in engine.evaluate(text)["q"].solutions))
            engine.close()
        results = [
            self._calls(slices, expected, spec["seconds"], tracer=Tracer() if spec["traced"] else None)
            for spec in passes
        ]
        peak = vm_hwm_mb(os.getpid())
        expat = self._calls(slices, expected, 0.0, parser="expat")
        return {"keys": [[list(k) for k in keys] for keys in expected], "passes": results, "expat": expat,
                "vm_hwm_mb": peak}


# ---------------------------------------------------------------- ticker-stream


class TickerStream:
    def __init__(self) -> None:
        from repro import Engine

        self.engine = Engine(parser="expat")
        for index, query in enumerate(TICKER_QUERIES):
            self.engine.subscribe(query, name=f"q{index}")
        self.session = self.engine.document_stream(retain_documents=RETAIN)
        self.next_doc = 0  # global index of the next document to append
        self.next_join = JOIN_EVERY
        self.next_snapshot = SNAPSHOT_EVERY
        self.late_serial = 0

    def run(self, passes: List[Dict[str, Any]], payload: Dict[str, Any]) -> Dict[str, Any]:
        pool: List[str] = payload["pool"]
        order: List[int] = payload["order"]
        results = [self._pass(spec, pool, order) for spec in passes]
        return {"passes": results, "vm_hwm_mb": max(run.pop("vm_hwm_mb") for run in results)}

    def _pass(self, spec: Dict[str, Any], pool: List[str], order: List[int]) -> Dict[str, Any]:
        session = self.session
        engine = self.engine
        tracer = Tracer() if spec["traced"] else None
        feed = session.feed_text
        subscribe_replay = session.subscribe_replay
        unsubscribe = engine.unsubscribe
        snapshot = session.snapshot
        if tracer is not None:
            feed = tracer.wrap("docstream.feed_text", feed)
            subscribe_replay = tracer.wrap("docstream.subscribe_replay", subscribe_replay)
            unsubscribe = tracer.wrap("engine.unsubscribe", unsubscribe)
            snapshot = tracer.wrap("checkpoint.snapshot", snapshot)

        pending: List[List[Any]] = []  # [global doc index, unfed text]
        docs: List[List[int]] = []  # [global index, pool id, first chunk, last chunk]
        # Per chunk: feed start and end, each as (wall, CPU).  Flat arrays
        # keep the record from growing the engine's RSS with the run length.
        chunk_times = array("d")
        # (chunk, subscription code, element order) per delivered match,
        # kept compact so the record does not inflate the engine's RSS.
        record = array("i")
        keep = record.append
        codes = {f"q{index}": index for index in range(len(TICKER_QUERIES))}
        lates: List[Dict[str, Any]] = []
        live_late: Optional[Dict[str, Any]] = None
        replay_s: List[float] = []
        snapshot_s: List[float] = []
        last_snapshot = None

        def cut(size: Optional[int]) -> str:
            """Next chunk: ``size`` characters, or the rest of the current
            document when ``size`` is None."""
            chunk_index = len(chunk_times) // 4
            parts = []
            need = size if size is not None else len(pending[0][1])
            while need:
                if not pending:
                    pool_id = order[self.next_doc % len(order)]
                    pending.append([self.next_doc, pool[pool_id]])
                    docs.append([self.next_doc, pool_id, chunk_index, -1])
                    self.next_doc += 1
                head = pending[0]
                text = head[1]
                parts.append(text[:need])
                if len(text) > need:
                    head[1] = text[need:]
                    need = 0
                else:
                    need -= len(text)
                    pending.pop(0)
                    for entry in reversed(docs):
                        if entry[0] == head[0]:
                            entry[3] = chunk_index
                            break
            return "".join(parts)

        gc.collect()
        cpu0 = time.process_time()
        deadline = time.monotonic() + spec["seconds"]
        while True:
            if time.monotonic() >= deadline:
                if not pending:
                    break
                chunk = cut(None)
            else:
                chunk = cut(CHUNK)
            t0, c0 = time.monotonic(), time.process_time()
            pairs = feed(chunk)
            chunk_times.extend((t0, c0, time.monotonic(), time.process_time()))
            chunk_index = len(chunk_times) // 4 - 1
            for match in pairs:
                keep(chunk_index)
                keep(codes.get(match.name, -1))
                keep(match.solution.node.order)
            completed = session.documents
            if live_late is not None and completed >= live_late["join_docs"] + 1:
                unsubscribe(live_late["name"])
                live_late["leave_chunk"] = chunk_index
                live_late["leave_docs"] = completed
                live_late = None
            if completed >= self.next_join:
                self.next_join += JOIN_EVERY
                self.late_serial += 1
                name = f"late{self.late_serial}"
                j0 = time.monotonic()
                _, replayed = subscribe_replay(TICKER_LATE_QUERY, name=name)
                replay_s.append(time.monotonic() - j0)
                codes[name] = len(codes)
                live_late = {
                    "name": name,
                    "join_docs": completed,
                    "join_chunk": chunk_index,
                    "replayed": [match.solution.node.order for match in replayed],
                }
                lates.append(live_late)
            if completed >= self.next_snapshot and session.in_document:
                self.next_snapshot += SNAPSHOT_EVERY
                s0 = time.monotonic()
                last_snapshot = snapshot()
                snapshot_s.append(time.monotonic() - s0)
        cpu = time.process_time() - cpu0
        peak = vm_hwm_mb(os.getpid())
        if live_late is not None:
            unsubscribe(live_late["name"])
            live_late["leave_chunk"] = len(chunk_times) // 4 - 1
            live_late["leave_docs"] = session.documents

        names = {code: name for name, code in codes.items()}
        delivered: Dict[str, List[List[int]]] = {name: [] for name in codes}
        strays = 0
        for index in range(0, len(record), 3):
            name = names.get(record[index + 1])
            if name is None:
                strays += 1
                continue
            delivered[name].append([record[index], record[index + 2]])
        standing = {f"q{index}": delivered[f"q{index}"] for index in range(len(TICKER_QUERIES))}
        for late in lates:
            late["live"] = delivered[late["name"]]
        stats = session.stats()
        snapshot_bytes = 0
        if tracer is not None and last_snapshot is not None:
            from repro.core.checkpoint import dumps_snapshot

            snapshot_bytes = len(dumps_snapshot(last_snapshot))
        return {
            "cpu": cpu,
            "docs": docs,
            "chunk_times": [chunk_times[i : i + 4].tolist() for i in range(0, len(chunk_times), 4)],
            "standing": standing,
            "lates": lates,
            "strays": strays,
            "replay_s": replay_s,
            "snapshot_s": snapshot_s,
            "snapshot_bytes": snapshot_bytes,
            "spool_bytes": (stats.get("spool") or {}).get("bytes", 0),
            "spans": tracer.dump() if tracer is not None else None,
            "vm_hwm_mb": peak,
        }


WORKLOADS = {"twig-scan": TwigScan, "ticker-stream": TickerStream}


def main() -> int:
    runner = WORKLOADS[sys.argv[1]]()
    print(json.dumps({"ready": True}), flush=True)
    header = sys.stdin.readline()
    if not header:
        return 0
    passes = json.loads(header)["passes"]
    payload = json.loads(sys.stdin.readline())
    result = runner.run(passes, payload)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
