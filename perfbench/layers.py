"""Per-layer metrics of the traced run: isolated passes over the run's inputs.

Each layer is timed from outside, by calling its public functions on the
same documents, queries and solutions the workload used.  Nothing inside
``src/`` is instrumented.  A metric whose layer does not carry this
workload's traffic reads 0 (for example the server queue on twig-scan).
A metric whose public function no longer exists is reported as absent
(left out of the result and named on stderr) so the run still completes.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from common import median
from inputs import CHUNK
from outcome import Outcome

#: Per-layer metrics: name -> unit.  Every traced run reports all of them.
PER_LAYER = {
    "expat.floor_s": "s",
    "expat.callback_floor_s": "s",
    "expat.events_s": "s",
    "expat.events": "count",
    "tokenizer.events_s": "s",
    "tokenizer.events": "count",
    "transitions.match_s": "s",
    "transitions.share": "%",
    "compile.us_per_query": "us",
    "queryindex.subscribe_us": "us",
    "queryindex.unsubscribe_us": "us",
    "queryindex.machines": "count",
    "queryindex.trie_nodes": "count",
    "queryindex.peak_fanout": "count",
    "docstream.empty_doc_us": "us",
    "docstream.boundary_scan_s": "s",
    "docstream.spool_bytes": "bytes",
    "docstream.replay_ms.p50": "ms",
    "eventcodec.encode_us_per_doc": "us",
    "eventcodec.decode_us_per_doc": "us",
    "eventcodec.bytes_per_doc": "bytes",
    "checkpoint.snapshot_ms": "ms",
    "checkpoint.snapshot_bytes": "bytes",
    "results.matches": "count",
    "results.matches_per_kelement": "count",
    "protocol.encode_us_per_frame": "us",
    "protocol.decode_us_per_frame": "us",
    "protocol.bytes_per_match": "bytes",
    "server.emit_lag_ms.p50": "ms",
    "server.emit_lag_ms.p99": "ms",
    "server.dropped": "count",
    "server.subscribe_ms.p50": "ms",
    "socket.ping_rtt_us": "us",
    "client.delivery_ms.p50": "ms",
    "client.delivery_ms.p99": "ms",
    "sharding.front_cpu_s": "s",
    "sharding.worker_cpu_s": "s",
    "loadgen.late_ms.max": "ms",
    "loadgen.backlog_trend": "ratio",
    "ledger.residual_pct": "%",
    "trace.overhead_pct": "%",
}



def timed(function: Callable[[], Any], budget: float = 0.3, repeats: int = 3) -> float:
    """Median wall time of ``function``; one call when a call exceeds ``budget``."""
    times = []
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        function()
        times.append(time.perf_counter() - start)
        if times[0] > budget:
            break
    return median(times)


def _missing(path: str) -> Optional[str]:
    """Why the public name ``module:attr.attr`` does not resolve, or None."""
    module_name, _, attributes = path.partition(":")
    try:
        target: Any = importlib.import_module(module_name)
    except ImportError as exc:
        return f"{module_name}: {exc}"
    for attribute in attributes.split("."):
        if not hasattr(target, attribute):
            return f"{path} no longer exists"
        target = getattr(target, attribute)
    return None


class Ledger:
    """Collects per-layer values; a layer whose API is gone is marked absent."""

    def __init__(self, outcome: Outcome) -> None:
        self.values: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
        self.values.update(outcome.layer)
        self.absent: Dict[str, str] = {}

    def available(self, names: Sequence[str], required: Sequence[str]) -> bool:
        """True when every public name in ``required`` resolves; otherwise
        ``names`` are marked absent."""
        for path in required:
            reason = _missing(path)
            if reason is not None:
                for name in names:
                    self.values.pop(name, None)
                    self.absent[name] = reason
                return False
        return True

    def measure(self, names: Sequence[str], required: Sequence[str], function: Callable[[], Dict[str, float]]) -> None:
        """Run ``function`` when its layer's public names resolve.  An error
        raised by the layer itself is not an absence: it propagates."""
        if self.available(names, required):
            self.values.update(function())


def _expat_floor(documents: List[str]) -> Dict[str, float]:
    from xml.parsers import expat

    payloads = [text.encode("utf-8") for text in documents]

    def bare() -> None:
        for data in payloads:
            expat.ParserCreate().Parse(data, True)

    def noop_handlers() -> None:
        def ignore(*_: Any) -> None:
            return None

        for data in payloads:
            parser = expat.ParserCreate()
            parser.buffer_text = True
            parser.ordered_attributes = True
            parser.StartElementHandler = ignore
            parser.EndElementHandler = ignore
            parser.CharacterDataHandler = ignore
            parser.Parse(data, True)

    return {"expat.floor_s": timed(bare), "expat.callback_floor_s": timed(noop_handlers)}


def _drain(documents: List[str], parser: str) -> Dict[str, float]:
    from repro.xmlstream.sax import event_batches
    from repro.xmlstream.tokenizer import tokenize

    counts = {"n": 0}
    if parser == "expat":

        def run() -> None:
            n = 0
            for text in documents:
                for batch in event_batches(text, parser="expat"):
                    n += len(batch)
            counts["n"] = n

        return {"expat.events_s": timed(run), "expat.events": float(counts["n"])}

    def run_pure() -> None:
        n = 0
        for text in documents:
            for _ in tokenize(text):
                n += 1
        counts["n"] = n

    return {"tokenizer.events_s": timed(run_pure), "tokenizer.events": float(counts["n"])}


def _events(documents: List[str], parser: str) -> List[List[Any]]:
    from repro.xmlstream.sax import event_batches

    return [[event for batch in event_batches(text, parser=parser) for event in batch] for text in documents]


def _engine(queries: List[str], parser: str, statistics: bool) -> Any:
    """An engine configured like the workload's, holding its queries."""
    from repro import Engine

    engine = Engine(parser=parser, collect_statistics=statistics)
    engine.subscribe_many([(q, f"q{i}") for i, q in enumerate(queries)])
    return engine


def _transitions(
    events: List[List[Any]], queries: List[str], parser: str, statistics: bool, e2e: float
) -> Dict[str, float]:
    engine = _engine(queries, parser, statistics)

    def run() -> None:
        for stream in events:
            engine.evaluate(stream)
            engine.reset()

    match_s = timed(run)
    return {"transitions.match_s": match_s, "transitions.share": match_s / e2e * 100.0}


def _compile(queries: List[str]) -> Dict[str, float]:
    from repro import Query
    from repro.core.builder import build_machine

    repeat = max(1, 200 // len(queries))
    start = time.perf_counter()
    for _ in range(repeat):
        for source in queries:
            build_machine(Query(source))
    elapsed = time.perf_counter() - start
    return {"compile.us_per_query": elapsed / (repeat * len(queries)) * 1e6}


def _queryindex(queries: List[str], document: str, parser: str, statistics: bool) -> Dict[str, float]:
    from repro import Engine

    pairs = [(q, f"q{i}") for i, q in enumerate(queries)]
    repeat = max(1, 200 // len(queries))
    sub_s = unsub_s = 0.0
    for _ in range(repeat):
        engine = Engine(parser=parser, collect_statistics=statistics)
        start = time.perf_counter()
        engine.subscribe_many(pairs)
        sub_s += time.perf_counter() - start
        start = time.perf_counter()
        for _, name in pairs:
            engine.unsubscribe(name)
        unsub_s += time.perf_counter() - start
    # Dispatch fan-out is materialised by traffic, so run one document.
    engine = _engine(queries, parser, statistics)
    engine.evaluate(document)
    stats = engine.stats()
    n = repeat * len(pairs)
    return {
        "queryindex.subscribe_us": sub_s / n * 1e6,
        "queryindex.unsubscribe_us": unsub_s / n * 1e6,
        "queryindex.machines": float(stats.machines),
        "queryindex.trie_nodes": float(stats.trie_nodes),
        "queryindex.peak_fanout": float(stats.peak_dispatch_fanout),
    }


def _empty_docs(queries: List[str], parser: str, statistics: bool) -> Dict[str, float]:
    engine = _engine(queries, parser, statistics)
    session = engine.document_stream()
    feed = session.feed_text
    for _ in range(20):
        feed("<e/>")
    count = 0
    gc.collect()
    start = time.perf_counter()
    while count < 20000 and (count < 50 or time.perf_counter() - start < 1.0):
        feed("<e/>")
        count += 1
    elapsed = time.perf_counter() - start
    session.close()
    return {"docstream.empty_doc_us": elapsed / count * 1e6}


def _boundary_scan(chunks: List[str]) -> Dict[str, float]:
    from repro.core.docstream import DocumentBoundaryScanner

    def run() -> None:
        scanner = DocumentBoundaryScanner()
        for chunk in chunks:
            scanner.feed(chunk)

    return {"docstream.boundary_scan_s": timed(run)}


def _codec(events: List[List[Any]]) -> Dict[str, float]:
    from repro.xmlstream.eventcodec import EventFrameDecoder, EventFrameEncoder

    frames: List[bytes] = []

    def encode() -> None:
        frames.clear()
        for stream in events:
            frames.append(EventFrameEncoder().encode(stream))

    def decode() -> None:
        for frame in frames:
            EventFrameDecoder().decode(frame)

    encode_s = timed(encode)
    decode_s = timed(decode)
    docs = len(events)
    return {
        "eventcodec.encode_us_per_doc": encode_s / docs * 1e6,
        "eventcodec.decode_us_per_doc": decode_s / docs * 1e6,
        "eventcodec.bytes_per_doc": sum(len(f) for f in frames) / docs,
    }


def _snapshot(document: str, queries: List[str], parser: str, statistics: bool) -> Dict[str, float]:
    from repro.core.checkpoint import dumps_snapshot

    engine = _engine(queries, parser, statistics)
    session = engine.open()
    session.feed_text(document[: len(document) // 2])
    times = []
    snapshot = None
    for _ in range(3):
        start = time.perf_counter()
        snapshot = session.snapshot()
        times.append(time.perf_counter() - start)
    return {
        "checkpoint.snapshot_ms": median(times) * 1000.0,
        "checkpoint.snapshot_bytes": float(len(dumps_snapshot(snapshot))),
    }


def _results_and_wire(
    documents: List[str], queries: List[str], parser: str, statistics: bool, elements: int
) -> Dict[str, float]:
    from repro.service.protocol import decode_frame, encode_frame, solution_to_payload

    solutions = []
    engine = _engine(queries, parser, statistics)
    for text in documents:
        for name, result in engine.evaluate(text).items():
            solutions.extend((name, s) for s in result.solutions)
        engine.reset()
    matches = len(solutions)
    encoded: List[bytes] = []

    def encode() -> None:
        encoded.clear()
        for name, solution in solutions:
            encoded.append(
                encode_frame(
                    {"type": "solution", "name": name, "ts": 0.0, "solution": solution_to_payload(solution)}
                )
            )

    def decode() -> None:
        for frame in encoded:
            decode_frame(frame)

    values = {
        "results.matches": float(matches),
        "results.matches_per_kelement": matches / elements * 1000.0,
    }
    if matches:
        values["protocol.encode_us_per_frame"] = timed(encode) / matches * 1e6
        values["protocol.decode_us_per_frame"] = timed(decode) / matches * 1e6
        values["protocol.bytes_per_match"] = sum(len(f) for f in encoded) / matches
    return values


def per_layer(outcome: Outcome) -> Dict[str, Dict[str, Any]]:
    """Run the isolated passes over ``outcome``'s inputs; return the metrics."""
    ctx = outcome.context
    documents: List[str] = ctx["documents"]
    queries: List[str] = ctx["queries"]
    parser: str = ctx["parser"]
    # The server runs its engine without per-machine statistics; in-process
    # workloads use the Engine default.
    statistics: bool = ctx.get("collect_statistics", True)
    e2e: float = ctx["e2e_seconds_per_input"]
    chunks: List[str] = ctx.get("chunks") or [
        "".join(documents)[i : i + CHUNK] for i in range(0, sum(map(len, documents)), CHUNK)
    ]
    ledger = Ledger(outcome)
    measure = ledger.measure
    engine_api = ["repro:Engine.subscribe_many", "repro:Engine.evaluate", "repro:Engine.reset"]
    measure(["expat.floor_s", "expat.callback_floor_s"], ["xml.parsers.expat:ParserCreate"],
            lambda: _expat_floor(documents))
    measure(["expat.events_s", "expat.events"], ["repro.xmlstream.sax:event_batches"],
            lambda: _drain(documents, "expat"))
    measure(["tokenizer.events_s", "tokenizer.events"], ["repro.xmlstream.tokenizer:tokenize"],
            lambda: _drain(documents, "pure"))
    event_layers = ["transitions.match_s", "transitions.share", "eventcodec.encode_us_per_doc",
                    "eventcodec.decode_us_per_doc", "eventcodec.bytes_per_doc"]
    if ledger.available(event_layers, ["repro.xmlstream.sax:event_batches"]):
        events = _events(documents, "expat" if parser == "expat" else "pure")
        measure(event_layers[:2], engine_api, lambda: _transitions(events, queries, parser, statistics, e2e))
        measure(event_layers[2:],
                ["repro.xmlstream.eventcodec:EventFrameEncoder.encode",
                 "repro.xmlstream.eventcodec:EventFrameDecoder.decode"],
                lambda: _codec(events))
        events = None
    measure(["compile.us_per_query"], ["repro:Query", "repro.core.builder:build_machine"],
            lambda: _compile(queries))
    measure(
        [n for n in PER_LAYER if n.startswith("queryindex.")],
        engine_api + ["repro:Engine.unsubscribe", "repro:Engine.stats"],
        lambda: _queryindex(queries, documents[0], parser, statistics),
    )
    measure(["docstream.empty_doc_us"], engine_api + ["repro:Engine.document_stream"],
            lambda: _empty_docs(queries, parser, statistics))
    measure(["docstream.boundary_scan_s"], ["repro.core.docstream:DocumentBoundaryScanner.feed"],
            lambda: _boundary_scan(chunks))
    if "snapshot_ms" in ctx:
        # The workload takes its own snapshots (ticker-stream).
        ledger.values["checkpoint.snapshot_ms"] = median(ctx["snapshot_ms"]) if ctx["snapshot_ms"] else 0.0
        ledger.values["checkpoint.snapshot_bytes"] = float(ctx.get("snapshot_bytes", 0))
    else:
        measure(
            ["checkpoint.snapshot_ms", "checkpoint.snapshot_bytes"],
            engine_api + ["repro:Engine.open", "repro.core.checkpoint:dumps_snapshot"],
            lambda: _snapshot(documents[0], queries, parser, statistics),
        )
    if ctx.get("replay_ms"):
        ledger.values["docstream.replay_ms.p50"] = median(ctx["replay_ms"])
    ledger.values["docstream.spool_bytes"] = float(ctx.get("spool_bytes", 0))
    measure(
        ["results.matches", "results.matches_per_kelement", "protocol.encode_us_per_frame",
         "protocol.decode_us_per_frame", "protocol.bytes_per_match"],
        engine_api + ["repro.service.protocol:encode_frame", "repro.service.protocol:decode_frame",
                      "repro.service.protocol:solution_to_payload"],
        lambda: _results_and_wire(documents, queries, parser, statistics, ctx["elements"]),
    )

    values = ledger.values
    path_layers = ctx.get("ledger_layers", [])
    if path_layers and all(name in values for name in path_layers):
        layered = 0.0
        for name in path_layers:
            value = values[name]
            # Per-document and per-frame costs scale to the whole input set.
            if name.endswith("_us_per_doc"):
                value = value * len(documents) / 1e6
            elif name.endswith("_us_per_frame"):
                value = value * values["results.matches"] / 1e6
            layered += value
        values["ledger.residual_pct"] = (e2e - layered) / e2e * 100.0
    for name, reason in ledger.absent.items():
        print(f"  absent: {name} ({reason})", file=sys.stderr)
    return {name: {"value": values[name], "unit": PER_LAYER[name]} for name in PER_LAYER if name in values}
