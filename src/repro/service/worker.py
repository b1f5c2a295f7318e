"""Shard worker process: one engine, driven over stdin/stdout pipes.

``python -m repro.service.worker --parser <name>`` is spawned by
:class:`repro.service.sharding.ShardedServiceServer` — never by users.  The
front process writes one JSON frame per line to the worker's stdin and
reads frames back from its stdout:

* Every command except ``feed`` gets **exactly one reply frame**, in
  command order — the front matches replies FIFO, like the client protocol.
* ``feed`` is fire-and-forget.  Solutions it produces are written as
  fast-path lines (:func:`~repro.service.protocol.encode_worker_solution`):
  the *pre-encoded client frame* prefixed with the subscription name, so
  the front routes on the name without JSON-decoding the payload.
* A parse failure emits an ``aborted`` push (``doc``, ``message``,
  ``elements``, ``origin``) and poisons that document epoch: later ``feed``
  frames carrying the same ``doc`` are dropped silently (they were already
  in flight when the abort happened).

The loop is deliberately synchronous — a worker does nothing but parse,
match and write, so an event loop would only add overhead.  Backpressure is
the pipe itself: the front always drains worker stdout, and client-facing
overload is handled by the front's bounded outboxes.

Worker commands (beyond the client-protocol subset)::

    {"cmd": "hello"}                     -> {"type": "hello", "protocols": [1, 2], ...}
    {"cmd": "abort", "doc": N}           -> (no reply; front-initiated teardown)
    {"cmd": "snapshot"}                  -> {"type": "snapshot", ...}
    {"cmd": "restore", "snapshot": ...}  -> {"type": "restored", ...}
    {"cmd": "drain"}                     -> {"type": "drained"} + exit 0

Protocol v2 (parse-once events mode) adds the binary payload path: a
``#<doc> <length>`` header line followed by ``length`` raw bytes of
event-frame payload (:mod:`repro.xmlstream.eventcodec`).  The worker
decodes the frame and pushes the events through an
:class:`~repro.core.session.EventStreamSession` — no parser runs in this
process.  ``abort`` exists because in events mode parse errors happen in
the *front*: the worker is told to tear the document down instead of
detecting the failure itself.

Stdin EOF also exits cleanly: if the front dies, its workers follow.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Any, BinaryIO, Dict, List, Optional, Tuple, Union

from ..core.multi import MultiQueryEvaluator
from ..core.results import Solution
from ..core.session import EventStreamSession, StreamSession
from .protocol import (
    EVENTS_PREFIX,
    PROTOCOL_V2,
    WORKER_PROTOCOLS,
    decode_frame,
    encode_frame,
    encode_worker_solution,
    parse_event_header,
    solution_to_payload,
)

#: Environment override capping the highest protocol version a worker
#: advertises — the test hook proving the front's v1 fallback against a
#: worker that pretends not to know v2.
MAX_PROTOCOL_ENV = "VITEX_WORKER_MAX_PROTOCOL"


class ShardWorker:
    """The worker-side loop: engine state plus the pipe protocol."""

    def __init__(self, parser: str = "native", max_protocol: int = PROTOCOL_V2) -> None:
        self.parser = parser
        self.protocols = [v for v in WORKER_PROTOCOLS if v <= max_protocol]
        self._engine = MultiQueryEvaluator(collect_statistics=False)
        self._session: Optional[Union[StreamSession, EventStreamSession]] = None
        #: Document epoch poisoned by a parse failure; feeds carrying it
        #: are in-flight stragglers and are dropped without a sound.
        self._failed_doc: Optional[int] = None
        self._documents = 0
        self._elements_total = 0
        self._solutions_total = 0
        self._busy_seconds = 0.0
        self._out: Optional[BinaryIO] = None

    # ------------------------------------------------------------ main loop

    def run(self, stdin: BinaryIO, stdout: BinaryIO) -> int:
        """Serve frames until ``drain`` or stdin EOF; returns the exit code."""
        self._out = stdout
        try:
            while True:
                line = stdin.readline()
                if not line:
                    break
                if line.startswith(EVENTS_PREFIX):
                    # v2 binary event payload: header line + raw bytes.
                    try:
                        doc, length = parse_event_header(line)
                    except Exception as exc:
                        self._write(
                            {"type": "error", "message": f"bad worker frame: {exc}"}
                        )
                        stdout.flush()
                        continue
                    payload = stdin.read(length)
                    if payload is None or len(payload) < length:
                        break  # front died mid-payload; follow it down
                    self._feed_events(doc, payload)
                    stdout.flush()
                    continue
                if not line.strip():
                    continue
                if not self._handle_line(line):
                    break
        finally:
            self._engine.close()
        return 0

    def _handle_line(self, line: bytes) -> bool:
        """Process one frame; returns False when the worker should exit."""
        assert self._out is not None
        try:
            frame = decode_frame(line)
        except Exception as exc:
            self._write({"type": "error", "message": f"bad worker frame: {exc}"})
            self._out.flush()
            return True
        cmd = frame.get("cmd")
        keep_going = True
        if cmd == "feed":
            self._feed(frame)
        elif cmd == "abort":
            # Fire-and-forget like feed: the front already accounted for
            # the abort (it initiated it); a reply would desync the FIFO.
            self._cmd_abort(frame)
        else:
            try:
                if cmd == "subscribe":
                    reply = self._cmd_subscribe(frame)
                elif cmd == "unsubscribe":
                    reply = self._cmd_unsubscribe(frame)
                elif cmd == "finish":
                    reply = self._cmd_finish(frame)
                elif cmd == "stats":
                    reply = self.stats()
                elif cmd == "ping":
                    reply = {"type": "pong"}
                elif cmd == "hello":
                    reply = {
                        "type": "hello",
                        "pid": os.getpid(),
                        "parser": self.parser,
                        "protocols": self.protocols,
                    }
                elif cmd == "snapshot":
                    reply = self._cmd_snapshot(frame)
                elif cmd == "restore":
                    reply = self._cmd_restore(frame)
                elif cmd == "drain":
                    reply = {"type": "drained"}
                    keep_going = False
                else:
                    reply = {"type": "error", "message": f"unknown worker command {cmd!r}"}
            except Exception as exc:
                reply = {"type": "error", "message": str(exc)}
            self._write(reply)
        self._out.flush()
        return keep_going

    def _write(self, frame: Dict[str, Any]) -> None:
        assert self._out is not None
        self._out.write(encode_frame(frame))

    # ------------------------------------------------------------ commands

    def _cmd_subscribe(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        # The front owns naming (a shared namespace across workers), so
        # ``name`` is always present here.
        subscription = self._engine.subscribe(frame["query"], name=frame["name"])
        return {
            "type": "subscribed",
            "name": subscription.name,
            "query": subscription.query,
            "mid_stream": self._session is not None,
        }

    def _cmd_unsubscribe(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        name = frame["name"]
        self._engine.unregister(name)
        return {"type": "unsubscribed", "name": name}

    def _feed(self, frame: Dict[str, Any]) -> None:
        doc = frame.get("doc", 0)
        if doc == self._failed_doc:
            return
        if self._session is None:
            self._session = self._engine.session(parser=self.parser)
        started = time.perf_counter()
        try:
            pairs = self._session.feed_text(frame.get("data", ""))
        except Exception as exc:
            self._busy_seconds += time.perf_counter() - started
            self._abort(doc, str(exc), origin="feed")
            return
        self._busy_seconds += time.perf_counter() - started
        if pairs:
            self._emit(pairs)

    def _feed_events(self, doc: int, payload: bytes) -> None:
        """Protocol v2 feed: push one binary frame through the session.

        Fire-and-forget like a v1 ``feed``; decode or dispatch failures
        surface as an ``aborted`` push exactly like a local parse error
        (they indicate a corrupt pipe or an engine bug, both fatal to the
        document but contained to it).  The session owns the frame codec
        and walks each frame straight into the engine's element sink, so
        no event objects are materialised.
        """
        if doc == self._failed_doc:
            return  # in-flight payload for an epoch the abort already killed
        if self._session is None:
            self._session = self._engine.event_session()
        started = time.perf_counter()
        try:
            pairs = self._session.feed_frame(payload)  # type: ignore[union-attr]
        except Exception as exc:
            self._busy_seconds += time.perf_counter() - started
            self._abort(doc, str(exc), origin="feed")
            return
        self._busy_seconds += time.perf_counter() - started
        if pairs:
            self._emit(pairs)

    def _cmd_abort(self, frame: Dict[str, Any]) -> None:
        """Front-initiated document teardown (events mode parse failure).

        Quiet by design: no ``aborted`` push travels back — the front
        already did its abort accounting before sending this command; the
        worker only has to reach the same clean state a local abort would.
        """
        doc = frame.get("doc", 0)
        session = self._session
        if session is not None:
            elements = session.element_count
            if not session.failed:
                if isinstance(session, EventStreamSession):
                    session.abort()
                else:
                    session._abort()
            self._elements_total += elements
            self._session = None
        self._failed_doc = doc

    def _cmd_finish(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        doc = frame.get("doc", 0)
        if doc == self._failed_doc or self._session is None:
            # Epoch already died (the front raced a finish against an
            # in-flight abort); no message — the front answers the client
            # with its own "no document in progress".
            return {"type": "finished", "aborted": True, "elements": 0}
        session = self._session
        started = time.perf_counter()
        try:
            pairs = session.finish()
        except Exception as exc:
            self._busy_seconds += time.perf_counter() - started
            elements = self._abort(doc, str(exc), origin="finish")
            return {
                "type": "finished",
                "aborted": True,
                "elements": elements,
                "message": str(exc),
            }
        self._busy_seconds += time.perf_counter() - started
        if pairs:
            self._emit(pairs)
        elements = session.element_count
        self._elements_total += elements
        self._documents += 1
        self._session = None
        self._engine.reset()
        return {"type": "finished", "elements": elements}

    def _abort(self, doc: int, message: str, origin: str) -> int:
        """Tear the document down and push ``aborted``; returns elements."""
        session = self._session
        elements = session.element_count if session is not None else 0
        if session is not None and not session.failed:
            # Raw-XML sessions abort themselves inside feed/finish; an
            # events-mode *decode* failure happens outside the session, so
            # reset the engine here before the next document.
            if isinstance(session, EventStreamSession):
                session.abort()
            else:
                session._abort()
        self._elements_total += elements
        self._session = None
        self._failed_doc = doc
        self._write(
            {
                "type": "aborted",
                "doc": doc,
                "message": message,
                "elements": elements,
                "origin": origin,
            }
        )
        return elements

    def _cmd_snapshot(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        if self._session is not None:
            snapshot = self._session.snapshot()
        else:
            snapshot = self._engine.snapshot()
        return {
            "type": "snapshot",
            "snapshot": snapshot,
            "elements_total": self._elements_total,
        }

    def _cmd_restore(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        if self._session is not None or self._engine.machine_count:
            raise RuntimeError("cannot restore into a non-empty worker")
        engine = MultiQueryEvaluator(collect_statistics=False)
        session = engine.restore_session(frame["snapshot"])
        old = self._engine
        self._engine = engine
        self._session = session
        # An events-mode restore continues mid-document with a fresh codec
        # pair: the restored session starts a fresh decoder and the front
        # resets its encoder at the same stream boundary.
        old.close()
        return {
            "type": "restored",
            "subscriptions": sorted(engine._subscriptions),
            "mid_document": session is not None,
        }

    def stats(self) -> Dict[str, Any]:
        elements = self._elements_total
        if self._session is not None:
            elements += self._session.element_count
        busy = self._busy_seconds
        times = os.times()
        return {
            "type": "stats",
            "pid": os.getpid(),
            "parser": self.parser,
            "machine_count": self._engine.machine_count,
            "subscriptions": len(self._engine._subscriptions),
            "documents": self._documents,
            "document_open": self._session is not None,
            "elements": elements,
            "events_per_sec": round(elements / busy, 1) if busy > 0 else 0.0,
            "solutions": self._solutions_total,
            # This process's total CPU (user+system): the honest cost of
            # re-parsing under v1 broadcast vs decoding under v2 events.
            "cpu_seconds": round(times.user + times.system, 4),
        }

    # ------------------------------------------------------------ solutions

    def _emit(self, pairs: List[Tuple[str, Solution]]) -> None:
        """Write delivered pairs as fast-path lines, one shared timestamp.

        The timestamp mirrors the single-process server: one clock read per
        routed batch.  ``time.monotonic`` is ``CLOCK_MONOTONIC``, the same
        clock asyncio's loop time uses, so front- and worker-stamped
        solutions are comparable.
        """
        assert self._out is not None
        ts = time.monotonic()
        self._solutions_total += len(pairs)
        for name, solution in pairs:
            frame = encode_frame(
                {
                    "type": "solution",
                    "name": name,
                    "ts": ts,
                    "solution": solution_to_payload(solution),
                }
            )
            self._out.write(encode_worker_solution(name, frame))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.service.worker",
        description="ViteX shard worker (spawned by the sharded service).",
    )
    parser.add_argument("--parser", default="native", help="XML parser backend")
    parser.add_argument(
        "--max-protocol",
        type=int,
        default=int(os.environ.get(MAX_PROTOCOL_ENV, str(PROTOCOL_V2))),
        help="highest worker-pipe protocol version to advertise",
    )
    args = parser.parse_args(argv)
    worker = ShardWorker(parser=args.parser, max_protocol=args.max_protocol)
    return worker.run(sys.stdin.buffer, sys.stdout.buffer)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())


__all__ = ["ShardWorker", "main"]
