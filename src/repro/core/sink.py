"""The element sink: the one place the TwigM transitions are driven from.

ViteX parses once and lets start, end and text events drive the stack
machines of every standing query.  Every event source in this package — the
bulk pure scan and the expat driver (:mod:`repro.core.fastpath`), the
binary frame reader (:meth:`EventFrameDecoder.walk
<repro.xmlstream.eventcodec.EventFrameDecoder.walk>`) and event objects
(:meth:`ElementSink.push`) — only parses and calls an :class:`ElementSink`
bound to a :class:`~repro.core.queryindex.QueryIndex`.  The sink alone owns:

* the document-global element pre-order (the canonical solution identity),
  the current level and the ancestor tag chain (:attr:`QueryIndex.context
  <repro.core.queryindex.QueryIndex.context>`, which family runtimes read
  at emission time);
* the document-level statistics counters and the coalesced-text rule;
* label dispatch, the calls into :mod:`repro.core.transitions`, and
  delivery of the solutions they emit to subscribers.

Statistics rule
---------------

The sink counts the *document-level* counters (``events``, ``elements``,
``attributes``, ``max_depth``, ``text_chunks``) once per event into its own
:attr:`ElementSink.statistics`; the machine-work counters (pushes, pops,
candidates, solutions, peaks) are kept per machine by the transitions.  A
run of character data counts as one ``Characters`` event and one text
chunk however the parser split it, which is what makes every source count
alike.  Level-0 text (whitespace around the document element) is ignored.

The sink is also a *record handler* in the sense of
:class:`~repro.xmlstream.eventcodec.EventFrameEncoder`: a frame walk calls
its ``start_element`` / ``end_element`` / ``characters`` / ... methods,
which are the same compact methods the parser sources and expat call
(:meth:`start`, :meth:`end`, :meth:`text`, :meth:`misc`).  A record's
trailing ``position`` and ``level`` fields are ignored: the sink derives
the level from its own ancestor chain.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import StreamStateError
from ..xmlstream.events import (
    Characters,
    Comment,
    EndDocument,
    EndElement,
    ProcessingInstruction,
    StartDocument,
    StartElement,
)
from .statistics import EngineStatistics
from .transitions import process_characters, process_end_element, process_start_element

#: The counters the sink (or the single-query ``feed`` loop) maintains once
#: per event; every other :class:`EngineStatistics` counter is machine work.
DOCUMENT_COUNTERS = ("events", "elements", "attributes", "text_chunks", "max_depth")


def with_document_counters(
    machine: EngineStatistics, document: Optional[EngineStatistics]
) -> Dict[str, int]:
    """``machine.as_dict()`` with the document-level counters of ``document``."""
    counters = machine.as_dict()
    if document is not None:
        for name in DOCUMENT_COUNTERS:
            counters[name] = getattr(document, name)
    return counters


class ElementSink:
    """Drive every machine of one :class:`QueryIndex` from parse callbacks.

    Delivery goes to :attr:`emitted` (drained with :meth:`drain`; ``None``
    when the caller does not want the pairs, as in ``evaluate()``), unless
    :attr:`deferred` is a list: then each emission is stamped while the
    ancestor chain is live and queued as ``(runtime, solutions)`` for the
    caller to deliver later — the pure scan's bail-out replay relies on
    that so no callback fires twice.  A :attr:`tee` record handler (the
    retention spool's encoder) receives every start, end and text record.
    """

    __slots__ = (
        "_index",
        "_dispatch",
        "_interest",
        "context",
        "order",
        "statistics",
        "emitted",
        "deferred",
        "tee",
        "in_text",
    )

    def __init__(self, index, collect_statistics: bool = True) -> None:
        self._index = index
        self._dispatch = index.dispatch
        #: The index's memoized per-tag interest sets, probed inline (the
        #: index clears the dict in place when registrations change).
        self._interest = index._dispatch_cache
        self.context: List[str] = index.context
        #: Pre-order index of the next start tag.
        self.order = 0
        self.statistics: Optional[EngineStatistics] = (
            EngineStatistics() if collect_statistics else None
        )
        self.emitted: Optional[list] = []
        self.deferred: Optional[list] = None
        self.tee = None
        #: True while inside a run of character data (one coalesced chunk).
        self.in_text = False

    def reset(self) -> None:
        """Return to the start of a document (counters included)."""
        del self.context[:]
        self.order = 0
        if self.statistics is not None:
            self.statistics = EngineStatistics()
        self.emitted = []
        self.deferred = None
        self.in_text = False

    def drain(self) -> list:
        """The pairs delivered since the last drain."""
        emitted = self.emitted
        self.emitted = []
        return emitted

    # ------------------------------------------------------------ sources

    # The ignored record fields are defaulted parameters rather than
    # ``*args``: the interpreter never specializes a call to a function with
    # ``*args``, and these are the hottest calls.

    def start(
        self, name: str, attributes: tuple, line: Optional[int], _position=0, _level=0
    ) -> None:
        """A start tag; ``attributes`` is a tuple of ``(name, value)`` pairs."""
        self.in_text = False
        context = self.context
        context.append(name)
        level = len(context)
        order = self.order
        self.order = order + 1
        statistics = self.statistics
        if statistics is not None:
            statistics.events += 1
            statistics.elements += 1
            statistics.attributes += len(attributes)
            if level > statistics.max_depth:
                statistics.max_depth = level
        if self.tee is not None:
            self.tee.start_element(name, attributes, line, order, level)
        runtimes = self._interest.get(name)
        if runtimes is None:
            runtimes = self._dispatch(name)
        for runtime in runtimes:
            process_start_element(
                runtime.machine, name, level, attributes, line, order,
                runtime.statistics,
            )

    def end(self, name: str, _line=None, _position=0, _level=0) -> None:
        """An end tag; raises :class:`StreamStateError` when it is not nested."""
        self.in_text = False
        context = self.context
        if not context or context[-1] != name:
            raise StreamStateError(
                f"end tag {name!r} does not close the open element "
                f"{context[-1] if context else None!r}"
            )
        level = len(context)
        if self.statistics is not None:
            self.statistics.events += 1
        if self.tee is not None:
            self.tee.end_element(name, None, self.order, level)
        deferred = self.deferred
        runtimes = self._interest.get(name)
        if runtimes is None:
            runtimes = self._dispatch(name)
        for runtime in runtimes:
            solutions = process_end_element(
                runtime.machine, name, level, runtime.statistics,
                runtime.collector, eager_emission=runtime.eager,
            )
            if solutions:
                if deferred is None:
                    runtime.deliver(solutions, self.emitted)
                else:
                    if runtime.is_family:
                        runtime.resolve(solutions)
                    deferred.append((runtime, solutions))
        # Pop *after* dispatch: family runtimes resolve residual paths
        # against the chain of the element being closed.
        context.pop()

    def text(self, data: str, _position=0, _level=0) -> None:
        """Character data (any split of a run; entities already decoded)."""
        context = self.context
        if not context:
            return
        level = len(context)
        if not self.in_text:
            self.in_text = True
            statistics = self.statistics
            if statistics is not None:
                statistics.events += 1
                statistics.text_chunks += 1
        if self.tee is not None:
            self.tee.characters(data, self.order, level)
        for runtime in self._index.text_runtimes():
            process_characters(runtime.machine, data, level)

    def misc(self, *_) -> None:
        """A comment or processing instruction: counted, never dispatched."""
        self.in_text = False
        if self.statistics is not None:
            self.statistics.events += 1

    def start_document(self, *_) -> None:
        self.in_text = False
        if self.statistics is not None:
            self.statistics.events += 1
        if self.tee is not None:
            self.tee.start_document(self.order)

    def end_document(self, *_) -> None:
        if self.context:
            raise StreamStateError(
                f"end of document with {len(self.context)} element(s) still "
                "open; the event stream was not well-nested"
            )
        self.in_text = False
        if self.statistics is not None:
            self.statistics.events += 1
        if self.tee is not None:
            self.tee.end_document(self.order)

    # The record-handler names a frame walk calls.
    start_element = start
    end_element = end
    characters = text
    comment = misc
    processing_instruction = misc

    def push(self, event) -> None:
        """Drive the sink from one event object."""
        cls = event.__class__
        if cls is StartElement or isinstance(event, StartElement):
            self.start(event.name, event.attributes, event.line)
        elif cls is EndElement or isinstance(event, EndElement):
            self.end(event.name)
        elif cls is Characters or isinstance(event, Characters):
            self.text(event.text)
        elif isinstance(event, (Comment, ProcessingInstruction)):
            self.misc()
        elif isinstance(event, StartDocument):
            self.start_document()
        elif isinstance(event, EndDocument):
            self.end_document()
        else:
            raise StreamStateError(f"unknown event type {type(event).__name__}")


__all__ = ["DOCUMENT_COUNTERS", "ElementSink", "with_document_counters"]
