"""The ViteX evaluation engine: query + XML stream → solutions.

:class:`TwigMEvaluator` wires the pieces of the paper's architecture figure
together: the XPath parser and TwigM builder run once per query, then SAX
events (from either parser back-end) drive the TwigM machine's transition
functions.  Three calling styles are offered:

* :meth:`TwigMEvaluator.evaluate` — run a whole document and return a
  :class:`~repro.core.results.ResultSet` (as a one-subscription engine on
  the element sink, :mod:`repro.core.sink`);
* :meth:`TwigMEvaluator.stream` — a generator that yields each solution as
  soon as it is known (the paper's "incrementally produce and distribute
  query results" requirement);
* :meth:`TwigMEvaluator.feed` / :meth:`TwigMEvaluator.finish` — push-style
  event-at-a-time driving, used when the caller already owns the event loop.

Module-level helpers :func:`evaluate` and :func:`stream_evaluate` cover the
common one-shot cases.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Union

from ..errors import StreamStateError
from ..xmlstream.events import (
    Characters,
    Comment,
    EndDocument,
    EndElement,
    Event,
    ProcessingInstruction,
    StartDocument,
    StartElement,
    as_event_iterable,
)
from ..xmlstream.reader import DEFAULT_CHUNK_SIZE, TextSource
from ..xmlstream.sax import iter_events
from ..xmlstream.serializer import serialize_events
from ..xpath.ast import QueryTree
from .builder import build_machine
from .machine import TwigMachine
from .results import ResultCollector, ResultSet, Solution
from .sink import DOCUMENT_COUNTERS
from .statistics import EngineStatistics
from .transitions import (
    process_characters,
    process_end_element,
    process_start_element,
)


class TwigMEvaluator:
    """Streaming XPath evaluator built around a TwigM machine.

    Parameters
    ----------
    query:
        XPath expression string or an already-normalized
        :class:`~repro.xpath.ast.QueryTree`.
    capture_fragments:
        When True, element solutions carry their serialized XML fragment in
        :attr:`Solution.fragment`.  This requires buffering the events of
        currently-open potential solution elements, so it trades the
        constant-memory property for convenience; it is off by default and
        never enabled by the benchmarks.
    eager_emission:
        When True, solutions whose remaining ancestors carry no predicates are
        emitted as soon as they are confirmed instead of being bookkept up to
        the machine root.  This never changes the answer set (verified by the
        property-based tests); it lowers result latency and peak candidate
        counts for queries such as ``/feed//update[...]`` whose root step is
        unconstrained.  Off by default to match the paper's description.
    collect_statistics:
        When False, the :class:`EngineStatistics` counters are not maintained
        during the run (``self.statistics`` stays at its zeroed state).  The
        counters cost a measurable fraction of the per-event transition work,
        so latency-critical deployments can switch them off; benchmarks and
        tests keep them on (the default).
    """

    def __init__(
        self,
        query: Union[str, QueryTree],
        capture_fragments: bool = False,
        eager_emission: bool = False,
        collect_statistics: bool = True,
    ) -> None:
        self.machine: TwigMachine = build_machine(query)
        self.query: QueryTree = self.machine.query
        self.capture_fragments = capture_fragments
        self.eager_emission = eager_emission
        self.collect_statistics = collect_statistics
        self.statistics = EngineStatistics()
        self.collector = ResultCollector()
        self._element_order = 0
        self._finished = False
        self._started = False
        self._in_text = False
        # Fragment capture state: one event buffer per open potential solution
        # element, keyed by that element's pre-order index.
        self._capture_buffers: Dict[int, List[Event]] = {}
        self._capture_levels: Dict[int, int] = {}
        self._fragments: Dict[int, str] = {}

    # ------------------------------------------------------------ push API

    def feed(self, event: Event) -> List[Solution]:
        """Process one event; return solutions that became known with it.

        Dispatch is keyed on the exact event class first (the ``is`` checks
        below, ordered by stream frequency) with ``isinstance`` as the
        fallback for subclassed events; per-event isinstance chains were
        ~40% of the seed engine's runtime.  Document-level statistics follow
        the element sink's rule (:mod:`repro.core.sink`): one ``Characters``
        event and text chunk per run of character data.
        """
        if self._finished:
            raise StreamStateError("evaluator already finished; call reset() first")
        statistics = self.statistics if self.collect_statistics else None
        cls = event.__class__
        in_text = self._in_text
        self._in_text = False
        if cls is StartElement or isinstance(event, StartElement):
            self._started = True
            order = self._element_order
            self._element_order = order + 1
            if statistics is not None:
                statistics.events += 1
                statistics.elements += 1
                statistics.attributes += len(event.attributes)
                if event.level > statistics.max_depth:
                    statistics.max_depth = event.level
            if self.capture_fragments:
                self._capture_start(event, order)
            process_start_element(
                self.machine,
                event.name,
                event.level,
                event.attributes,
                event.line,
                order,
                statistics,
            )
            return []
        if cls is EndElement or isinstance(event, EndElement):
            if statistics is not None:
                statistics.events += 1
            if self.capture_fragments:
                self._capture_end(event)
            return process_end_element(
                self.machine,
                event.name,
                event.level,
                statistics,
                self.collector,
                fragments=self._fragments if self.capture_fragments else None,
                eager_emission=self.eager_emission,
            )
        if cls is Characters or isinstance(event, Characters):
            self._in_text = True
            if statistics is not None and not in_text:
                statistics.events += 1
                statistics.text_chunks += 1
            if self.capture_fragments:
                self._capture_event(event)
            process_characters(self.machine, event.text, event.level)
            return []
        if statistics is not None:
            statistics.events += 1
        if isinstance(event, StartDocument):
            self._started = True
        elif isinstance(event, EndDocument):
            self._finished = True
            if not self.machine.stacks_empty():
                raise StreamStateError(
                    "machine stacks are not empty at end of document; "
                    "the event stream was not well-nested"
                )
        elif not isinstance(event, (Comment, ProcessingInstruction)):
            raise StreamStateError(f"unknown event type {type(event).__name__}")
        return []

    def finish(self) -> ResultSet:
        """Declare the stream complete and return the accumulated result set."""
        if not self._finished:
            if not self.machine.stacks_empty():
                raise StreamStateError(
                    "finish() called while elements are still open"
                )
            self._finished = True
        return ResultSet.from_collector(self.query.source, self.collector)

    def reset(self) -> None:
        """Reset the evaluator so the same query can run over another document."""
        self.machine.reset()
        self.statistics = EngineStatistics()
        self.collector = ResultCollector()
        self._element_order = 0
        self._finished = False
        self._started = False
        self._in_text = False
        self._capture_buffers.clear()
        self._capture_levels.clear()
        self._fragments.clear()

    # ------------------------------------------------------------ pull API

    def stream(
        self,
        source: Union[TextSource, Iterable[Event]],
        parser: str = "native",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> Iterator[Solution]:
        """Yield solutions incrementally while consuming ``source``.

        ``source`` may be anything :func:`repro.xmlstream.iter_events`
        accepts, or an already-produced iterable of events.  Like
        :meth:`evaluate`, a fresh evaluator over a document runs as a
        one-subscription engine on the element sink.
        """
        if self._runs_on_sink(source):
            engine = self._one_subscription_engine()
            for match in engine.stream(source, parser=parser, chunk_size=chunk_size):
                yield match.solution
            self._absorb(engine)
            return
        for event in self._events_for(source, parser, chunk_size):
            solutions = self.feed(event)
            if solutions:
                yield from solutions

    def evaluate(
        self,
        source: Union[TextSource, Iterable[Event]],
        parser: str = "native",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> ResultSet:
        """Evaluate the query over a complete document and return all solutions.

        A fresh evaluator over a document source runs as a one-subscription
        :class:`~repro.core.multi.MultiQueryEvaluator` around this machine,
        so it takes the same parser sources into the element sink
        (:mod:`repro.core.sink`) — a bulk scan (pure) or expat callbacks —
        with no event objects.  Fragment capture, event iterables and the
        continuation of a stream already fed through :meth:`feed` use
        :meth:`feed`.
        """
        if self._runs_on_sink(source):
            engine = self._one_subscription_engine()
            engine.evaluate(source, parser=parser, chunk_size=chunk_size)
            self._absorb(engine)
            return self.finish()
        for event in self._events_for(source, parser, chunk_size):
            self.feed(event)
        return self.finish()

    # ------------------------------------------------------------ internals

    def _runs_on_sink(self, source) -> bool:
        return (
            not self.capture_fragments
            and not self._started
            and not self._finished
            and not _is_event_iterable(source)
        )

    def _one_subscription_engine(self):
        from .multi import MultiQueryEvaluator  # deferred: multi imports us

        return MultiQueryEvaluator._serving(self)

    def _absorb(self, engine) -> None:
        """Adopt the document counters and position of a finished engine run."""
        document = engine._sink.statistics
        if document is not None:
            for name in DOCUMENT_COUNTERS:
                setattr(self.statistics, name, getattr(document, name))
        self._element_order = engine._sink.order
        self._started = True
        self._finished = True

    @staticmethod
    def _events_for(
        source: Union[TextSource, Iterable[Event]],
        parser: str,
        chunk_size: int,
    ) -> Iterable[Event]:
        if _is_event_iterable(source):
            return source  # type: ignore[return-value]
        return iter_events(source, parser=parser, chunk_size=chunk_size)

    # -- fragment capture ---------------------------------------------------

    def _wants_capture(self, tag: str) -> bool:
        for node in self.machine.nodes_matching(tag):
            if node.is_output:
                return True
        return False

    def _capture_start(self, event: StartElement, order: int) -> None:
        self._capture_event(event)
        if self._wants_capture(event.name):
            self._capture_buffers[order] = [event]
            self._capture_levels[order] = event.level

    def _capture_event(self, event: Event) -> None:
        for buffer in self._capture_buffers.values():
            if buffer and buffer[-1] is not event:
                buffer.append(event)

    def _capture_end(self, event: EndElement) -> None:
        self._capture_event(event)
        completed = [
            order
            for order, level in self._capture_levels.items()
            if level == event.level
        ]
        for order in completed:
            buffer = self._capture_buffers.pop(order)
            del self._capture_levels[order]
            self._fragments[order] = serialize_events(buffer)


def _is_event_iterable(source) -> bool:
    """Shared sniffing rule: see :func:`repro.xmlstream.events.as_event_iterable`."""
    return as_event_iterable(source) is not None


def evaluate(
    query: Union[str, QueryTree],
    source: Union[TextSource, Iterable[Event]],
    parser: str = "native",
    capture_fragments: bool = False,
    eager_emission: bool = False,
    collect_statistics: bool = True,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> ResultSet:
    """Evaluate ``query`` over ``source`` and return the full result set."""
    evaluator = TwigMEvaluator(
        query,
        capture_fragments=capture_fragments,
        eager_emission=eager_emission,
        collect_statistics=collect_statistics,
    )
    return evaluator.evaluate(source, parser=parser, chunk_size=chunk_size)


def stream_evaluate(
    query: Union[str, QueryTree],
    source: Union[TextSource, Iterable[Event]],
    parser: str = "native",
    capture_fragments: bool = False,
    eager_emission: bool = False,
    collect_statistics: bool = True,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[Solution]:
    """Yield solutions of ``query`` over ``source`` incrementally."""
    evaluator = TwigMEvaluator(
        query,
        capture_fragments=capture_fragments,
        eager_emission=eager_emission,
        collect_statistics=collect_statistics,
    )
    return evaluator.stream(source, parser=parser, chunk_size=chunk_size)
