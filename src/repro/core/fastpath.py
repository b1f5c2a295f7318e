"""Parser sources for the element sink: no event objects on the hot path.

The general pipeline materialises one event object per markup construct.
That is the right shape for the push API and fragment capture, but for
``evaluate(document)``, push sessions and the document stream it spends a
large fraction of the per-element budget on allocating and unpacking event
tuples.  The two sources here parse and call an
:class:`~repro.core.sink.ElementSink` directly; all TwigM bookkeeping —
pre-order, ancestor chain, statistics, dispatch, delivery — happens in the
sink, so the sources cannot drift from each other or from the event path.

* :func:`fused_pure_multi_evaluate` — a bulk regex scan over a complete
  in-memory document.  It bails out (returns ``None``) whenever the
  document needs the general pipeline — unsupported constructs or any
  syntax error — and the caller replays through the event pipeline, which
  reproduces the exact error message of the incremental tokenizer.  The
  sink defers deliveries during the scan, so a bail-out fires no callback
  twice.
* :class:`ExpatSource` — expat callbacks bound straight to the sink.  One
  driver serves both the one-shot :meth:`~ExpatSource.run` loop and the
  incremental :meth:`~ExpatSource.feed` / :meth:`~ExpatSource.finish`
  session mode, and keeps expat's constant-memory behaviour.
"""

from __future__ import annotations

from typing import List, Optional, Union
from xml.parsers import expat

from ..errors import StreamStateError, XMLSyntaxError
from ..xmlstream.tokenizer import (
    _END_TAG_RE,
    _START_TAG_RE,
    decode_entities,
    parse_attribute_string,
)
from .sink import ElementSink


def fused_pure_multi_evaluate(sink: ElementSink, document: str) -> Optional[list]:
    """Scan the complete ``document`` into ``sink``.

    Returns the deferred ``(runtime, solutions)`` deliveries in emission
    order for the caller to fan out, or ``None`` when the document needs the
    general pipeline.  After ``None`` the caller must reset the machines
    and the sink before replaying through the event pipeline, which either
    succeeds (constructs the scan skipped) or raises the canonical
    :class:`XMLSyntaxError`.
    """
    deferred: list = []
    sink.deferred = deferred
    try:
        return deferred if _scan(sink, document) else None
    except (XMLSyntaxError, StreamStateError):
        # Entity/attribute errors and mis-nested end tags raised mid-scan:
        # the event pipeline re-derives the canonical error and line.
        return None
    finally:
        sink.deferred = None


def _scan(sink: ElementSink, doc: str) -> bool:
    n = len(doc)
    find = doc.find
    count = doc.count
    start_match = _START_TAG_RE.match
    end_match = _END_TAG_RE.match
    start = sink.start
    end = sink.end
    characters = sink.text
    context = sink.context
    track_lines = "\n" in doc
    index = 0
    line = 1
    root_seen = False
    sink.start_document()
    while index < n:
        lt = find("<", index)
        if lt == -1:
            if doc[index:].strip():
                return False  # trailing content / unclosed element
            break
        if lt > index:
            if context:
                text = doc[index:lt]
                if "&" in text:
                    text = decode_entities(text, line=line)
                characters(text)
            elif doc[index:lt].strip():
                return False  # character data outside the root element
            if track_lines:
                line += count("\n", index, lt)
        second = doc[lt + 1] if lt + 1 < n else ""
        if second == "/":
            match = end_match(doc, lt)
            if match is None:
                return False
            index = match.end()
            if track_lines:
                line += count("\n", lt, index)
            end(match.group(1))  # a mismatched end tag raises: bail out
            continue
        if second not in ("!", "?", ""):
            match = start_match(doc, lt)
            if match is None:
                return False
            name, raw_attributes, empty = match.group(1, 2, 3)
            index = match.end()
            if track_lines:
                line += count("\n", lt, index)
            if root_seen and not context:
                return False  # second root element
            root_seen = True
            # Duplicate attributes / bad entity references raise
            # XMLSyntaxError, which the wrapper turns into a bail-out.
            start(
                name,
                parse_attribute_string(raw_attributes, name, line) if raw_attributes else (),
                line,
            )
            if empty:
                end(name)
            continue
        # -------- uncommon constructs: comments, CDATA, PI, DOCTYPE --------
        if doc.startswith("<!--", lt):
            close = find("-->", lt + 4)
            if close == -1:
                return False
            sink.misc()
            index = close + 3
        elif doc.startswith("<![CDATA[", lt):
            close = find("]]>", lt + 9)
            if close == -1:
                return False
            content = doc[lt + 9 : close]
            if context:
                if content:
                    characters(content)
            elif content.strip():
                return False  # CDATA outside the root element
            index = close + 3
        elif second == "?":
            close = find("?>", lt + 2)
            if close == -1:
                return False
            if doc[lt + 2 : close].partition(" ")[0].strip().lower() != "xml":
                sink.misc()
            index = close + 2
        elif doc.startswith("<!DOCTYPE", lt):
            depth = 0
            index = -1
            for scan in range(lt, n):
                char = doc[scan]
                if char == "[":
                    depth += 1
                elif char == "]":
                    depth -= 1
                elif char == ">" and depth <= 0:
                    index = scan + 1
                    break
            if index == -1:
                return False
        else:
            return False  # anything else: replay through the event pipeline
        if track_lines:
            line += count("\n", lt, index)
    if context or not root_seen:
        return False  # unclosed element / no root
    sink.end_document()
    return True


class ExpatSource:
    """Drive an element sink straight from expat callbacks.

    End tags, character data, comments and processing instructions are
    bound to the sink's methods directly; only start tags pass through a
    small adapter that pairs up expat's flat attribute list and reads the
    line number.  Use :meth:`run` to consume a whole document, or
    :meth:`feed` / :meth:`finish` when the caller owns the read loop (push
    sessions): each ``feed`` is one ``Parse(chunk, 0)``.
    """

    def __init__(self, sink: ElementSink) -> None:
        parser = expat.ParserCreate()
        parser.buffer_text = True
        parser.ordered_attributes = True
        self._parser = parser
        self._sink = sink
        self._bind()
        self._started = False
        self._fed_bytes = False

    def _bind(self) -> None:
        parser = self._parser
        sink = self._sink
        sink_start = sink.start

        def start(name: str, attributes: List[str]) -> None:
            pairs = tuple(zip(attributes[0::2], attributes[1::2])) if attributes else ()
            sink_start(name, pairs, parser.CurrentLineNumber)

        parser.StartElementHandler = start
        parser.EndElementHandler = sink.end
        parser.CharacterDataHandler = sink.text
        parser.CommentHandler = sink.misc
        parser.ProcessingInstructionHandler = sink.misc

    def run(self, chunks) -> None:
        """Consume the whole document from an iterable of str/bytes chunks."""
        for chunk in chunks:
            self.feed(chunk)
        self.finish()

    def feed(self, chunk: Union[str, bytes]) -> None:
        """Push one str/bytes chunk through ``Parse(chunk, 0)``."""
        if not self._started:
            self._started = True
            self._sink.start_document()
        if isinstance(chunk, bytes):
            self._fed_bytes = True
        self._parse(chunk, False)

    def finish(self) -> None:
        """Signal end of input (``Parse(_, 1)``) and end the document."""
        if not self._started:
            self._started = True
            self._sink.start_document()
        self._parse(b"" if self._fed_bytes else "", True)
        self._sink.end_document()

    def _parse(self, chunk: Union[str, bytes], final: bool) -> None:
        try:
            self._parser.Parse(chunk, final)
        except expat.ExpatError as exc:
            raise XMLSyntaxError(
                str(exc),
                line=getattr(exc, "lineno", None),
                column=getattr(exc, "offset", None),
            ) from exc

    # ------------------------------------------------------------ checkpoint

    def snapshot_state(self) -> dict:
        """JSON-able driver scalars for the checkpoint format.

        expat's parser itself cannot be serialized; the session snapshots
        the raw chunk prefix instead and :meth:`prime` re-drives a fresh
        parser over it.  Restore needs none of these scalars — the restored
        engine carries the level and pre-order, and :meth:`prime` recovers
        the rest from the prefix — but the checkpoint layout keeps them.
        """
        sink = self._sink
        return {
            "level": len(sink.context),
            "order": sink.order,
            "pending_text": sink.in_text,
            "fed_bytes": self._fed_bytes,
        }

    def prime(self, segments) -> None:
        """Re-drive this *fresh* parser over the captured chunk prefix.

        ``segments`` is the str/bytes input the original parser consumed
        before the snapshot.  Replaying it reproduces all of expat's
        internal state — detected encoding, open-element stack, buffered
        partial construct, line numbers — while stand-in handlers keep the
        machines untouched (the restored engine already holds their state)
        and only track the open elements and whether the prefix ends inside
        a run of text.  The open elements become the sink's ancestor chain
        (snapshots written before the chain was checkpointed lack it).
        """
        if self._started:
            raise XMLSyntaxError("prime() requires a freshly created driver")
        parser = self._parser
        open_elements: List[str] = []
        in_text = False

        def start(name: str, _attributes) -> None:
            nonlocal in_text
            open_elements.append(name)
            in_text = False

        def end(_name: str) -> None:
            nonlocal in_text
            open_elements.pop()
            in_text = False

        def text(_data: str) -> None:
            nonlocal in_text
            in_text = in_text or bool(open_elements)

        def other(*_) -> None:
            nonlocal in_text
            in_text = False

        parser.StartElementHandler = start
        parser.EndElementHandler = end
        parser.CharacterDataHandler = text
        parser.CommentHandler = other
        parser.ProcessingInstructionHandler = other
        try:
            for segment in segments:
                if isinstance(segment, bytes):
                    self._fed_bytes = True
                parser.Parse(segment, False)
        except expat.ExpatError as exc:  # pragma: no cover - snapshot corruption
            raise XMLSyntaxError(
                f"cannot replay checkpoint prefix: {exc}",
                line=getattr(exc, "lineno", None),
            ) from exc
        finally:
            self._bind()
        self._started = bool(segments)
        self._sink.context[:] = open_elements
        self._sink.in_text = in_text


__all__ = ["ExpatSource", "fused_pure_multi_evaluate"]
