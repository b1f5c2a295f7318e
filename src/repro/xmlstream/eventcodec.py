"""Length-prefixed binary codec for the streaming event model.

The sharded service's protocol v2 ships *parsed events* to worker
processes instead of raw XML, so the document is tokenized exactly once
in the front process.  This module is the wire format: a stateful
encoder/decoder pair that turns a run of :class:`~repro.xmlstream.events`
NamedTuples into a compact byte frame and back, byte-exactly.

Format (all integers are unsigned LEB128 varints):

``frame   := magic:u8 event_count:varint record*``
``record  := type_code:u8 body``

Type codes: 0 StartDocument, 1 EndDocument, 2 StartElement, 3 EndElement,
4 Characters, 5 Comment, 6 ProcessingInstruction.

Tag and attribute *names* are interned per document: the encoder keeps a
string table that persists across frames, and a name is written either as
``0 len bytes`` (new entry — the decoder appends it to its own table) or
as ``index`` (1-based reference to an existing entry).  Attribute values,
text, comment bodies and PI data are written inline as ``len bytes``
UTF-8.  Optional ``line`` fields encode as ``line + 1`` with ``0``
meaning ``None``.  Event ``position`` is delta-encoded against the
previous record's position (positions are monotonic within a document),
so a contiguous stream costs one byte per event.

Both sides must process frames for one document in order on a fresh
encoder/decoder pair — the string table is the only cross-frame state,
and it is append-only, which is what makes the format deterministic:
encoding the same event stream always yields the same bytes.

The decoder is strict: unknown type codes, references past the end of
the string table, truncated payloads and trailing garbage all raise
:class:`EventCodecError` rather than yielding partial event lists.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ViteXError
from .events import (
    Characters,
    Comment,
    EndDocument,
    EndElement,
    Event,
    ProcessingInstruction,
    StartDocument,
    StartElement,
)

__all__ = [
    "EVENTS_PER_FRAME",
    "EventCodecError",
    "EventFrameDecoder",
    "EventFrameEncoder",
]

#: Soft batching target for producers: flush a frame once it holds this
#: many events.  Purely advisory — frames of any size decode fine.
EVENTS_PER_FRAME = 1024

#: First byte of every frame; rejects raw-XML/JSON bytes fed to the
#: decoder by mistake (both would start with ``<`` or ``{``).
_FRAME_MAGIC = 0xEF

_T_START_DOCUMENT = 0
_T_END_DOCUMENT = 1
_T_START_ELEMENT = 2
_T_END_ELEMENT = 3
_T_CHARACTERS = 4
_T_COMMENT = 5
_T_PROCESSING_INSTRUCTION = 6


class EventCodecError(ViteXError):
    """A frame could not be decoded (truncation, corruption, bad magic)."""


def _write_varint(out: bytearray, value: int) -> None:
    if 0 <= value < 0x80:
        out.append(value)
        return
    if value < 0:
        raise EventCodecError(f"cannot encode negative varint {value}")
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _write_text(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    _write_varint(out, len(raw))
    out += raw


def _read_varint(data: bytes, offset: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    length = len(data)
    while True:
        if offset >= length:
            raise EventCodecError("truncated frame: varint runs past the end")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise EventCodecError("corrupt frame: varint wider than 64 bits")


class EventFrameEncoder:
    """Encode runs of events into binary frames for one document.

    The instance carries the per-document name-interning table; create a
    fresh encoder per document (or call :meth:`reset` between documents)
    and keep it paired with exactly one :class:`EventFrameDecoder` on the
    consuming side.

    The encoder is a *record handler*: one writer method per record type,
    each taking the record's fields with ``position`` and ``level`` last —
    ``start_element(name, attributes, line, position, level)``,
    ``end_element(name, line, position, level)``,
    ``characters(text, position, level)``,
    ``comment(text, position, level)``,
    ``processing_instruction(target, data, position, level)``,
    ``start_document(position)`` and ``end_document(position)``.  Putting
    the positional bookkeeping last lets the element sink, which derives
    both itself, take records with its own compact methods.  Writers append to a pending frame that :meth:`frame` closes.
    :meth:`encode` turns event objects into writer calls, and the element
    sink's tee (the document stream's retention spool) calls the writers
    directly, so both produce the same bytes for the same records.
    """

    __slots__ = ("_names", "_last_position", "_body", "_count")

    def __init__(self) -> None:
        self._names: Dict[str, int] = {}
        self._last_position = 0
        self._body = bytearray()
        self._count = 0

    def reset(self) -> None:
        """Forget all interned names; start a new document."""
        self._names.clear()
        self._last_position = 0
        self._body = bytearray()
        self._count = 0

    @property
    def pending_records(self) -> int:
        """Records written since the last :meth:`frame`."""
        return self._count

    def frame(self) -> bytes:
        """Close the records written since the last frame into one frame."""
        out = bytearray((_FRAME_MAGIC,))
        _write_varint(out, self._count)
        out += self._body
        self._body = bytearray()
        self._count = 0
        return bytes(out)

    def encode(self, events: Iterable[Event]) -> bytes:
        """Return one frame holding ``events`` (possibly empty)."""
        start_element = self.start_element
        end_element = self.end_element
        characters = self.characters
        for event in events:
            cls = event.__class__
            # Exact classes first, by stream frequency: the fields are read
            # by index (position, name/text, level, attributes, line).
            if cls is StartElement:
                start_element(event[1], event[3], event[4], event[0], event[2])
            elif cls is EndElement:
                end_element(event[1], event[3], event[0], event[2])
            elif cls is Characters:
                characters(event[1], event[0], event[2])
            elif isinstance(event, StartElement):
                start_element(
                    event.name, event.attributes, event.line, event.position, event.level
                )
            elif isinstance(event, EndElement):
                end_element(event.name, event.line, event.position, event.level)
            elif isinstance(event, Characters):
                characters(event.text, event.position, event.level)
            elif isinstance(event, Comment):
                self.comment(event.text, event.position, event.level)
            elif isinstance(event, ProcessingInstruction):
                self.processing_instruction(
                    event.target, event.data, event.position, event.level
                )
            elif isinstance(event, StartDocument):
                self.start_document(event.position)
            elif isinstance(event, EndDocument):
                self.end_document(event.position)
            else:
                raise EventCodecError(
                    f"cannot encode object of type {type(event).__name__}"
                )
        return self.frame()

    # ------------------------------------------------------- record writers
    #
    # The hot writers (start, end, characters) inline the single-byte cases
    # of their record header, varint and name writes: the encoder runs in
    # the sharding front, where every microsecond is serial overhead no
    # worker count can amortise.  The byte output is identical to the
    # helper paths.

    def _record(self, code: int, position: int) -> bytearray:
        """Open one record: type code plus the position delta."""
        delta = position - self._last_position
        self._last_position = position
        self._count += 1
        body = self._body
        self._header(body, code, delta)
        return body

    @staticmethod
    def _header(body: bytearray, code: int, delta: int) -> None:
        if delta < 0:
            # Positions are monotonic per document; a producer that
            # rewinds (tests, hand-built streams) still encodes, just
            # not delta-compactly: flag with a zig-zag-style escape.
            body.append(0x7F)
            _write_varint(body, -delta)
            delta = 0
        body.append(code)
        _write_varint(body, delta)

    def _write_name(self, out: bytearray, name: str) -> None:
        index = self._names.get(name)
        if index is not None:
            _write_varint(out, index)
            return
        self._names[name] = len(self._names) + 1
        out.append(0)
        _write_text(out, name)

    def start_document(self, position: int) -> None:
        self._record(_T_START_DOCUMENT, position)

    def end_document(self, position: int) -> None:
        self._record(_T_END_DOCUMENT, position)

    def start_element(
        self,
        name: str,
        attributes: Tuple[Tuple[str, str], ...],
        line: Optional[int],
        position: int,
        level: int,
    ) -> None:
        body = self._body
        append = body.append
        self._count += 1
        delta = position - self._last_position
        self._last_position = position
        if 0 <= delta < 0x80:
            append(_T_START_ELEMENT)
            append(delta)
        else:
            self._header(body, _T_START_ELEMENT, delta)
        names = self._names
        index = names.get(name)
        if index is not None and index < 0x80:
            append(index)
        else:
            self._write_name(body, name)
        if 0 <= level < 0x80:
            append(level)
        else:
            _write_varint(body, level)
        if attributes:
            _write_varint(body, len(attributes))
            for attr_name, attr_value in attributes:
                index = names.get(attr_name)
                if index is not None and index < 0x80:
                    append(index)
                else:
                    self._write_name(body, attr_name)
                raw = attr_value.encode("utf-8")
                if len(raw) < 0x80:
                    append(len(raw))
                else:
                    _write_varint(body, len(raw))
                body += raw
        else:
            append(0)
        line = 0 if line is None else line + 1
        if 0 <= line < 0x80:
            append(line)
        else:
            _write_varint(body, line)

    def end_element(
        self, name: str, line: Optional[int], position: int, level: int
    ) -> None:
        body = self._body
        append = body.append
        self._count += 1
        delta = position - self._last_position
        self._last_position = position
        if 0 <= delta < 0x80:
            append(_T_END_ELEMENT)
            append(delta)
        else:
            self._header(body, _T_END_ELEMENT, delta)
        index = self._names.get(name)
        if index is not None and index < 0x80:
            append(index)
        else:
            self._write_name(body, name)
        if 0 <= level < 0x80:
            append(level)
        else:
            _write_varint(body, level)
        line = 0 if line is None else line + 1
        if 0 <= line < 0x80:
            append(line)
        else:
            _write_varint(body, line)

    def characters(self, text: str, position: int, level: int) -> None:
        body = self._body
        self._count += 1
        delta = position - self._last_position
        self._last_position = position
        if 0 <= delta < 0x80:
            body.append(_T_CHARACTERS)
            body.append(delta)
        else:
            self._header(body, _T_CHARACTERS, delta)
        _write_text(body, text)
        if 0 <= level < 0x80:
            body.append(level)
        else:
            _write_varint(body, level)

    def comment(self, text: str, position: int, level: int) -> None:
        body = self._record(_T_COMMENT, position)
        _write_text(body, text)
        _write_varint(body, level)

    def processing_instruction(
        self, target: str, data: str, position: int, level: int
    ) -> None:
        body = self._record(_T_PROCESSING_INSTRUCTION, position)
        _write_text(body, target)
        _write_text(body, data)
        _write_varint(body, level)


class _EventBuilder:
    """Record handler that rebuilds the event objects (:meth:`decode`)."""

    __slots__ = ("append",)

    def __init__(self, events: List[Event]) -> None:
        self.append = events.append

    def start_document(self, position: int) -> None:
        self.append(StartDocument(position))

    def end_document(self, position: int) -> None:
        self.append(EndDocument(position))

    def start_element(self, name, attributes, line, position, level) -> None:
        self.append(StartElement(position, name, level, attributes, line))

    def end_element(self, name, line, position, level) -> None:
        self.append(EndElement(position, name, level, line))

    def characters(self, text, position, level) -> None:
        self.append(Characters(position, text, level))

    def comment(self, text, position, level) -> None:
        self.append(Comment(position, text, level))

    def processing_instruction(self, target, data, position, level) -> None:
        self.append(ProcessingInstruction(position, target, data, level))


class EventFrameDecoder:
    """Decode frames produced by one :class:`EventFrameEncoder`.

    Frames must be decoded in production order; the decoder rebuilds the
    same append-only name table the encoder built.
    """

    __slots__ = ("_names", "_last_position")

    def __init__(self) -> None:
        self._names: List[str] = []
        self._last_position = 0

    def reset(self) -> None:
        """Forget all interned names; start a new document."""
        self._names.clear()
        self._last_position = 0

    def decode(self, frame: bytes) -> List[Event]:
        """Return the exact event list ``frame`` was encoded from."""
        events: List[Event] = []
        self.walk(frame, _EventBuilder(events))
        return events

    def walk(self, frame: bytes, handler) -> None:
        """Replay ``frame``'s records as calls on a record ``handler``.

        ``handler`` has one method per record type, named and shaped like
        :class:`EventFrameEncoder`'s writers: :meth:`decode` rebuilds event
        objects, the element sink drives the TwigM transitions straight off
        the wire fields, and an encoder re-encodes.

        The record loop inlines every field read: at roughly five varints
        per record, per-field helper calls are the dominant decode cost,
        and the single-byte fast path (``byte < 0x80``) covers almost all
        fields of a real document.  Multi-byte varints fall back to
        :func:`_read_varint`; truncation is policed by the ``IndexError``
        trap around the loop plus explicit bounds checks on string slices
        (slicing past the end would silently shorten, not raise).  Records
        handled before an error stay handled.
        """
        if not frame or frame[0] != _FRAME_MAGIC:
            raise EventCodecError("not an event frame (bad magic byte)")
        count, offset = _read_varint(frame, 1)
        start_element = handler.start_element
        end_element = handler.end_element
        characters = handler.characters
        names = self._names
        last = self._last_position
        length = len(frame)
        try:
            for _ in range(count):
                code = frame[offset]
                offset += 1
                negative = False
                back = 0
                if code == 0x7F:
                    negative = True
                    back, offset = _read_varint(frame, offset)
                    code = frame[offset]
                    offset += 1
                byte = frame[offset]
                if byte < 0x80:
                    delta = byte
                    offset += 1
                else:
                    delta, offset = _read_varint(frame, offset)
                position = last - back if negative else last + delta
                last = position
                if code == _T_START_ELEMENT:
                    # name reference (0 = new entry follows inline)
                    byte = frame[offset]
                    if byte < 0x80:
                        index = byte
                        offset += 1
                    else:
                        index, offset = _read_varint(frame, offset)
                    if index:
                        if index > len(names):
                            raise EventCodecError(
                                f"corrupt frame: name reference {index} past "
                                f"table of {len(names)} entries"
                            )
                        name = names[index - 1]
                    else:
                        byte = frame[offset]
                        if byte < 0x80:
                            text_len = byte
                            offset += 1
                        else:
                            text_len, offset = _read_varint(frame, offset)
                        end = offset + text_len
                        if end > length:
                            raise EventCodecError(
                                "truncated frame: string runs past the end"
                            )
                        name = frame[offset:end].decode("utf-8")
                        offset = end
                        names.append(name)
                    byte = frame[offset]
                    if byte < 0x80:
                        level = byte
                        offset += 1
                    else:
                        level, offset = _read_varint(frame, offset)
                    byte = frame[offset]
                    if byte < 0x80:
                        attr_count = byte
                        offset += 1
                    else:
                        attr_count, offset = _read_varint(frame, offset)
                    attributes = []
                    for _ in range(attr_count):
                        byte = frame[offset]
                        if byte < 0x80:
                            index = byte
                            offset += 1
                        else:
                            index, offset = _read_varint(frame, offset)
                        if index:
                            if index > len(names):
                                raise EventCodecError(
                                    f"corrupt frame: name reference {index} "
                                    f"past table of {len(names)} entries"
                                )
                            attr_name = names[index - 1]
                        else:
                            byte = frame[offset]
                            if byte < 0x80:
                                text_len = byte
                                offset += 1
                            else:
                                text_len, offset = _read_varint(frame, offset)
                            end = offset + text_len
                            if end > length:
                                raise EventCodecError(
                                    "truncated frame: string runs past the end"
                                )
                            attr_name = frame[offset:end].decode("utf-8")
                            offset = end
                            names.append(attr_name)
                        byte = frame[offset]
                        if byte < 0x80:
                            text_len = byte
                            offset += 1
                        else:
                            text_len, offset = _read_varint(frame, offset)
                        end = offset + text_len
                        if end > length:
                            raise EventCodecError(
                                "truncated frame: string runs past the end"
                            )
                        attributes.append(
                            (attr_name, frame[offset:end].decode("utf-8"))
                        )
                        offset = end
                    byte = frame[offset]
                    if byte < 0x80:
                        raw_line = byte
                        offset += 1
                    else:
                        raw_line, offset = _read_varint(frame, offset)
                    start_element(
                        name,
                        tuple(attributes) if attr_count else (),
                        None if raw_line == 0 else raw_line - 1,
                        position,
                        level,
                    )
                elif code == _T_END_ELEMENT:
                    byte = frame[offset]
                    if byte < 0x80:
                        index = byte
                        offset += 1
                    else:
                        index, offset = _read_varint(frame, offset)
                    if index:
                        if index > len(names):
                            raise EventCodecError(
                                f"corrupt frame: name reference {index} past "
                                f"table of {len(names)} entries"
                            )
                        name = names[index - 1]
                    else:
                        byte = frame[offset]
                        if byte < 0x80:
                            text_len = byte
                            offset += 1
                        else:
                            text_len, offset = _read_varint(frame, offset)
                        end = offset + text_len
                        if end > length:
                            raise EventCodecError(
                                "truncated frame: string runs past the end"
                            )
                        name = frame[offset:end].decode("utf-8")
                        offset = end
                        names.append(name)
                    byte = frame[offset]
                    if byte < 0x80:
                        level = byte
                        offset += 1
                    else:
                        level, offset = _read_varint(frame, offset)
                    byte = frame[offset]
                    if byte < 0x80:
                        raw_line = byte
                        offset += 1
                    else:
                        raw_line, offset = _read_varint(frame, offset)
                    end_element(
                        name, None if raw_line == 0 else raw_line - 1, position, level
                    )
                elif code == _T_CHARACTERS:
                    byte = frame[offset]
                    if byte < 0x80:
                        text_len = byte
                        offset += 1
                    else:
                        text_len, offset = _read_varint(frame, offset)
                    end = offset + text_len
                    if end > length:
                        raise EventCodecError(
                            "truncated frame: string runs past the end"
                        )
                    text = frame[offset:end].decode("utf-8")
                    offset = end
                    byte = frame[offset]
                    if byte < 0x80:
                        level = byte
                        offset += 1
                    else:
                        level, offset = _read_varint(frame, offset)
                    characters(text, position, level)
                elif code == _T_COMMENT:
                    byte = frame[offset]
                    if byte < 0x80:
                        text_len = byte
                        offset += 1
                    else:
                        text_len, offset = _read_varint(frame, offset)
                    end = offset + text_len
                    if end > length:
                        raise EventCodecError(
                            "truncated frame: string runs past the end"
                        )
                    text = frame[offset:end].decode("utf-8")
                    offset = end
                    byte = frame[offset]
                    if byte < 0x80:
                        level = byte
                        offset += 1
                    else:
                        level, offset = _read_varint(frame, offset)
                    handler.comment(text, position, level)
                elif code == _T_PROCESSING_INSTRUCTION:
                    byte = frame[offset]
                    if byte < 0x80:
                        text_len = byte
                        offset += 1
                    else:
                        text_len, offset = _read_varint(frame, offset)
                    end = offset + text_len
                    if end > length:
                        raise EventCodecError(
                            "truncated frame: string runs past the end"
                        )
                    target = frame[offset:end].decode("utf-8")
                    offset = end
                    byte = frame[offset]
                    if byte < 0x80:
                        text_len = byte
                        offset += 1
                    else:
                        text_len, offset = _read_varint(frame, offset)
                    end = offset + text_len
                    if end > length:
                        raise EventCodecError(
                            "truncated frame: string runs past the end"
                        )
                    data = frame[offset:end].decode("utf-8")
                    offset = end
                    byte = frame[offset]
                    if byte < 0x80:
                        level = byte
                        offset += 1
                    else:
                        level, offset = _read_varint(frame, offset)
                    handler.processing_instruction(target, data, position, level)
                elif code == _T_START_DOCUMENT:
                    handler.start_document(position)
                elif code == _T_END_DOCUMENT:
                    handler.end_document(position)
                else:
                    raise EventCodecError(
                        f"corrupt frame: unknown type code {code}"
                    )
        except IndexError:
            raise EventCodecError(
                "truncated frame: event record runs past the end"
            ) from None
        except UnicodeDecodeError as exc:
            raise EventCodecError(f"corrupt frame: invalid UTF-8 ({exc})") from exc
        if offset != length:
            raise EventCodecError(
                f"corrupt frame: {length - offset} trailing bytes after "
                f"the last record"
            )
        self._last_position = last
