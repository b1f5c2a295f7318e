"""EventStreamSession: the engine's direct event-feed entry point.

Parse-once sharding feeds workers *decoded events* instead of raw XML;
these tests pin the contract that makes that safe: pair-stream parity
with the raw-text session at every split point, document-global
pre-order, abort semantics, eof validation, and spool-free snapshots.
"""

from __future__ import annotations

import pytest

from repro.core.checkpoint import dumps_snapshot, loads_snapshot
from repro.core.multi import MultiQueryEvaluator
from repro.core.session import EventStreamSession
from repro.errors import CheckpointError, EngineError
from repro.xmlstream.eventcodec import EventFrameDecoder, EventFrameEncoder
from repro.xmlstream.tokenizer import StreamTokenizer

DOC = (
    "<root a='1'><!-- c --><item id='i1'>hello</item>"
    "<item id='i2'><sub>x</sub><?pi data?></item>"
    "<item id='i3'><sub>y</sub></item></root>"
)
QUERIES = [("q-item", "//item"), ("q-sub", "//item[sub]/sub"), ("q-attr", "//root")]


def _engine():
    engine = MultiQueryEvaluator()
    for name, query in QUERIES:
        engine.subscribe(query, name=name)
    return engine


def _text_pairs(split):
    engine = _engine()
    session = engine.session(parser="native")
    pairs = session.feed_text(DOC[:split])
    pairs += session.feed_text(DOC[split:])
    pairs += session.finish()
    return list(pairs), session.element_count


def _event_pairs(split, through_codec):
    engine = _engine()
    session = engine.event_session()
    tokenizer = StreamTokenizer()
    encoder, decoder = EventFrameEncoder(), EventFrameDecoder()

    def deliver(events):
        if through_codec:
            events = decoder.decode(encoder.encode(events))
        return session.feed_events(events)

    pairs = deliver(list(tokenizer.feed(DOC[:split])))
    pairs += deliver(list(tokenizer.feed(DOC[split:])))
    pairs += deliver(list(tokenizer.close()))
    pairs += session.finish()
    return list(pairs), session.element_count


def _frame_pairs(split):
    """Feed via the fused wire path: encode frames, session decodes them."""
    engine = _engine()
    session = engine.event_session()
    tokenizer = StreamTokenizer()
    encoder = EventFrameEncoder()

    def deliver(events):
        return session.feed_frame(encoder.encode(events))

    pairs = deliver(list(tokenizer.feed(DOC[:split])))
    pairs += deliver(list(tokenizer.feed(DOC[split:])))
    pairs += deliver(list(tokenizer.close()))
    pairs += session.finish()
    return list(pairs), session.element_count


class TestParity:
    @pytest.mark.parametrize("split", [0, 7, 25, len(DOC) // 2, len(DOC) - 3])
    @pytest.mark.parametrize("through_codec", [False, True])
    def test_pairs_identical_to_text_session(self, split, through_codec):
        assert _event_pairs(split, through_codec) == _text_pairs(split)

    def test_every_split_point_through_codec(self):
        expected = _text_pairs(0)
        for split in range(0, len(DOC), 9):
            assert _event_pairs(split, True) == expected

    def test_fused_frame_feed_matches_generic_at_every_split(self):
        """feed_frame (fused decode-into-transitions, no event objects) must
        be indistinguishable from decode() + feed_events() — pairs, element
        count, and the document-global pre-order all included."""
        expected = _text_pairs(0)
        for split in range(0, len(DOC), 9):
            assert _frame_pairs(split) == expected

    def test_fused_frame_feed_matches_generic_statistics(self):
        """Per-machine statistics counters advance identically on both the
        fused and the generic events path (broadcast-native parity)."""

        def run(fused):
            engine = MultiQueryEvaluator(collect_statistics=True)
            engine.subscribe("//item[sub]/sub", name="q")
            session = engine.event_session()
            tokenizer = StreamTokenizer()
            encoder = EventFrameEncoder()
            events = list(tokenizer.feed(DOC)) + list(tokenizer.close())
            if fused:
                session.feed_frame(encoder.encode(events))
            else:
                session.feed_events(
                    EventFrameDecoder().decode(encoder.encode(events))
                )
            session.finish()
            (runtime,) = engine.index.runtimes
            return runtime.statistics.as_dict()

        assert run(fused=True) == run(fused=False)

    def test_corrupt_frame_aborts_the_session(self):
        from repro.xmlstream.eventcodec import EventCodecError

        engine = _engine()
        session = engine.event_session()
        with pytest.raises(EventCodecError):
            session.feed_frame(b"<not a frame>")
        assert session.failed
        with pytest.raises(EngineError, match="aborted"):
            session.feed_frame(b"")


class TestSemantics:
    def test_preorder_is_document_global_with_zero_subscriptions(self):
        engine = MultiQueryEvaluator()
        session = engine.event_session()
        tokenizer = StreamTokenizer()
        session.feed_events(list(tokenizer.feed(DOC)) + list(tokenizer.close()))
        # ground truth: count start tags (root + 3 items + 2 subs)
        assert session.element_count == DOC.count("<item") + DOC.count("<sub") + 1

    def test_finish_flips_engine_finished(self):
        engine = _engine()
        session = engine.event_session()
        tokenizer = StreamTokenizer()
        session.feed_events(list(tokenizer.feed(DOC)) + list(tokenizer.close()))
        assert session.finish() == []
        assert session.finished
        assert engine.results() is not None
        with pytest.raises(EngineError):
            session.feed_events([])

    def test_incomplete_documents_are_caught_by_the_producer(self):
        """Well-formedness is the parser's job: in events mode the *front*
        raises at close() and tells workers to abort — the event session
        itself accepts whatever stream the producer vouched for."""
        from repro.errors import XMLSyntaxError

        tokenizer = StreamTokenizer()
        events = list(tokenizer.feed("<root><unclosed>"))
        with pytest.raises(XMLSyntaxError):
            list(tokenizer.close())

        engine = _engine()
        session = engine.event_session()
        session.feed_events(events)
        session.abort()  # what the worker does on the front's abort command
        assert session.failed
        assert engine._sink.order == 0
        assert not engine._started

    def test_abort_resets_machines_and_preserves_count(self):
        engine = _engine()
        session = engine.event_session()
        tokenizer = StreamTokenizer()
        session.feed_events(list(tokenizer.feed(DOC[:60])))
        counted = session.element_count
        assert counted > 0
        session.abort()
        assert session.failed and session.finished
        assert session.element_count == counted  # frozen at the failure point
        assert engine._sink.order == 0
        with pytest.raises(EngineError, match="aborted"):
            session.feed_events([])
        # abort is idempotent
        session.abort()

    def test_midstream_subscription_sees_remainder_only(self):
        engine = MultiQueryEvaluator()
        engine.subscribe("//item", name="early")
        session = engine.event_session()
        tokenizer = StreamTokenizer()
        pairs = session.feed_events(list(tokenizer.feed(DOC[: len(DOC) // 2])))
        engine.subscribe("//item", name="late")
        pairs += session.feed_events(
            list(tokenizer.feed(DOC[len(DOC) // 2 :])) + list(tokenizer.close())
        )
        pairs += session.finish()
        early = [name for name, _ in pairs if name == "early"]
        late = [name for name, _ in pairs if name == "late"]
        assert len(early) == 3
        assert 0 < len(late) < 3


class TestSnapshot:
    def test_snapshot_has_no_parse_carryover(self):
        engine = _engine()
        session = engine.event_session()
        tokenizer = StreamTokenizer()
        session.feed_events(list(tokenizer.feed(DOC[:50])))
        snap = session.snapshot()
        assert snap["session"] == {"parser": "events"}

    def test_restore_roundtrip_is_exact(self):
        for split in (10, 45, 80):
            engine = _engine()
            session = engine.event_session()
            tokenizer = StreamTokenizer()
            pairs = session.feed_events(list(tokenizer.feed(DOC[:split])))
            snap = loads_snapshot(dumps_snapshot(session.snapshot()))

            restored_engine = MultiQueryEvaluator()
            restored = restored_engine.restore_session(snap)
            assert isinstance(restored, EventStreamSession)
            assert restored.parser == "events"
            tail = list(tokenizer.feed(DOC[split:])) + list(tokenizer.close())
            pairs += restored.feed_events(tail)
            pairs += restored.finish()
            assert (list(pairs), restored.element_count) == _text_pairs(split)

    def test_snapshot_refused_after_abort_or_finish(self):
        engine = _engine()
        session = engine.event_session()
        session.abort()
        with pytest.raises(CheckpointError, match="aborted"):
            session.snapshot()

        session = _engine().event_session()
        tokenizer = StreamTokenizer()
        session.feed_events(list(tokenizer.feed(DOC)) + list(tokenizer.close()))
        session.finish()
        with pytest.raises(CheckpointError, match="finished"):
            session.snapshot()
