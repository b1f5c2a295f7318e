"""Every source of the element sink gives the same answer.

The bulk pure scan, the expat driver, the tokenizer's event objects and the
binary frame walk all drive one element sink (``repro.core.sink``), and every
public entry point sits on one of them.  This test runs random documents
(``datasets/randomtree.py``, decorated with a prolog, a comment inside a text
run and an entity) and random twigs (``xpath/generator.py``) through each
entry point and requires:

* identical ``(name, solution)`` streams — emission order included;
* identical per-subscription statistics (the document stream resets its
  machines and counters per document, so it is held to its pair stream and
  its element and match counters instead);
* result keys equal to the DOM baseline's.

It is the seed of the cross-entry-point oracle.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import Engine
from repro.baselines.dom_eval import DomEvaluator
from repro.core.engine import TwigMEvaluator
from repro.core.multi import MultiQueryEvaluator
from repro.datasets.randomtree import RandomTreeConfig, RandomTreeGenerator
from repro.xmlstream.eventcodec import EventFrameEncoder
from repro.xmlstream.sax import iter_events
from repro.xpath.generator import QueryGenerator, QueryGeneratorConfig

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_DOC_CONFIG = RandomTreeConfig(
    vocabulary=("a", "b", "c"),
    attributes=("id", "key"),
    values=("1", "2", "x"),
    max_depth=5,
    max_children=3,
)
_QUERY_CONFIG = QueryGeneratorConfig(
    vocabulary=("a", "b", "c"),
    attributes=("id", "key"),
    values=("1", "2", "x"),
    min_steps=1,
    max_steps=3,
)
PARSERS = ("pure", "expat")


def _document(seed: int) -> str:
    text = RandomTreeGenerator(config=_DOC_CONFIG, seed=seed).text()
    # A prolog comment; in the body, a comment splits a text run in two and
    # an entity splits expat's character callbacks.
    declaration, _, body = text.partition("?>")
    body = body.replace(">x<", ">x&amp;<!-- c -->y<", 1)
    return declaration + "?>\n<!-- head -->" + body


def _key_stream(pairs):
    return [(name, solution.key()) for name, solution in pairs]


def _subscribed(queries) -> MultiQueryEvaluator:
    engine = MultiQueryEvaluator()
    for index, query in enumerate(queries):
        engine.subscribe(query, name=f"q{index}")
    return engine


def _engine_evaluate(queries, document, parser):
    pairs = []
    engine = Engine(parser=parser)
    for index, query in enumerate(queries):
        engine.subscribe(query, name=f"q{index}", callback=pairs.append)
    results = engine.evaluate(document)
    statistics = engine.statistics()
    engine.close()
    return _key_stream(pairs), statistics, {n: r.keys() for n, r in results.items()}


def _session(queries, document, parser):
    engine = _subscribed(queries)
    session = engine.session(parser=parser)
    pairs = []
    for char in document:
        pairs += session.feed_text(char)
    pairs += session.finish()
    statistics = engine.statistics()
    engine.close()
    return _key_stream(pairs), statistics


def _events(queries, document, framed):
    engine = _subscribed(queries)
    session = engine.event_session()
    events = list(iter_events(document, parser="pure"))
    encoder = EventFrameEncoder()
    pairs = []
    for start in range(0, len(events), 7):
        run = events[start : start + 7]
        if framed:
            pairs += session.feed_frame(encoder.encode(run))
        else:
            pairs += session.feed_events(run)
    pairs += session.finish()
    statistics = engine.statistics()
    engine.close()
    return _key_stream(pairs), statistics


def _document_stream(queries, document, parser):
    engine = _subscribed(queries)
    stream = engine.document_stream(parser=parser)
    pairs = []
    for start in range(0, 2 * len(document), 5):
        pairs += stream.feed_text((document + document)[start : start + 5])
    stats = stream.close()
    engine.close()
    return _key_stream(pairs), stats


@SETTINGS
@given(
    doc_seed=st.integers(min_value=0, max_value=10_000),
    query_seeds=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=3),
)
def test_every_source_of_the_sink_agrees(doc_seed, query_seeds):
    document = _document(doc_seed)
    queries = [
        QueryGenerator(config=_QUERY_CONFIG, seed=seed).generate_expression()
        for seed in query_seeds
    ]
    names = [f"q{index}" for index in range(len(queries))]
    stream, statistics, keys = _engine_evaluate(queries, document, "pure")

    for name, query in zip(names, queries):
        assert keys[name] == DomEvaluator(query).evaluate(document).keys()

    assert _engine_evaluate(queries, document, "expat") == (stream, statistics, keys)
    for parser in PARSERS:
        assert _session(queries, document, parser) == (stream, statistics)
        for name, query in zip(names, queries):
            assert repro.evaluate(query, document, parser=parser).keys() == keys[name]
            single = TwigMEvaluator(query)
            single.evaluate(document, parser=parser)
            assert single.statistics.as_dict() == statistics[name]
            own = TwigMEvaluator(query).stream(document, parser=parser)
            assert [(name, s.key()) for s in own] == [p for p in stream if p[0] == name]
    for framed in (True, False):
        assert _events(queries, document, framed) == (stream, statistics)
    elements = statistics[names[0]]["elements"]
    for parser in PARSERS:
        pairs, stats = _document_stream(queries, document, parser)
        assert pairs == stream + stream
        assert stats["documents"] == 2 and stats["documents_failed"] == 0
        assert stats["elements"] == 2 * elements
        assert stats["matches"] == 2 * len(stream)
