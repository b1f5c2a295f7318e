"""Seeded input generators owned by the benchmark.

The generators live here, not in ``src/``, so a change under test cannot
change what the benchmark feeds it.  Every function is a pure function of
its arguments: the same seed gives byte-identical inputs.
"""

from __future__ import annotations

import bisect
import random
from typing import Dict, List, Tuple

#: The paper's recursive twig, run by the twig-scan workloads.
TWIG_QUERY = "//a[b]//c"

#: Standing queries of the ticker-stream workload.
TICKER_QUERIES = (
    "//alert/@s",
    "//quote[price>400]/vol",
    "//ticker/quote[@s='S007']/price/text()",
    "//alert[vol>50000]/price",
)

#: Query of the ticker-stream late subscriber (joins with replay).
TICKER_LATE_QUERY = "//alert/@s"

#: twig-scan input: ``TWIG_SLICES`` documents of ``TWIG_SLICE_BYTES`` each
#: (2 MiB in all).  Each timed ``evaluate`` call takes one slice, so a run
#: makes enough calls for its tail percentile.
TWIG_SLICES = 16
TWIG_SLICE_BYTES = 128 * 1024

#: Ticker documents: records per document, and every how many records an
#: ``<alert>`` replaces a ``<quote>``.
TICKER_ENTRIES = 600
TICKER_ALERT_EVERY = 50
#: Distinct ticker documents, and the length of the seeded send order.
TICKER_POOL = 40
TICKER_ORDER = 20_000
#: Characters per ``feed_text`` chunk; chunks cut across documents.
CHUNK = 16 * 1024
#: Documents the ticker stream retains for replay.
RETAIN = 8
#: A late subscriber joins every ``JOIN_EVERY`` documents; the throughput
#: windows are that long, so each holds one replay join.
JOIN_EVERY = 25
#: The stream takes a mid-document snapshot every ``SNAPSHOT_EVERY`` documents.
SNAPSHOT_EVERY = 50

#: Pub/sub plan: Zipf-ranked labels, records per batch document, and the
#: number of labels churn may swap in or out.
PUBSUB_LABELS = 4000
PUBSUB_RECORDS = 200
PUBSUB_CHURN_POOL = 100


def twig_slices(seed: int) -> List[str]:
    """The twig-scan slices: ``TWIG_SLICES`` documents from one seeded RNG."""
    rng = random.Random(seed)
    return [tree_document(rng, TWIG_SLICE_BYTES) for _ in range(TWIG_SLICES)]


def tree_document(rng: random.Random, target_bytes: int) -> str:
    """Tag-dense random-tree document of about ``target_bytes`` characters.

    A forest of small recursive trees over the four-letter vocabulary
    ``a b c d`` with depth at most 8 under one ``<forest>``, about 8 bytes
    per element: the density profile of the pipeline document.
    """
    choice, random_, randint = rng.choice, rng.random, rng.randint
    vocabulary = ("a", "b", "c", "d")
    values = ("1", "2", "x", "hello")
    parts: List[str] = ["<forest>"]
    size = 8

    def emit(depth: int) -> int:
        tag = choice(vocabulary)
        if depth < 8 and random_() < 0.7:
            parts.append(f"<{tag}>")
            written = 2 * len(tag) + 5
            for _ in range(randint(1, 3)):
                written += emit(depth + 1)
            parts.append(f"</{tag}>")
            return written
        piece = f"<{tag}>{choice(values)}</{tag}>"
        parts.append(piece)
        return len(piece)

    while size < target_bytes:
        size += emit(1)
    parts.append("</forest>")
    return "".join(parts)


def ticker_document(rng: random.Random) -> str:
    """One ``<ticker>`` document of ``TICKER_ENTRIES`` quote/alert records.

    Each record has three elements, so the document has
    ``1 + 3 * TICKER_ENTRIES`` elements; every ``TICKER_ALERT_EVERY``-th
    record is an ``<alert>``.
    """
    parts: List[str] = ["<ticker>"]
    for i in range(TICKER_ENTRIES):
        tag = "alert" if i % TICKER_ALERT_EVERY == TICKER_ALERT_EVERY - 1 else "quote"
        price = f"{rng.randrange(1, 500)}.{rng.randrange(100):02d}"
        volume = rng.randrange(100, 100_000)
        parts.append(
            f'<{tag} s="S{rng.randrange(1000):03d}">'
            f"<price>{price}</price><vol>{volume}</vol></{tag}>"
        )
    parts.append("</ticker>")
    return "".join(parts)


def ticker_inputs(seed: int) -> Tuple[List[str], List[int]]:
    """A pool of distinct ticker documents and the seeded order to send them in.

    The stream is ``pool[order[0]] + pool[order[1]] + ...``; the order is
    long enough that no run reaches its end.
    """
    rng = random.Random(seed)
    pool = [ticker_document(rng) for _ in range(TICKER_POOL)]
    order = [rng.randrange(TICKER_POOL) for _ in range(TICKER_ORDER)]
    return pool, order


class PubSubPlan:
    """Seeded traffic of the pub/sub workloads.

    ``PUBSUB_LABELS`` labels are ranked by a Zipf law (weight ``1 / rank``) and
    every even rank is subscribed by ``//s{i}[v{i}]/@t``, so the subscribed
    half carries the same share of the traffic whatever the seed; the seed
    picks which label id holds each rank and draws the records.  A batch
    document holds ``PUBSUB_RECORDS`` records ``<s{i} t="T"><v{i}>x</v{i}></s{i}>``;
    one record in eight carries ``<u/>`` instead of ``<v{i}>``, so the
    predicate rejects it.  Stamp ``T = doc * 1000 + record`` is unique and
    names the record's document.  Churn swaps labels of rank 1000 and
    beyond, so it moves little traffic.
    """

    def __init__(self, seed: int) -> None:
        labels = PUBSUB_LABELS
        churn_pool = PUBSUB_CHURN_POOL
        self.rng = random.Random(seed)
        self.labels = labels
        self.records = PUBSUB_RECORDS
        ids = list(range(labels))
        self.rng.shuffle(ids)
        #: Label id of each Zipf rank (rank 0 is the most frequent).
        self.by_rank = ids
        total = 0.0
        self._cumulative: List[float] = []
        for rank in range(labels):
            total += 1.0 / (rank + 1)
            self._cumulative.append(total)
        subscribed = ids[0::2]
        unsubscribed = ids[1::2]
        tail = labels // 8  # index of rank 1000 within each half
        #: Labels subscribed before the stream opens.
        self.initial = sorted(subscribed)
        #: Labels that churn may swap out (subscribed) or in (unsubscribed);
        #: every other subscribed label stays subscribed for the whole run.
        self.churn_out = sorted(self.rng.sample(subscribed[tail:], churn_pool))
        self.churn_in = sorted(self.rng.sample(unsubscribed[tail:], churn_pool))
        self.stable = frozenset(subscribed) - frozenset(self.churn_out)
        self._documents: Dict[int, Tuple[str, List[Tuple[int, int, bool]]]] = {}

    @staticmethod
    def query(label: int) -> str:
        return f"//s{label}[v{label}]/@t"

    @staticmethod
    def name(label: int) -> str:
        return f"l{label}"

    def document(self, doc: int) -> Tuple[str, List[Tuple[int, int, bool]]]:
        """Batch document ``doc`` and its records ``(label, stamp, has_v)``.

        Documents are drawn in increasing ``doc`` order from the plan's RNG,
        so callers must ask for them in order (they are cached).
        """
        cached = self._documents.get(doc)
        if cached is not None:
            return cached
        if doc != len(self._documents):
            raise ValueError("pub/sub documents must be generated in order")
        rng = self.rng
        cumulative = self._cumulative
        top = cumulative[-1]
        parts = ["<batch>"]
        records: List[Tuple[int, int, bool]] = []
        for index in range(self.records):
            rank = bisect.bisect_left(cumulative, rng.random() * top)
            label = self.by_rank[min(rank, self.labels - 1)]
            stamp = doc * 1000 + index
            has_v = rng.randrange(8) != 0
            child = f"<v{label}>x</v{label}>" if has_v else "<u/>"
            parts.append(f'<s{label} t="{stamp}">{child}</s{label}>')
            records.append((label, stamp, has_v))
        parts.append("</batch>")
        result = ("".join(parts), records)
        self._documents[doc] = result
        return result
