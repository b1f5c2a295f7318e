"""The pub/sub workload: ``vitex serve`` in its own process, pinned to the
program CPU beside the machine-speed sampler (``speed.py``), driven over
two connections (``repro.api.remote.connect``) held by this process.

The subscriber registers the plan's standing queries with
``subscribe_many``; the publisher opens a stream session and sends batch
documents open-loop at ``RATE`` documents per second, each on its due time
whatever the server's state, then a flood: documents sent as fast as the
server completes them, ``FLOOD_WINDOW`` in flight.  While
the open loop runs, the subscriber swaps ``CHURN_SIZE`` subscriptions every
``CHURN_EVERY`` seconds.  Latency runs from a document's due time to the
subscriber's receipt of each match, both read from ``time.monotonic()``,
the clock of the server's ``ts`` stamp, which splits it into server emit
lag and client delivery.  The traced run adds an isolated pass through
``vitex serve --workers 2`` for the shard layer's CPU figures.
"""

from __future__ import annotations

import asyncio
import random
import subprocess
import time
from typing import Any, Dict, List, Optional, Set, Tuple

from common import Tracer, cpu_seconds, median, process_tree, python_child, stop_process, vm_hwm_mb
from inputs import PubSubPlan
from outcome import Outcome, latency_stats
from speed import AVAILABLE_CPUS, Sampler, cpus

HOST = "127.0.0.1"
RATE = 4.0
OPEN_SHARE = 0.7
FLOOD_PER_SECOND = 7
#: Flood documents in flight at once: enough to keep the server busy, few
#: enough that the subscriber's outbox never nears its drop bound.
FLOOD_WINDOW = 16
#: Churn swaps subscriptions every other document, half-way between two
#: documents, so a document waits behind churn only when the server runs
#: below 0.4 of the reference speed.
CHURN_EVERY = 2 / RATE
CHURN_SIZE = 20
SETUP_REPEATS = 3
WAIT_TIMEOUT = 60.0
LAYER_DOCUMENTS = 40


class Server:
    """One ``vitex serve`` process with a subscriber and a publisher."""

    def __init__(self, plan: PubSubPlan, workers: int, seed: int, cpus: List[int]) -> None:
        self.plan = plan
        self.workers = workers
        self.cpus = cpus
        self.rng = random.Random(seed + 1)
        self.process: Optional[subprocess.Popen] = None
        self.sub: Any = None
        self.pub: Any = None
        self.solutions: List[Tuple[float, Dict[str, Any]]] = []
        self.eofs: List[Tuple[float, Dict[str, Any]]] = []
        self.errors: List[Dict[str, Any]] = []
        self.churn_on: Set[int] = set(plan.churn_out)
        self.churn_off: Set[int] = set(plan.churn_in)
        self.churn_failures = 0
        self.churn_ops = 0
        self.next_doc = 0
        self._target = 0
        self._reached = asyncio.Event()
        self._consumer: Optional[asyncio.Task] = None

    async def start(self) -> Tuple[float, float]:
        """Start the server, connect, subscribe and open the stream.

        Returns when set-up started and ended: from spawning the server to
        the first document being due.
        """
        from repro.api.remote import connect

        start = time.monotonic()
        self.process = python_child(
            ["-m", "repro.cli", "serve", "--host", HOST, "--port", "0", "--workers", str(self.workers)],
            self.cpus,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.process.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"vitex serve did not start: {line!r}")
        port = int(line.strip().rsplit(":", 1)[1])
        self.sub = await connect(HOST, port)
        self.pub = await connect(HOST, port)
        plan = self.plan
        await self.sub.subscribe_many([(plan.query(label), plan.name(label)) for label in plan.initial])
        await self.pub.stream_open()
        ready = time.monotonic()
        self._consumer = asyncio.ensure_future(self._consume())
        return start, ready

    async def close(self) -> None:
        for engine in (self.pub, self.sub):
            if engine is not None:
                try:
                    await engine.close()
                except (ConnectionError, OSError):
                    pass
        if self._consumer is not None:
            self._consumer.cancel()
            try:
                await self._consumer
            except asyncio.CancelledError:
                pass
        if self.process is not None:
            stop_process(self.process)

    async def _consume(self) -> None:
        next_push = self.sub.connection.next_push
        while True:
            try:
                frame = await next_push()
            except ConnectionError:
                return
            now = time.monotonic()
            kind = frame.get("type")
            if kind == "solution":
                self.solutions.append((now, frame))
            elif kind == "eof":
                self.eofs.append((now, frame))
                if len(self.eofs) >= self._target:
                    self._reached.set()
            else:
                self.errors.append(frame)

    async def wait_documents(self, count: int) -> None:
        """Wait until ``count`` documents in total have sent their ``eof``."""
        self._target = count
        self._reached.clear()
        if len(self.eofs) >= count:
            return
        await asyncio.wait_for(self._reached.wait(), WAIT_TIMEOUT)

    def cpu(self) -> Tuple[float, float]:
        """CPU seconds of the front process and of its workers."""
        pid = self.process.pid
        usage = cpu_seconds(process_tree(pid))
        front = usage.pop(pid, 0.0)
        return front, sum(usage.values())

    def peak_rss_mb(self) -> float:
        return sum(vm_hwm_mb(pid) for pid in process_tree(self.process.pid))

    async def _churn(self, start: float, end: float, subscribe_many: Any, unsubscribe: Any, rtts: List[float]) -> None:
        plan = self.plan
        tick = start + 0.5 / RATE
        while tick < end:
            delay = tick - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            going = self.rng.sample(sorted(self.churn_on), CHURN_SIZE)
            coming = self.rng.sample(sorted(self.churn_off), CHURN_SIZE)
            self.churn_ops += 1 + len(going)
            try:
                t0 = time.monotonic()
                await subscribe_many([(plan.query(label), plan.name(label)) for label in coming])
                rtts.append(time.monotonic() - t0)
                self.churn_on.update(coming)
                self.churn_off.difference_update(coming)
                for label in going:
                    await unsubscribe(plan.name(label))
                    self.churn_on.discard(label)
                    self.churn_off.add(label)
            except Exception:  # an error reply is a failure, never retried
                self.churn_failures += 1
            tick += CHURN_EVERY

    async def run_pass(self, seconds: float, traced: bool) -> Dict[str, Any]:
        plan = self.plan
        n_open = max(10, round(RATE * OPEN_SHARE * seconds))
        n_flood = max(10, round(FLOOD_PER_SECOND * seconds))
        first = self.next_doc
        self.next_doc += n_open + n_flood
        documents = [plan.document(first + k)[0] for k in range(n_open + n_flood)]
        tracer = Tracer() if traced else None
        feed = self.pub.feed
        subscribe_many = self.sub.subscribe_many
        unsubscribe = self.sub.unsubscribe
        if tracer is not None:
            feed = tracer.wrap_async("remote.feed", feed)
            subscribe_many = tracer.wrap_async("remote.subscribe_many", subscribe_many)
            unsubscribe = tracer.wrap_async("remote.unsubscribe", unsubscribe)
        pings: List[float] = []
        if traced:
            for _ in range(20):
                t0 = time.perf_counter()
                await self.pub.ping()
                pings.append(time.perf_counter() - t0)

        rtts: List[float] = []
        late: List[float] = []
        cpu0 = self.cpu()
        # (wall, server CPU) readings at each send: CPU spent between two
        # readings converts by the speed factor of that interval.
        cpu_points = [(time.monotonic(), sum(cpu0))]
        start = cpu_points[0][0] + 0.05
        open_end = start + n_open / RATE
        churn = asyncio.ensure_future(self._churn(start, open_end, subscribe_many, unsubscribe, rtts))
        for k in range(n_open):
            due = start + k / RATE
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(time.monotonic() - due)
            await feed(documents[k])
            cpu_points.append((time.monotonic(), sum(self.cpu())))
        await churn
        await self.wait_documents(first + n_open)
        cpu1 = self.cpu()
        cpu_points.append((time.monotonic(), sum(cpu1)))
        flood_start = time.monotonic()
        for k in range(n_open, n_open + n_flood):
            await self.wait_documents(first + k - FLOOD_WINDOW + 1)
            await feed(documents[k])
        await self.wait_documents(first + n_open + n_flood)
        return {
            "first": first,
            "n_open": n_open,
            "n_flood": n_flood,
            "start": start,
            "late": late,
            "rtts": rtts,
            "pings": pings,
            "front_cpu": cpu1[0] - cpu0[0],
            "worker_cpu": cpu1[1] - cpu0[1],
            "cpu_points": cpu_points,
            "flood_start": flood_start,
            "flood_finished": [received for received, _ in self.eofs[first + n_open : first + n_open + n_flood]],
            "flood_work": [text.count("<") - text.count("</") for text in documents[n_open:]],
            "spans": tracer.dump() if tracer is not None else None,
        }

    async def closed_loop(self, documents: List[str]) -> None:
        """Send ``documents`` with ``FLOOD_WINDOW`` in flight; wait for all."""
        first = self.next_doc
        self.next_doc += len(documents)
        for k, text in enumerate(documents):
            await self.wait_documents(first + k - FLOOD_WINDOW + 1)
            await self.pub.feed(text)
        await self.wait_documents(first + len(documents))


def flood_rate(run: Dict[str, Any], span: Any) -> float:
    """Flood elements/s: every flood element over the time from the first
    send to the last ``eof``.  The server pushes its ``eof`` frames in
    bursts, so shorter windows of receipt times would not measure it."""
    return sum(run["flood_work"]) / span(run["flood_start"], max(run["flood_finished"]))


async def _drive(plan: PubSubPlan, seed: int, seconds: float, trace: bool):
    program_cpus, _ = cpus()
    setups = []
    server = None
    sampler = Sampler(program_cpus[0])
    try:
        for attempt in range(SETUP_REPEATS):
            server = Server(plan, 1, seed, program_cpus)
            try:
                setups.append(await server.start())
            except BaseException:
                await server.close()
                raise
            if attempt < SETUP_REPEATS - 1:
                await server.close()
        try:
            specs = [(seconds, False)] if not trace else [(seconds / 2, False), (seconds / 2, True)]
            passes = [await server.run_pass(s, traced) for s, traced in specs]
            peak = server.peak_rss_mb()
            await server.pub.stream_close()
        finally:
            await server.close()
        timebase = sampler.stop()
    finally:
        sampler.kill()
    sharded = await _sharded_pass(plan, seed) if trace else None
    return server, passes, [timebase.span(a, b) for a, b in setups], peak, timebase, sharded


async def _sharded_pass(plan: PubSubPlan, seed: int) -> Tuple[Server, Tuple[float, float]]:
    """The shard layer, isolated: ``vitex serve --workers 2`` on every CPU,
    the plan's first ``LAYER_DOCUMENTS`` documents sent closed-loop.
    Returns the server and the CPU seconds of its front and its workers."""
    server = Server(plan, 2, seed, AVAILABLE_CPUS)
    try:
        await server.start()
        cpu0 = server.cpu()
        await server.closed_loop([plan.document(d)[0] for d in range(LAYER_DOCUMENTS)])
        cpu1 = server.cpu()
        await server.pub.stream_close()
    finally:
        await server.close()
    return server, (cpu1[0] - cpu0[0], cpu1[1] - cpu0[1])


def _record(plan: PubSubPlan, documents: int, frame: Dict[str, Any]) -> Optional[Tuple[int, int]]:
    """``(label, stamp)`` of a solution frame when it names a record that
    its subscription's query selects, else None."""
    payload = frame["solution"]
    try:
        label = int(frame["name"][1:])
        stamp = int(payload["value"])
    except (KeyError, ValueError):
        return None
    doc, index = divmod(stamp, 1000)
    if not 0 <= doc < documents or index >= plan.records:
        return None
    record_label, _, has_v = plan.document(doc)[1][index]
    if record_label != label or not has_v or payload.get("tag") != f"s{label}":
        return None
    return label, stamp


def check_server(plan: PubSubPlan, server: Server, outcome: Outcome) -> None:
    """Check everything ``server`` delivered against the plan."""
    stable = plan.stable
    delivered: Dict[int, List[int]] = {}
    invalid = 0
    for _, frame in server.solutions:
        found = _record(plan, server.next_doc, frame)
        if found is None:
            invalid += 1
            continue
        label, stamp = found
        delivered.setdefault(label, []).append(stamp)
    expected: Dict[int, List[int]] = {}
    for doc in range(server.next_doc):
        for label, stamp, has_v in plan.document(doc)[1]:
            if has_v and label in stable:
                expected.setdefault(label, []).append(stamp)
    for label in stable:
        want = expected.get(label, [])
        got = delivered.get(label, [])
        wrong = len(set(want) ^ set(got)) + (len(got) - len(set(got)))
        outcome.check(len(want), wrong)
    churned = sum(len(v) for label, v in delivered.items() if label not in stable)
    outcome.check(churned + invalid, invalid)
    last = server.eofs[-1][1]
    dropped = int(last.get("dropped", 0))
    aborted = sum(1 for _, frame in server.eofs if frame.get("aborted"))
    # The server's count of solutions sent to this connection, from the eof
    # push, must match what arrived plus what it reports dropped.
    unaccounted = abs(int(last.get("delivered", 0)) - dropped - len(server.solutions))
    outcome.check(len(server.eofs), dropped + aborted + unaccounted + len(server.errors))
    outcome.check(server.churn_ops, server.churn_failures)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    plan = PubSubPlan(seed)
    # Generate every document of the run before anything is timed.
    total = 0
    for secs in ([seconds] if not trace else [seconds / 2, seconds / 2]):
        total += max(10, round(RATE * OPEN_SHARE * secs)) + max(10, round(FLOOD_PER_SECOND * secs))
    for doc in range(max(total, LAYER_DOCUMENTS)):
        plan.document(doc)
    server, passes, setups, peak, timebase, sharded = asyncio.run(_drive(plan, seed, seconds, trace))
    span = timebase.span
    outcome = Outcome()
    check_server(plan, server, outcome)
    if sharded is not None:
        check_server(plan, sharded[0], outcome)

    # ------------------------------------------------ end-to-end (untraced pass)
    run0 = passes[0]
    first, n_open, start = run0["first"], run0["n_open"], run0["start"]
    samples = []
    emit = []
    delivery = []
    per_doc: Dict[int, List[float]] = {}
    flood_matches = 0
    for received, frame in server.solutions:
        found = _record(plan, server.next_doc, frame)
        doc = found[1] // 1000 - first if found is not None else -1
        if n_open <= doc < n_open + run0["n_flood"]:
            flood_matches += 1
        if not 0 <= doc < n_open:
            continue
        due = start + doc / RATE
        latency = span(due, received) * 1000.0
        samples.append((latency, 1))
        per_doc.setdefault(doc, []).append(latency)
        emit.append((frame["ts"] - due) * 1000.0)
        delivery.append((received - frame["ts"]) * 1000.0)
    lat = latency_stats(samples)
    open_matches = len(samples)
    elements_s = flood_rate(run0, span)
    server_cpu = timebase.cpu_timeline(run0["cpu_points"])[-1]
    outcome.e2e(
        setup_s=median(setups),
        elements_s=elements_s,
        latency=lat,
        cpu_ms_per_match=server_cpu * 1000.0 / open_matches,
        peak_rss_mb=peak,
    )
    outcome.report_latency("match_latency_ms", lat)
    flood_span = span(run0["flood_start"], run0["flood_finished"][-1])
    outcome.report("flood_matches_s", flood_matches / flood_span, "matches/s", flood_matches)
    if run0["rtts"]:
        outcome.report("subscribe_ms.p50", median(run0["rtts"]) * 1000.0, "ms", len(run0["rtts"]))
    outcome.report_speed(timebase)

    if trace:
        layer = outcome.layer
        emit_stats = latency_stats([(v, 1) for v in emit])
        delivery_stats = latency_stats([(v, 1) for v in delivery])
        layer["server.emit_lag_ms.p50"] = emit_stats["p50"]
        layer["server.emit_lag_ms.p99"] = emit_stats["p99"]
        layer["client.delivery_ms.p50"] = delivery_stats["p50"]
        layer["client.delivery_ms.p99"] = delivery_stats["p99"]
        layer["server.dropped"] = float(server.eofs[-1][1].get("dropped", 0))
        layer["server.subscribe_ms.p50"] = median(run0["rtts"]) * 1000.0 if run0["rtts"] else 0.0
        pings = passes[1]["pings"]
        layer["socket.ping_rtt_us"] = median(pings) * 1e6
        layer["sharding.front_cpu_s"], layer["sharding.worker_cpu_s"] = sharded[1]
        layer["loadgen.late_ms.max"] = max(run0["late"]) * 1000.0
        third = max(1, n_open // 3)
        early = [v for d in range(third) for v in per_doc.get(d, [])]
        recent = [v for d in range(n_open - third, n_open) for v in per_doc.get(d, [])]
        if early and recent:
            layer["loadgen.backlog_trend"] = median(recent) / median(early)
        run1 = passes[1]
        layer["trace.overhead_pct"] = (elements_s / flood_rate(run1, span) - 1.0) * 100.0
        outcome.spans = run1["spans"]
        docs = [plan.document(d)[0] for d in range(LAYER_DOCUMENTS)]
        elements = sum(t.count("<") - t.count("</") for t in docs)
        outcome.context.update(
            documents=docs,
            chunks=docs,
            elements=elements,
            parser="pure",
            collect_statistics=False,
            queries=[plan.query(label) for label in plan.initial],
            # The layer ledger compares wall times.
            e2e_seconds_per_input=elements / flood_rate(run0, lambda a, b: b - a),
            ledger_layers=[
                "docstream.boundary_scan_s",
                "tokenizer.events_s",
                "transitions.match_s",
                "protocol.encode_us_per_frame",
            ],
        )
    return outcome
