"""The service's event plane: per-session feeds, a service-wide feed,
and incrementally maintained dashboard aggregates.

The :class:`EventBus` is the push half of the PR 10 streaming protocol.
Every state change the manager wants observable — a question proposed,
an answer recorded, a session created/demoted/deleted — is *published*
once, as a JSON-serialisable event dict, and fans out to

* the session's own topic (``GET /sessions/{id}/stream`` subscribers),
* the service-wide feed (``GET /events/stream`` subscribers, served
  through :attr:`EventBus.service_sink`), and
* the :class:`DashboardAggregator`, which folds the event into O(1)
  running aggregates so ``GET /dashboard`` never rescans sessions or
  stores.

Session subscribers are bounded ``asyncio.Queue``s (``_QUEUE_LIMIT``
events) with a **drop-oldest** overflow policy: a slow or stalled
consumer loses its oldest queued events (visible as a gap in the
per-topic ``seq``) instead of wedging the event loop or growing memory
without bound — the publish path never blocks and never fails.  Each
event's SSE frame is encoded exactly once at publish time and the same
``bytes`` object is handed to every subscriber and to the service
sink, so fan-out costs queue puts and socket writes, not repeated JSON
encoding.

Publishing is thread-safe: on the bus's bound event loop events are
delivered inline; from any other thread delivery hops onto the loop
via ``call_soon_threadsafe``.  With no loop bound there can be no
subscribers, so publish just updates the dashboard aggregates.

Sequencing: ``seq`` is a per-topic counter assigned at publish (gap
detection within one subscription), ``global_seq`` orders the service
feed.  Both are per-process bookkeeping — after a fleet failover the
survivor starts fresh counters.  *Cross-failover* continuity is carried
by the payloads instead: ``question_id``/``interactions`` are derived
from durable session state the takeover rehydrates bit-for-bit, so a
resubscribed client checks those for gap-freeness (see
``tests/service/test_stream_failover.py``).
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time
from typing import Any, Callable

__all__ = [
    "SERVICE_FEED",
    "EventBus",
    "EventSubscription",
    "DashboardAggregator",
    "sse_frame",
]

#: Topic name of the service-wide feed (session ids are 16-hex strings,
#: so the underscore can never collide with one).
SERVICE_FEED = "_service"

#: Per-subscriber queue bound.  At ~3 events per answer round a
#: consumer may fall hundreds of rounds behind before losing anything.
_QUEUE_LIMIT = 1024


def _json_safe(value: Any) -> Any:
    """Round-trippable floats: JSON has no Infinity/NaN literals."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def sse_frame(event: dict[str, Any]) -> bytes:
    """One Server-Sent-Events frame: ``id``/``event`` fields for
    spec-compliant consumers, the full event as the ``data`` JSON."""
    data = json.dumps(event, default=_json_safe)
    return (
        f"id: {event.get('seq', 0)}\n"
        f"event: {event.get('event', 'message')}\n"
        f"data: {data}\n\n"
    ).encode("utf-8")


class EventSubscription:
    """One subscriber's bounded queue on one topic."""

    def __init__(self, bus: "EventBus", topic: str):
        self.bus = bus
        self.topic = topic
        self.queue: asyncio.Queue[tuple[str, bytes]] = asyncio.Queue(
            maxsize=_QUEUE_LIMIT
        )
        #: Events this subscriber lost to the drop-oldest policy.
        self.dropped = 0
        self.closed = False

    def deliver(self, kind: str, frame: bytes) -> None:
        """Enqueue one event, shedding the oldest on overflow (never
        blocks — called from the publish path on the event loop)."""
        if self.closed:
            return
        try:
            self.queue.put_nowait((kind, frame))
        except asyncio.QueueFull:
            try:
                self.queue.get_nowait()
            except asyncio.QueueEmpty:  # pragma: no cover - race-free on loop
                pass
            self.dropped += 1
            self.bus.dropped_total += 1
            self.queue.put_nowait((kind, frame))

    async def get(self) -> tuple[str, bytes]:
        """The next ``(kind, frame)`` pair (awaits until one arrives)."""
        return await self.queue.get()

    def close(self) -> None:
        self.bus.unsubscribe(self)


class DashboardAggregator:
    """O(1)-per-event running aggregates behind ``GET /dashboard``.

    Every counter is folded in at publish time, so rendering the
    dashboard is a dict copy — no per-request rescan of sessions,
    stores, or event history.  All leaves under ``totals`` /
    ``by_kind`` / ``by_source`` / ``by_strategy`` are summable
    integers, so a fleet router can aggregate worker dashboards by
    plain key-wise addition (see ``FleetRouter._aggregate_dashboard``).
    """

    def __init__(self, clock: Callable[[], float] = time.time):
        self._clock = clock
        self.started_at = clock()
        self._lock = threading.Lock()
        self.events_total = 0
        self.by_kind: dict[str, int] = {}
        self.by_source: dict[str, int] = {}
        self.by_strategy: dict[str, dict[str, int]] = {}
        self.questions_total = 0
        self.answers_total = 0
        self.answers_positive = 0
        self.answers_negative = 0
        self.speculation_hits = 0
        self.classes_resolved = 0
        self.sessions_completed = 0
        self.interactions_to_done_total = 0

    def update(self, event: dict[str, Any]) -> None:
        kind = event.get("event", "message")
        strategy = event.get("strategy")
        with self._lock:
            self.events_total += 1
            self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
            row = None
            if strategy is not None:
                row = self.by_strategy.setdefault(
                    strategy,
                    {"questions": 0, "answers": 0, "completed": 0},
                )
            if kind == "question":
                self.questions_total += 1
                source = event.get("source") or "inline"
                self.by_source[source] = self.by_source.get(source, 0) + 1
                if row is not None:
                    row["questions"] += 1
            elif kind == "answer":
                self.answers_total += 1
                if event.get("label") == "+":
                    self.answers_positive += 1
                else:
                    self.answers_negative += 1
                if event.get("speculation_hit"):
                    self.speculation_hits += 1
                removed = event.get("removed_classes")
                if removed:
                    self.classes_resolved += int(removed)
                if row is not None:
                    row["answers"] += 1
            elif kind == "done":
                self.sessions_completed += 1
                progress = event.get("progress") or {}
                self.interactions_to_done_total += int(
                    progress.get("interactions", 0)
                )
                if row is not None:
                    row["completed"] += 1

    def payload(self, bus: "EventBus") -> dict[str, Any]:
        """The dashboard JSON (``totals`` all summable integers)."""
        with self._lock:
            subscribers = bus.subscriber_counts()
            return {
                "totals": {
                    "events_total": self.events_total,
                    "events_dropped": bus.dropped_total,
                    "questions_total": self.questions_total,
                    "answers_total": self.answers_total,
                    "answers_positive": self.answers_positive,
                    "answers_negative": self.answers_negative,
                    "speculation_hits": self.speculation_hits,
                    "classes_resolved": self.classes_resolved,
                    "sessions_completed": self.sessions_completed,
                    "interactions_to_done_total": (
                        self.interactions_to_done_total
                    ),
                    "subscribers_sessions": subscribers["sessions"],
                    "subscribers_service": subscribers["service"],
                    "subscribers_peak": subscribers["peak"],
                    "subscribers_served": subscribers["served"],
                },
                "by_kind": dict(self.by_kind),
                "by_source": dict(self.by_source),
                "by_strategy": {
                    name: dict(row)
                    for name, row in self.by_strategy.items()
                },
                "meta": {"uptime_seconds": self._clock() - self.started_at},
            }


class EventBus:
    """Per-topic fan-out with bounded subscribers and a service feed."""

    def __init__(self, *, clock: Callable[[], float] = time.time):
        self._clock = clock
        self._lock = threading.Lock()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._subs: dict[str, list[EventSubscription]] = {}
        self._seq: dict[str, int] = {}
        self._global_seq = 0
        self.dropped_total = 0
        self._peak_subscribers = 0
        self._subscribers_served = 0
        self.dashboard = DashboardAggregator(clock=clock)
        #: The service feed: a callable handed every event's frame (on
        #: the bus loop) while any feed subscriber is attached.  The
        #: HTTP layer installs its on-loop coalescer here, so hundreds
        #: of ``/events/stream`` sockets cost one buffered frame per
        #: event and one shared chunk per send cycle instead of one
        #: queue wake-up per subscriber (see
        #: ``app.ServiceFeedBroadcaster``).
        self.service_sink: Callable[[bytes], None] | None = None
        self._sink_subscribers = 0

    # --- subscriptions -------------------------------------------------------

    def subscribe(self, topic: str) -> EventSubscription:
        """Attach a subscriber to a session's ``topic`` (event-loop
        thread only — the queue belongs to the running loop, which also
        becomes the bus's delivery loop).  The service feed has no
        queue subscribers: it is served through :attr:`service_sink`."""
        loop = asyncio.get_running_loop()
        sub = EventSubscription(self, topic)
        with self._lock:
            self._loop = loop
            self._subs.setdefault(topic, []).append(sub)
            self._subscribers_served += 1
            live = sum(len(subs) for subs in self._subs.values())
            self._peak_subscribers = max(self._peak_subscribers, live)
        return sub

    def unsubscribe(self, sub: EventSubscription) -> None:
        sub.closed = True
        with self._lock:
            subs = self._subs.get(sub.topic)
            if subs is not None:
                try:
                    subs.remove(sub)
                except ValueError:
                    pass
                if not subs:
                    del self._subs[sub.topic]

    def has_subscribers(self, topic: str) -> bool:
        """True when ``topic`` itself has live subscribers (service
        feed sockets do not count: they observe, they do not drive)."""
        with self._lock:
            return bool(self._subs.get(topic))

    def sink_attached(self, loop: asyncio.AbstractEventLoop) -> None:
        """One more service-feed socket behind :attr:`service_sink`
        (the HTTP broadcaster registers each ``/events/stream``
        connection so counts — and the delivery loop — stay honest)."""
        with self._lock:
            self._loop = loop
            self._sink_subscribers += 1
            self._subscribers_served += 1
            live = self._sink_subscribers + sum(
                len(subs) for subs in self._subs.values()
            )
            self._peak_subscribers = max(self._peak_subscribers, live)

    def sink_detached(self) -> None:
        with self._lock:
            self._sink_subscribers = max(0, self._sink_subscribers - 1)

    def subscriber_counts(self) -> dict[str, int]:
        with self._lock:
            return {
                "sessions": sum(len(subs) for subs in self._subs.values()),
                "service": self._sink_subscribers,
                "peak": self._peak_subscribers,
                "served": self._subscribers_served,
            }

    def topic_seq(self, topic: str) -> int:
        """Events published to ``topic`` so far."""
        with self._lock:
            return self._seq.get(topic, 0)

    # --- publishing ----------------------------------------------------------

    def publish(
        self, topic: str, kind: str, payload: dict[str, Any]
    ) -> dict[str, Any]:
        """Stamp, aggregate and fan out one event; returns the stamped
        event dict.  Never blocks and never raises on slow consumers."""
        with self._lock:
            seq = self._seq.get(topic, 0) + 1
            self._seq[topic] = seq
            self._global_seq += 1
            event = {
                "event": kind,
                "topic": topic,
                "seq": seq,
                "global_seq": self._global_seq,
                "time": self._clock(),
                **payload,
            }
            loop = self._loop
            fan_out = bool(self._subs) or self._sink_subscribers > 0
        self.dashboard.update(event)
        if not fan_out or loop is None or loop.is_closed():
            return event
        frame = sse_frame(event)
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is loop:
            self._deliver(topic, kind, frame)
        else:
            try:
                loop.call_soon_threadsafe(
                    self._deliver, topic, kind, frame
                )
            except RuntimeError:
                pass  # loop closed mid-publish: subscribers are gone too
        return event

    def _deliver(self, topic: str, kind: str, frame: bytes) -> None:
        with self._lock:
            targets = list(self._subs.get(topic, ()))
            sink = (
                self.service_sink if self._sink_subscribers else None
            )
        for sub in targets:
            sub.deliver(kind, frame)
        if sink is not None:
            try:
                sink(frame)
            except Exception:  # noqa: BLE001 - observability never raises
                pass
