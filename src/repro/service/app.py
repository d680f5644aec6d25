"""The asyncio HTTP/JSON server hosting concurrent inference sessions.

Stdlib only: a minimal HTTP/1.1 request loop over ``asyncio`` streams
(keep-alive, ``Content-Length`` bodies) in front of a JSON router.  Every
handler is a small synchronous computation — label recording and question
selection are array operations on the shared index — so the single event
loop comfortably serves many interleaved sessions; per-session locks in
the :class:`~repro.service.manager.SessionManager` keep each session's
protocol sequential regardless of how requests interleave.

Routes
------

==========  ==============================  =====================================
method      path                            action
==========  ==============================  =====================================
POST        ``/sessions``                   create a session (builtin or CSV)
GET         ``/sessions``                   list live sessions
POST        ``/sessions/resume``            recreate a session from a snapshot
GET         ``/sessions/{id}``              session info + progress
GET         ``/sessions/{id}/question``     next membership question (or done)
POST        ``/sessions/{id}/answer``       record a label for a question
GET         ``/sessions/{id}/predicate``    current ``T(S+)`` + progress
GET         ``/sessions/{id}/snapshot``     resumable session state
DELETE      ``/sessions/{id}``              drop the session
GET         ``/sessions/{id}/stream``       SSE: per-session event feed (push)
GET         ``/events/stream``              SSE: service-wide event feed
GET         ``/dashboard``                  incrementally maintained aggregates
GET         ``/builds``                     in-flight index builds and waiters
GET         ``/stats``                      server + index-cache counters
==========  ==============================  =====================================

**Streaming (PR 10).**  The two ``/stream`` routes upgrade the response
to ``Transfer-Encoding: chunked`` with ``Content-Type:
text/event-stream`` and push SSE frames as the manager publishes events
— a streaming client receives the next question the moment speculation
or a kernel batch resolves it, instead of polling ``GET /question``.
Subscribing to a session proposes (and therefore speculates on) its
next question under the session lock, and every subsequent ``POST
/answer`` re-proposes *before* writing the answer response — but only
while the session actually has stream subscribers, so polled sessions
keep the exact pre-streaming answer path.  The question event therefore
rides the answer round-trip: a streamed client usually holds the next
question before its ``POST /answer`` even returns.  The question a
stream pushes and the one ``GET /question`` returns are the same
pending :class:`~repro.core.session.Question` (proposal is
idempotent), which is what makes streamed and polled question
sequences bit-for-bit comparable.

Cold index builds run on the manager's worker pool (single-flight per
fingerprint), so while one client waits for a large build, every other
session keeps answering and ``GET /builds`` lists the builds in flight.

Fleet workers (``ServiceApp(control=True)``) additionally expose
worker-internal control routes the front router drives — never meant
for external clients, and 404 unless enabled:

==========  ==============================  =====================================
GET         ``/control/health``             liveness + live-session count
POST        ``/control/drain``              demote every durable session, flush,
                                            release leases (graceful shutdown)
POST        ``/control/demote``             demote the listed sessions (rebalance
                                            after a dead slot respawns)
==========  ==============================  =====================================

The router also assigns session ids itself (it must know the id to pick
the owning worker before the create lands), passing them down via the
internal ``x-fleet-session-id`` header on create/resume.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import threading
import weakref
from typing import Any

from ..core.consistency import InconsistentSampleError
from ..core.session import QuestionProtocolError
from .events import SERVICE_FEED, EventBus, EventSubscription, sse_frame
from .manager import ManagedSession, SessionManager
from .protocol import (
    BadRequest,
    Conflict,
    NotFound,
    ServiceError,
    builds_payload,
    parse_answer_payload,
    parse_create_payload,
    predicate_payload,
    progress_payload,
    question_payload,
    sessions_payload,
)

__all__ = [
    "ServiceApp",
    "EventStream",
    "ServiceFeedBroadcaster",
    "start_server",
    "run_server",
    "ServiceServer",
]

_MAX_BODY_BYTES = 64 * 1024 * 1024
_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


#: Event kinds that end a per-session stream after delivery — the
#: session finished, or stopped being servable from this process.
_STREAM_CLOSE_KINDS = frozenset(
    {"done", "session_deleted", "session_demoted", "session_expired"}
)

#: Idle gap after which a stream writes an SSE keep-alive comment, so
#: half-open sockets die fast on both ends.
_HEARTBEAT_SECONDS = 15.0

#: Floor between two service-feed send cycles: every frame published
#: inside one window shares one chunk, so a busy feed costs at most 20
#: write sweeps a second however fast sessions answer.
_FEED_CYCLE_SECONDS = 0.05

#: SSE comment — ignored by consumers, but it exercises the socket so a
#: half-open connection fails fast.
_KEEP_ALIVE = b": keep-alive\n\n"


class EventStream:
    """A streaming response: ``dispatch`` returns one of these instead
    of a JSON payload, and the connection handler serves SSE frames
    from the subscription until a terminal event, client disconnect,
    or server shutdown (the connection is never reused afterwards).

    ``broadcast=True`` marks a subscription-less stream served by the
    app's :class:`ServiceFeedBroadcaster` instead of a per-socket
    queue — used for ``GET /events/stream`` where hundreds of
    subscribers share identical bytes."""

    def __init__(
        self,
        subscription: EventSubscription | None = None,
        *,
        initial: list[tuple[str, bytes]] | None = None,
        close_kinds: frozenset[str] = frozenset(),
        broadcast: bool = False,
    ):
        self.subscription = subscription
        #: ``(kind, frame)`` pairs written before any queued event — the
        #: subscribe-time snapshot (hello + pending question), built
        #: under the session lock so it is gap-free with the queue.
        self.initial = initial or []
        self.close_kinds = close_kinds
        self.broadcast = broadcast

    def close(self) -> None:
        if self.subscription is not None:
            self.subscription.close()


class ServiceFeedBroadcaster:
    """Coalescing fan-out for ``GET /events/stream`` sockets, paced on
    the server's event loop.

    Per-subscriber queues price fan-out at O(subscribers) scheduled
    callbacks per event: at 256 subscribers every answer would wake 256
    pump coroutines (each a write + drain) ahead of the next request
    handler.  The broadcaster instead buffers each event's frame (the
    bus's ``service_sink``: O(1) per event) and arms one
    ``loop.call_later`` send cycle — at once after an idle spell, then
    at most one per ``_FEED_CYCLE_SECONDS`` — which joins everything
    buffered into ONE HTTP chunk (whole SSE frames only, so the fleet
    router's chunk-at-a-time proxying stays frame-atomic) and
    ``transport.write``s the same bytes object to every subscriber.
    The busier the feed, the more frames each chunk carries.

    Backpressure is eviction, not stalling: a subscriber whose
    transport holds more than ``max_buffer_bytes`` unsent is aborted,
    so one slow reader can never wedge the feed or grow memory without
    bound (the drop-don't-block stance of
    :class:`~repro.service.events.EventSubscription`).  A loop timer
    writes an SSE keep-alive comment to everyone after
    ``_HEARTBEAT_SECONDS`` of feed silence.

    Every method runs on the server's event loop (``EventBus._deliver``
    marshals off-loop publishes onto it before invoking the sink).
    """

    #: Unsent bytes a subscriber's transport may hold before the feed
    #: aborts it.
    max_buffer_bytes = 4 * 1024 * 1024

    def __init__(self, bus: EventBus):
        self._bus = bus
        self._writers: set[asyncio.StreamWriter] = set()
        #: frames awaiting the next send cycle
        self._frames: list[bytes] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._cycle: asyncio.TimerHandle | None = None
        self._keep_alive: asyncio.TimerHandle | None = None
        self._last_cycle = float("-inf")
        self._last_write = 0.0

    def register(self, writer: asyncio.StreamWriter) -> None:
        """Add one subscriber; the feed writes to it from now on."""
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._writers.add(writer)
        self._bus.sink_attached(loop)
        if self._keep_alive is None:
            self._last_write = loop.time()
            self._keep_alive = loop.call_later(
                _HEARTBEAT_SECONDS, self._heartbeat
            )

    def unregister(self, writer: asyncio.StreamWriter) -> None:
        """Detach one subscriber; idempotent, because a send cycle may
        already have evicted the writer its serving coroutine is
        tearing down."""
        if writer not in self._writers:
            return
        self._writers.remove(writer)
        self._bus.sink_detached()
        if not self._writers:
            for handle in (self._cycle, self._keep_alive):
                if handle is not None:
                    handle.cancel()
            self._cycle = self._keep_alive = None
            self._frames.clear()

    def enqueue(self, frame: bytes) -> None:
        """The bus's ``service_sink`` hook — one call per published
        event; the send cycle amortises across whatever accumulates."""
        if not self._writers:
            return
        self._frames.append(frame)
        if self._cycle is None:
            delay = (
                self._last_cycle + _FEED_CYCLE_SECONDS - self._loop.time()
            )
            self._cycle = self._loop.call_later(
                max(delay, 0.0), self._send_cycle
            )

    def _send_cycle(self) -> None:
        self._cycle = None
        self._last_cycle = self._loop.time()
        frames, self._frames = self._frames, []
        self._send(b"".join(frames))

    def _heartbeat(self) -> None:
        self._keep_alive = None
        idle = self._loop.time() - self._last_write
        if idle >= _HEARTBEAT_SECONDS:
            self._send(_KEEP_ALIVE)
            idle = 0.0
        if self._writers:
            self._keep_alive = self._loop.call_later(
                _HEARTBEAT_SECONDS - idle, self._heartbeat
            )

    def _send(self, payload: bytes) -> None:
        """Write one chunk to every subscriber, aborting any whose
        unsent backlog passes the cap."""
        self._last_write = self._loop.time()
        chunk = _chunk(payload)
        for writer in list(self._writers):
            transport = writer.transport
            transport.write(chunk)
            if transport.get_write_buffer_size() > self.max_buffer_bytes:
                self.unregister(writer)
                transport.abort()


class ServiceApp:
    """Routes (method, path, JSON body) triples onto the manager."""

    def __init__(
        self,
        manager: SessionManager | None = None,
        *,
        control: bool = False,
    ):
        # `manager or ...` would discard an *empty* manager (it has len 0).
        self.manager = manager if manager is not None else SessionManager()
        #: Expose the worker-internal ``/control/*`` routes (fleet
        #: workers only; a public-facing server keeps them 404).
        self.control = control
        #: Shared coalescing writer behind every ``GET /events/stream``
        #: socket; the bus invokes ``enqueue`` once per published event.
        self.service_feed = ServiceFeedBroadcaster(self.manager.events)
        self.manager.events.service_sink = self.service_feed.enqueue

    async def dispatch(
        self,
        method: str,
        path: str,
        payload: Any,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, Any]]:
        """Handle one request; returns ``(status, response payload)``."""
        try:
            return await self._route(method, path, payload, headers)
        except ServiceError as exc:
            return exc.status, {
                "error": exc.code,
                "message": str(exc),
            }
        except Exception as exc:  # noqa: BLE001 - last-resort barrier
            return 500, {"error": "internal_error", "message": str(exc)}

    async def _route(
        self,
        method: str,
        path: str,
        payload: Any,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, Any]]:
        parts = [p for p in path.split("/") if p]
        if parts == ["stats"] or not parts:
            if method != "GET":
                raise BadRequest(f"{method} not allowed on /stats")
            return 200, await self.manager.stats_async()
        if parts == ["builds"]:
            if method != "GET":
                raise BadRequest(f"{method} not allowed on /builds")
            return 200, builds_payload(self.manager.builds())
        if parts == ["dashboard"]:
            if method != "GET":
                raise BadRequest(f"{method} not allowed on /dashboard")
            return 200, self.manager.dashboard()
        if parts == ["events", "stream"]:
            if method != "GET":
                raise BadRequest(
                    f"{method} not allowed on /events/stream"
                )
            return 200, self._service_stream()
        if parts and parts[0] == "control":
            return await self._control(method, parts, payload)
        if parts[0] != "sessions":
            raise NotFound(f"no route {path!r}")

        if len(parts) == 1:
            if method == "POST":
                return await self._create(payload, headers)
            if method == "GET":
                # Counts first: session_counts_async sweeps, so listing
                # afterwards cannot include a session the counts just
                # demoted (the two views stay consistent).
                counts = await self.manager.session_counts_async()
                return 200, sessions_payload(
                    [
                        {
                            **m.describe(),
                            "progress": progress_payload(m.session),
                        }
                        for m in self.manager.list_sessions()
                    ],
                    counts,
                )
            raise BadRequest(f"{method} not allowed on /sessions")

        if parts[1] == "resume" and len(parts) == 2:
            if method != "POST":
                raise BadRequest(f"{method} not allowed on resume")
            return await self._resume(payload, headers)

        session_id = parts[1]
        action = parts[2] if len(parts) == 3 else None
        if len(parts) > 3:
            raise NotFound(f"no route {path!r}")
        if action is None and method == "DELETE":
            # Deleting a demoted session must not rehydrate it first —
            # the manager forgets stored state directly (probing the
            # store off-loop).
            await self.manager.delete_async(session_id)
            return 200, {"deleted": session_id}
        # Touching a demoted session rehydrates it off-loop (replay on
        # the build pool, single-flight per id) — transparently to the
        # client, exactly like waiting out a cold index build.
        managed = await self.manager.get_async(session_id)

        if action is None:
            if method == "GET":
                return 200, {
                    **managed.describe(),
                    "progress": progress_payload(managed.session),
                }
            raise BadRequest(f"{method} not allowed on a session")
        if action == "question" and method == "GET":
            return await self._question(managed)
        if action == "stream" and method == "GET":
            return 200, await self._stream(managed)
        if action == "answer" and method == "POST":
            return await self._answer(managed, payload)
        if action == "predicate" and method == "GET":
            async with managed.lock:
                return 200, predicate_payload(managed.session)
        if action == "snapshot" and method == "GET":
            async with managed.lock:
                return 200, self.manager.snapshot(managed)
        raise NotFound(f"no route {path!r}")

    @staticmethod
    def _fleet_session_id(headers: dict[str, str] | None) -> str | None:
        """The router-assigned session id, when this request came
        through the fleet front (internal header, absent otherwise)."""
        if not headers:
            return None
        return headers.get("x-fleet-session-id") or None

    async def _control(
        self, method: str, parts: list[str], payload: Any
    ) -> tuple[int, dict[str, Any]]:
        """Worker-internal routes the fleet router drives."""
        if not self.control:
            raise NotFound("no route /" + "/".join(parts))
        route = parts[1] if len(parts) == 2 else None
        if route == "health":
            if method != "GET":
                raise BadRequest(f"{method} not allowed on health")
            return 200, {
                "ok": True,
                "owner": self.manager.owner_id,
                "sessions": len(self.manager),
            }
        if route == "drain":
            if method != "POST":
                raise BadRequest(f"{method} not allowed on drain")
            demoted = self.manager.demote_all()
            # Durability barrier off-loop: every demoted session's
            # journal tail (and its trailing lease release) commits
            # before the router is told the drain finished.
            await self.manager.offload(self.manager.flush_store)
            return 200, {"demoted": demoted}
        if route == "demote":
            if method != "POST":
                raise BadRequest(f"{method} not allowed on demote")
            if not isinstance(payload, dict) or not isinstance(
                payload.get("session_ids"), list
            ):
                raise BadRequest("'session_ids' must be a list")
            demoted: list[str] = []
            skipped: list[str] = []
            for session_id in payload["session_ids"]:
                try:
                    self.manager.demote(session_id)
                except (NotFound, BadRequest):
                    skipped.append(session_id)
                else:
                    demoted.append(session_id)
            await self.manager.offload(self.manager.flush_store)
            return 200, {"demoted": demoted, "skipped": skipped}
        raise NotFound("no route /" + "/".join(parts))

    async def _create(
        self, payload: Any, headers: dict[str, str] | None = None
    ) -> tuple[int, dict[str, Any]]:
        # Validating an uploaded payload parses its CSV text — O(cells),
        # so it runs on the build pool like hashing and building.  A
        # builtin payload is O(1) and validates inline: a warm builtin
        # create must never queue behind someone else's cold build.
        if isinstance(payload, dict) and "csv" in payload:
            spec = await self.manager.offload(parse_create_payload, payload)
        else:
            spec = parse_create_payload(payload)
        session_id = self._fleet_session_id(headers)
        if session_id is not None:
            spec = dataclasses.replace(spec, session_id=session_id)
        managed = await self.manager.create_async(spec)
        return 201, {
            **managed.describe(),
            "progress": progress_payload(managed.session),
        }

    async def _resume(
        self, payload: Any, headers: dict[str, str] | None = None
    ) -> tuple[int, dict[str, Any]]:
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a snapshot object")
        managed = await self.manager.resume_async(
            payload, session_id=self._fleet_session_id(headers)
        )
        return 201, {
            **managed.describe(),
            "progress": progress_payload(managed.session),
        }

    async def _question(self, managed) -> tuple[int, dict[str, Any]]:
        async with managed.lock:
            # The manager both proposes and starts speculating on the
            # answer tree, so the next round-trip is a lookup when the
            # precompute wins the race against the user's think time.
            # The async path runs the entropy kernel through the shared
            # cross-session batcher, off the event loop.
            question = await self.manager.propose_question_async(managed)
            if question is None:
                return 200, {
                    "done": True,
                    "progress": progress_payload(managed.session),
                }
            return 200, {
                "done": False,
                **question_payload(managed.session, question),
            }

    async def _answer(
        self, managed, payload: Any
    ) -> tuple[int, dict[str, Any]]:
        question_id, label = parse_answer_payload(payload)
        async with managed.lock:
            try:
                example = self.manager.record_answer(
                    managed, question_id, label
                )
            except QuestionProtocolError as exc:
                raise Conflict(str(exc)) from exc
            except InconsistentSampleError as exc:
                raise Conflict(str(exc)) from exc
            response = {
                "recorded": {
                    "question_id": question_id,
                    "label": str(example.label),
                },
                "progress": progress_payload(managed.session),
            }
            if (
                not managed.session.is_finished()
                and self.manager.events.has_subscribers(
                    managed.session_id
                )
            ):
                # Streamed session: propose — and thereby publish — the
                # next question *before* the answer response, so the
                # question event rides the answer round-trip and is
                # already in the subscriber's hand when ``POST /answer``
                # returns.  Best-effort: a proposal failure must not
                # fail the recorded answer.  Polled sessions skip this,
                # keeping the pre-streaming answer path bit-for-bit.
                try:
                    await self.manager.propose_question_async(managed)
                except ServiceError:
                    pass
        return 200, response

    # --- streaming -----------------------------------------------------------

    async def _stream(self, managed: ManagedSession) -> EventStream:
        """``GET /sessions/{id}/stream``: subscribe to the session feed.

        Proposing *before* subscribing (both under the session lock)
        makes the initial snapshot authoritative: the pending question
        — freshly proposed or re-fetched — rides in the snapshot, and
        every later event arrives through the queue, each exactly once.
        """
        bus = self.manager.events
        session = managed.session
        async with managed.lock:
            question = await self.manager.propose_question_async(managed)
            subscription = bus.subscribe(managed.session_id)
            seq = bus.topic_seq(managed.session_id)
            initial = [
                (
                    "hello",
                    sse_frame(
                        {
                            "event": "hello",
                            "topic": managed.session_id,
                            "seq": seq,
                            **managed.describe(),
                            "progress": progress_payload(session),
                        }
                    ),
                )
            ]
            if question is not None:
                initial.append(
                    (
                        "question",
                        sse_frame(
                            {
                                "event": "question",
                                "topic": managed.session_id,
                                "seq": seq,
                                "session_id": managed.session_id,
                                "strategy": session.strategy.name,
                                "source": "snapshot",
                                "planner": session.strategy.progress(),
                                "progress": progress_payload(session),
                                **question_payload(session, question),
                            }
                        ),
                    )
                )
            elif session.is_finished():
                initial.append(
                    (
                        "done",
                        sse_frame(
                            {
                                "event": "done",
                                "topic": managed.session_id,
                                "seq": seq,
                                "session_id": managed.session_id,
                                "strategy": session.strategy.name,
                                "interactions": (
                                    session.state.interaction_count
                                ),
                                "progress": progress_payload(session),
                            }
                        ),
                    )
                )
        return EventStream(
            subscription,
            initial=initial,
            close_kinds=_STREAM_CLOSE_KINDS,
        )

    def _service_stream(self) -> EventStream:
        """``GET /events/stream``: the service-wide feed, opening with a
        dashboard snapshot so a monitoring client starts consistent.

        Served in broadcast mode — every subscriber shares the
        :class:`ServiceFeedBroadcaster` instead of owning a queue and a
        pump coroutine, so fan-out cost per event is one buffered
        frame, not one wake-up per socket.  (Events published between
        this snapshot and the socket's registration are not replayed;
        the feed is observability, already lossy by design under
        overflow, unlike the gap-free per-session streams.)"""
        bus = self.manager.events
        hello = {
            "event": "hello",
            "topic": SERVICE_FEED,
            "seq": bus.topic_seq(SERVICE_FEED),
            "dashboard": self.manager.dashboard(),
        }
        return EventStream(
            initial=[("hello", sse_frame(hello))], broadcast=True
        )


# --- HTTP plumbing -----------------------------------------------------------


_STREAM_HEAD = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: text/event-stream\r\n"
    b"Cache-Control: no-cache\r\n"
    b"Connection: close\r\n"
    b"Transfer-Encoding: chunked\r\n"
    b"\r\n"
)


def _chunk(frame: bytes) -> bytes:
    """One HTTP/1.1 chunk.  Exactly one SSE frame per chunk: the fleet
    router forwards whole chunks, so frame boundaries survive proxying
    and a worker dying mid-frame can never corrupt a client's parse."""
    return f"{len(frame):x}\r\n".encode("ascii") + frame + b"\r\n"


async def _serve_stream(
    writer: asyncio.StreamWriter, stream: EventStream
) -> None:
    """Pump an :class:`EventStream` down one chunked HTTP response."""
    subscription = stream.subscription
    try:
        writer.write(_STREAM_HEAD)
        closing = False
        for kind, frame in stream.initial:
            writer.write(_chunk(frame))
            if kind in stream.close_kinds:
                closing = True
        await writer.drain()
        while not closing:
            try:
                kind, frame = await asyncio.wait_for(
                    subscription.get(), timeout=_HEARTBEAT_SECONDS
                )
            except asyncio.TimeoutError:
                writer.write(_chunk(_KEEP_ALIVE))
                await writer.drain()
                continue
            writer.write(_chunk(frame))
            if kind in stream.close_kinds:
                closing = True
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()
    except (
        ConnectionResetError,
        BrokenPipeError,
        OSError,
        asyncio.CancelledError,
    ):
        # Client went away or the server is shutting down — either way
        # the subscription just needs tearing down.
        pass
    finally:
        stream.close()


async def _serve_broadcast(
    app: ServiceApp,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    stream: EventStream,
) -> None:
    """Serve a broadcast-mode :class:`EventStream`: write the head and
    snapshot, then hand the writer to the
    :class:`ServiceFeedBroadcaster` (which also owns the keep-alive) —
    this coroutine only watches for client close.  The transport keeps
    write order, so the snapshot always precedes the first feed chunk."""
    broadcaster = app.service_feed
    writer.write(_STREAM_HEAD)
    for _kind, frame in stream.initial:
        writer.write(_chunk(frame))
    broadcaster.register(writer)
    try:
        # EOF: the client closed its end, or the feed evicted it.  Any
        # bytes before that are a pipelined request on a Connection:
        # close stream — a client bug; ignore them.
        while await reader.read(1):
            pass
    except (
        ConnectionResetError,
        BrokenPipeError,
        OSError,
        asyncio.CancelledError,
    ):
        pass
    finally:
        broadcaster.unregister(writer)


def _response_bytes(status: int, payload: dict[str, Any]) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: keep-alive\r\n"
        f"\r\n"
    ).encode("ascii")
    return head + body


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, bytes, bool, dict[str, str]] | None:
    """Parse one request; None at end-of-stream before a request line."""
    line = await reader.readline()
    if not line:
        return None
    try:
        method, target, version = line.decode("ascii").split()
    except ValueError:
        raise BadRequest(f"malformed request line {line!r}")
    headers: dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0") or "0"
    try:
        length = int(raw_length)
    except ValueError:
        raise BadRequest(f"malformed Content-Length {raw_length!r}")
    if length < 0 or length > _MAX_BODY_BYTES:
        raise BadRequest(f"bad request body length {length}")
    body = await reader.readexactly(length) if length else b""
    keep_alive = (
        headers.get("connection", "").lower() != "close"
        and version.upper() != "HTTP/1.0"
    )
    # Strip any query string; the protocol is JSON-body only.
    path = target.split("?", 1)[0]
    return method.upper(), path, body, keep_alive, headers


async def _handle_connection(
    app: ServiceApp,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        while True:
            try:
                request = await _read_request(reader)
            except (
                asyncio.IncompleteReadError,
                ConnectionResetError,
            ):
                break
            except asyncio.CancelledError:
                # Server shutdown while the connection idled between
                # requests — close quietly.
                break
            except ValueError as exc:
                # StreamReader raises ValueError for over-limit lines.
                writer.write(
                    _response_bytes(
                        400, {"error": "bad_request", "message": str(exc)}
                    )
                )
                await writer.drain()
                break
            except BadRequest as exc:
                writer.write(
                    _response_bytes(
                        400, {"error": "bad_request", "message": str(exc)}
                    )
                )
                await writer.drain()
                break
            if request is None:
                break
            method, path, body, keep_alive, headers = request
            try:
                if body:
                    try:
                        payload = json.loads(body)
                    except json.JSONDecodeError as exc:
                        status, response = 400, {
                            "error": "bad_request",
                            "message": f"invalid JSON body: {exc}",
                        }
                    else:
                        status, response = await app.dispatch(
                            method, path, payload, headers
                        )
                else:
                    status, response = await app.dispatch(
                        method, path, None, headers
                    )
            except asyncio.CancelledError:
                # Server shutdown while a handler awaited off-loop work
                # (e.g. an index build) — drop the connection quietly;
                # the client sees a disconnect, not a half-response.
                break
            if isinstance(response, EventStream):
                # Streaming upgrade: this connection now belongs to the
                # stream until it ends; never reused for requests.
                if response.broadcast:
                    await _serve_broadcast(app, reader, writer, response)
                else:
                    await _serve_stream(writer, response)
                break
            writer.write(_response_bytes(status, response))
            await writer.drain()
            if not keep_alive:
                break
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.CancelledError,
        ):
            # CancelledError: the loop is tearing the task down mid
            # close (worker drain) — the transport is going away with
            # it, so there is nothing left to wait for.
            pass


async def start_server(
    app: ServiceApp,
    host: str = "127.0.0.1",
    port: int = 0,
) -> asyncio.base_events.Server:
    """Bind and start serving; ``port=0`` picks a free port."""
    return await asyncio.start_server(
        lambda r, w: _handle_connection(app, r, w), host, port
    )


async def run_server(
    app: ServiceApp, host: str = "127.0.0.1", port: int = 8642
) -> None:
    """Serve until cancelled (the CLI entry point's coroutine)."""
    server = await start_server(app, host, port)
    addresses = ", ".join(
        f"{sock.getsockname()[0]}:{sock.getsockname()[1]}"
        for sock in server.sockets
    )
    print(f"repro-join service listening on {addresses}")
    async with server:
        await server.serve_forever()


class ServiceServer:
    """A server on a background thread — for tests, benchmarks, and
    examples that need a live endpoint inside one process.

    Usage::

        with ServiceServer(manager=SessionManager()) as server:
            client = ServiceClient(server.host, server.port)
    """

    #: Every started-but-not-closed instance — the test suite's leak
    #: guard asserts this is empty after each session, so a test that
    #: forgets ``close()`` fails loudly instead of leaking a socket and
    #: a loop thread into the next test.
    _live: "weakref.WeakSet[ServiceServer]" = weakref.WeakSet()

    def __init__(
        self,
        manager: SessionManager | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.app = ServiceApp(manager)
        self._requested = (host, port)
        self.host: str | None = None
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._server: asyncio.base_events.Server | None = None

    @property
    def manager(self) -> SessionManager:
        """The hosted session manager."""
        return self.app.manager

    def start(self) -> "ServiceServer":
        """Start the loop thread and block until the port is bound."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("service failed to start within 30s")
        ServiceServer._live.add(self)
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)

        async def main() -> None:
            host, port = self._requested
            self._server = await start_server(self.app, host, port)
            sockname = self._server.sockets[0].getsockname()
            self.host, self.port = sockname[0], sockname[1]
            self._started.set()
            await self._server.serve_forever()

        try:
            loop.run_until_complete(main())
        except asyncio.CancelledError:
            pass
        finally:
            # Drain the build pools while the loop object still exists:
            # an in-flight build finishing after loop.close() would fire
            # call_soon_threadsafe into a closed loop from its worker
            # thread.  Here the loop is merely stopped, so the late
            # callback is accepted and harmlessly discarded by close().
            self.app.manager.close(wait=True)
            # Connection tasks legitimately swallow the shutdown cancel
            # (to tear their stream down cleanly) and then park once
            # more on ``writer.wait_closed()``; cancel again and let
            # them finish, or they die un-awaited when the loop closes
            # ("Task was destroyed but it is pending!" noise).
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def close(self) -> None:
        """Stop serving and join the loop thread."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return

        def _shutdown() -> None:
            for task in asyncio.all_tasks(loop):
                task.cancel()

        loop.call_soon_threadsafe(_shutdown)
        thread.join(timeout=30)
        self._loop = None
        self._thread = None
        self.manager.close()
        ServiceServer._live.discard(self)

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
