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

Fleet workers (``ServiceApp(control=True)``) additionally expose one
worker-internal control route the front router drives — never meant
for external clients, and 404 unless enabled:

==========  ==============================  =====================================
POST        ``/control/demote``             demote the listed sessions (rebalance
                                            after a dead slot respawns)
==========  ==============================  =====================================

The router also assigns session ids itself (it must know the id to pick
the owning worker before the create lands), passing them down via the
internal ``x-fleet-session-id`` header on create/resume.  Only a fleet
worker reads that header: a public-facing app mints every id itself.

**One HTTP layer, one lifecycle.**  This module holds the only copy of
the HTTP/1.1 plumbing.  :func:`serve_connection` runs every client
connection of both fronts, :class:`ServiceApp` and the fleet router
(:mod:`~repro.service.router`), over their ``respond`` coroutine;
:func:`_read_head` parses requests here and worker responses in the
router; :class:`HttpFront` binds the socket and stops it.  Every front
stops one way, ``shutdown()``, and it always drains: the app demotes
every durable session, waits for the writer thread and closes the
manager and then the store; the router terminates its workers, and
each drains on that SIGTERM.  :func:`serve` runs a front as a server
process (the solo ``repro-join serve``, each fleet worker and the
router) until SIGTERM or SIGINT; :class:`ServerThread` runs one on a
background thread.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import signal
import threading
import weakref
from typing import Any, Awaitable, Callable

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
    "HttpFront",
    "ServiceApp",
    "EventStream",
    "ServiceFeedBroadcaster",
    "ServerThread",
    "ServiceServer",
    "serve",
    "serve_connection",
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
    503: "Service Unavailable",
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
    of a JSON payload, and :meth:`serve` takes the connection over and
    writes SSE frames until a terminal event, client disconnect, or
    server shutdown (the connection is never reused afterwards).

    A stream with a ``feed`` is served by the app's
    :class:`ServiceFeedBroadcaster` instead of a per-socket queue —
    used for ``GET /events/stream`` where hundreds of subscribers share
    identical bytes."""

    def __init__(
        self,
        subscription: EventSubscription | None = None,
        *,
        initial: list[tuple[str, bytes]] | None = None,
        close_kinds: frozenset[str] = frozenset(),
        feed: ServiceFeedBroadcaster | None = None,
    ):
        self.subscription = subscription
        #: ``(kind, frame)`` pairs written before any queued event — the
        #: subscribe-time snapshot (hello + pending question), built
        #: under the session lock so it is gap-free with the queue.
        self.initial = initial or []
        self.close_kinds = close_kinds
        self.feed = feed

    def close(self) -> None:
        if self.subscription is not None:
            self.subscription.close()

    async def serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve the stream down one chunked HTTP response."""
        try:
            writer.write(_STREAM_HEAD)
            closing = False
            for kind, frame in self.initial:
                writer.write(_chunk(frame))
                closing = closing or kind in self.close_kinds
            if self.feed is not None:
                await self._follow_feed(reader, writer)
                return
            await writer.drain()
            while not closing:
                try:
                    kind, frame = await asyncio.wait_for(
                        self.subscription.get(), timeout=_HEARTBEAT_SECONDS
                    )
                except asyncio.TimeoutError:
                    frame = _KEEP_ALIVE
                else:
                    closing = kind in self.close_kinds
                writer.write(_chunk(frame))
                await writer.drain()
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        except OSError:
            # The client went away; the connection loop handles server
            # shutdown.  Either way the subscription just needs tearing
            # down.
            pass
        finally:
            self.close()

    async def _follow_feed(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Hand the writer to the feed (which also owns the keep-alive)
        and only watch for client close.  The transport keeps write
        order, so the snapshot always precedes the first feed chunk."""
        self.feed.register(writer)
        try:
            # EOF: the client closed its end, or the feed evicted it.
            # Any bytes before that are a pipelined request on a
            # Connection: close stream — a client bug; ignore them.
            while await reader.read(1):
                pass
        finally:
            self.feed.unregister(writer)


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


def json_response(
    status: int, payload: dict[str, Any]
) -> tuple[int, bytes]:
    """``(status, JSON body bytes)``: a front's answer to every request
    that is not a stream."""
    return status, json.dumps(payload).encode("utf-8")


def _response_bytes(status: int, body: bytes) -> bytes:
    """One whole keep-alive response carrying a JSON ``body``."""
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: keep-alive\r\n"
        f"\r\n"
    ).encode("ascii")
    return head + body


async def _read_head(
    reader: asyncio.StreamReader,
) -> tuple[list[str], dict[str, str]]:
    """One HTTP/1.1 message head, a request's or a response's: the start
    line's three fields and the headers, names lower-cased.

    End of stream before the start line raises
    :class:`asyncio.IncompleteReadError`; a start line without three
    fields raises :class:`ValueError`, as ``StreamReader`` does for an
    over-long line."""
    line = await reader.readline()
    if not line:
        raise asyncio.IncompleteReadError(b"", None)
    fields = line.decode("latin-1").strip().split(None, 2)
    if len(fields) != 3:
        raise ValueError(f"malformed start line {line!r}")
    headers: dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return fields, headers


async def _read_body(
    reader: asyncio.StreamReader, headers: dict[str, str]
) -> bytes:
    """The ``Content-Length`` body after a head; a malformed, negative
    or oversized length raises :class:`ValueError`."""
    raw_length = headers.get("content-length", "0") or "0"
    try:
        length = int(raw_length)
    except ValueError:
        raise ValueError(
            f"malformed Content-Length {raw_length!r}"
        ) from None
    if length < 0 or length > _MAX_BODY_BYTES:
        raise ValueError(f"bad body length {length}")
    return await reader.readexactly(length) if length else b""


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, bytes, bool, dict[str, str]]:
    """One request: method, path, body, keep-alive, headers."""
    (method, target, version), headers = await _read_head(reader)
    body = await _read_body(reader, headers)
    keep_alive = (
        headers.get("connection", "").lower() != "close"
        and version.upper() != "HTTP/1.0"
    )
    # Strip any query string; the protocol is JSON-body only.
    path = target.split("?", 1)[0]
    return method.upper(), path, body, keep_alive, headers


async def serve_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    respond: Callable[..., Awaitable[Any]],
) -> None:
    """Serve HTTP/1.1 requests on one client connection until the client
    closes it or asks to, a malformed request gets its 400, or a stream
    takes the connection over.

    ``respond(method, path, body, headers)`` answers each request with
    ``(status, JSON body bytes)``, or with a coroutine function that is
    handed ``(reader, writer)`` and serves the rest of the connection
    (an SSE stream).  Cancellation is server shutdown: the connection
    closes and the client sees a disconnect, never a half-written
    response."""
    try:
        while True:
            try:
                method, path, body, keep_alive, headers = (
                    await _read_request(reader)
                )
            except asyncio.IncompleteReadError:
                break
            except ValueError as exc:
                status, error = json_response(
                    400, {"error": "bad_request", "message": str(exc)}
                )
                writer.write(_response_bytes(status, error))
                await writer.drain()
                break
            try:
                response = await respond(method, path, body, headers)
            except Exception as exc:  # noqa: BLE001 - last-resort barrier
                response = json_response(
                    500, {"error": "internal_error", "message": str(exc)}
                )
            if callable(response):
                await response(reader, writer)
                break
            writer.write(_response_bytes(*response))
            await writer.drain()
            if not keep_alive:
                break
    except (ConnectionError, asyncio.CancelledError):
        # The client went away, or the server is shutting down.  The
        # cancellation ends here: Python 3.11's stream server reads
        # ``exception()`` of every connection task it started, which
        # raises (and is logged as an error) for a cancelled one.
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError):
            # CancelledError: shutdown cancelled the task again mid
            # close — the transport is going away with it.
            pass


class HttpFront:
    """The server half :class:`ServiceApp` and the fleet router share.

    :meth:`start` binds a socket whose every connection runs
    :func:`serve_connection` over the front's ``respond`` coroutine,
    and :meth:`_stop_serving` closes it and cancels every open
    connection, keep-alive or stream.  A front also defines
    ``shutdown()``, which stops serving and drains: :func:`serve`
    awaits it on SIGTERM or SIGINT, :meth:`ServerThread.close` on the
    harness's loop."""

    _server: asyncio.base_events.Server | None = None

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> asyncio.base_events.Server:
        """Bind and start serving; ``port=0`` picks a free port."""
        self._connections: set[asyncio.Task] = set()
        self._server = await asyncio.start_server(
            self._accept, host, port
        )
        return self._server

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)
        await serve_connection(reader, writer, self.respond)

    async def _stop_serving(self) -> None:
        """Stop accepting and end every open connection (cancelled
        before the wait, which on Python 3.12 waits for them)."""
        server, self._server = self._server, None
        if server is None:
            return
        server.close()
        for task in list(self._connections):
            task.cancel()
        await asyncio.gather(*self._connections, return_exceptions=True)
        await server.wait_closed()


async def serve(
    front: HttpFront, host: str, port: int, banner: str
) -> None:
    """Run ``front`` as this process's server: bind, print ``banner``
    formatted with the bound ``host`` and ``port`` (how a parent process
    learns the port ``port=0`` picked), serve until SIGTERM or SIGINT,
    then ``front.shutdown()``."""
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    server = await front.start(host, port)
    bound = server.sockets[0].getsockname()
    print(banner.format(host=bound[0], port=bound[1]), flush=True)
    await stop.wait()
    await front.shutdown()


class ServiceApp(HttpFront):
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

    async def respond(
        self, method: str, path: str, body: bytes, headers: dict[str, str]
    ) -> tuple[int, bytes] | Callable[..., Awaitable[None]]:
        """Answer one HTTP request: ``(status, JSON body bytes)``, or an
        SSE stream's :meth:`EventStream.serve`, which takes the
        connection over."""
        payload = None
        if body:
            try:
                payload = json.loads(body)
            except ValueError as exc:
                return json_response(
                    400,
                    {
                        "error": "bad_request",
                        "message": f"invalid JSON body: {exc}",
                    },
                )
        status, response = await self.dispatch(
            method, path, payload, headers
        )
        if isinstance(response, EventStream):
            return response.serve
        return json_response(status, response)

    async def shutdown(self) -> None:
        """Stop serving and drain: demote every durable session, wait
        off-loop until the writer thread has committed each one's
        journal tail and lease release, then close the manager and the
        store, so a successor process resumes every session."""
        await self._stop_serving()
        self.manager.demote_all()
        await self.manager.offload(self.manager.flush_store)
        self.manager.close(wait=True)
        if self.manager.store is not None:
            self.manager.store.close()

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

    def _fleet_session_id(
        self, headers: dict[str, str] | None
    ) -> str | None:
        """The router-minted session id of a create or resume on a fleet
        worker.  A public-facing app ignores the header: only the
        router, which forwards no client header, may choose an id."""
        if not self.control or not headers:
            return None
        return headers.get("x-fleet-session-id") or None

    async def _control(
        self, method: str, parts: list[str], payload: Any
    ) -> tuple[int, dict[str, Any]]:
        """``POST /control/demote``, the worker-internal route the fleet
        router sends a respawned slot's sessions home through."""
        if not self.control or parts != ["control", "demote"]:
            raise NotFound("no route /" + "/".join(parts))
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

        Served from the feed — every subscriber shares the
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
            initial=[("hello", sse_frame(hello))], feed=self.service_feed
        )


class ServerThread:
    """Any :class:`HttpFront` on a background thread's event loop, for
    tests, benchmarks and examples that need a live endpoint in-process.
    :meth:`start` returns once the port is bound, or raises at once with
    the front's error as the cause; :meth:`close` awaits the
    ``front.shutdown()`` that :func:`serve` awaits, so a closed harness
    has drained like a stopped server process."""

    #: Every started-but-not-closed harness — the test suite's leak
    #: guard asserts this is empty after each session, so a test that
    #: forgets ``close()`` fails loudly instead of leaking a socket and
    #: a loop thread into the next test.
    _live: "weakref.WeakSet[ServerThread]" = weakref.WeakSet()

    def __init__(
        self, front: HttpFront, host: str = "127.0.0.1", port: int = 0
    ):
        self.front = front
        self._requested = (host, port)
        self.host: str | None = None
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> ServerThread:
        """Start the loop thread and block until the port is bound."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self._thread.start()
        try:
            server = self._on_loop(self.front.start(*self._requested))
        except Exception as exc:
            self._end_loop()
            raise RuntimeError(f"server failed to start: {exc}") from exc
        self.host, self.port = server.sockets[0].getsockname()[:2]
        ServerThread._live.add(self)
        return self

    def _on_loop(self, coro):
        """Run ``coro`` on the harness's loop and return its result."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def _run(self) -> None:
        loop = self._loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_forever()
        finally:
            # Tasks the front started (rehydrations, index builds,
            # worker monitors) end with the loop: cancel them and let
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

    def _end_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._loop = self._thread = None

    def close(self) -> None:
        """Shut the front down, then end the loop thread; an error of
        the shutdown is raised here once the thread has ended."""
        if self._thread is None:
            return
        try:
            self._on_loop(self.front.shutdown())
        finally:
            self._end_loop()
            ServerThread._live.discard(self)

    def __enter__(self) -> ServerThread:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


class ServiceServer(ServerThread):
    """A :class:`ServiceApp` over ``manager`` on a background thread.
    Closing it drains like a stopped ``repro-join serve``: durable
    sessions are demoted, then the manager and its store are closed.

    Usage::

        with ServiceServer(manager=SessionManager()) as server:
            client = ServiceClient(server.host, server.port)
    """

    def __init__(
        self,
        manager: SessionManager | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.app = ServiceApp(manager)
        #: The hosted session manager.
        self.manager = self.app.manager
        super().__init__(self.app, host, port)
