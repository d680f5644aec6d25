"""The PR 10 streaming plane: EventBus semantics, SSE end-to-end over
real HTTP, streamed-vs-polled parity, the service-feed broadcaster and
the live dashboard.

The acceptance property mirrors the bench gate: a streamed session and
a polled session over the same (strategy, seed) must produce the
bit-for-bit identical question sequence and final predicate — streaming
changes *when* the client learns the next question, never *what* is
asked.  The broadcaster tests pin the fan-out plane's contract: every
event reaches every subscriber, a non-reading subscriber is evicted
instead of wedging the feed, and detaching restores the bus's counts.
"""

from __future__ import annotations

import asyncio
import itertools
import queue
import socket
import threading
import time

import pytest

import repro.service.app as service_app
from repro.core import PerfectOracle, SignatureIndex
from repro.data import generate_tpch, tpch_workloads
from repro.service import (
    IndexCache,
    ServiceClient,
    ServiceServer,
    SessionManager,
)
from repro.service.events import SERVICE_FEED, EventBus, sse_frame

from .test_service_end_to_end import remote_answerer

WORKLOAD_NAME = "tpch/join4"
TPCH_SEED = 0
TPCH_SCALE = 1.0


@pytest.fixture(scope="module")
def join4():
    return tpch_workloads(
        generate_tpch(scale=TPCH_SCALE, seed=TPCH_SEED)
    )[3]


@pytest.fixture(scope="module")
def join4_index(join4):
    return SignatureIndex(join4.instance)


def make_server(**kwargs):
    kwargs.setdefault("index_cache", IndexCache())
    return ServiceServer(manager=SessionManager(**kwargs))


# --- EventBus unit tests -----------------------------------------------------


def run_on_loop(coro):
    return asyncio.run(coro)


class TestEventBus:
    def test_publish_stamps_seq_and_topic(self):
        bus = EventBus()
        first = bus.publish("s1", "question", {"x": 1})
        second = bus.publish("s1", "answer", {"x": 2})
        other = bus.publish("s2", "question", {})
        assert (first["seq"], second["seq"], other["seq"]) == (1, 2, 1)
        assert second["global_seq"] == 2
        assert other["global_seq"] == 3
        assert first["event"] == "question"
        assert first["topic"] == "s1"
        assert bus.topic_seq("s1") == 2

    def test_subscriber_receives_own_topic_only(self):
        async def scenario():
            bus = EventBus()
            sub = bus.subscribe("s1")
            bus.publish("s1", "question", {"n": 1})
            bus.publish("s2", "question", {"n": 2})
            kind, frame = await asyncio.wait_for(sub.get(), timeout=5)
            assert kind == "question"
            assert b'"n": 1' in frame
            assert sub.queue.empty()
            sub.close()

        run_on_loop(scenario())

    def test_service_feed_sees_every_topic(self):
        async def scenario():
            bus = EventBus()
            feed = bus.subscribe(SERVICE_FEED)
            bus.publish("s1", "question", {"n": 1})
            bus.publish("s2", "answer", {"n": 2})
            kinds = []
            for _ in range(2):
                kind, _ = await asyncio.wait_for(feed.get(), timeout=5)
                kinds.append(kind)
            assert kinds == ["question", "answer"]
            feed.close()

        run_on_loop(scenario())

    def test_drop_oldest_on_overflow(self):
        async def scenario():
            bus = EventBus(queue_limit=2)
            sub = bus.subscribe("s1")
            for n in range(5):
                bus.publish("s1", "question", {"n": n})
            assert sub.dropped == 3
            assert bus.dropped_total == 3
            # The two newest events survive the shedding.
            _, frame = await sub.get()
            assert b'"n": 3' in frame
            _, frame = await sub.get()
            assert b'"n": 4' in frame
            sub.close()

        run_on_loop(scenario())

    def test_cross_thread_publish_reaches_loop_subscriber(self):
        async def scenario():
            bus = EventBus()
            sub = bus.subscribe("s1")
            thread = threading.Thread(
                target=bus.publish, args=("s1", "question", {"n": 7})
            )
            thread.start()
            kind, frame = await asyncio.wait_for(sub.get(), timeout=5)
            thread.join()
            assert kind == "question"
            assert b'"n": 7' in frame
            sub.close()

        run_on_loop(scenario())

    def test_service_sink_sees_frames_only_while_attached(self):
        async def scenario():
            bus = EventBus()
            frames = []
            bus.service_sink = frames.append
            bus.publish("s1", "question", {"n": 0})
            assert frames == []  # no sink subscriber registered yet
            bus.sink_attached(asyncio.get_running_loop())
            bus.publish("s1", "question", {"n": 1})
            assert len(frames) == 1
            counts = bus.subscriber_counts()
            assert counts["service"] == 1
            bus.sink_detached()
            bus.publish("s1", "question", {"n": 2})
            assert len(frames) == 1
            assert bus.subscriber_counts()["service"] == 0

        run_on_loop(scenario())

    def test_has_subscribers_ignores_service_feed(self):
        async def scenario():
            bus = EventBus()
            feed = bus.subscribe(SERVICE_FEED)
            assert not bus.has_subscribers("s1")
            sub = bus.subscribe("s1")
            assert bus.has_subscribers("s1")
            sub.close()
            assert not bus.has_subscribers("s1")
            feed.close()

        run_on_loop(scenario())

    def test_sse_frame_shape(self):
        frame = sse_frame(
            {"event": "question", "seq": 3, "payload": True}
        )
        text = frame.decode("utf-8")
        assert text.startswith("id: 3\nevent: question\ndata: ")
        assert text.endswith("\n\n")

    def test_dashboard_aggregates_incrementally(self):
        bus = EventBus()
        bus.publish(
            "s1", "question", {"strategy": "TD", "source": "speculation"}
        )
        bus.publish(
            "s1",
            "answer",
            {
                "strategy": "TD",
                "label": "+",
                "speculation_hit": True,
                "removed_classes": 4,
            },
        )
        bus.publish(
            "s1",
            "done",
            {"strategy": "TD", "progress": {"interactions": 9}},
        )
        totals = bus.dashboard.payload(bus)["totals"]
        assert totals["events_total"] == 3
        assert totals["questions_total"] == 1
        assert totals["answers_positive"] == 1
        assert totals["speculation_hits"] == 1
        assert totals["classes_resolved"] == 4
        assert totals["sessions_completed"] == 1
        assert totals["interactions_to_done_total"] == 9
        by_strategy = bus.dashboard.payload(bus)["by_strategy"]
        assert by_strategy["TD"] == {
            "questions": 1,
            "answers": 1,
            "completed": 1,
        }


# --- SSE end-to-end ----------------------------------------------------------


def drive_polled(client, session_id, oracle):
    """Ask/answer polling; returns (question keys, final payload)."""
    answer = remote_answerer(oracle)
    sequence = []
    while (question := client.next_question(session_id)) is not None:
        sequence.append(
            (
                question["question_id"],
                tuple(question["left"]["row"]),
                tuple(question["right"]["row"]),
            )
        )
        client.post_answer(
            session_id, question["question_id"], answer(question)
        )
    return sequence, client.predicate(session_id)


def drive_streamed(client, session_id, oracle):
    """Answers over POST, questions via the pushed SSE feed; returns
    (question keys, final payload, events seen)."""
    answer = remote_answerer(oracle)
    events: queue.Queue = queue.Queue()

    def consume():
        try:
            for event in client.stream_session(session_id):
                events.put(event)
                if event["event"] in ("done", "reconnect"):
                    return
        finally:
            events.put(None)

    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    sequence, seen = [], []

    def next_question():
        while True:
            event = events.get(timeout=60)
            if event is not None:
                seen.append(event)
            if event is None or event["event"] == "done":
                return None
            if event["event"] == "question":
                return event

    question = next_question()
    while question is not None:
        sequence.append(
            (
                question["question_id"],
                tuple(question["left"]["row"]),
                tuple(question["right"]["row"]),
            )
        )
        client.post_answer(
            session_id, question["question_id"], answer(question)
        )
        question = next_question()
    consumer.join(timeout=30)
    return sequence, client.predicate(session_id), seen


class TestSessionStream:
    @pytest.mark.parametrize("strategy", ["TD", "L2S"])
    def test_streamed_session_matches_polled_bit_for_bit(
        self, join4, strategy
    ):
        oracle = PerfectOracle(join4.instance, join4.goal)
        with make_server() as server:
            with ServiceClient(server.host, server.port) as client:
                polled_info = client.create_session(
                    workload=WORKLOAD_NAME,
                    strategy=strategy,
                    seed=11,
                    workload_seed=TPCH_SEED,
                    scale=TPCH_SCALE,
                )
                polled_seq, polled_final = drive_polled(
                    client, polled_info["session_id"], oracle
                )
                streamed_info = client.create_session(
                    workload=WORKLOAD_NAME,
                    strategy=strategy,
                    seed=11,
                    workload_seed=TPCH_SEED,
                    scale=TPCH_SCALE,
                )
                streamed_seq, streamed_final, seen = drive_streamed(
                    client, streamed_info["session_id"], oracle
                )
        assert streamed_seq == polled_seq
        assert (
            streamed_final["predicate"]["pairs"]
            == polled_final["predicate"]["pairs"]
        )
        # The stream opens with the hello snapshot and ends with done.
        assert seen[0]["event"] == "hello"
        assert seen[-1]["event"] == "done"
        # The snapshot question is authoritative; every later question
        # arrives exactly once through the feed.
        questions = [e for e in seen if e["event"] == "question"]
        assert questions[0]["source"] == "snapshot"
        assert len(questions) == len(streamed_seq)

    def test_stream_pushes_answer_events_with_progress(self, join4):
        oracle = PerfectOracle(join4.instance, join4.goal)
        with make_server() as server:
            with ServiceClient(server.host, server.port) as client:
                info = client.create_session(
                    workload=WORKLOAD_NAME,
                    strategy="TD",
                    seed=3,
                    workload_seed=TPCH_SEED,
                    scale=TPCH_SCALE,
                )
                _, _, seen = drive_streamed(
                    client, info["session_id"], oracle
                )
        answers = [e for e in seen if e["event"] == "answer"]
        assert answers, "answer events must ride the session feed"
        for event in answers:
            assert event["label"] in ("+", "-")
            assert "interactions" in event["progress"]
        done = seen[-1]
        assert done["interactions"] == len(answers)

    def test_stream_of_unknown_session_is_404(self):
        with make_server() as server:
            with ServiceClient(server.host, server.port) as client:
                with pytest.raises(Exception) as excinfo:
                    next(iter(client.stream_session("nope")))
                assert "404" in str(
                    excinfo.value
                ) or "unknown" in str(excinfo.value)

    def test_finished_session_streams_done_immediately(self, join4):
        oracle = PerfectOracle(join4.instance, join4.goal)
        with make_server() as server:
            with ServiceClient(server.host, server.port) as client:
                info = client.create_session(
                    workload=WORKLOAD_NAME,
                    strategy="TD",
                    seed=5,
                    workload_seed=TPCH_SEED,
                    scale=TPCH_SCALE,
                )
                drive_polled(client, info["session_id"], oracle)
                events = list(
                    itertools.islice(
                        client.stream_session(info["session_id"]), 2
                    )
                )
        assert [e["event"] for e in events] == ["hello", "done"]


class TestServiceFeed:
    def test_feed_carries_all_sessions_and_dashboard(self, join4):
        oracle = PerfectOracle(join4.instance, join4.goal)
        with make_server() as server:
            with ServiceClient(server.host, server.port) as client:
                collected: queue.Queue = queue.Queue()
                feed_client = ServiceClient(server.host, server.port)

                def consume():
                    try:
                        for event in feed_client.stream_service():
                            collected.put(event)
                    except Exception:
                        pass
                    finally:
                        collected.put(None)

                consumer = threading.Thread(
                    target=consume, daemon=True
                )
                consumer.start()
                hello = collected.get(timeout=30)
                assert hello["event"] == "hello"
                assert hello["topic"] == SERVICE_FEED
                assert "totals" in hello["dashboard"]

                sids = []
                for seed, strategy in ((1, "TD"), (2, "L1S")):
                    info = client.create_session(
                        workload=WORKLOAD_NAME,
                        strategy=strategy,
                        seed=seed,
                        workload_seed=TPCH_SEED,
                        scale=TPCH_SCALE,
                    )
                    sids.append(info["session_id"])
                    drive_polled(client, info["session_id"], oracle)

                dashboard = client.dashboard()
                totals = dashboard["totals"]
                expected = totals["events_total"]
                seen = []
                deadline = time.monotonic() + 30
                while len(seen) < expected:
                    remaining = deadline - time.monotonic()
                    assert remaining > 0, (
                        f"feed delivered {len(seen)} of {expected}"
                    )
                    event = collected.get(timeout=remaining)
                    assert event is not None, "feed ended early"
                    seen.append(event)
                feed_client.close()
                consumer.join(timeout=30)

        topics = {e["topic"] for e in seen}
        assert set(sids) <= topics
        kinds = {e["event"] for e in seen}
        assert {"session_created", "question", "answer", "done"} <= kinds
        assert totals["sessions_completed"] == 2
        assert totals["answers_total"] > 0
        assert totals["events_dropped"] == 0
        assert dashboard["by_strategy"]["TD"]["completed"] == 1
        assert dashboard["by_strategy"]["L1S"]["completed"] == 1

    def test_slow_subscriber_is_evicted_not_wedged(self, join4):
        """A service-feed socket that never reads must be aborted once
        its transport's unsent backlog passes the cap — and the bus's
        subscriber count must drop back, proving ``sink_detached``
        ran."""
        with make_server() as server:
            feed = server.app.service_feed
            feed.max_buffer_bytes = 8 * 1024
            bus = server.app.manager.events
            sock = socket.create_connection(
                (server.host, server.port)
            )
            try:
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_RCVBUF, 4096
                )
                sock.sendall(
                    b"GET /events/stream HTTP/1.1\r\n"
                    b"Host: test\r\nContent-Length: 0\r\n\r\n"
                )
                deadline = time.monotonic() + 10
                while (
                    bus.subscriber_counts()["service"] < 1
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                assert bus.subscriber_counts()["service"] == 1
                # Never read: pump events until the eviction lands.
                payload = {"blob": "x" * 1024}
                deadline = time.monotonic() + 30
                while bus.subscriber_counts()["service"] > 0:
                    assert time.monotonic() < deadline, (
                        "non-reading subscriber was never evicted"
                    )
                    bus.publish("s1", "question", payload)
                    time.sleep(0.002)
            finally:
                sock.close()

    def test_closing_subscriber_detaches_cleanly(self, join4):
        with make_server() as server:
            bus = server.app.manager.events
            with ServiceClient(server.host, server.port) as client:
                stream = client.stream_service()
                hello = next(stream)
                assert hello["event"] == "hello"
                deadline = time.monotonic() + 10
                while (
                    bus.subscriber_counts()["service"] < 1
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                assert bus.subscriber_counts()["service"] == 1
                stream.close()  # generator close tears the socket down
                deadline = time.monotonic() + 10
                while (
                    bus.subscriber_counts()["service"] > 0
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                assert bus.subscriber_counts()["service"] == 0
                served = bus.subscriber_counts()["served"]
                assert served >= 1


class TestKeepAlive:
    def test_idle_streams_write_keep_alive(self, monkeypatch):
        """Both stream kinds send an SSE ``: keep-alive`` comment after
        ``_HEARTBEAT_SECONDS`` of silence: the service feed from its
        loop timer, a session stream from its subscription wait."""
        monkeypatch.setattr(service_app, "_HEARTBEAT_SECONDS", 0.2)
        with make_server() as server:
            with ServiceClient(server.host, server.port) as client:
                info = client.create_session(
                    workload=WORKLOAD_NAME,
                    strategy="TD",
                    seed=1,
                    workload_seed=TPCH_SEED,
                    scale=TPCH_SCALE,
                )
            for path in (
                "/events/stream",
                f"/sessions/{info['session_id']}/stream",
            ):
                sock = socket.create_connection(
                    (server.host, server.port)
                )
                try:
                    sock.sendall(
                        f"GET {path} HTTP/1.1\r\n"
                        f"Host: test\r\nContent-Length: 0\r\n\r\n".encode()
                    )
                    received = b""
                    deadline = time.monotonic() + 5
                    while b"\r\n: keep-alive\n\n\r\n" not in received:
                        remaining = deadline - time.monotonic()
                        assert remaining > 0, (
                            f"no keep-alive on idle {path}: {received!r}"
                        )
                        sock.settimeout(remaining)
                        try:
                            data = sock.recv(65536)
                        except socket.timeout:
                            continue
                        assert data, f"{path} ended instead of idling"
                        received += data
                finally:
                    sock.close()


class TestClientStreamGuards:
    def test_request_refuses_stream_paths(self):
        """The retrying JSON ``_request`` path must never serve a
        stream subscription: a mid-body retry would silently replay
        every event since the snapshot."""
        client = ServiceClient("localhost", 1)
        with pytest.raises(ValueError):
            client._request("GET", "/sessions/abc/stream")
        with pytest.raises(ValueError):
            client._request("GET", "/events/stream")
        client.close()

    def test_stream_does_not_retry_after_body_began(self, join4):
        """Kill the server under a live stream: the client must raise
        (or end the stream), never reconnect-and-replay on its own."""
        oracle = PerfectOracle(join4.instance, join4.goal)
        server = make_server()
        server.start()
        try:
            client = ServiceClient(server.host, server.port, retries=3)
            info = client.create_session(
                workload=WORKLOAD_NAME,
                strategy="TD",
                seed=2,
                workload_seed=TPCH_SEED,
                scale=TPCH_SCALE,
            )
            stream = client.stream_session(info["session_id"])
            hello = next(stream)
            assert hello["event"] == "hello"
        finally:
            server.close()
        # The server is gone; the already-open stream may only end or
        # raise — a silent replayed subscription would yield a second
        # hello here.
        try:
            leftovers = [event["event"] for event in stream]
        except Exception:
            leftovers = []
        assert "hello" not in leftovers
        client.close()
