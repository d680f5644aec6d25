"""Streaming-protocol benchmark harness — emits ``BENCH_stream.json``.

Measures what the PR 10 streaming session protocol buys and what the
observability plane costs:

* ``latency`` — the same think-time-paced oracle drives sessions twice:
  **polled** (``GET /question`` after every answer, the pre-streaming
  protocol) and **streamed** (``GET /sessions/{id}/stream``, the server
  pushes each next question the moment speculation or a kernel batch
  resolves it).  The measured quantity is identical on both paths: the
  wall-clock from ``POST /answer`` returning to the next question being
  in the client's hand.  Streaming should beat polling at p50: the push
  overlaps the answer round-trip, so by the time the answer response
  lands the next question is usually already queued client-side.
  **Parity first**: the polled and streamed runs of every
  (strategy, seed) must produce the bit-for-bit identical
  ``(question_id, class_id)`` sequence, and both must match the
  in-process ``run_inference`` reference, before any timing is trusted.
* ``fanout`` — the serving benchmark's concurrent-session load run
  twice: bare, and with **≥ 256 subscribers** attached to the
  service-wide event feed.  The load is think-time paced like the
  latency cell — the protocol being served is interactive inference,
  where a user labels one tuple pair per round — so the feed's
  delivery work overlaps oracle think time instead of racing the
  answer path for the CPU.  The subscribers live in a child process
  (one selector drains all sockets) the way real feed consumers do —
  measuring them in-process would charge the server's answer latency
  for its clients' GIL time.  Server-side, every event's SSE frame is
  encoded once, and a coalescer on the server's event loop writes the
  frames buffered since its last send cycle (at most one cycle per
  50 ms) to every socket as one shared chunk; the cell reports answer
  p95 with fan-out against the bare run.  ``meta.cpu_count`` shows how
  much true overlap the runner allowed.  Every timed session is
  parity-checked against the in-process reference, and every
  subscriber must have received **every** event frame.

The report holds measurements only; every bound on them is a row of
the gate table in ``check_trajectory.py``.

Usage::

    PYTHONPATH=src python benchmarks/bench_stream.py            # full run
    PYTHONPATH=src python benchmarks/bench_stream.py --smoke    # CI smoke
    PYTHONPATH=src python benchmarks/bench_stream.py --output my.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import queue
import selectors
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import PerfectOracle, SignatureIndex
from repro.data import generate_tpch, tpch_workloads
from repro.service import (
    IndexCache,
    ServiceClient,
    ServiceServer,
    SessionManager,
)

from bench_util import (
    bench_meta,
    expected_pairs,
    latency_summary,
    remote_answerer,
)

TPCH_SEED = 0
TPCH_SCALE = 1.0
WORKLOAD = "tpch/join4"
WORKLOAD_INDEX = 3
CLIENT_THREADS = 8
#: Oracle think time per answer in the fan-out serving load — the
#: protocol is interactive (a user labels one pair per round), and the
#: think gaps are where feed delivery overlaps the answer path.
SERVING_THINK = 0.05


def _workload_oracle():
    workload = tpch_workloads(
        generate_tpch(scale=TPCH_SCALE, seed=TPCH_SEED)
    )[WORKLOAD_INDEX]
    return workload, PerfectOracle(workload.instance, workload.goal)


# --- latency cell ------------------------------------------------------------


def _question_key(question: dict) -> tuple:
    """The identity of one question for sequence parity: id + the
    actual tuple pair asked about (the payload shape both the polled
    route and the streamed events share)."""
    return (
        question["question_id"],
        tuple(question["left"]["row"]),
        tuple(question["right"]["row"]),
    )


def _drive_polled(server, strategy, seed, oracle, think, latencies):
    """One session over ask/answer polling; returns its question
    sequence and final interaction count."""
    answer = remote_answerer(oracle)
    sequence = []
    with ServiceClient(server.host, server.port) as client:
        info = client.create_session(
            workload=WORKLOAD,
            strategy=strategy,
            seed=seed,
            workload_seed=TPCH_SEED,
            scale=TPCH_SCALE,
        )
        session_id = info["session_id"]
        question = client.next_question(session_id)
        while question is not None:
            sequence.append(_question_key(question))
            time.sleep(think)  # the oracle thinks, then labels
            client.post_answer(
                session_id, question["question_id"], answer(question)
            )
            started = time.perf_counter()
            question = client.next_question(session_id)
            latencies.append(time.perf_counter() - started)
        final = client.predicate(session_id)
    return sequence, final


def _drive_streamed(server, strategy, seed, oracle, think, latencies):
    """The same session shape over the SSE stream: answers go over
    POST, questions arrive pushed — the timed wait is on the local
    event queue, not on a request round-trip."""
    answer = remote_answerer(oracle)
    sequence = []
    client = ServiceClient(server.host, server.port)
    info = client.create_session(
        workload=WORKLOAD,
        strategy=strategy,
        seed=seed,
        workload_seed=TPCH_SEED,
        scale=TPCH_SCALE,
    )
    session_id = info["session_id"]
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

    def next_question():
        """The next pushed question, or ``None`` on done/stream end."""
        while True:
            event = events.get(timeout=120)
            if event is None or event["event"] == "done":
                return None
            if event["event"] == "question":
                return event

    question = next_question()  # snapshot question, untimed
    while question is not None:
        sequence.append(_question_key(question))
        time.sleep(think)
        client.post_answer(
            session_id, question["question_id"], answer(question)
        )
        started = time.perf_counter()
        question = next_question()
        latencies.append(time.perf_counter() - started)
    consumer.join(timeout=30)
    final = client.predicate(session_id)
    client.close()
    return sequence, final


def bench_latency(sessions: int, think: float) -> dict:
    """Polled vs streamed question latency under a think-time-paced
    oracle, parity-checked before the timings are compared."""
    workload, oracle = _workload_oracle()
    reference_index = SignatureIndex(workload.instance)
    strategies = ["TD", "L1S", "L2S"]
    jobs = [
        (seed, strategy)
        for seed, strategy in zip(
            range(sessions), itertools.cycle(strategies)
        )
    ]
    polled_lat: list[float] = []
    streamed_lat: list[float] = []
    parity_sessions = 0
    manager = SessionManager(
        index_cache=IndexCache(), max_sessions=sessions * 4
    )
    with ServiceServer(manager=manager) as server:
        # Warm the index cache so neither path pays the one-off build.
        with ServiceClient(server.host, server.port) as warm:
            info = warm.create_session(
                workload=WORKLOAD,
                strategy="TD",
                seed=999,
                workload_seed=TPCH_SEED,
                scale=TPCH_SCALE,
            )
            warm.delete_session(info["session_id"])
        for seed, strategy in jobs:
            polled_seq, polled_final = _drive_polled(
                server, strategy, seed, oracle, think, polled_lat
            )
            streamed_seq, streamed_final = _drive_streamed(
                server, strategy, seed, oracle, think, streamed_lat
            )
            # Parity gates before timing: identical question sequence,
            # identical result, both matching the in-process reference.
            assert streamed_seq == polled_seq, (
                f"stream/poll divergence: {strategy} seed={seed}: "
                f"{streamed_seq} != {polled_seq}"
            )
            pairs, interactions = expected_pairs(
                workload.instance, strategy, seed, oracle, reference_index
            )
            for final in (polled_final, streamed_final):
                assert final["predicate"]["pairs"] == pairs
                assert final["progress"]["interactions"] == interactions
            assert len(polled_seq) == interactions
            parity_sessions += 1
    polled = latency_summary(polled_lat)
    streamed = latency_summary(streamed_lat)
    return {
        "workload": WORKLOAD,
        "strategies": strategies,
        "sessions": sessions,
        "think_seconds": think,
        "rounds": len(polled_lat),
        "polled_question_latency": polled,
        "streamed_question_latency": streamed,
        "speedup_p50": round(
            polled["p50_ms"] / max(streamed["p50_ms"], 1e-6), 3
        ),
        "parity": {"checked": True, "sessions": parity_sessions},
    }


# --- fan-out cell ------------------------------------------------------------


class _FeedDrain:
    """N raw-socket subscribers on ``GET /events/stream``, drained by
    one selector thread (256 client threads would measure the GIL, not
    the server's fan-out)."""

    def __init__(self, host: str, port: int, count: int):
        self.frames = [0] * count
        self._stop = threading.Event()
        self._sockets: list[socket.socket] = []
        request = (
            b"GET /events/stream HTTP/1.1\r\n"
            b"Host: bench\r\n"
            b"Content-Length: 0\r\n"
            b"\r\n"
        )
        for _ in range(count):
            sock = socket.create_connection((host, port))
            sock.sendall(request)
            sock.setblocking(False)
            self._sockets.append(sock)
        self._thread = threading.Thread(
            target=self._drain, name="stream-feed-drain", daemon=True
        )
        self._thread.start()

    def _drain(self) -> None:
        selector = selectors.DefaultSelector()
        for index, sock in enumerate(self._sockets):
            selector.register(sock, selectors.EVENT_READ, index)
        # Seven trailing bytes of carry per socket so a frame marker
        # split across two recv() boundaries is still counted.
        carries = [b""] * len(self._sockets)
        while not self._stop.is_set():
            for key, _ in selector.select(timeout=0.05):
                try:
                    data = key.fileobj.recv(1 << 16)
                except (BlockingIOError, InterruptedError):
                    continue
                except OSError:
                    selector.unregister(key.fileobj)
                    continue
                if not data:
                    selector.unregister(key.fileobj)
                    continue
                blob = carries[key.data] + data
                self.frames[key.data] += blob.count(b"\nevent: ")
                carries[key.data] = blob[-7:]
        selector.close()

    def wait_for_hello(self, timeout: float = 30.0) -> None:
        """Block until every subscriber received its hello snapshot —
        fan-out must be fully attached before the load starts."""
        deadline = time.monotonic() + timeout
        while min(self.frames) < 1:
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"only {sum(f > 0 for f in self.frames)}/"
                    f"{len(self.frames)} subscribers saw hello"
                )
            time.sleep(0.01)

    def wait_for_frames(self, expected: int, timeout: float = 30.0):
        """Block until every subscriber received ``expected`` frames —
        the feed coalesces, so delivery may trail the last answer, but
        it must COMPLETE: every event to every subscriber."""
        deadline = time.monotonic() + timeout
        while min(self.frames) < expected:
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"feed delivery incomplete: slowest subscriber saw "
                    f"{min(self.frames)} of {expected} frames"
                )
            time.sleep(0.01)

    def close(self) -> dict:
        self._stop.set()
        self._thread.join(timeout=30)
        for sock in self._sockets:
            sock.close()
        return {
            "subscribers": len(self.frames),
            "frames_min": min(self.frames),
            "frames_max": max(self.frames),
            "frames_total": sum(self.frames),
        }


class _DrainProcess:
    """The :class:`_FeedDrain` hosted in a child process.

    Real feed subscribers are other processes (dashboards, the fleet
    router); an in-process drain thread would fight the measured
    server for the GIL while receiving the fan-out's megabytes, so the
    answer-latency overhead would charge the server for its clients'
    receive work.  The child speaks one line each way: ``READY`` once
    every subscriber saw hello, ``EXPECT <n>`` to wait for complete
    delivery, then the frame-count stats as one JSON line."""

    def __init__(self, host: str, port: int, count: int):
        self._proc = subprocess.Popen(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--drain-worker",
                host,
                str(port),
                str(count),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def wait_ready(self) -> None:
        line = self._proc.stdout.readline()
        if line.strip() != "READY":
            raise RuntimeError(f"drain worker failed to attach: {line!r}")

    def finish(self, expected: int) -> dict:
        """Wait for complete delivery, then return the drain stats."""
        try:
            self._proc.stdin.write(f"EXPECT {expected}\n")
            self._proc.stdin.flush()
            line = self._proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    "drain worker died before confirming delivery"
                )
            stats = json.loads(line)
            self._proc.wait(timeout=30)
            return stats
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait(timeout=10)


def _drain_worker(host: str, port: int, count: int) -> int:
    """Child-process entry point behind ``--drain-worker``."""
    drain = _FeedDrain(host, port, count)
    drain.wait_for_hello()
    print("READY", flush=True)
    line = sys.stdin.readline()
    expected = int(line.split()[1])
    drain.wait_for_frames(expected)
    print(json.dumps(drain.close()), flush=True)
    return 0


def _drive_serving(server, strategy, seed, oracle, think, latencies):
    """One remote session under the interactive serving load: think,
    answer, repeat.  Only the ``POST /answer`` round-trip is timed —
    that is the latency fan-out must not regress."""
    answer = remote_answerer(oracle)
    with ServiceClient(server.host, server.port) as client:
        info = client.create_session(
            workload=WORKLOAD,
            strategy=strategy,
            seed=seed,
            workload_seed=TPCH_SEED,
            scale=TPCH_SCALE,
        )
        session_id = info["session_id"]
        while (question := client.next_question(session_id)) is not None:
            time.sleep(think)  # the oracle reads the pair, then labels
            started = time.perf_counter()
            client.post_answer(
                session_id, question["question_id"], answer(question)
            )
            latencies.append(time.perf_counter() - started)
        return client.predicate(session_id)


def _serving_run(sessions: int, oracle, subscribers: int):
    """One concurrent-session load; with ``subscribers`` > 0 the
    service feed fans every event out to that many raw sockets."""
    strategies = ["RND", "BU", "TD", "L1S", "L2S"]
    jobs = list(zip(range(sessions), itertools.cycle(strategies)))
    latencies: list[float] = []
    manager = SessionManager(
        index_cache=IndexCache(),
        max_sessions=sessions * 2,
        speculate=False,
    )
    with ServiceServer(manager=manager) as server:
        drain = (
            _DrainProcess(server.host, server.port, subscribers)
            if subscribers
            else None
        )
        if drain is not None:
            drain.wait_ready()
        with ThreadPoolExecutor(max_workers=CLIENT_THREADS) as pool:
            outcomes = list(
                pool.map(
                    lambda job: (
                        job,
                        _drive_serving(
                            server,
                            job[1],
                            job[0],
                            oracle,
                            SERVING_THINK,
                            latencies,
                        ),
                    ),
                    jobs,
                )
            )
        with ServiceClient(server.host, server.port) as client:
            dashboard = client.dashboard()
        if drain is not None:
            # Every published event plus the hello snapshot must reach
            # every subscriber — a silently dead feed must fail here,
            # not show up as zero overhead.
            drained = drain.finish(
                dashboard["totals"]["events_total"] + 1
            )
        else:
            drained = None
    return latencies, outcomes, dashboard, drained


def _check_parity(outcomes, workload, reference_index, oracle):
    cache: dict[tuple[str, int], tuple[list, int]] = {}
    for (seed, strategy), final in outcomes:
        key = (strategy, seed)
        if key not in cache:
            cache[key] = expected_pairs(
                workload.instance,
                strategy,
                seed,
                oracle,
                reference_index,
            )
        pairs, interactions = cache[key]
        assert final["predicate"]["pairs"] == pairs, (
            f"parity failed: {strategy} seed={seed}"
        )
        assert final["progress"]["interactions"] == interactions


def bench_fanout(sessions: int, subscribers: int) -> dict:
    """Answer p95 with the event feed fanned out to ``subscribers``
    sockets vs the identical bare load."""
    workload, oracle = _workload_oracle()
    reference_index = SignatureIndex(workload.instance)

    bare_lat, bare_out, _, _ = _serving_run(sessions, oracle, 0)
    _check_parity(bare_out, workload, reference_index, oracle)

    fan_lat, fan_out, dashboard, drained = _serving_run(
        sessions, oracle, subscribers
    )
    _check_parity(fan_out, workload, reference_index, oracle)
    assert drained is not None and (
        drained["frames_min"]
        >= dashboard["totals"]["events_total"] + 1
    ), drained

    bare = latency_summary(bare_lat)
    fanned = latency_summary(fan_lat)
    overhead_pct = round(
        (fanned["p95_ms"] / bare["p95_ms"] - 1.0) * 100.0, 2
    )
    overhead_abs_ms = round(fanned["p95_ms"] - bare["p95_ms"], 3)
    return {
        "workload": WORKLOAD,
        "sessions": sessions,
        "client_threads": CLIENT_THREADS,
        "think_seconds": SERVING_THINK,
        "subscribers": subscribers,
        "answers": len(fan_lat),
        "bare_answer_latency": bare,
        "fanout_answer_latency": fanned,
        "overhead_p95_pct": overhead_pct,
        "overhead_p95_abs_ms": overhead_abs_ms,
        "events_dropped": dashboard["totals"]["events_dropped"],
        "events_total": dashboard["totals"]["events_total"],
        "subscriber_frames": drained,
        "parity_checked": True,
    }


# --- harness -----------------------------------------------------------------


def run_benchmarks(smoke: bool = False) -> dict:
    latency = bench_latency(
        sessions=3 if smoke else 6,
        think=0.01 if smoke else 0.02,
    )
    fanout = bench_fanout(
        sessions=8 if smoke else 32,
        subscribers=64 if smoke else 256,
    )
    return {
        "meta": bench_meta(
            smoke=smoke,
            transport="SSE over chunked HTTP/1.1, loopback",
        ),
        "latency": latency,
        "fanout": fanout,
        "acceptance": {
            "polled_p50_ms": latency["polled_question_latency"][
                "p50_ms"
            ],
            "streamed_p50_ms": latency["streamed_question_latency"][
                "p50_ms"
            ],
            "stream_parity": latency["parity"]["checked"],
            "fanout_subscribers": fanout["subscribers"],
            "fanout_parity": fanout["parity_checked"],
            "events_dropped": fanout["events_dropped"],
        },
    }


def main(argv=None) -> int:
    raw = sys.argv[1:] if argv is None else argv
    if raw[:1] == ["--drain-worker"]:
        host, port, count = raw[1], int(raw[2]), int(raw[3])
        return _drain_worker(host, port, count)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_stream.json",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fast run for CI (the committed baseline is a full run)",
    )
    args = parser.parse_args(argv)
    report = run_benchmarks(smoke=args.smoke)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    acceptance = report["acceptance"]
    print(json.dumps(acceptance, indent=2))
    print(f"report written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
