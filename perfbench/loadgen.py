"""The load generator: one asyncio client over a few keep-alive
connections, playing every session of a list to completion.

Each session is a simulated user with a goal predicate in mind: it
answers every question the way a perfect oracle for that goal would,
waits its planned think time before each answer (zero in a closed
loop) and, once the server reports Γ, checks the inferred predicate
and question count against the in-process reference, then deletes the
session.  Timestamps are ``time.perf_counter_ns``, which reads
``CLOCK_MONOTONIC`` on Linux — the clock the server-side span recorder
reads too, so request times can be matched against server spans.
"""

from __future__ import annotations

import asyncio
import json
import time
import zlib
from dataclasses import dataclass, field

now_ns = time.perf_counter_ns

#: Seconds one request may take before the session counts as failed.
REQUEST_TIMEOUT_S = 30.0


class RequestFailed(Exception):
    """A non-2xx response, a timeout or a broken connection."""


class Connection:
    """One keep-alive HTTP/1.1 connection speaking the JSON protocol.

    ``log`` receives ``(request key, sent ns, received ns, in a round)``
    per request, for matching the server's spans."""

    def __init__(self, host: str, port: int, log: list):
        self.host, self.port, self.log = host, port, log
        self._reader = self._writer = None

    async def request(
        self, method: str, path: str, payload=None, in_round=False
    ):
        """``(status, decoded body)``; raises :class:`RequestFailed` on a
        non-2xx status, a timeout or a connection error."""
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        try:
            if self._writer is None:
                self._reader, self._writer = await asyncio.open_connection(
                    self.host, self.port
                )
            sent = now_ns()
            self._writer.write(head + body)
            async with asyncio.timeout(REQUEST_TIMEOUT_S):
                status, raw = await self._read_response()
            received = now_ns()
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError, ValueError) as exc:
            self.close()
            raise RequestFailed(f"{method} {path}: {exc!r}") from exc
        self.log.append((f"{method} {path}", sent, received, in_round))
        if not 200 <= status < 300:
            raise RequestFailed(
                f"{method} {path}: HTTP {status} {raw[:200]!r}"
            )
        return status, json.loads(raw) if raw else None

    async def _read_response(self) -> tuple[int, bytes]:
        head = await self._reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        body = await self._reader.readexactly(length) if length else b""
        return status, body

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
        self._reader = self._writer = None


class Pool:
    """Connections handed out first-come first-served; remembers when
    each became free, so generator lateness excludes waiting for one."""

    def __init__(self, connections: list[Connection]):
        self._free: asyncio.Queue = asyncio.Queue()
        for conn in connections:
            self._free.put_nowait((conn, 0))
        self.connections = connections

    async def acquire(self) -> tuple[Connection, int]:
        return await self._free.get()

    def release(self, conn: Connection) -> None:
        self._free.put_nowait((conn, now_ns()))

    def close(self) -> None:
        for conn in self.connections:
            conn.close()


def oracle_label(goal, question: dict) -> str:
    """The perfect oracle's answer: ``+`` iff the pair agrees on every
    attribute pair of the goal."""
    left, right = question["left"], question["right"]
    for a, b in goal:
        la = left["row"][left["attributes"].index(a)]
        rb = right["row"][right["attributes"].index(b)]
        if la != rb:
            return "-"
    return "+"


@dataclass(slots=True)
class Outcome:
    """What the measured phase of one run observed."""

    round_ms: list[float] = field(default_factory=list)
    first_question_ms: list[float] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    questions: int = 0
    completed: int = 0
    failures: list[str] = field(default_factory=list)
    started_ns: int = 0
    ended_ns: int = 0

    @property
    def wall_s(self) -> float:
        return (self.ended_ns - self.started_ns) / 1e9


async def _until(due_ns: int) -> None:
    delay = due_ns - now_ns()
    if delay > 0:
        await asyncio.sleep(delay / 1e9)


async def _round_trip(pool: Pool, due: int, out: Outcome, steps):
    """Run ``steps`` (coroutine factories taking a connection) on one
    pooled connection; returns the last result and its receive time."""
    await _until(due)
    conn, free_since = await pool.acquire()
    try:
        out.late_ms.append((now_ns() - max(due, free_since)) / 1e6)
        result = None
        for step in steps:
            result = await step(conn)
        return result, now_ns()
    finally:
        pool.release(conn)


async def play_session(plan: dict, pool: Pool, out: Outcome) -> None:
    """One user's session, start to check; failures are recorded."""
    thinks = plan["thinks"]
    goal = plan["goal"]
    sid = None
    try:
        due = now_ns() + int(thinks[0] * 1e9)
        created = {}

        async def create(conn):
            _, body = await conn.request("POST", "/sessions", plan["create"])
            created.update(body)
            return body

        async def question(conn, in_round=False):
            _, body = await conn.request(
                "GET", f"/sessions/{created['session_id']}/question",
                in_round=in_round,
            )
            return body

        async def next_question(conn):
            return await question(conn, in_round=True)

        q, t = await _round_trip(pool, due, out, (create, question))
        sid = created["session_id"]
        out.first_question_ms.append((t - due) / 1e6)
        asked = 0
        while not q["done"]:
            label = oracle_label(goal, q)
            answer = {"question_id": q["question_id"], "label": label}
            asked += 1
            due = t + int(thinks[min(asked, len(thinks) - 1)] * 1e9)

            async def post_answer(conn, answer=answer):
                return await conn.request(
                    "POST", f"/sessions/{sid}/answer", answer, in_round=True
                )

            q, t = await _round_trip(
                pool, due, out, (post_answer, next_question)
            )
            out.round_ms.append((t - due) / 1e6)
            out.questions += 1

        async def predicate(conn):
            _, body = await conn.request("GET", f"/sessions/{sid}/predicate")
            return body

        async def delete(conn):
            return await conn.request("DELETE", f"/sessions/{sid}")

        conn, _ = await pool.acquire()
        try:
            result = await predicate(conn)
            await delete(conn)
        finally:
            pool.release(conn)
        expect = plan["expect"]
        if asked != expect["questions"]:
            raise RequestFailed(
                f"{plan['kind']} asked {asked} questions, reference asked "
                f"{expect['questions']}"
            )
        if result["predicate"]["pairs"] != expect["pairs"]:
            raise RequestFailed(
                f"{plan['kind']} inferred {result['pretty']!r}, not the "
                f"reference predicate"
            )
        out.completed += 1
    except (RequestFailed, KeyError, TypeError, ValueError) as exc:
        # ValueError: a 2xx body that is not the protocol's JSON.
        out.failures.append(f"session {sid}: {exc}")


async def play(
    host: str, port: int, sessions: list[dict], connections: int, log: list,
) -> Outcome:
    """Play every session: each user runs its sessions in list order,
    all users concurrently, multiplexed over ``connections``."""
    pool = Pool([Connection(host, port, log) for _ in range(connections)])
    out = Outcome()
    users: dict[int, list[dict]] = {}
    for plan in sessions:
        users.setdefault(plan["user"], []).append(plan)

    async def user(plans):
        for plan in plans:
            await play_session(plan, pool, out)

    out.started_ns = now_ns()
    try:
        await asyncio.gather(*(user(p) for _, p in sorted(users.items())))
    finally:
        out.ended_ns = now_ns()
        pool.close()
    return out


def home_slot(session_id: str, workers: int) -> int:
    """The fleet router's home worker for a session id."""
    return zlib.crc32(session_id.encode("utf-8")) % workers


async def warm_up(
    host: str, port: int, creates: list[dict], workers: int, log: list,
) -> None:
    """One throwaway session per create payload — per worker in a fleet:
    create, two questions around one answer, delete."""
    conn = Connection(host, port, log)
    try:
        for create in creates:
            pending = set(range(workers))
            tries = 0
            while pending:
                tries += 1
                if tries > 64:
                    raise RequestFailed(
                        f"warm-up never reached workers {sorted(pending)}"
                    )
                _, body = await conn.request("POST", "/sessions", create)
                sid = body["session_id"]
                base = f"/sessions/{sid}"
                _, q = await conn.request("GET", f"{base}/question")
                if not q["done"]:
                    await conn.request(
                        "POST", f"{base}/answer",
                        {"question_id": q["question_id"], "label": "-"},
                    )
                    await conn.request("GET", f"{base}/question")
                await conn.request("DELETE", base)
                pending.discard(home_slot(sid, workers))
    finally:
        conn.close()


async def get_json(host: str, port: int, path: str):
    conn = Connection(host, port, [])
    try:
        return (await conn.request("GET", path))[1]
    finally:
        conn.close()
