"""Durable session storage — the write-ahead journal behind the manager.

A hosted session's *mutable* state relative to its shared index is tiny:
the ordered ``(class_id, label)`` pairs the user has answered (see
:meth:`~repro.core.state.InferenceState.labeled_classes`).  That is what
snapshots serialise, and it is all a store has to keep durable — the
expensive :class:`~repro.core.signatures.SignatureIndex` stays a cache
and is rebuilt (or fetched warm) on recovery.

Two tables:

* a **checkpoint** per session: the full ``session_snapshot`` JSON
  payload (PR 2 wire format, unchanged) covering the first
  ``checkpoint_seq`` answers, refreshed every N answers;
* an append-only **journal** of the answers recorded *after* the
  checkpoint, keyed ``(session_id, seq)`` with ``seq`` the 1-based
  answer ordinal.

:meth:`SqliteSessionStore.load` merges the two back into one snapshot
payload (checkpoint ``labeled`` + journal tail, in order), which the
manager replays through the ordinary propose/answer resume path — so a
recovered session continues bit-for-bit, strategy and rng included,
exactly like a snapshot resume.

:class:`SqliteSessionStore` keeps them in one SQLite file (stdlib
``sqlite3``, WAL journal mode): every append/checkpoint is one committed
transaction, so a process killed mid-flight loses at most the answers
whose transactions had not yet committed — never a prefix, never a
corrupt payload.  The manager makes every call from its writer
thread, reads included, except the lease heartbeat's renewals; the
internal lock keeps the store thread-safe for those and for direct
callers.

**Leases (the fleet's ownership protocol).**  When several worker
processes share one store, each durable session is owned by at most one
of them at a time.  A lease is ``(owner, epoch, expires_at)``:
:meth:`SqliteSessionStore.acquire_lease` grants it when the session is
unleased, the lease has expired (wall clock), or the caller already
holds it; a takeover bumps the **epoch**, which is the fencing token —
journal writes that carry ``fence=(owner, epoch)`` are rejected with
:class:`LeaseFenced` unless they match the current lease, so a deposed
owner's late flush can never corrupt the new owner's journal.  Owners
keep leases alive with :meth:`~SqliteSessionStore.renew_lease`
(heartbeat) and hand them back with
:meth:`~SqliteSessionStore.release_lease` on demote or graceful drain.
Lease timestamps use the shared wall clock (``time.time()``), the only
clock every process sees.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Any

from . import sqlite_util

__all__ = [
    "JournalEntry",
    "Lease",
    "LeaseFenced",
    "SqliteSessionStore",
    "StoreError",
    "StoredSession",
]


class StoreError(RuntimeError):
    """A store operation failed or found inconsistent on-disk state."""


class LeaseFenced(StoreError):
    """A fenced write (or acquire) lost to another owner's lease."""


@dataclass(frozen=True, slots=True)
class Lease:
    """One session's ownership record.

    ``epoch`` is the fencing token: it increases on every ownership
    change, so a write stamped with a stale epoch identifies a deposed
    owner no matter how the wall clock drifted.
    """

    session_id: str
    owner: str
    epoch: int
    expires_at: float

    def expired(self, now: float | None = None) -> bool:
        return (time.time() if now is None else now) >= self.expires_at


#: One journaled answer: ``(seq, class_id, label)`` with ``seq`` the
#: 1-based position of the answer in the session's history and ``label``
#: the wire string ``"+"`` / ``"-"``.
JournalEntry = tuple[int, int, str]


@dataclass(frozen=True, slots=True)
class StoredSession:
    """One recoverable session as the store hands it back.

    ``payload`` is a complete ``session_snapshot`` JSON payload — the
    latest checkpoint with the journal tail already merged into its
    ``labeled`` list — ready for
    :func:`~repro.core.serialize.resume_session`.
    """

    session_id: str
    payload: dict[str, Any]
    checkpoint_seq: int
    journal_seq: int
    created_at: float
    updated_at: float


def _merge_payload(
    session_id: str,
    checkpoint: dict[str, Any],
    checkpoint_seq: int,
    tail: list[JournalEntry],
) -> dict[str, Any]:
    """The checkpoint payload with the journal tail appended to
    ``labeled``; validates that the tail is the contiguous continuation
    of the checkpoint (a gap means lost-then-resumed writes, which the
    append-only protocol cannot produce — treat it as corruption)."""
    labeled = list(checkpoint.get("labeled", []))
    if len(labeled) != checkpoint_seq:
        raise StoreError(
            f"session {session_id!r}: checkpoint claims "
            f"{checkpoint_seq} answers but carries {len(labeled)}"
        )
    expected = checkpoint_seq + 1
    for seq, class_id, label in tail:
        if seq != expected:
            raise StoreError(
                f"session {session_id!r}: journal gap — expected seq "
                f"{expected}, found {seq}"
            )
        labeled.append([class_id, label])
        expected += 1
    merged = dict(checkpoint)
    merged["labeled"] = labeled
    return merged


class SqliteSessionStore:
    """The durable backend: one SQLite file in WAL mode.

    WAL keeps readers and the single writer from blocking each other
    and — the property recovery leans on — makes every committed
    transaction survive ``kill -9``: on the next open, SQLite replays
    the write-ahead log up to the last commit.  ``synchronous=NORMAL``
    is the documented safe level for WAL (a crash may lose the tail of
    *uncommitted* work only).

    ``seq`` arguments count answers from the start of the session
    (1-based); ``put_checkpoint(payload, seq)`` asserts the payload's
    ``labeled`` list has exactly ``seq`` entries and supersedes all
    journal rows up to ``seq``.
    """

    #: Attempts per transaction when another process holds the write
    #: lock longer than ``busy_timeout`` (satellite: multi-process
    #: sharing must not surface transient SQLITE_BUSY as StoreError).
    BUSY_RETRIES = sqlite_util.BUSY_RETRIES

    def __init__(
        self,
        path: str,
        *,
        timeout: float = 30.0,
        busy_timeout: float = 5.0,
    ):
        self.path = str(path)
        self._lock = threading.RLock()
        self._connection: sqlite3.Connection | None = (
            sqlite_util.connect_wal(
                self.path, busy_timeout=busy_timeout, timeout=timeout
            )
        )
        self._journal_appends = 0
        self._checkpoints = 0
        self._loads = 0
        self._fenced_writes = 0
        self._lease_takeovers = 0
        self._lease_denied = 0
        self._busy_retries = 0
        with self._lock:
            connection = self._connection
            connection.executescript(
                """
                CREATE TABLE IF NOT EXISTS sessions (
                    session_id     TEXT PRIMARY KEY,
                    created_at     REAL NOT NULL,
                    updated_at     REAL NOT NULL,
                    checkpoint_seq INTEGER NOT NULL,
                    checkpoint     TEXT NOT NULL
                );
                CREATE TABLE IF NOT EXISTS journal (
                    session_id TEXT NOT NULL,
                    seq        INTEGER NOT NULL,
                    class_id   INTEGER NOT NULL,
                    label      TEXT NOT NULL,
                    PRIMARY KEY (session_id, seq)
                ) WITHOUT ROWID;
                CREATE TABLE IF NOT EXISTS leases (
                    session_id TEXT PRIMARY KEY,
                    owner      TEXT NOT NULL,
                    epoch      INTEGER NOT NULL,
                    expires_at REAL NOT NULL
                ) WITHOUT ROWID;
                """
            )

    def _require_connection(self) -> sqlite3.Connection:
        if self._connection is None:
            raise StoreError(f"store {self.path!r} is closed")
        return self._connection

    def _count_busy_retry(self) -> None:
        # Called with self._lock held (run_immediate runs under it).
        self._busy_retries += 1

    def _transact(self, work: Any) -> Any:
        """Run ``work(connection)`` inside one BEGIN IMMEDIATE
        transaction via :func:`sqlite_util.run_immediate`.  Sleeping
        between retries while holding ``self._lock`` is fine —
        in-process writers are serialised by that lock already, so
        contention here is always cross-process."""
        with self._lock:
            connection = self._require_connection()
            return sqlite_util.run_immediate(
                connection,
                work,
                error=StoreError,
                subject=f"store {self.path!r}",
                retries=self.BUSY_RETRIES,
                on_busy_retry=self._count_busy_retry,
            )

    def _check_fence(
        self,
        connection: sqlite3.Connection,
        session_id: str,
        fence: tuple[str, int] | None,
    ) -> None:
        # Runs inside the write transaction, so the check and the write
        # it guards are atomic against a concurrent takeover.
        if fence is None:
            return
        owner, epoch = fence
        row = connection.execute(
            "SELECT owner, epoch FROM leases WHERE session_id = ?",
            (session_id,),
        ).fetchone()
        if row is None or row[0] != owner or row[1] != epoch:
            self._fenced_writes += 1
            held = None if row is None else (row[0], row[1])
            raise LeaseFenced(
                f"session {session_id!r}: write stamped "
                f"({owner!r}, {epoch}) but lease is {held!r}"
            )

    def put_checkpoint(
        self,
        session_id: str,
        payload: dict[str, Any],
        seq: int,
        *,
        fence: tuple[str, int] | None = None,
    ) -> None:
        """Write (or replace) the session's checkpoint; prunes journal
        rows the checkpoint now covers.  Also the create record: a new
        session checkpoints at its admission state (``seq`` answers,
        usually 0).  With ``fence=(owner, epoch)`` the write commits
        only while that exact lease is current (:class:`LeaseFenced`
        otherwise)."""
        text = json.dumps(payload, separators=(",", ":"))
        now = time.time()

        def work(connection: sqlite3.Connection) -> None:
            self._check_fence(connection, session_id, fence)
            connection.execute(
                """
                INSERT INTO sessions (
                    session_id, created_at, updated_at,
                    checkpoint_seq, checkpoint
                ) VALUES (?, ?, ?, ?, ?)
                ON CONFLICT (session_id) DO UPDATE SET
                    updated_at = excluded.updated_at,
                    checkpoint_seq = excluded.checkpoint_seq,
                    checkpoint = excluded.checkpoint
                """,
                (session_id, now, now, seq, text),
            )
            connection.execute(
                "DELETE FROM journal "
                "WHERE session_id = ? AND seq <= ?",
                (session_id, seq),
            )

        self._transact(work)
        with self._lock:
            self._checkpoints += 1

    def append_answers(
        self,
        session_id: str,
        entries: list[JournalEntry],
        *,
        fence: tuple[str, int] | None = None,
    ) -> None:
        """Append journal rows (one transaction).  Raises
        :class:`StoreError` for a session without a checkpoint — the
        create record must land first.  ``fence`` as on
        :meth:`put_checkpoint`."""
        if not entries:
            return
        now = time.time()

        def work(connection: sqlite3.Connection) -> None:
            self._check_fence(connection, session_id, fence)
            row = connection.execute(
                "SELECT 1 FROM sessions WHERE session_id = ?",
                (session_id,),
            ).fetchone()
            if row is None:
                raise StoreError(
                    f"no checkpoint for session {session_id!r}; "
                    f"cannot journal answers"
                )
            connection.executemany(
                "INSERT OR REPLACE INTO journal "
                "(session_id, seq, class_id, label) "
                "VALUES (?, ?, ?, ?)",
                [
                    (session_id, seq, class_id, label)
                    for seq, class_id, label in entries
                ],
            )
            connection.execute(
                "UPDATE sessions SET updated_at = ? "
                "WHERE session_id = ?",
                (now, session_id),
            )

        self._transact(work)
        with self._lock:
            self._journal_appends += len(entries)

    def acquire_lease(
        self, session_id: str, owner: str, ttl_seconds: float
    ) -> Lease | None:
        """Claim ownership of a session for ``ttl_seconds``: granted
        when it has no lease, its lease has expired, or ``owner``
        already holds it (a refresh, same epoch).  A takeover bumps
        the epoch.  ``None`` while another owner's unexpired lease
        stands."""
        now = time.time()

        def work(connection: sqlite3.Connection) -> Lease | None:
            row = connection.execute(
                "SELECT owner, epoch, expires_at FROM leases "
                "WHERE session_id = ?",
                (session_id,),
            ).fetchone()
            decision, epoch = sqlite_util.decide_lease_epoch(
                None if row is None else (row[0], row[1], row[2]),
                owner,
                now,
            )
            if decision == "deny":
                self._lease_denied += 1
                return None
            if decision == "takeover":
                self._lease_takeovers += 1
            connection.execute(
                """
                INSERT INTO leases (session_id, owner, epoch, expires_at)
                VALUES (?, ?, ?, ?)
                ON CONFLICT (session_id) DO UPDATE SET
                    owner = excluded.owner,
                    epoch = excluded.epoch,
                    expires_at = excluded.expires_at
                """,
                (session_id, owner, epoch, now + ttl_seconds),
            )
            return Lease(session_id, owner, epoch, now + ttl_seconds)

        return self._transact(work)

    def renew_lease(
        self, session_id: str, owner: str, epoch: int, ttl_seconds: float
    ) -> bool:
        """Extend a held lease (heartbeat).  ``False`` when the lease
        is no longer ``(owner, epoch)``: the caller has been deposed."""
        now = time.time()

        def work(connection: sqlite3.Connection) -> bool:
            cursor = connection.execute(
                "UPDATE leases SET expires_at = ? "
                "WHERE session_id = ? AND owner = ? AND epoch = ?",
                (now + ttl_seconds, session_id, owner, epoch),
            )
            return cursor.rowcount == 1

        return bool(self._transact(work))

    def release_lease(
        self, session_id: str, owner: str, epoch: int
    ) -> bool:
        """Drop a held lease so any worker may claim the session at
        once; ``False`` (and no effect) unless it is still exactly
        ``(owner, epoch)``."""

        def work(connection: sqlite3.Connection) -> bool:
            # Expire in place rather than deleting the row: the epoch
            # stays monotonic, so the next acquire is a takeover and
            # outruns any write a deposed owner might still carry.
            cursor = connection.execute(
                "UPDATE leases SET expires_at = 0.0 "
                "WHERE session_id = ? AND owner = ? AND epoch = ?",
                (session_id, owner, epoch),
            )
            return cursor.rowcount == 1

        return bool(self._transact(work))

    def lease_of(self, session_id: str) -> Lease | None:
        with self._lock:
            connection = self._require_connection()
            row = connection.execute(
                "SELECT owner, epoch, expires_at FROM leases "
                "WHERE session_id = ?",
                (session_id,),
            ).fetchone()
        if row is None:
            return None
        return Lease(session_id, row[0], row[1], row[2])

    def load(self, session_id: str) -> StoredSession | None:
        """The merged recoverable state, or ``None`` for unknown ids."""
        with self._lock:
            connection = self._require_connection()
            row = connection.execute(
                "SELECT checkpoint, checkpoint_seq, created_at, "
                "updated_at FROM sessions WHERE session_id = ?",
                (session_id,),
            ).fetchone()
            if row is None:
                return None
            text, checkpoint_seq, created, updated = row
            tail = [
                (seq, class_id, label)
                for seq, class_id, label in connection.execute(
                    "SELECT seq, class_id, label FROM journal "
                    "WHERE session_id = ? AND seq > ? ORDER BY seq",
                    (session_id, checkpoint_seq),
                )
            ]
            self._loads += 1
        try:
            checkpoint = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StoreError(
                f"session {session_id!r}: corrupt checkpoint payload: "
                f"{exc}"
            ) from exc
        payload = _merge_payload(
            session_id, checkpoint, checkpoint_seq, tail
        )
        return StoredSession(
            session_id=session_id,
            payload=payload,
            checkpoint_seq=checkpoint_seq,
            journal_seq=checkpoint_seq + len(tail),
            created_at=created,
            updated_at=updated,
        )

    def delete(self, session_id: str) -> None:
        def work(connection: sqlite3.Connection) -> None:
            connection.execute(
                "DELETE FROM journal WHERE session_id = ?",
                (session_id,),
            )
            connection.execute(
                "DELETE FROM sessions WHERE session_id = ?",
                (session_id,),
            )
            connection.execute(
                "DELETE FROM leases WHERE session_id = ?",
                (session_id,),
            )

        self._transact(work)

    def session_ids(self) -> list[str]:
        """All recoverable session ids, oldest creation first."""
        with self._lock:
            connection = self._require_connection()
            return [
                sid
                for (sid,) in connection.execute(
                    "SELECT session_id FROM sessions "
                    "ORDER BY created_at, session_id"
                )
            ]

    def __contains__(self, session_id: str) -> bool:
        # Cheaper than a load() probe: no payload parse.
        with self._lock:
            connection = self._require_connection()
            return (
                connection.execute(
                    "SELECT 1 FROM sessions WHERE session_id = ?",
                    (session_id,),
                ).fetchone()
                is not None
            )

    def stats(self) -> dict[str, Any]:
        with self._lock:
            connection = self._require_connection()
            (sessions,) = connection.execute(
                "SELECT COUNT(*) FROM sessions"
            ).fetchone()
            (journal_rows,) = connection.execute(
                "SELECT COUNT(*) FROM journal"
            ).fetchone()
            (leases,) = connection.execute(
                "SELECT COUNT(*) FROM leases WHERE expires_at > ?",
                (time.time(),),
            ).fetchone()
            return {
                "backend": "sqlite",
                "path": self.path,
                "sessions": sessions,
                "journal_rows": journal_rows,
                "journal_appends": self._journal_appends,
                "checkpoints": self._checkpoints,
                "loads": self._loads,
                "leases": leases,
                "fenced_writes": self._fenced_writes,
                "lease_takeovers": self._lease_takeovers,
                "lease_denied": self._lease_denied,
                "busy_retries": self._busy_retries,
            }

    def close(self) -> None:
        with self._lock:
            if self._connection is not None:
                self._connection.close()
                self._connection = None
