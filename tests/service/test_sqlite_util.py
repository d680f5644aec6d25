"""Unit tests for the shared SQLite idiom (:mod:`repro.service.sqlite_util`).

The session store, the shared-index registry, and the plan registry all
delegate their transaction/lease mechanics here, so these tests pin the
exact retry, rollback, and epoch semantics the three rely on.
"""

from __future__ import annotations

import sqlite3
import threading

import pytest

from repro.service import sqlite_util


class BoomError(RuntimeError):
    pass


# --- connect_wal ----------------------------------------------------------


def test_connect_wal_pragmas(tmp_path):
    connection = sqlite_util.connect_wal(str(tmp_path / "db.sqlite"))
    try:
        (mode,) = connection.execute("PRAGMA journal_mode").fetchone()
        assert mode == "wal"
        (sync,) = connection.execute("PRAGMA synchronous").fetchone()
        assert sync == 1  # NORMAL
        (busy,) = connection.execute("PRAGMA busy_timeout").fetchone()
        assert busy == 5000
        # Explicit BEGIN works only with autocommit connections.
        assert connection.isolation_level is None
    finally:
        connection.close()


def test_connect_wal_busy_timeout_and_usable_across_threads(tmp_path):
    connection = sqlite_util.connect_wal(
        str(tmp_path / "db.sqlite"), busy_timeout=0.25
    )
    try:
        (busy,) = connection.execute("PRAGMA busy_timeout").fetchone()
        assert busy == 250
        seen = []

        def probe():
            seen.append(connection.execute("SELECT 1").fetchone()[0])

        thread = threading.Thread(target=probe)
        thread.start()
        thread.join()
        assert seen == [1]  # check_same_thread=False
    finally:
        connection.close()


# --- is_busy_error --------------------------------------------------------


@pytest.mark.parametrize(
    "message,expected",
    [
        ("database is locked", True),
        ("database table is locked", True),
        ("SQLITE_BUSY: database busy", True),
        ("no such table: leases", False),
        ("syntax error", False),
    ],
)
def test_is_busy_error(message, expected):
    assert (
        sqlite_util.is_busy_error(sqlite3.OperationalError(message))
        is expected
    )


# --- run_immediate: commit / rollback ------------------------------------


@pytest.fixture()
def connection(tmp_path):
    connection = sqlite_util.connect_wal(str(tmp_path / "db.sqlite"))
    connection.execute("CREATE TABLE t (v INTEGER)")
    yield connection
    connection.close()


def test_run_immediate_commits_and_returns(connection):
    def work(conn):
        conn.execute("INSERT INTO t VALUES (7)")
        return "done"

    assert (
        sqlite_util.run_immediate(
            connection, work, error=BoomError, subject="test"
        )
        == "done"
    )
    assert connection.execute("SELECT v FROM t").fetchall() == [(7,)]
    assert not connection.in_transaction


def test_run_immediate_rolls_back_on_work_exception(connection):
    def work(conn):
        conn.execute("INSERT INTO t VALUES (7)")
        raise BoomError("mid-transaction failure")

    with pytest.raises(BoomError, match="mid-transaction"):
        sqlite_util.run_immediate(
            connection, work, error=RuntimeError, subject="test"
        )
    assert connection.execute("SELECT v FROM t").fetchall() == []
    assert not connection.in_transaction


def test_run_immediate_non_busy_error_propagates(connection):
    def work(conn):
        conn.execute("INSERT INTO missing_table VALUES (1)")

    with pytest.raises(sqlite3.OperationalError, match="no such table"):
        sqlite_util.run_immediate(
            connection, work, error=BoomError, subject="test"
        )
    assert not connection.in_transaction


# --- run_immediate: busy retry -------------------------------------------


class _ScriptedConnection:
    """Drives run_immediate through scripted BEGIN/COMMIT outcomes.

    ``script`` maps the statement kind to a list of outcomes consumed in
    order: an exception instance to raise, or None to succeed.
    """

    def __init__(self, script):
        self.script = script
        self.calls = []

    def execute(self, sql, *args):
        self.calls.append(sql)
        kind = sql.split()[0]
        outcomes = self.script.get(kind)
        if outcomes:
            outcome = outcomes.pop(0)
            if outcome is not None:
                raise outcome
        return None


def _busy():
    return sqlite3.OperationalError("database is locked")


def test_run_immediate_retries_busy_begin_then_succeeds():
    connection = _ScriptedConnection({"BEGIN": [_busy(), _busy(), None]})
    retries = []
    result = sqlite_util.run_immediate(
        connection,
        lambda conn: "ok",
        error=BoomError,
        subject="scripted",
        on_busy_retry=lambda: retries.append(1),
    )
    assert result == "ok"
    assert len(retries) == 2
    assert connection.calls.count("COMMIT") == 1


def test_run_immediate_retries_busy_commit_with_rollback():
    connection = _ScriptedConnection({"COMMIT": [_busy(), None]})
    result = sqlite_util.run_immediate(
        connection, lambda conn: "ok", error=BoomError, subject="scripted"
    )
    assert result == "ok"
    # The busy COMMIT was rolled back before the retry.
    assert connection.calls.count("ROLLBACK") == 1
    assert connection.calls.count("BEGIN IMMEDIATE") == 2


def test_run_immediate_exhausts_retries_and_raises_error_type():
    connection = _ScriptedConnection({"BEGIN": [_busy() for _ in range(3)]})
    retries = []
    with pytest.raises(
        BoomError, match=r"scripted: database busy after 3 attempts"
    ) as excinfo:
        sqlite_util.run_immediate(
            connection,
            lambda conn: "ok",
            error=BoomError,
            subject="scripted",
            retries=2,
            on_busy_retry=lambda: retries.append(1),
        )
    assert len(retries) == 2
    assert isinstance(excinfo.value.__cause__, sqlite3.OperationalError)


def test_run_immediate_cross_connection_contention(tmp_path):
    """A real writer holding the lock past busy_timeout is retried."""
    path = str(tmp_path / "db.sqlite")
    setup = sqlite_util.connect_wal(path)
    setup.execute("CREATE TABLE t (v INTEGER)")
    setup.close()

    blocker = sqlite_util.connect_wal(path, busy_timeout=0.001)
    writer = sqlite_util.connect_wal(path, busy_timeout=0.001)
    try:
        blocker.execute("BEGIN IMMEDIATE")
        blocker.execute("INSERT INTO t VALUES (1)")
        release = threading.Timer(
            0.05, lambda: blocker.execute("COMMIT")
        )
        release.start()
        retries = []
        result = sqlite_util.run_immediate(
            writer,
            lambda conn: conn.execute(
                "INSERT INTO t VALUES (2)"
            ).rowcount,
            error=BoomError,
            subject="writer",
            on_busy_retry=lambda: retries.append(1),
        )
        release.join()
        assert result == 1
        assert retries  # at least one busy retry happened
        rows = writer.execute("SELECT v FROM t ORDER BY v").fetchall()
        assert rows == [(1,), (2,)]
    finally:
        writer.close()
        blocker.close()


# --- decide_lease_epoch ---------------------------------------------------


def test_decide_lease_epoch_new():
    assert sqlite_util.decide_lease_epoch(None, "w1", 100.0) == ("new", 1)


def test_decide_lease_epoch_refresh_same_owner_keeps_epoch():
    held = ("w1", 4, 50.0)  # expired, but it's our own lease
    assert sqlite_util.decide_lease_epoch(held, "w1", 100.0) == (
        "refresh",
        4,
    )
    live = ("w1", 4, 200.0)
    assert sqlite_util.decide_lease_epoch(live, "w1", 100.0) == (
        "refresh",
        4,
    )


def test_decide_lease_epoch_takeover_bumps_epoch():
    held = ("w1", 4, 99.0)
    assert sqlite_util.decide_lease_epoch(held, "w2", 100.0) == (
        "takeover",
        5,
    )
    # Boundary: expires_at == now counts as expired.
    assert sqlite_util.decide_lease_epoch(
        ("w1", 4, 100.0), "w2", 100.0
    ) == ("takeover", 5)


def test_decide_lease_epoch_deny_live_foreign_lease():
    held = ("w1", 4, 101.0)
    assert sqlite_util.decide_lease_epoch(held, "w2", 100.0) == (
        "deny",
        4,
    )


def test_epoch_monotonicity_across_release_and_reacquire():
    """The release-in-place convention keeps epochs monotonic."""
    now = 100.0
    decision, epoch = sqlite_util.decide_lease_epoch(None, "w1", now)
    assert (decision, epoch) == ("new", 1)
    # w1 releases: row kept with expires_at = 0.0.
    released = ("w1", epoch, 0.0)
    decision, epoch2 = sqlite_util.decide_lease_epoch(released, "w2", now)
    assert (decision, epoch2) == ("takeover", 2)
    assert epoch2 > epoch
