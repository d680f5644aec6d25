"""The store's per-session lease protocol (PR 7).

The fleet's correctness rests on three store-level properties, tested
here on the SQLite store (file and in-memory databases) without any
subprocess machinery:

* **Mutual exclusion with takeover** — one unexpired lease per session;
  an expired lease is claimable by anyone, and a takeover bumps the
  fencing epoch.
* **Fencing** — journal writes stamped with a deposed ``(owner,
  epoch)`` raise :class:`LeaseFenced` and commit nothing, so a
  SIGKILLed worker's late flush can never corrupt its successor's
  journal.
* **Busy tolerance** — the store retries transiently locked
  transactions (N processes share one WAL file) instead of surfacing
  ``SQLITE_BUSY`` to the serving layer.

On top sit the manager-level behaviours: sessions acquire their lease
on create, heartbeat it, release it on demote, and a manager whose
lease was taken over shreds its copy of the session without touching
the new owner's data.
"""

from __future__ import annotations

import asyncio
import sqlite3
import threading
import time

import pytest

from repro.service import (
    Conflict,
    LeaseFenced,
    ServiceApp,
    SqliteSessionStore,
    StoreError,
)

from .test_store import (
    BACKENDS,
    BiasedCoin,
    _PrefixedOracle,
    boundary_instance,
    checkpoint_payload,
    drive,
    inline_spec,
    make_manager,
    reference_sequence,
)

TTL = 30.0  # long: these tests drive expiry explicitly, not by waiting


# --- lease contract (both store configurations) ------------------------------


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestLeaseContract:
    def test_first_acquire_grants_epoch_one(self, backend, tmp_path):
        store = BACKENDS[backend](tmp_path)
        lease = store.acquire_lease("s1", "a", TTL)
        assert lease is not None
        assert (lease.owner, lease.epoch) == ("a", 1)
        assert not lease.expired()
        assert store.lease_of("s1").epoch == 1
        store.close()

    def test_reacquire_by_holder_keeps_epoch(self, backend, tmp_path):
        store = BACKENDS[backend](tmp_path)
        store.acquire_lease("s1", "a", TTL)
        again = store.acquire_lease("s1", "a", TTL)
        assert (again.owner, again.epoch) == ("a", 1)
        store.close()

    def test_unexpired_foreign_lease_denies(self, backend, tmp_path):
        store = BACKENDS[backend](tmp_path)
        store.acquire_lease("s1", "a", TTL)
        assert store.acquire_lease("s1", "b", TTL) is None
        assert store.stats()["lease_denied"] == 1
        store.close()

    def test_expired_lease_takeover_bumps_epoch(self, backend, tmp_path):
        store = BACKENDS[backend](tmp_path)
        store.acquire_lease("s1", "a", 0.01)
        time.sleep(0.02)
        taken = store.acquire_lease("s1", "b", TTL)
        assert (taken.owner, taken.epoch) == ("b", 2)
        assert store.stats()["lease_takeovers"] == 1
        store.close()

    def test_renew_extends_only_exact_owner_epoch(self, backend, tmp_path):
        store = BACKENDS[backend](tmp_path)
        store.acquire_lease("s1", "a", TTL)
        before = store.lease_of("s1").expires_at
        time.sleep(0.01)
        assert store.renew_lease("s1", "a", 1, TTL)
        assert store.lease_of("s1").expires_at > before
        assert not store.renew_lease("s1", "b", 1, TTL)
        assert not store.renew_lease("s1", "a", 2, TTL)
        assert not store.renew_lease("ghost", "a", 1, TTL)
        store.close()

    def test_release_expires_in_place(self, backend, tmp_path):
        store = BACKENDS[backend](tmp_path)
        store.acquire_lease("s1", "a", TTL)
        assert not store.release_lease("s1", "b", 1)
        assert not store.release_lease("s1", "a", 9)
        assert store.release_lease("s1", "a", 1)
        # The row stays, expired, so the epoch keeps counting: the
        # next acquire is a takeover past every write "a" ever fenced.
        released = store.lease_of("s1")
        assert released is not None and released.expired()
        assert store.acquire_lease("s1", "b", TTL).epoch == 2
        store.close()

    def test_fenced_write_round_trip(self, backend, tmp_path):
        store = BACKENDS[backend](tmp_path)
        lease = store.acquire_lease("s1", "a", TTL)
        fence = (lease.owner, lease.epoch)
        store.put_checkpoint("s1", checkpoint_payload([]), 0, fence=fence)
        store.append_answers("s1", [(1, 4, "-")], fence=fence)
        assert store.load("s1").journal_seq == 1
        store.close()

    def test_deposed_fence_rejected_and_commits_nothing(
        self, backend, tmp_path
    ):
        store = BACKENDS[backend](tmp_path)
        store.acquire_lease("s1", "a", 0.01)
        store.put_checkpoint("s1", checkpoint_payload([]), 0, fence=("a", 1))
        time.sleep(0.02)
        store.acquire_lease("s1", "b", TTL)  # epoch 2
        with pytest.raises(LeaseFenced):
            store.append_answers("s1", [(1, 4, "-")], fence=("a", 1))
        with pytest.raises(LeaseFenced):
            store.put_checkpoint(
                "s1", checkpoint_payload([(4, "-")]), 1, fence=("a", 1)
            )
        # The dead owner's late flush left no trace.
        stored = store.load("s1")
        assert stored.journal_seq == 0
        assert stored.payload["labeled"] == []
        assert store.stats()["fenced_writes"] == 2
        store.close()

    def test_fence_without_any_lease_rejected(self, backend, tmp_path):
        store = BACKENDS[backend](tmp_path)
        with pytest.raises(LeaseFenced):
            store.put_checkpoint(
                "s1", checkpoint_payload([]), 0, fence=("a", 1)
            )
        store.close()

    def test_expired_but_untaken_fence_still_writes(self, backend, tmp_path):
        # Expiry alone doesn't depose: until someone else takes the
        # lease over, the (owner, epoch) pair is still current and the
        # owner's writes remain the newest truth.
        store = BACKENDS[backend](tmp_path)
        store.acquire_lease("s1", "a", 0.01)
        store.put_checkpoint("s1", checkpoint_payload([]), 0, fence=("a", 1))
        time.sleep(0.02)
        store.append_answers("s1", [(1, 4, "-")], fence=("a", 1))
        assert store.load("s1").journal_seq == 1
        store.close()

    def test_delete_clears_lease(self, backend, tmp_path):
        store = BACKENDS[backend](tmp_path)
        store.acquire_lease("s1", "a", TTL)
        store.put_checkpoint("s1", checkpoint_payload([]), 0)
        store.delete("s1")
        assert store.lease_of("s1") is None
        # With the lease row gone the epoch restarts — correct, since
        # the journal it fenced is gone too.
        assert store.acquire_lease("s1", "b", TTL).epoch == 1
        store.close()

    def test_stats_count_unexpired_leases(self, backend, tmp_path):
        store = BACKENDS[backend](tmp_path)
        store.acquire_lease("s1", "a", TTL)
        store.acquire_lease("s2", "a", 0.01)
        time.sleep(0.02)
        assert store.stats()["leases"] == 1
        store.close()


# --- SQLite busy handling ----------------------------------------------------


class TestSqliteBusyRetry:
    def _hold_lock(self, path: str, seconds: float) -> threading.Thread:
        """Hold a write transaction on ``path`` from a second
        connection for ``seconds`` — what a sibling worker's in-flight
        commit looks like."""
        ready = threading.Event()

        def hold() -> None:
            blocker = sqlite3.connect(path)
            blocker.execute("BEGIN IMMEDIATE")
            ready.set()
            time.sleep(seconds)
            blocker.rollback()
            blocker.close()

        thread = threading.Thread(target=hold, daemon=True)
        thread.start()
        ready.wait(timeout=5)
        return thread

    def test_transient_lock_is_retried(self, tmp_path):
        path = str(tmp_path / "s.db")
        store = SqliteSessionStore(path, busy_timeout=0.05)
        thread = self._hold_lock(path, 0.3)
        store.put_checkpoint("s1", checkpoint_payload([]), 0)
        thread.join()
        assert store.load("s1") is not None
        assert store.stats()["busy_retries"] >= 1
        store.close()

    def test_persistent_lock_raises_store_error(self, tmp_path):
        path = str(tmp_path / "s.db")
        store = SqliteSessionStore(path, busy_timeout=0.01)
        thread = self._hold_lock(path, 30.0)
        with pytest.raises(StoreError, match="busy"):
            store.put_checkpoint("s1", checkpoint_payload([]), 0)
        store.close()
        del thread  # daemon; rolls back on its own

    def test_busy_timeout_pragma_applied(self, tmp_path):
        store = SqliteSessionStore(
            str(tmp_path / "s.db"), busy_timeout=1.5
        )
        (value,) = store._connection.execute(
            "PRAGMA busy_timeout"
        ).fetchone()
        assert value == 1500
        store.close()


# --- manager-level lease behaviour -------------------------------------------


def leased_manager(store, owner, **kwargs):
    kwargs.setdefault("lease_ttl_seconds", 0.4)
    return make_manager(store=store, owner_id=owner, **kwargs)


#: Every store method a leasing manager calls.
_STORE_CALLS = (
    "put_checkpoint",
    "append_answers",
    "acquire_lease",
    "renew_lease",
    "release_lease",
    "load",
    "delete",
    "session_ids",
    "__contains__",
    "stats",
)


class RecordingStore(SqliteSessionStore):
    """Records ``(method, thread name)`` for every call in
    ``_STORE_CALLS``."""

    def __init__(self, path):
        super().__init__(path)
        self.calls: list[tuple[str, str]] = []


def _recorded(name):
    def call(self, *args, **kwargs):
        self.calls.append((name, threading.current_thread().name))
        return getattr(SqliteSessionStore, name)(self, *args, **kwargs)

    return call


for _name in _STORE_CALLS:
    setattr(RecordingStore, _name, _recorded(_name))


class TestManagerLeasing:
    def test_create_acquires_and_demote_releases(self, tmp_path):
        store = SqliteSessionStore(str(tmp_path / "s.db"))
        manager = leased_manager(store, "w0g1")
        managed = asyncio.run(
            manager.create_async(
                inline_spec(boundary_instance(2, 2, rows=4, seed=1))
            )
        )
        drive(manager, managed, BiasedCoin(1), limit=2)
        manager.flush_store()
        lease = store.lease_of(managed.session_id)
        assert (lease.owner, lease.epoch) == ("w0g1", 1)
        assert not lease.expired()
        stats = manager.stats()["store"]["lease"]
        assert stats["owner"] == "w0g1"
        assert stats["held"] == 1

        manager.demote(managed.session_id)
        manager.flush_store()
        released = store.lease_of(managed.session_id)
        assert released.expired()
        manager.close(wait=True)
        store.close()

    def test_demote_before_the_acquire_commits_releases_the_lease(
        self, tmp_path
    ):
        """A demote that lands before the writer has run the session's
        lease acquire (an eviction or a drain right after a create)
        still hands the lease back, so a successor need not wait out
        the TTL."""
        store = SqliteSessionStore(str(tmp_path / "s.db"))
        manager = leased_manager(store, "w0", lease_ttl_seconds=TTL)
        writer_free = threading.Event()
        manager._store_executor.submit(writer_free.wait, 10)
        try:
            managed = asyncio.run(
                manager.create_async(
                    inline_spec(boundary_instance(2, 2, rows=4, seed=6))
                )
            )
            manager.demote(managed.session_id)
        finally:
            writer_free.set()
        manager.flush_store()
        lease = store.lease_of(managed.session_id)
        assert (lease.owner, lease.epoch) == ("w0", 1)
        assert lease.expired()
        manager.close(wait=True)
        store.close()

    def test_every_store_call_runs_on_the_writer(self, tmp_path):
        """Outside the heartbeat's renewals, the manager calls its store
        only from its writer thread: the one store order every load,
        probe and count is read in."""
        store = RecordingStore(str(tmp_path / "s.db"))
        manager = leased_manager(store, "w0", lease_ttl_seconds=0.3)

        async def scenario():
            managed = await manager.create_async(
                inline_spec(boundary_instance(2, 2, rows=5, seed=7), "BU")
            )
            sid = managed.session_id
            drive(manager, managed, BiasedCoin(2), limit=2)
            manager.demote(sid)
            rehydrated = await manager.get_async(sid)
            drive(manager, rehydrated, BiasedCoin(3), limit=1)
            await asyncio.sleep(0.25)  # the heartbeat renews meanwhile
            manager.demote(sid)
            await manager.delete_async(sid)
            counts = await manager.session_counts_async()
            stats = await manager.stats_async()
            return counts, stats

        counts, stats = asyncio.run(scenario())
        manager.close(wait=True)
        assert counts == {"live": 0, "demoted": 0, "recoverable": 0}
        assert stats["store"]["journal_appends"] == 3
        assert {name for name, _ in store.calls} == set(_STORE_CALLS)
        strays = [
            (name, thread)
            for name, thread in store.calls
            if not thread.startswith(
                "lease-heartbeat" if name == "renew_lease" else "session-store"
            )
        ]
        assert strays == []
        store.close()

    def test_takeover_wait_holds_no_pool_thread(self, tmp_path):
        """Sessions waiting out a dead owner's lease sleep on the event
        loop between acquire attempts: request preprocessing (CSV
        parsing, fingerprints, plan-cache probes) keeps its pool."""
        store = SqliteSessionStore(str(tmp_path / "s.db"))
        dead = leased_manager(store, "w0", lease_ttl_seconds=1.5)
        sids = [
            asyncio.run(
                dead.create_async(
                    inline_spec(boundary_instance(2, 2, rows=4, seed=seed))
                )
            ).session_id
            for seed in (8, 9)
        ]
        dead.flush_store()
        dead.close(wait=True)  # its leases stand until they expire
        survivor = leased_manager(store, "w1", lease_ttl_seconds=1.5)

        async def scenario():
            touches = [
                asyncio.ensure_future(survivor.get_async(sid))
                for sid in sids
            ]
            await asyncio.sleep(0.2)  # both takeovers are waiting
            queued = time.monotonic()
            ran = await survivor.offload(time.monotonic)
            recovered = await asyncio.gather(*touches)
            return ran - queued, recovered

        waited, recovered = asyncio.run(scenario())
        assert waited < 0.5
        assert [managed.session_id for managed in recovered] == sids
        assert [store.lease_of(sid).epoch for sid in sids] == [2, 2]
        survivor.close(wait=True)
        store.close()

    def test_heartbeat_keeps_lease_alive(self, tmp_path):
        store = SqliteSessionStore(str(tmp_path / "s.db"))
        manager = leased_manager(store, "w0g1", lease_ttl_seconds=0.3)
        managed = asyncio.run(
            manager.create_async(
                inline_spec(boundary_instance(2, 2, rows=4, seed=2))
            )
        )
        drive(manager, managed, BiasedCoin(1), limit=1)
        manager.flush_store()
        time.sleep(0.9)  # several TTLs; the heartbeat must carry it
        lease = store.lease_of(managed.session_id)
        assert lease is not None and not lease.expired()
        manager.close(wait=True)
        store.close()

    def test_fenced_flush_sheds_session_without_touching_store(
        self, tmp_path
    ):
        store = SqliteSessionStore(str(tmp_path / "s.db"))
        manager = leased_manager(store, "w0g1")
        managed = asyncio.run(
            manager.create_async(
                inline_spec(boundary_instance(2, 2, rows=5, seed=3))
            )
        )
        sid = managed.session_id
        drive(manager, managed, BiasedCoin(1), limit=2)
        manager.flush_store()

        # Depose the manager: release as it would on demote, then let
        # an "intruder" take the session over (epoch 2).
        assert store.release_lease(sid, "w0g1", 1)
        intruder = store.acquire_lease(sid, "intruder", TTL)
        assert intruder.epoch == 2
        before = store.load(sid)

        # The deposed manager keeps serving until its next flush...
        drive(manager, managed, BiasedCoin(2), limit=2)
        manager.flush_store()
        # ...which is fenced: its copy is shed, the intruder's journal
        # is untouched, and the next touch routes to the store — where
        # the intruder's unexpired lease makes it a 409.
        assert manager.stats()["store"]["lease"]["fenced_writes"] >= 1
        after = store.load(sid)
        assert after.journal_seq == before.journal_seq
        assert store.lease_of(sid).owner == "intruder"
        with pytest.raises(Conflict):
            asyncio.run(manager.get_async(sid))
        manager.close(wait=True)
        store.close()

    def test_answer_drained_after_release_stays_fenced(self, tmp_path):
        """An answer that waited for the session lock while a control
        demote released the lease is journaled behind the release.  It
        must still carry the released ``(owner, epoch)`` fence: here a
        successor takes the lease over (epoch 2) and journals the same
        question first, so the deposed owner's late append is fenced
        out and the successor's row survives."""

        class ParkingStore(SqliteSessionStore):
            """Parks the writer thread inside ``release_lease``, after
            the release has committed, until the test lets it go."""

            def __init__(self, path):
                super().__init__(path)
                self.parked = threading.Event()
                self.resume = threading.Event()

            def release_lease(self, session_id, owner, epoch):
                released = super().release_lease(session_id, owner, epoch)
                self.parked.set()
                self.resume.wait(timeout=10)
                return released

        store = ParkingStore(str(tmp_path / "s.db"))
        manager = leased_manager(store, "w0")
        app = ServiceApp(manager)

        async def scenario():
            managed = await manager.create_async(
                inline_spec(boundary_instance(2, 2, rows=4, seed=5))
            )
            sid = managed.session_id
            question = await manager.propose_question_async(managed)
            await manager.offload(manager.flush_store)  # lease at epoch 1
            await managed.lock.acquire()  # another request is mid-round
            answer = asyncio.ensure_future(
                app.dispatch(
                    "POST",
                    f"/sessions/{sid}/answer",
                    {"question_id": question.question_id, "label": "+"},
                )
            )
            await asyncio.sleep(0.05)  # the answer now waits on the lock
            manager.demote(sid)  # what POST /control/demote runs
            while not store.parked.is_set():
                await asyncio.sleep(0.01)
            managed.lock.release()
            status, _ = await answer
            assert status == 200
            successor = store.acquire_lease(sid, "w1", TTL)
            assert successor.epoch == 2
            store.append_answers(
                sid, [(1, question.class_id, "-")], fence=("w1", 2)
            )
            store.resume.set()
            await manager.offload(manager.flush_store)
            return sid, question.class_id

        sid, class_id = asyncio.run(scenario())
        assert store.load(sid).payload["labeled"] == [[class_id, "-"]]
        assert manager.stats()["store"]["lease"]["fenced_writes"] == 1
        manager.close(wait=True)
        store.close()

    def test_takeover_resumes_identical_sequence(self, tmp_path):
        """In-process twin of the fleet acceptance test: worker A
        'crashes' (heartbeat stopped, never drains), worker B takes
        the session over after the TTL and finishes it bit-for-bit."""
        instance = boundary_instance(3, 3, rows=6, seed=4)
        cut = 4
        expected, expected_predicate = reference_sequence(
            instance, "L2S", 11, _PrefixedOracle(cut, seed=9)
        )
        assert len(expected) > cut

        store = SqliteSessionStore(str(tmp_path / "s.db"))
        worker_a = leased_manager(
            store, "w0g1", lease_ttl_seconds=0.3, checkpoint_every=3
        )
        managed = asyncio.run(
            worker_a.create_async(inline_spec(instance, "L2S", seed=11))
        )
        sid = managed.session_id
        prefix = drive(
            worker_a, managed, _PrefixedOracle(cut, seed=9), limit=cut
        )
        worker_a.flush_store()
        # Crash: stop the heartbeat, abandon the manager mid-session.
        worker_a._heartbeat_stop.set()

        worker_b = leased_manager(store, "w1g2", lease_ttl_seconds=0.3)
        # waits out A's lease, epoch 2
        recovered = asyncio.run(worker_b.get_async(sid))
        assert store.lease_of(sid).owner == "w1g2"
        assert store.lease_of(sid).epoch == 2
        suffix = drive(worker_b, recovered, _PrefixedOracle(0, seed=9))
        assert prefix + suffix == expected
        assert (
            recovered.session.current_predicate() == expected_predicate
        )
        worker_b.close(wait=True)
        worker_a.close(wait=True)
        store.close()
