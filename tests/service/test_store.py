"""Durable session storage: backends, journaling, demote/rehydrate,
and kill-the-process crash recovery.

The acceptance scenario: a session with ≥ 10 recorded answers in the
SQLite store survives ``kill -9`` of its hosting process, and the
recovered session proposes the **identical remaining question
sequence** as an uninterrupted in-process run — for every serving
strategy (RND/BU/TD/L1S/L2S/L3S/IG) across the packed-word boundary
Ω ∈ {63, 64, 65}.  (OPT's exponential solver needs ≈ a minute per
session at the 16-class floor a ≥ 10-answer session requires, so the
kill matrix excludes it; its store path — identical stateless-strategy
serialisation — is covered by the every-strategy reopen-recovery test
on tiny instances below.)
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import (
    InferenceSession,
    Label,
    SignatureIndex,
    strategy_by_name,
)
from repro.core.serialize import instance_to_dict, snapshot_payload
from repro.service import (
    BadRequest,
    IndexCache,
    NotFound,
    ServiceApp,
    ServiceClient,
    ServiceServer,
    SessionManager,
    SqliteSessionStore,
    StoreError,
)
from repro.service.protocol import CreateSpec

from ..conftest import make_random_instance

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


# --- helpers -----------------------------------------------------------------


def make_manager(**kwargs):
    kwargs.setdefault("index_cache", IndexCache())
    kwargs.setdefault("speculate", False)
    return SessionManager(**kwargs)


def boundary_instance(left_arity, right_arity, rows=6, seed=None):
    """A random instance with Ω = left_arity * right_arity attribute
    pairs (63/64/65 for the parametrised arities below)."""
    rng = random.Random(
        seed if seed is not None else left_arity * right_arity
    )
    return make_random_instance(
        rng,
        left_arity=left_arity,
        right_arity=right_arity,
        rows=rows,
        values=3,
    )


def inline_spec(instance, strategy="TD", seed=5):
    return CreateSpec(
        {"inline": instance_to_dict(instance)},
        instance,
        strategy_by_name(strategy).name,
        seed,
        None,
    )


class BiasedCoin:
    """Mostly-negative seeded answers — long sessions, both polarities."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def label(self, tuple_pair) -> Label:
        if self._rng.random() < 0.12:
            return Label.POSITIVE
        return Label.NEGATIVE


def drive(manager, managed, oracle, limit=None):
    """Answer questions via the manager until Γ (or ``limit`` answers);
    returns the asked class ids."""
    asked = []
    while limit is None or len(asked) < limit:
        question = manager.propose_question(managed)
        if question is None:
            break
        asked.append(question.class_id)
        manager.record_answer(
            managed, question.question_id, oracle.label(question.tuple_pair)
        )
    return asked


def reference_sequence(instance, strategy, seed, oracle):
    """The uninterrupted in-process question sequence and predicate."""
    session = InferenceSession(
        instance,
        strategy_by_name(strategy),
        index=SignatureIndex(instance),
        seed=seed,
    )
    asked = []
    while not session.is_finished():
        question = session.propose()
        asked.append(question.class_id)
        session.answer(
            question.question_id, oracle.label(question.tuple_pair)
        )
    return asked, session.current_predicate()


# --- store configurations ----------------------------------------------------


#: The store contract on a WAL database file and on SQLite's in-memory
#: database (no file, no WAL: ``journal_mode`` stays ``memory``).
BACKENDS = {
    "memory": lambda tmp_path: SqliteSessionStore(":memory:"),
    "sqlite": lambda tmp_path: SqliteSessionStore(
        str(tmp_path / "sessions.db")
    ),
}


def checkpoint_payload(labeled):
    """A minimal well-formed snapshot payload with these labels."""
    return {
        "kind": "session_snapshot",
        "version": 1,
        "instance": {"builtin": {"name": "x", "seed": 0, "scale": 1.0}},
        "strategy": "TD",
        "seed": 0,
        "max_questions": None,
        "labeled": [list(pair) for pair in labeled],
    }


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestStoreContract:
    def test_checkpoint_and_tail_merge(self, backend, tmp_path):
        store = BACKENDS[backend](tmp_path)
        store.put_checkpoint("s1", checkpoint_payload([(3, "+")]), 1)
        store.append_answers("s1", [(2, 7, "-"), (3, 9, "+")])
        stored = store.load("s1")
        assert stored.payload["labeled"] == [[3, "+"], [7, "-"], [9, "+"]]
        assert stored.checkpoint_seq == 1
        assert stored.journal_seq == 3
        assert "s1" in store
        assert store.load("nope") is None
        assert "nope" not in store
        store.close()

    def test_checkpoint_supersedes_journal(self, backend, tmp_path):
        store = BACKENDS[backend](tmp_path)
        store.put_checkpoint("s1", checkpoint_payload([]), 0)
        store.append_answers("s1", [(1, 4, "-"), (2, 5, "-")])
        store.put_checkpoint(
            "s1", checkpoint_payload([(4, "-"), (5, "-")]), 2
        )
        stored = store.load("s1")
        assert stored.checkpoint_seq == 2
        assert stored.journal_seq == 2
        assert stored.payload["labeled"] == [[4, "-"], [5, "-"]]
        store.close()

    def test_append_without_checkpoint_rejected(self, backend, tmp_path):
        store = BACKENDS[backend](tmp_path)
        with pytest.raises(StoreError):
            store.append_answers("ghost", [(1, 0, "-")])
        store.close()

    def test_journal_gap_is_corruption(self, backend, tmp_path):
        store = BACKENDS[backend](tmp_path)
        store.put_checkpoint("s1", checkpoint_payload([]), 0)
        store.append_answers("s1", [(1, 4, "-"), (3, 5, "-")])
        with pytest.raises(StoreError):
            store.load("s1")
        store.close()

    def test_delete_is_idempotent(self, backend, tmp_path):
        store = BACKENDS[backend](tmp_path)
        store.put_checkpoint("s1", checkpoint_payload([]), 0)
        store.delete("s1")
        store.delete("s1")
        assert store.load("s1") is None
        assert store.session_ids() == []
        store.close()

    def test_session_ids_oldest_first(self, backend, tmp_path):
        store = BACKENDS[backend](tmp_path)
        for name in ("a", "b", "c"):
            store.put_checkpoint(name, checkpoint_payload([]), 0)
        assert store.session_ids() == ["a", "b", "c"]
        store.close()


class TestSqliteDurability:
    def test_wal_mode_active(self, tmp_path):
        store = SqliteSessionStore(str(tmp_path / "s.db"))
        (mode,) = store._connection.execute(
            "PRAGMA journal_mode"
        ).fetchone()
        assert mode.lower() == "wal"
        store.close()

    def test_reopen_sees_committed_state(self, tmp_path):
        path = str(tmp_path / "s.db")
        first = SqliteSessionStore(path)
        first.put_checkpoint("s1", checkpoint_payload([]), 0)
        first.append_answers("s1", [(1, 2, "-")])
        # No close(): simulate the writing process dying uncleanly.
        second = SqliteSessionStore(path)
        stored = second.load("s1")
        assert stored.journal_seq == 1
        assert stored.payload["labeled"] == [[2, "-"]]
        first.close()
        second.close()

    def test_closed_store_raises(self, tmp_path):
        store = SqliteSessionStore(str(tmp_path / "s.db"))
        store.close()
        store.close()  # idempotent
        with pytest.raises(StoreError):
            store.load("s1")


# --- manager journaling ------------------------------------------------------


class TestManagerJournaling:
    def test_answers_journal_and_checkpoint_on_cadence(self, tmp_path):
        store = SqliteSessionStore(str(tmp_path / "s.db"))
        manager = make_manager(store=store, checkpoint_every=2)
        instance = boundary_instance(2, 2, rows=5, seed=1)
        managed = asyncio.run(
            manager.create_async(inline_spec(instance, "BU"))
        )
        asked = drive(manager, managed, BiasedCoin(3), limit=5)
        assert len(asked) == 5
        manager.flush_store()
        stored = store.load(managed.session_id)
        assert stored.journal_seq == 5
        # cadence 2 → checkpoints at 2 and 4; the tail carries answer 5
        assert stored.checkpoint_seq == 4
        assert len(stored.payload["labeled"]) == 5
        assert managed.durable
        manager.close(wait=True)
        store.close()

    def test_unseeded_sessions_stay_non_durable(self, tmp_path):
        store = SqliteSessionStore(str(tmp_path / "s.db"))
        manager = make_manager(store=store)
        instance = boundary_instance(2, 2, rows=4, seed=2)
        managed = asyncio.run(
            manager.create_async(
                CreateSpec(
                    {"inline": instance_to_dict(instance)},
                    instance, "TD", None, None,
                )
            )
        )
        assert not managed.durable
        manager.flush_store()
        assert store.load(managed.session_id) is None
        with pytest.raises(BadRequest):
            manager.demote(managed.session_id)
        manager.close(wait=True)
        store.close()

    def test_delete_forgets_durable_state(self, tmp_path):
        store = SqliteSessionStore(str(tmp_path / "s.db"))
        manager = make_manager(store=store)
        managed = asyncio.run(
            manager.create_async(
                inline_spec(boundary_instance(2, 2, rows=4, seed=3))
            )
        )
        drive(manager, managed, BiasedCoin(1), limit=2)
        manager.flush_store()
        assert managed.session_id in store
        asyncio.run(manager.delete_async(managed.session_id))
        manager.close(wait=True)  # waits out the queued store delete
        assert managed.session_id not in store
        with pytest.raises(NotFound):
            asyncio.run(manager.get_async(managed.session_id))
        manager.close(wait=True)  # the lookup's store read reopened a pool
        store.close()

    def test_delete_of_demoted_session_skips_rehydration(self, tmp_path):
        store = SqliteSessionStore(str(tmp_path / "s.db"))
        manager = make_manager(store=store)
        managed = asyncio.run(
            manager.create_async(
                inline_spec(boundary_instance(2, 2, rows=4, seed=4))
            )
        )
        manager.demote(managed.session_id)
        asyncio.run(manager.delete_async(managed.session_id))
        counts = asyncio.run(manager.session_counts_async())
        manager.close(wait=True)
        assert managed.session_id not in store
        assert counts["demoted"] == 0
        store.close()


# --- demote / rehydrate ------------------------------------------------------


class TestDemoteRehydrate:
    def test_ttl_eviction_demotes_and_touch_rehydrates(self, tmp_path):
        now = [0.0]
        store = SqliteSessionStore(str(tmp_path / "s.db"))
        manager = make_manager(
            store=store, ttl_seconds=10.0, clock=lambda: now[0]
        )
        instance = boundary_instance(2, 3, rows=6, seed=5)
        managed = asyncio.run(
            manager.create_async(inline_spec(instance, "L2S", seed=11))
        )
        oracle = BiasedCoin(7)
        prefix = drive(manager, managed, oracle, limit=4)
        original_id = managed.session_id

        now[0] = 25.0
        assert manager.sweep() == [original_id]
        counts = asyncio.run(manager.session_counts_async())
        assert counts == {"live": 0, "demoted": 1, "recoverable": 1}
        assert manager.stats()["expired_total"] == 0  # demoted, not lost

        rehydrated = asyncio.run(manager.get_async(original_id))
        assert rehydrated.session_id == original_id
        assert rehydrated.durable
        assert rehydrated.session.state.interaction_count == 4
        remaining = drive(manager, rehydrated, oracle)
        expected, predicate = reference_sequence(
            instance, "L2S", 11, BiasedCoin(7)
        )
        assert prefix + remaining == expected
        assert rehydrated.session.current_predicate() == predicate
        assert asyncio.run(manager.session_counts_async())["demoted"] == 0
        manager.close(wait=True)
        store.close()

    def test_capacity_eviction_demotes_lru_instead_of_429(self, tmp_path):
        now = [0.0]
        store = SqliteSessionStore(str(tmp_path / "s.db"))
        manager = make_manager(
            store=store, max_sessions=2, clock=lambda: now[0]
        )
        a = asyncio.run(
            manager.create_async(
                inline_spec(boundary_instance(2, 2, rows=4, seed=6))
            )
        )
        now[0] = 1.0
        b = asyncio.run(
            manager.create_async(
                inline_spec(boundary_instance(2, 2, rows=4, seed=7))
            )
        )
        now[0] = 2.0
        # touch: b becomes the LRU
        asyncio.run(manager.get_async(a.session_id))
        now[0] = 3.0
        c = asyncio.run(
            manager.create_async(
                inline_spec(boundary_instance(2, 2, rows=4, seed=8))
            )
        )
        live = {m.session_id for m in manager.list_sessions()}
        assert live == {a.session_id, c.session_id}
        counts = asyncio.run(manager.session_counts_async())
        assert counts["live"] == 2 and counts["demoted"] == 1
        # the demoted LRU is still reachable — rehydrating it demotes
        # the new LRU in turn
        rehydrated = asyncio.run(manager.get_async(b.session_id))
        assert rehydrated.session_id == b.session_id
        assert len(manager) == 2
        manager.close(wait=True)
        store.close()

    def test_rehydrate_with_zero_recorded_answers(self, tmp_path):
        """The create record alone (checkpoint at 0 answers) is enough
        to recover a session the user never answered."""
        path = str(tmp_path / "s.db")
        store = SqliteSessionStore(path)
        manager = make_manager(store=store)
        instance = boundary_instance(2, 2, rows=4, seed=12)
        managed = asyncio.run(
            manager.create_async(inline_spec(instance, "L1S", seed=21))
        )
        manager.flush_store()
        store2 = SqliteSessionStore(path)
        second = make_manager(store=store2)
        recovered = asyncio.run(second.get_async(managed.session_id))
        assert recovered.session.state.interaction_count == 0
        oracle = BiasedCoin(5)
        first = recovered.session.propose()
        twin = InferenceSession(
            instance,
            strategy_by_name("L1S"),
            index=SignatureIndex(instance),
            seed=21,
        )
        assert first.class_id == twin.propose().class_id
        manager.close(wait=True)
        second.close(wait=True)
        store.close()
        store2.close()

    def test_rehydrate_after_final_answer(self, tmp_path):
        """A session demoted *after* reaching equivalence recovers as
        finished: no question, predicate intact."""
        store = SqliteSessionStore(str(tmp_path / "s.db"))
        manager = make_manager(store=store)
        instance = boundary_instance(2, 2, rows=4, seed=13)
        managed = asyncio.run(
            manager.create_async(inline_spec(instance, "BU", seed=2))
        )
        drive(manager, managed, BiasedCoin(9))  # to Γ
        predicate = managed.session.current_predicate()
        total = managed.session.state.interaction_count
        manager.demote(managed.session_id)
        recovered = asyncio.run(manager.get_async(managed.session_id))
        assert recovered.session.is_finished()
        assert manager.propose_question(recovered) is None
        assert recovered.session.state.interaction_count == total
        assert recovered.session.current_predicate() == predicate
        manager.close(wait=True)
        store.close()

    def test_rehydrated_session_keeps_journaling(self, tmp_path):
        path = str(tmp_path / "s.db")
        store = SqliteSessionStore(path)
        manager = make_manager(store=store, checkpoint_every=100)
        instance = boundary_instance(2, 3, rows=6, seed=9)
        managed = asyncio.run(
            manager.create_async(inline_spec(instance, "TD", seed=2))
        )
        oracle = BiasedCoin(11)
        drive(manager, managed, oracle, limit=3)
        manager.demote(managed.session_id)
        rehydrated = asyncio.run(manager.get_async(managed.session_id))
        drive(manager, rehydrated, oracle, limit=2)
        manager.flush_store()
        stored = store.load(managed.session_id)
        assert stored.journal_seq == 5
        assert len(stored.payload["labeled"]) == 5
        manager.close(wait=True)
        store.close()


    def test_touch_at_ttl_expiry_revives_durable_in_place(self, tmp_path):
        """Touching IS the TTL reset: a durable session whose toucher
        races the sweep must not be demoted and immediately rehydrated
        (which would drop the pending question and 409 the in-flight
        answer) — it is revived where it sits."""
        now = [0.0]
        store = SqliteSessionStore(str(tmp_path / "s.db"))
        manager = make_manager(
            store=store, ttl_seconds=10.0, clock=lambda: now[0]
        )
        instance = boundary_instance(2, 3, rows=6, seed=14)
        managed = asyncio.run(
            manager.create_async(inline_spec(instance, "TD", seed=3))
        )
        question = manager.propose_question(managed)
        now[0] = 25.0  # oracle thought past the TTL
        touched = asyncio.run(manager.get_async(managed.session_id))
        assert touched is managed  # same object: no demote/rehydrate
        assert touched.session.pending_question is not None
        assert manager.stats()["store"]["rehydrations_total"] == 0
        # the late answer still lands on the original question
        manager.record_answer(
            managed, question.question_id, Label.NEGATIVE
        )
        manager.close(wait=True)
        store.close()

    def test_snapshot_waiting_on_lock_survives_demote(self, tmp_path):
        """``GET /snapshot`` answers from the session its handler
        holds: a control demote that lands while the handler waits for
        the session lock must not make it look the id up again and
        rehydrate the session inline on the event loop."""
        store = SqliteSessionStore(str(tmp_path / "s.db"))
        manager = make_manager(store=store)
        app = ServiceApp(manager)
        instance = boundary_instance(2, 2, rows=5, seed=17)

        async def scenario():
            managed = await manager.create_async(
                inline_spec(instance, "BU", seed=4)
            )
            drive(manager, managed, BiasedCoin(3), limit=2)
            expected = snapshot_payload(
                managed.session, instance_ref=managed.instance_spec
            )
            sid = managed.session_id
            await managed.lock.acquire()  # another request is mid-round
            snapshot = asyncio.ensure_future(
                app.dispatch("GET", f"/sessions/{sid}/snapshot", None)
            )
            await asyncio.sleep(0.05)  # the handler now waits on the lock
            manager.demote(sid)  # what POST /control/demote runs
            managed.lock.release()
            return expected, await snapshot

        expected, (status, payload) = asyncio.run(scenario())
        assert status == 200
        assert payload == expected
        assert manager.stats()["store"]["rehydrations_total"] == 0
        manager.close(wait=True)
        store.close()

    def test_flush_failure_drops_stale_store_row(self, tmp_path):
        """A store write failure demotes the session to non-durable AND
        removes its (now trailing) row — otherwise a later eviction or
        delete would resurrect a silently rolled-back copy."""

        class FailingStore(SqliteSessionStore):
            def __init__(self, path):
                super().__init__(path)
                self.fail = False

            def append_answers(self, session_id, entries, *, fence=None):
                if self.fail:
                    raise StoreError("disk full")
                super().append_answers(session_id, entries, fence=fence)

        store = FailingStore(str(tmp_path / "s.db"))
        manager = make_manager(store=store)
        instance = boundary_instance(2, 2, rows=5, seed=15)
        managed = asyncio.run(
            manager.create_async(inline_spec(instance, "BU", seed=4))
        )
        manager.flush_store()
        assert managed.session_id in store
        # While the store works, a journaled answer keeps it durable.
        drive(manager, managed, BiasedCoin(2), limit=1)
        manager.flush_store()
        assert managed.durable
        assert manager.stats()["store"]["flush_errors"] == 0
        assert store.load(managed.session_id).journal_seq == 1

        store.fail = True
        drive(manager, managed, BiasedCoin(2), limit=1)
        manager.flush_store()  # waits out the (failing) drain
        assert not managed.durable
        assert manager.stats()["store"]["flush_errors"] == 1
        assert managed.session_id not in store
        # the session stays live and usable, just no longer durable
        drive(manager, managed, BiasedCoin(2), limit=1)
        asyncio.run(manager.delete_async(managed.session_id))
        with pytest.raises(NotFound):
            asyncio.run(manager.get_async(managed.session_id))
        manager.close(wait=True)
        store.close()

    def test_delete_during_rehydration_is_not_resurrected(self, tmp_path):
        """DELETE racing an in-flight rehydration must win: the replay
        finishes but is never admitted, and the waiter sees 404."""
        import threading as _threading

        class SlowLoadStore(SqliteSessionStore):
            def __init__(self, path):
                super().__init__(path)
                self.loading = _threading.Event()
                self.release = _threading.Event()

            def load(self, session_id):
                self.loading.set()
                self.release.wait(timeout=10)
                return super().load(session_id)

        store = SlowLoadStore(str(tmp_path / "s.db"))
        manager = make_manager(store=store)
        instance = boundary_instance(2, 2, rows=4, seed=16)
        managed = asyncio.run(
            manager.create_async(inline_spec(instance, "TD", seed=9))
        )
        manager.demote(managed.session_id)
        session_id = managed.session_id

        async def scenario():
            touch = asyncio.ensure_future(
                manager.get_async(session_id)
            )
            while not store.loading.is_set():
                await asyncio.sleep(0.01)
            await manager.delete_async(session_id)  # row + tombstone
            store.release.set()
            with pytest.raises(NotFound):
                await touch

        asyncio.run(scenario())
        assert len(manager) == 0
        manager.close(wait=True)
        assert session_id not in store
        store.close()


# --- every strategy recovers from a reopened store ---------------------------


class TestEveryStrategyRecovers:
    """Reopen-recovery parity for the full strategy registry (incl. the
    exponential OPT, which the kill-matrix below cannot afford): write
    through one manager, reopen the SQLite file in a *fresh* manager —
    no demote, no clean close, exactly what a crashed process leaves —
    and the recovered session must continue identically."""

    @pytest.mark.parametrize(
        "strategy", ["RND", "BU", "TD", "L1S", "L2S", "L3S", "OPT", "IG"]
    )
    def test_reopened_store_continues_bit_for_bit(
        self, strategy, tmp_path
    ):
        path = str(tmp_path / "s.db")
        instance = boundary_instance(2, 2, rows=3, seed=10)
        oracle = BiasedCoin(13)
        expected, predicate = reference_sequence(
            instance, strategy, 17, BiasedCoin(13)
        )
        assert len(expected) >= 3
        cut = 2

        first_store = SqliteSessionStore(path)
        first = make_manager(store=first_store, checkpoint_every=2)
        managed = asyncio.run(
            first.create_async(inline_spec(instance, strategy, seed=17))
        )
        prefix = drive(first, managed, oracle, limit=cut)
        first.flush_store()
        # no close/demote — the "process" just stops here

        second_store = SqliteSessionStore(path)
        second = make_manager(store=second_store)
        recovered = asyncio.run(second.get_async(managed.session_id))
        assert recovered.session.state.interaction_count == cut
        remaining = drive(second, recovered, oracle)
        assert prefix + remaining == expected
        assert recovered.session.current_predicate() == predicate
        first.close(wait=True)
        second.close(wait=True)
        first_store.close()
        second_store.close()


# --- the kill -9 acceptance matrix -------------------------------------------


CRASH_STRATEGIES = ["RND", "BU", "TD", "L1S", "L2S", "L3S", "IG"]
#: (left_arity, right_arity, rows): Ω = 63 / 64 / 65 across the packed
#: uint64 word boundary.  L3S gets smaller instances — depth-3
#: lookahead needs ~2 s per 16-class session and ~20 s per 36-class one.
CRASH_OMEGAS = [(7, 9), (8, 8), (5, 13)]
CRASH_CUT = 10

_CRASH_CHILD = """
import json, os, signal, sys

config = json.load(open(sys.argv[1]))

import asyncio

from repro.core import Label
from repro.core.serialize import instance_from_dict
from repro.service import SessionManager, SqliteSessionStore
from repro.service.protocol import CreateSpec

store = SqliteSessionStore(config["db"])
manager = SessionManager(
    store=store,
    checkpoint_every=config["checkpoint_every"],
    speculate=False,
)
out = []
for combo in config["combos"]:
    instance = instance_from_dict(combo["instance"])
    spec = CreateSpec(
        {"inline": combo["instance"]},
        instance,
        combo["strategy"],
        combo["seed"],
        None,
    )
    managed = asyncio.run(manager.create_async(spec))
    asked = []
    for _ in range(config["cut"]):
        question = manager.propose_question(managed)
        asked.append(question.class_id)
        manager.record_answer(
            managed, question.question_id, Label.NEGATIVE
        )
    out.append(
        {
            "session_id": managed.session_id,
            "strategy": combo["strategy"],
            "omega": combo["omega"],
            "asked": asked,
        }
    )
manager.flush_store()
print(json.dumps(out), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


class _PrefixedOracle:
    """``prefix_len`` negatives (the journaled answers), then a biased
    coin — so the crashed prefix is deterministic and the recovered
    tail still exercises both polarities."""

    def __init__(self, prefix_len: int, seed: int):
        self._remaining = prefix_len
        self._coin = BiasedCoin(seed)

    def label(self, tuple_pair) -> Label:
        if self._remaining > 0:
            self._remaining -= 1
            return Label.NEGATIVE
        return self._coin.label(tuple_pair)


class TestKillTheProcess:
    def test_sessions_recover_identically_after_sigkill(self, tmp_path):
        """The acceptance scenario: ≥ 10 answers journaled, SIGKILL,
        recover from the SQLite file, identical remaining questions."""
        db = str(tmp_path / "crash.db")
        combos = []
        instances = {}
        for left, right in CRASH_OMEGAS:
            omega = left * right
            for strategy in CRASH_STRATEGIES:
                rows = 4 if strategy == "L3S" else 6
                key = (omega, rows)
                if key not in instances:
                    instances[key] = boundary_instance(
                        left, right, rows=rows
                    )
                assert len(instances[key].omega) == omega
                combos.append(
                    {
                        "instance": instance_to_dict(instances[key]),
                        "strategy": strategy,
                        "omega": omega,
                        "rows": rows,
                        "seed": 5,
                    }
                )
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "db": db,
                    "combos": combos,
                    "cut": CRASH_CUT,
                    "checkpoint_every": 4,
                }
            )
        )
        child = tmp_path / "crash_child.py"
        child.write_text(_CRASH_CHILD)

        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        result = subprocess.run(
            [sys.executable, str(child), str(config)],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
        )
        assert result.returncode == -signal.SIGKILL, result.stderr
        reports = json.loads(result.stdout)
        assert len(reports) == len(combos)

        store = SqliteSessionStore(db)
        manager = make_manager(store=store, max_sessions=1024)
        by_key = {
            (combo["omega"], combo["rows"]): instances[
                (combo["omega"], combo["rows"])
            ]
            for combo in combos
        }
        for combo, report in zip(combos, reports):
            assert report["strategy"] == combo["strategy"]
            instance = by_key[(combo["omega"], combo["rows"])]
            recovered = asyncio.run(manager.get_async(report["session_id"]))
            assert (
                recovered.session.state.interaction_count == CRASH_CUT
            ), f"{combo['strategy']} Ω={combo['omega']}"
            oracle = _PrefixedOracle(0, seed=combo["omega"])
            remaining = drive(manager, recovered, oracle)
            expected, predicate = reference_sequence(
                instance,
                combo["strategy"],
                combo["seed"],
                _PrefixedOracle(CRASH_CUT, seed=combo["omega"]),
            )
            assert report["asked"] == expected[:CRASH_CUT], (
                f"{combo['strategy']} Ω={combo['omega']}: crashed "
                f"prefix diverged"
            )
            assert remaining == expected[CRASH_CUT:], (
                f"{combo['strategy']} Ω={combo['omega']}: recovered "
                f"session diverged from the uninterrupted run"
            )
            assert recovered.session.current_predicate() == predicate
        manager.close(wait=True)
        store.close()


# --- end-to-end over HTTP ----------------------------------------------------


class TestServiceDurability:
    def test_demoted_session_rehydrates_over_http(self, tmp_path):
        store = SqliteSessionStore(str(tmp_path / "s.db"))
        manager = make_manager(store=store)
        with ServiceServer(manager=manager) as server:
            client = ServiceClient(server.host, server.port)
            info = client.create_session(
                workload="synthetic/1", strategy="L2S", seed=4
            )
            sid = info["session_id"]
            assert info["durable"]
            for _ in range(3):
                question = client.next_question(sid)
                client.post_answer(sid, question["question_id"], "-")
            server.manager.demote_all()
            overview = client.sessions_overview()
            assert overview["live"] == 0
            assert overview["demoted"] == 1
            assert overview["recoverable"] == 1
            # touching the demoted session rehydrates it transparently
            question = client.next_question(sid)
            assert question is not None
            client.post_answer(sid, question["question_id"], "-")
            info = client.session_info(sid)
            assert info["progress"]["interactions"] == 4
            stats = client.stats()
            assert stats["store"]["enabled"]
            assert stats["store"]["rehydrations_total"] == 1
            client.close()
        store.close()

    def test_server_restart_recovers_sessions_from_store(self, tmp_path):
        path = str(tmp_path / "s.db")
        first_store = SqliteSessionStore(path)
        with ServiceServer(
            manager=make_manager(store=first_store)
        ) as first:
            client = ServiceClient(first.host, first.port)
            sid = client.create_session(
                workload="synthetic/2", strategy="BU", seed=6
            )["session_id"]
            for _ in range(2):
                question = client.next_question(sid)
                client.post_answer(sid, question["question_id"], "-")
            first.manager.flush_store()
            client.close()
        first_store.close()

        second_store = SqliteSessionStore(path)
        with ServiceServer(
            manager=make_manager(store=second_store)
        ) as second:
            client = ServiceClient(second.host, second.port)
            overview = client.sessions_overview()
            assert overview["live"] == 0
            assert overview["recoverable"] == 1
            info = client.session_info(sid)  # rehydrates
            assert info["progress"]["interactions"] == 2
            assert client.sessions_overview()["live"] == 1
            client.close()
        second_store.close()

    def test_concurrent_touches_rehydrate_once(self, tmp_path):
        """Two concurrent requests against one demoted session trigger
        exactly one replay (single-flight), like cold index builds."""
        from concurrent.futures import ThreadPoolExecutor

        store = SqliteSessionStore(str(tmp_path / "s.db"))
        manager = make_manager(store=store)
        with ServiceServer(manager=manager) as server:
            control = ServiceClient(server.host, server.port)
            sid = control.create_session(
                workload="synthetic/1", strategy="TD", seed=8
            )["session_id"]
            question = control.next_question(sid)
            control.post_answer(sid, question["question_id"], "-")
            server.manager.demote_all()

            def touch(_):
                with ServiceClient(server.host, server.port) as c:
                    return c.session_info(sid)["progress"]["interactions"]

            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(touch, range(4)))
            assert results == [1, 1, 1, 1]
            assert control.stats()["store"]["rehydrations_total"] == 1
            control.close()
        store.close()
