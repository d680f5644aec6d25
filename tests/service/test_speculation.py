"""Speculative next-question precompute — correctness and accounting.

The manager precomputes both answer branches of a pending question on
the build pool; these tests pin the contract: a precomputed branch is
**identical** to what the live session would have computed inline, a
miss falls back to the inline path without divergence, counters add up,
and cancellation paths do not leak or corrupt sessions.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import wait as wait_futures

import pytest

from repro.core import (
    Label,
    PerfectOracle,
    SignatureIndex,
    run_inference,
    strategy_by_name,
)
from repro.data import generate_tpch, tpch_workloads
from repro.service import ServiceClient, ServiceServer, SessionManager
from repro.service.protocol import parse_create_payload

from ..conftest import on_server_loop


def _workload():
    return tpch_workloads(generate_tpch(scale=1.0, seed=0))[3]


def _create(manager, strategy="L2S", seed=0):
    spec = parse_create_payload(
        {"workload": "tpch/join4", "strategy": strategy, "seed": seed}
    )
    return asyncio.run(manager.create_async(spec))


def _await_speculation(managed):
    spec = managed.speculation
    assert spec is not None
    wait_futures([b.future for b in spec.branches.values()], timeout=30)
    return spec


class TestPrecomputeCorrectness:
    @pytest.mark.parametrize("strategy", ["L2S", "L1S"])
    def test_full_session_matches_inline_inference(self, strategy):
        """Drive a whole session through speculation hits; the question
        sequence and final predicate must equal the in-process run."""
        workload = _workload()
        oracle = PerfectOracle(workload.instance, workload.goal)
        # min_think 0: this test answers as fast as the branches finish,
        # which the adaptive gate would (correctly) classify as a
        # zero-think-time client.
        manager = SessionManager(
            build_workers=2, speculation_min_think_seconds=0.0
        )
        try:
            managed = _create(manager, strategy=strategy, seed=5)
            asked = []
            while True:
                question = manager.propose_question(managed)
                if question is None:
                    break
                asked.append(question.class_id)
                _await_speculation(managed)  # force the hit path
                label = oracle.label(question.tuple_pair)
                manager.record_answer(
                    managed, question.question_id, label
                )
            stats = manager.stats()["speculation"]
            assert stats["hits"] == len(asked)
            assert stats["misses"] == 0
            assert stats["hit_ratio"] == 1.0
        finally:
            manager.close(wait=True)

        reference = run_inference(
            workload.instance,
            strategy_by_name(strategy),
            oracle,
            index=SignatureIndex(workload.instance),
            seed=5,
        )
        session = managed.session
        assert tuple(session._history) == reference.history
        assert session.current_predicate() == reference.predicate
        assert session.state.interaction_count == reference.interactions

    def test_precomputed_branch_equals_fresh_proposal(self):
        """Each speculative fork's next question must equal what the
        live session proposes after answering the same label inline."""
        workload = _workload()
        manager = SessionManager(build_workers=2)
        try:
            for label in (Label.POSITIVE, Label.NEGATIVE):
                managed = _create(manager, seed=int(label is Label.POSITIVE))
                question = manager.propose_question(managed)
                spec = _await_speculation(managed)
                example, twin = spec.branches[label].future.result()

                # inline path on the live session, bypassing speculation
                managed.speculation.cancel()
                managed.speculation = None
                inline_example = managed.session.answer(
                    question.question_id, label
                )
                fresh = managed.session.propose()

                assert example == inline_example
                assert twin.pending_question == fresh
                assert (
                    twin.state.labeled_classes()
                    == managed.session.state.labeled_classes()
                )
                assert twin.rng.getstate() == managed.session.rng.getstate()
        finally:
            manager.close(wait=True)

    def test_miss_falls_back_inline(self):
        import threading

        workload = _workload()
        oracle = PerfectOracle(workload.instance, workload.goal)
        manager = SessionManager(build_workers=1)
        release = threading.Event()
        try:
            managed = _create(manager, seed=9)
            # Occupy the single build worker so both branch jobs stay
            # queued: the answer must arrive before speculation ran.
            manager._executor().submit(release.wait)
            question = manager.propose_question(managed)
            label = oracle.label(question.tuple_pair)
            example = manager.record_answer(
                managed, question.question_id, label
            )
            assert example.label is label
            assert managed.speculation is None
            stats = manager.stats()["speculation"]
            assert stats["misses"] == 1
            assert stats["hits"] == 0
            # the queued branches were cancelled outright
            assert managed.session.state.interaction_count == 1
        finally:
            release.set()
            manager.close(wait=True)


class TestSpeculativeHint:
    def test_cheap_strategies_skip_speculation(self):
        """RND/BU/TD proposals cost less than a fork — no branches."""
        manager = SessionManager(build_workers=2)
        try:
            for strategy in ("RND", "BU", "TD"):
                managed = _create(manager, strategy=strategy, seed=1)
                assert manager.propose_question(managed) is not None
                assert managed.speculation is None
            assert manager.stats()["speculation"]["submitted"] == 0
        finally:
            manager.close(wait=True)

    def test_session_fork_clones_rng_for_random_strategy(self):
        """The fork machinery itself must stay correct for rng-consuming
        strategies (shared instance, cloned rng): a fork answered like
        the original proposes the identical next question."""
        workload = _workload()
        manager = SessionManager(build_workers=2)
        try:
            managed = _create(manager, strategy="RND", seed=11)
            question = manager.propose_question(managed)
            twin = managed.session.fork()
            twin.answer(question.question_id, Label.NEGATIVE)
            managed.session.answer(question.question_id, Label.NEGATIVE)
            assert twin.propose() == managed.session.propose()
        finally:
            manager.close(wait=True)


class TestAdaptiveThinkGate:
    def test_fast_oracles_stop_speculating(self):
        """A client answering instantly has no think-time to exploit:
        after the first measured gap the session stops speculating."""
        now = [0.0]
        manager = SessionManager(
            build_workers=2,
            clock=lambda: now[0],
            speculation_min_think_seconds=0.05,
        )
        workload = _workload()
        oracle = PerfectOracle(workload.instance, workload.goal)
        try:
            managed = _create(manager, seed=2)
            first = manager.propose_question(managed)
            assert managed.speculation is not None  # optimistic start
            now[0] += 0.001  # the "user" answered within a millisecond
            manager.record_answer(
                managed, first.question_id, oracle.label(first.tuple_pair)
            )
            assert managed.think_ewma == pytest.approx(0.001)
            second = manager.propose_question(managed)
            assert second is not None
            assert managed.speculation is None  # gate closed
            assert manager.stats()["speculation"]["skipped_think"] == 1
        finally:
            manager.close(wait=True)

    def test_slow_oracles_keep_speculating(self):
        now = [0.0]
        manager = SessionManager(
            build_workers=2,
            clock=lambda: now[0],
            speculation_min_think_seconds=0.05,
        )
        workload = _workload()
        oracle = PerfectOracle(workload.instance, workload.goal)
        try:
            managed = _create(manager, seed=2)
            first = manager.propose_question(managed)
            now[0] += 3.0  # a thinking human
            manager.record_answer(
                managed, first.question_id, oracle.label(first.tuple_pair)
            )
            assert manager.propose_question(managed) is not None
            assert managed.speculation is not None
            assert manager.stats()["speculation"]["skipped_think"] == 0
        finally:
            manager.close(wait=True)


class TestCapacityAndCancellation:
    def test_capacity_cap_skips_speculation(self):
        manager = SessionManager(build_workers=1, speculation_slots=0)
        try:
            managed = _create(manager)
            question = manager.propose_question(managed)
            assert question is not None
            assert managed.speculation is None
            stats = manager.stats()["speculation"]
            assert stats["skipped_capacity"] == 1
            assert stats["submitted"] == 0
        finally:
            manager.close(wait=True)

    def test_pending_build_preempts_speculation(self, monkeypatch):
        """Speculation must never queue ahead of a cold index build."""
        manager = SessionManager(build_workers=2)
        try:
            managed = _create(manager)
            monkeypatch.setattr(
                type(manager.index_cache),
                "pending_builds",
                lambda self: [{"key": "cold"}],
            )
            assert manager.propose_question(managed) is not None
            assert managed.speculation is None
            assert manager.stats()["speculation"]["skipped_capacity"] == 1
        finally:
            manager.close(wait=True)

    def test_cold_build_cancels_inflight_speculation(self):
        """A cold create must not queue behind running branch jobs:
        submitting the build cancels every in-flight speculation."""
        import asyncio

        manager = SessionManager(build_workers=2)
        try:
            managed = _create(manager)
            manager.propose_question(managed)
            spec = managed.speculation
            assert spec is not None

            async def create_cold():
                cold = parse_create_payload(
                    {"workload": "synthetic/1", "strategy": "TD", "seed": 0}
                )
                await manager.create_async(cold)

            asyncio.run(create_cold())
            assert managed.speculation is None
            for branch in spec.branches.values():
                assert branch.abort.is_set()
        finally:
            manager.close(wait=True)

    def test_speculation_disabled(self):
        manager = SessionManager(speculate=False)
        try:
            managed = _create(manager)
            assert manager.propose_question(managed) is not None
            assert managed.speculation is None
            assert manager.stats()["speculation"]["enabled"] is False
        finally:
            manager.close(wait=True)

    def test_repeated_fetch_reuses_speculation(self):
        manager = SessionManager(build_workers=2)
        try:
            managed = _create(manager)
            first = manager.propose_question(managed)
            spec = managed.speculation
            second = manager.propose_question(managed)
            assert first == second
            assert managed.speculation is spec
            assert manager.stats()["speculation"]["submitted"] == 1
        finally:
            manager.close(wait=True)

    def test_delete_cancels_speculation(self):
        manager = SessionManager(build_workers=2)
        try:
            managed = _create(manager)
            manager.propose_question(managed)
            spec = managed.speculation
            asyncio.run(manager.delete_async(managed.session_id))
            assert managed.speculation is None
            for branch in spec.branches.values():
                assert branch.abort.is_set()
        finally:
            manager.close(wait=True)

    def test_wrong_question_id_keeps_speculation(self):
        from repro.core.session import QuestionProtocolError

        manager = SessionManager(build_workers=2)
        try:
            managed = _create(manager)
            manager.propose_question(managed)
            with pytest.raises(QuestionProtocolError):
                manager.record_answer(managed, 999, Label.NEGATIVE)
            assert managed.speculation is not None
        finally:
            manager.close(wait=True)


class TestOverHttp:
    def test_speculation_hits_surface_in_stats(self):
        """End-to-end: a think-time-paced client should land on the
        precomputed branch, and /stats must say so."""
        workload = _workload()
        oracle = PerfectOracle(workload.instance, workload.goal)
        manager = SessionManager(build_workers=2)
        with ServiceServer(manager=manager) as server:
            with ServiceClient(server.host, server.port) as client:
                info = client.create_session(
                    workload="tpch/join4", strategy="L2S", seed=3
                )
                session_id = info["session_id"]
                while (q := client.next_question(session_id)) is not None:
                    # a (fast) thinking user — enough for the tiny
                    # branch computations to finish
                    deadline = time.monotonic() + 5.0
                    while time.monotonic() < deadline:
                        managed = on_server_loop(
                            server, manager.get_async(session_id)
                        )
                        spec = managed.speculation
                        if spec is not None and all(
                            b.future.done()
                            for b in spec.branches.values()
                        ):
                            break
                        time.sleep(0.005)
                    pair = (
                        tuple(q["left"]["row"]),
                        tuple(q["right"]["row"]),
                    )
                    client.post_answer(
                        session_id,
                        q["question_id"],
                        str(oracle.label(pair)),
                    )
                final = client.predicate(session_id)
                stats = client.stats()

        speculation = stats["speculation"]
        assert speculation["enabled"] is True
        assert speculation["hits"] > 0
        assert speculation["hit_ratio"] > 0.5

        reference = run_inference(
            workload.instance,
            strategy_by_name("L2S"),
            oracle,
            index=SignatureIndex(workload.instance),
            seed=3,
        )
        expected = [
            [str(a), str(b)]
            for a, b in reference.predicate.sorted_pairs()
        ]
        assert final["predicate"]["pairs"] == expected
        assert final["progress"]["interactions"] == reference.interactions
