"""Depth-2 speculation trees and cross-session kernel batching.

The manager now precomputes an answer *tree* behind every pending
question (branches fan out again below ``speculation_depth``) and
routes L1S/L2S proposal kernels of sessions sharing one index through
a :class:`~repro.core.kernel_batch.KernelBatchScheduler`.  These tests
pin the serving-side contract: adopted grandchild branches are
bit-identical to inline inference, per-depth counters add up,
cancellation reaps whole subtrees, and the async proposal path batches
concurrent sessions without changing any question.
"""

from __future__ import annotations

import asyncio
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


def _workload():
    return tpch_workloads(generate_tpch(scale=1.0, seed=0))[3]


def _create(manager, strategy="L2S", seed=0):
    spec = parse_create_payload(
        {"workload": "tpch/join4", "strategy": strategy, "seed": seed}
    )
    return asyncio.run(manager.create_async(spec))


def _await_tree(managed):
    """Wait for the full speculation tree: root branches first (their
    workers attach the grandchildren before resolving), then every
    attached child."""
    spec = managed.speculation
    assert spec is not None
    wait_futures(
        [b.future for b in spec.branches.values()], timeout=30
    )
    children = [
        child
        for branch in spec.branches.values()
        for child in branch.children.values()
    ]
    wait_futures([c.future for c in children], timeout=30)
    return spec


class TestSpeculationTree:
    def test_tree_spawns_grandchildren(self):
        manager = SessionManager(
            build_workers=2, speculation_min_think_seconds=0.0
        )
        try:
            managed = _create(manager, seed=5)
            manager.propose_question(managed)
            spec = _await_tree(managed)
            for branch in spec.branches.values():
                assert branch.depth == 1
                # both labels of the branch's own follow-up question
                assert set(branch.children) == {
                    Label.POSITIVE,
                    Label.NEGATIVE,
                }
                for child in branch.children.values():
                    assert child.depth == 2
                    assert not child.children  # depth cap respected
        finally:
            manager.close(wait=True)

    def test_depth1_manager_spawns_no_children(self):
        manager = SessionManager(
            build_workers=2,
            speculation_depth=1,
            speculation_min_think_seconds=0.0,
        )
        try:
            managed = _create(manager, seed=5)
            manager.propose_question(managed)
            spec = _await_tree(managed)
            assert all(
                not branch.children
                for branch in spec.branches.values()
            )
            stats = manager.stats()["speculation"]
            assert stats["depth"] == 1
            assert set(stats["hits_by_depth"]) == {"1"}
        finally:
            manager.close(wait=True)

    def test_hit_adopts_grandchildren_then_hits_at_depth2(self):
        workload = _workload()
        oracle = PerfectOracle(workload.instance, workload.goal)
        manager = SessionManager(
            build_workers=2, speculation_min_think_seconds=0.0
        )
        try:
            managed = _create(manager, seed=5)
            first = manager.propose_question(managed)
            spec = _await_tree(managed)
            label = oracle.label(first.tuple_pair)
            branch = spec.branches[label]
            assert branch.children
            manager.record_answer(managed, first.question_id, label)

            # the hit installed the grandchildren as the *next*
            # question's speculation — no new forks were submitted
            adopted = managed.speculation
            assert adopted is not None
            assert adopted.branches is branch.children
            second = manager.propose_question(managed)
            assert adopted.question_id == second.question_id
            assert manager.stats()["speculation"]["submitted"] == 1
            assert managed.speculation is adopted

            wait_futures(
                [b.future for b in adopted.branches.values()],
                timeout=30,
            )
            label = oracle.label(second.tuple_pair)
            manager.record_answer(managed, second.question_id, label)
            stats = manager.stats()["speculation"]
            assert stats["hits"] == 2
            assert stats["hits_by_depth"] == {"1": 1, "2": 1}
            assert stats["misses_by_depth"] == {"1": 0, "2": 0}
            assert stats["hit_ratio_by_depth"] == {"1": 1.0, "2": 1.0}
        finally:
            manager.close(wait=True)

    @pytest.mark.parametrize("strategy", ["L2S", "L1S"])
    def test_full_session_through_tree_matches_inline(self, strategy):
        """A whole session riding adopted trees (answer→question→answer
        as lookups) must replay the exact inline inference."""
        workload = _workload()
        oracle = PerfectOracle(workload.instance, workload.goal)
        manager = SessionManager(
            build_workers=2, speculation_min_think_seconds=0.0
        )
        try:
            managed = _create(manager, strategy=strategy, seed=7)
            asked = 0
            while True:
                question = manager.propose_question(managed)
                if question is None:
                    break
                asked += 1
                spec = managed.speculation
                assert spec is not None
                wait_futures(
                    [b.future for b in spec.branches.values()],
                    timeout=30,
                )
                manager.record_answer(
                    managed,
                    question.question_id,
                    oracle.label(question.tuple_pair),
                )
            stats = manager.stats()["speculation"]
            assert stats["hits"] == asked
            assert stats["misses"] == 0
            # adopted trees hit at depth 2 on alternating rounds
            assert stats["hits_by_depth"]["2"] > 0
        finally:
            manager.close(wait=True)

        reference = run_inference(
            workload.instance,
            strategy_by_name(strategy),
            oracle,
            index=SignatureIndex(workload.instance),
            seed=7,
        )
        session = managed.session
        assert tuple(session._history) == reference.history
        assert session.current_predicate() == reference.predicate

    def test_cancellation_reaps_whole_subtree(self):
        manager = SessionManager(
            build_workers=2, speculation_min_think_seconds=0.0
        )
        try:
            managed = _create(manager, seed=5)
            manager.propose_question(managed)
            spec = _await_tree(managed)
            asyncio.run(manager.delete_async(managed.session_id))
            assert managed.speculation is None
            for branch in spec.branches.values():
                assert branch.abort.is_set()
                for child in branch.children.values():
                    assert child.abort.is_set()
        finally:
            manager.close(wait=True)

    def test_grandchildren_respect_slot_cap(self):
        """slots=2 admits the root pair only: finished branches skip
        their fan-out instead of queueing, and the skip is counted."""
        manager = SessionManager(
            build_workers=2,
            speculation_slots=2,
            speculation_min_think_seconds=0.0,
        )
        try:
            managed = _create(manager, seed=5)
            manager.propose_question(managed)
            spec = _await_tree(managed)
            assert all(
                not branch.children
                for branch in spec.branches.values()
            )
            stats = manager.stats()["speculation"]
            assert stats["submitted"] == 1
            assert stats["skipped_capacity"] >= 1
        finally:
            manager.close(wait=True)


class TestAsyncProposeBatching:
    def test_concurrent_proposals_coalesce_and_match_inline(self):
        """Six sessions on one shared index propose concurrently: the
        second round's kernels run as one stacked batch, and every
        question equals the unbatched manager's."""
        workload = _workload()
        oracle = PerfectOracle(workload.instance, workload.goal)
        manager = SessionManager(
            build_workers=2,
            speculate=False,
            batch_window_seconds=0.05,
        )
        plain = SessionManager(
            build_workers=2, speculate=False, kernel_batch=False
        )
        try:
            seeds = list(range(6))
            batched = [_create(manager, seed=s) for s in seeds]
            inline = [_create(plain, seed=s) for s in seeds]

            async def round_trip(mgr, sessions):
                return await asyncio.gather(
                    *[
                        mgr.propose_question_async(m)
                        for m in sessions
                    ]
                )

            for round_no in range(2):
                got = asyncio.run(round_trip(manager, batched))
                want = asyncio.run(round_trip(plain, inline))
                for managed, q_got, q_want in zip(
                    batched, got, want
                ):
                    assert q_got.class_id == q_want.class_id
                    label = oracle.label(q_got.tuple_pair)
                    manager.record_answer(
                        managed, q_got.question_id, label
                    )
                for managed, q_want in zip(inline, want):
                    plain.record_answer(
                        managed,
                        q_want.question_id,
                        oracle.label(q_want.tuple_pair),
                    )

            stats = manager.stats()["kernel_batch"]
            assert stats["enabled"] is True
            # round 1: L2S's transient first propose declines to
            # export, so all six jobs fall back per-session; round 2
            # exports and the six coalesce into one stacked batch.
            assert stats["fallback_jobs"] == 6
            assert stats["batched_jobs"] == 6
            assert stats["batch_size_histogram"] == {"6": 1}
            assert plain.stats()["kernel_batch"] == {"enabled": False}
        finally:
            manager.close(wait=True)
            plain.close(wait=True)

    def test_sync_propose_on_loop_stays_inline(self):
        """The router must never block the event loop: a synchronous
        propose from loop context takes the per-session path."""
        manager = SessionManager(build_workers=2, speculate=False)
        try:
            managed = _create(manager, seed=1)

            async def propose_sync():
                return manager.propose_question(managed)

            assert asyncio.run(propose_sync()) is not None
            stats = manager.stats()["kernel_batch"]
            assert stats["batched_jobs"] == 0
            assert stats["fallback_jobs"] == 0
            assert stats["pending_jobs"] == 0
        finally:
            manager.close(wait=True)

    def test_close_cancels_pending_batch_jobs(self):
        """Shutdown with queued kernel jobs neither hangs nor leaks:
        the batcher drains by cancellation before the pools stop."""
        manager = SessionManager(
            build_workers=2,
            speculate=False,
            batch_window_seconds=30.0,
        )
        managed = _create(manager, seed=1)
        strategy = managed.session.strategy
        planner = strategy.planner_for(managed.session.state)
        future = manager._batcher.submit(
            id(managed.session.index), planner
        )
        manager.close(wait=True)
        assert future.cancelled()
        with pytest.raises(RuntimeError):
            manager._batcher.submit(
                id(managed.session.index), planner
            )


class TestStatsSurface:
    def test_http_stats_report_tree_and_batch_blocks(self):
        manager = SessionManager(build_workers=2)
        with ServiceServer(manager=manager) as server:
            with ServiceClient(server.host, server.port) as client:
                client.create_session(
                    workload="tpch/join4", strategy="L2S", seed=3
                )
                stats = client.stats()
        speculation = stats["speculation"]
        assert speculation["depth"] == 2
        assert set(speculation["hits_by_depth"]) == {"1", "2"}
        assert set(speculation["hit_ratio_by_depth"]) == {"1", "2"}
        kernel_batch = stats["kernel_batch"]
        assert kernel_batch["enabled"] is True
        assert "batch_size_histogram" in kernel_batch
        assert kernel_batch["max_batch"] == 64
