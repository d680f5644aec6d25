"""Bit-for-bit serving parity with the plan cache on.

The cache memoises *score tables*, never choices: the strategy still
runs its own tie-break over the table with the session's own rng, so
the question sequence and final predicate of every session must be
identical with the cache on or off — across every serving strategy,
across the packed-word boundary Ω ∈ {63, 64, 65}, through the
speculation fast path, and through crash + rehydrate over a shared
store.
"""

from __future__ import annotations

import asyncio
import random
import time
from concurrent.futures import wait as wait_futures

import pytest

from repro.core import (
    Label,
    PerfectOracle,
    SignatureIndex,
    index_shm,
    run_inference,
    strategy_by_name,
)
from repro.core.serialize import instance_to_dict
from repro.data import generate_tpch, tpch_workloads
from repro.service import (
    IndexCache,
    SessionManager,
    SharedPlanTier,
    SqliteSessionStore,
)
from repro.service.protocol import CreateSpec

from ..conftest import make_random_instance

SERVING_STRATEGIES = ["RND", "BU", "TD", "L1S", "L2S"]
LOOKAHEADS = {"L1S", "L2S"}

#: Arity pairs putting Ω on each side of the packed-word boundary.
OMEGA_BOUNDARY = [(7, 9), (8, 8), (5, 13)]


def boundary_instance(left_arity, right_arity, rows=5, seed=None):
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


def inline_spec(instance, strategy, seed):
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


def assert_identity(stats):
    """The protocol-level counter identity of the plan cache."""
    assert stats["misses"] == (
        stats["local_hits"] + stats["shared_hits"] + stats["computes"]
    ), stats


class TestCacheOnOffParity:
    @pytest.mark.parametrize("left,right", OMEGA_BOUNDARY)
    @pytest.mark.parametrize("strategy", SERVING_STRATEGIES)
    def test_word_boundary_sequences_identical(
        self, strategy, left, right, tmp_path
    ):
        instance = boundary_instance(left, right)
        assert len(instance.omega) in (63, 64, 65)
        seed = left * right

        off = SessionManager(
            index_cache=IndexCache(), speculate=False, plan_cache=False
        )
        shared = SharedPlanTier.if_available(
            tmp_path / "plan.db", "parity", ttl_seconds=5.0
        )
        on = SessionManager(
            index_cache=IndexCache(), speculate=False, shared_plan=shared
        )
        try:
            baseline = drive(
                off,
                asyncio.run(
                    off.create_async(inline_spec(instance, strategy, seed))
                ),
                BiasedCoin(seed),
            )
            first = drive(
                on,
                asyncio.run(
                    on.create_async(inline_spec(instance, strategy, seed))
                ),
                BiasedCoin(seed),
            )
            # Same seed again: the second session rides cached tables
            # end to end and must still match bit for bit.
            second = drive(
                on,
                asyncio.run(
                    on.create_async(inline_spec(instance, strategy, seed))
                ),
                BiasedCoin(seed),
            )
            assert first == baseline
            assert second == baseline
            assert len(baseline) > 2
            stats = on.stats()["plan_cache"]
            assert stats["enabled"]
            assert_identity(stats)
            if strategy in LOOKAHEADS:
                assert stats["computes"] > 0
                assert stats["local_hits"] > 0  # the replayed session
            else:
                # Stateless strategies never consult the planner path.
                assert stats["misses"] == 0
        finally:
            off.close(wait=True)
            on.close(wait=True)

    def test_depth3_and_reference_mode_parity(self, tmp_path):
        """Depth-3 lookahead follows the same route as L2S; the cache
        must be invisible there too."""
        instance = boundary_instance(3, 3, rows=7, seed=2)
        for strategy in ("L3S", "L2S"):
            off = SessionManager(
                index_cache=IndexCache(), speculate=False, plan_cache=False
            )
            on = SessionManager(index_cache=IndexCache(), speculate=False)
            try:
                baseline = drive(
                    off,
                    asyncio.run(
                        off.create_async(inline_spec(instance, strategy, 4))
                    ),
                    BiasedCoin(4),
                )
                cached = drive(
                    on,
                    asyncio.run(
                        on.create_async(inline_spec(instance, strategy, 4))
                    ),
                    BiasedCoin(4),
                )
                assert cached == baseline
                assert_identity(on.stats()["plan_cache"])
            finally:
                off.close(wait=True)
                on.close(wait=True)


class TestSpeculationParity:
    def test_speculated_session_matches_inline_inference(self):
        """Full session through forced speculation hits with the plan
        cache on: identical to the in-process run, counters add up."""
        workload = tpch_workloads(generate_tpch(scale=1.0, seed=0))[3]
        oracle = PerfectOracle(workload.instance, workload.goal)
        manager = SessionManager(
            build_workers=2, speculation_min_think_seconds=0.0
        )
        try:
            managed = asyncio.run(
                manager.create_async(
                    CreateSpec(
                        {"inline": instance_to_dict(workload.instance)},
                        workload.instance,
                        "L2S",
                        5,
                        None,
                    )
                )
            )
            asked = []
            while True:
                question = manager.propose_question(managed)
                if question is None:
                    break
                asked.append(question.class_id)
                spec = managed.speculation
                if spec is not None:
                    wait_futures(
                        [b.future for b in spec.branches.values()],
                        timeout=30,
                    )
                manager.record_answer(
                    managed,
                    question.question_id,
                    oracle.label(question.tuple_pair),
                )
            speculation = manager.stats()["speculation"]
            assert speculation["hits"] == len(asked)
            # Deeper tree levels (grandchild branches) may still be
            # routing; the counter identity settles once they finish.
            deadline = time.monotonic() + 15
            while True:
                plan = manager.stats()["plan_cache"]
                settled = plan["misses"] == (
                    plan["local_hits"]
                    + plan["shared_hits"]
                    + plan["computes"]
                )
                if settled or time.monotonic() > deadline:
                    break
                time.sleep(0.02)
            assert plan["enabled"]
            assert_identity(plan)
            assert plan["misses"] > 0  # the branch twins rode the route
        finally:
            manager.close(wait=True)

        reference = run_inference(
            workload.instance,
            strategy_by_name("L2S"),
            oracle,
            index=SignatureIndex(workload.instance),
            seed=5,
        )
        assert tuple(managed.session._history) == reference.history
        assert len(asked) == reference.interactions
        assert (
            managed.session.current_predicate() == reference.predicate
        )


class TestSpeculationFastPath:
    def _drive_with_waits(self, manager, managed, oracle):
        asked = []
        while True:
            question = manager.propose_question(managed)
            if question is None:
                break
            asked.append(question.class_id)
            spec = managed.speculation
            if spec is not None:
                wait_futures(
                    [b.future for b in spec.branches.values()],
                    timeout=30,
                )
            manager.record_answer(
                managed,
                question.question_id,
                oracle.label(question.tuple_pair),
            )
        return asked

    def _settle(self, manager):
        """Wait until every in-flight route has installed and the
        batcher queue is empty."""
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            stats = manager.stats()
            plan = stats["plan_cache"]
            done = plan["misses"] == (
                plan["local_hits"]
                + plan["shared_hits"]
                + plan["computes"]
            )
            if done and stats["kernel_batch"]["pending_jobs"] == 0:
                return stats
            time.sleep(0.02)
        return manager.stats()

    def test_warm_branches_skip_the_kernel_scheduler(self):
        """Satellite fast path: a forked branch whose key is already
        cached installs the table instead of scheduling a kernel job —
        a whole warm session (speculation included) runs zero jobs."""
        instance = boundary_instance(3, 3, rows=8, seed=6)
        # Depth 1 so every branch is awaited through spec.branches: a
        # deeper tree can abort a cold branch mid-route, leaving a key
        # the warm run would then (legitimately) have to compute.
        manager = SessionManager(
            build_workers=2,
            speculation_min_think_seconds=0.0,
            speculation_depth=1,
        )
        try:
            cold = self._drive_with_waits(
                manager,
                asyncio.run(
                    manager.create_async(inline_spec(instance, "L2S", 9))
                ),
                BiasedCoin(9),
            )
            stats = self._settle(manager)
            jobs_before = (
                stats["kernel_batch"]["batched_jobs"]
                + stats["kernel_batch"]["fallback_jobs"]
            )
            hits_before = stats["plan_cache"]["local_hits"]

            warm = self._drive_with_waits(
                manager,
                asyncio.run(
                    manager.create_async(inline_spec(instance, "L2S", 9))
                ),
                BiasedCoin(9),
            )
            stats = self._settle(manager)
            assert warm == cold
            jobs_after = (
                stats["kernel_batch"]["batched_jobs"]
                + stats["kernel_batch"]["fallback_jobs"]
            )
            assert jobs_after == jobs_before, (
                "warm speculation branches reached the kernel scheduler"
            )
            assert stats["plan_cache"]["local_hits"] > hits_before
            assert_identity(stats["plan_cache"])
        finally:
            manager.close(wait=True)


class TestRehydrateParity:
    @pytest.mark.parametrize("strategy", ["L1S", "L2S"])
    def test_crash_rehydrate_continues_identically(
        self, strategy, tmp_path
    ):
        """Worker A answers half the session and is abandoned without a
        drain; worker B (fresh process-level cache, same shared tier)
        rehydrates from the store and must propose the identical
        remaining sequence — seeded by A's published tables."""
        instance = boundary_instance(8, 8, rows=5, seed=3)
        seed = 21
        oracle = BiasedCoin(seed)

        off = SessionManager(
            index_cache=IndexCache(), speculate=False, plan_cache=False
        )
        try:
            baseline = drive(
                off,
                asyncio.run(
                    off.create_async(inline_spec(instance, strategy, seed))
                ),
                BiasedCoin(seed),
            )
        finally:
            off.close(wait=True)
        assert len(baseline) > 4
        split = len(baseline) // 2

        db = tmp_path / "fleet.db"
        tier_a = SharedPlanTier.if_available(db, "wA", ttl_seconds=5.0)
        worker_a = SessionManager(
            index_cache=IndexCache(),
            speculate=False,
            store=SqliteSessionStore(str(db)),
            checkpoint_every=2,
            shared_plan=tier_a,
        )
        managed = asyncio.run(
            worker_a.create_async(inline_spec(instance, strategy, seed))
        )
        session_id = managed.session_id
        first_half = drive(worker_a, managed, oracle, limit=split)
        # A proposes one more question (scoring — and publishing — the
        # exact state B will resume at) but "crashes" before the answer:
        # from here on A serves nothing and B takes over from the store
        # (checkpoint + journal tail, exactly what a kill -9 leaves;
        # A's published segments outlive it until its refs expire).
        worker_a.propose_question(managed)
        worker_a.flush_store()

        tier_b = SharedPlanTier.if_available(db, "wB", ttl_seconds=5.0)
        worker_b = SessionManager(
            index_cache=IndexCache(),
            speculate=False,
            store=SqliteSessionStore(str(db)),
            checkpoint_every=2,
            shared_plan=tier_b,
        )
        try:
            rehydrated = asyncio.run(worker_b.get_async(session_id))
            assert rehydrated.session.state.interaction_count == split
            rest = drive(worker_b, rehydrated, oracle)
            assert first_half + rest == baseline
            plan = worker_b.stats()["plan_cache"]
            assert_identity(plan)
            if index_shm.shared_memory_available():
                # B's first proposal lands on the exact state A last
                # scored and published: a cross-process shared hit.
                assert plan["shared_hits"] >= 1
        finally:
            worker_a.close(wait=True)
            worker_a.store.close()
            worker_b.close(wait=True)
            worker_b.store.close()
