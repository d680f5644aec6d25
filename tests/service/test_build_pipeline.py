"""Service-layer tests for the off-loop build pipeline.

The serving contract of ISSUE 3: concurrent creates on the same cold
fingerprint are single-flight (exactly one build, asserted via cache
stats), a large build in flight never stalls unrelated sessions
(p95-bounded answer latency), ``GET /builds`` lists in-flight builds, the
``instance_fingerprint`` hash is memoised per instance, and the
``serve`` CLI flags reach the manager.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.cli import build_parser, manager_from_args
from repro.core import IndexBuilder, Label, PerfectOracle
from repro.relational import Instance, JoinPredicate, Relation
from repro.service import IndexCache, ServiceApp, SessionManager
from repro.service import index_cache as index_cache_module
from repro.service.index_cache import instance_fingerprint
from repro.service.protocol import parse_create_payload

from ..conftest import repro_shm_segments


class SlowBuilder(IndexBuilder):
    """A builder that grinds for a fixed wall-clock before building —
    deterministic stand-in for a ≫10⁷-tuple cold build."""

    def __init__(self, delay: float):
        self.delay = delay
        self.builds = 0

    def build(self, instance):
        self.builds += 1
        time.sleep(self.delay)
        return super().build(instance)


def csv_payload(value: int = 1) -> dict:
    return {
        "csv": {
            "left": {
                "name": "R",
                "text": f"A1,A2\n{value},2\n3,4\n",
            },
            "right": {"name": "P", "text": f"B1\n{value}\n3\n"},
        },
        "strategy": "TD",
        "seed": 0,
    }


def make_app(delay: float = 0.2, build_workers: int = 2):
    builder = SlowBuilder(delay)
    manager = SessionManager(
        index_cache=IndexCache(builder=builder),
        build_workers=build_workers,
    )
    return ServiceApp(manager), builder


class TestSingleFlight:
    def test_two_concurrent_creates_one_build(self):
        app, builder = make_app()

        async def scenario():
            return await asyncio.gather(
                app.dispatch("POST", "/sessions", csv_payload()),
                app.dispatch("POST", "/sessions", csv_payload()),
            )

        try:
            (status_a, a), (status_b, b) = asyncio.run(scenario())
        finally:
            app.manager.close()
        assert status_a == 201 and status_b == 201
        stats = app.manager.index_cache.stats()
        assert builder.builds == 1  # exactly one build ran
        assert stats["misses"] == 1
        assert stats["single_flight_waits"] == 1
        assert stats["hits"] == 1
        # Both sessions share the identical index object.
        sessions = [
            asyncio.run(app.manager.get_async(a["session_id"])).session,
            asyncio.run(app.manager.get_async(b["session_id"])).session,
        ]
        assert sessions[0].index is sessions[1].index
        # The follower is reported as a cache hit, the leader as a miss.
        assert sorted(
            (a["index_cache_hit"], b["index_cache_hit"])
        ) == [False, True]

    def test_distinct_fingerprints_build_separately(self):
        app, builder = make_app(delay=0.05)

        async def scenario():
            return await asyncio.gather(
                app.dispatch("POST", "/sessions", csv_payload(1)),
                app.dispatch("POST", "/sessions", csv_payload(2)),
            )

        try:
            (status_a, _), (status_b, _) = asyncio.run(scenario())
        finally:
            app.manager.close()
        assert status_a == 201 and status_b == 201
        assert builder.builds == 2
        assert app.manager.index_cache.stats()["single_flight_waits"] == 0

    def test_cancelled_leader_does_not_poison_waiters(self):
        """Cancelling the request that started a build (client gone,
        wait_for timeout) must not cancel the build: the waiter still
        gets the index and the cache ends up warm."""
        app, builder = make_app(delay=0.2)

        async def scenario():
            leader = asyncio.ensure_future(
                app.dispatch("POST", "/sessions", csv_payload())
            )
            await asyncio.sleep(0.05)  # build in flight
            follower = asyncio.ensure_future(
                app.dispatch("POST", "/sessions", csv_payload())
            )
            await asyncio.sleep(0.01)
            leader.cancel()
            status, created = await follower
            with pytest.raises(asyncio.CancelledError):
                await leader
            return status, created

        try:
            status, created = asyncio.run(scenario())
        finally:
            app.manager.close()
        assert status == 201
        assert builder.builds == 1
        stats = app.manager.index_cache.stats()
        assert stats["entries"] == 1  # the orphaned build still landed
        assert stats["in_flight"] == 0

    def test_failed_build_propagates_to_all_waiters(self):
        class ExplodingBuilder(IndexBuilder):
            def build(self, instance):
                time.sleep(0.05)
                raise RuntimeError("disk on fire")

        manager = SessionManager(
            index_cache=IndexCache(builder=ExplodingBuilder())
        )
        app = ServiceApp(manager)

        async def scenario():
            return await asyncio.gather(
                app.dispatch("POST", "/sessions", csv_payload()),
                app.dispatch("POST", "/sessions", csv_payload()),
            )

        try:
            results = asyncio.run(scenario())
        finally:
            manager.close()
        assert [status for status, _ in results] == [500, 500]
        assert len(manager.index_cache.pending_builds()) == 0


class TestUnrelatedSessionsKeepAnswering:
    def test_p95_latency_bounded_during_cold_build(self):
        """While a slow build occupies the worker pool, an existing
        session on other data keeps proposing/answering on the loop."""
        app, _ = make_app(delay=0.6)
        goal = JoinPredicate.parse("R.A1 = P.B1")

        async def scenario():
            status, created = await app.dispatch(
                "POST", "/sessions", csv_payload(7)
            )
            assert status == 201
            session_id = created["session_id"]
            managed = await app.manager.get_async(session_id)
            oracle = PerfectOracle(managed.session.instance, goal)

            slow = asyncio.ensure_future(
                app.dispatch("POST", "/sessions", csv_payload(1))
            )
            await asyncio.sleep(0.05)  # let the cold build start
            latencies = []
            overlapped = 0
            while not slow.done():
                # Yield to the loop between requests, as the socket
                # turnaround does in production — warm dispatches are
                # purely synchronous and would otherwise starve the
                # executor-completion callback.
                await asyncio.sleep(0)
                started = time.perf_counter()
                status, question = await app.dispatch(
                    "GET", f"/sessions/{session_id}/question", None
                )
                assert status == 200
                if question["done"]:
                    status, _ = await app.dispatch(
                        "GET", f"/sessions/{session_id}/predicate", None
                    )
                    assert status == 200
                else:
                    pair = (
                        tuple(question["left"]["row"]),
                        tuple(question["right"]["row"]),
                    )
                    status, _ = await app.dispatch(
                        "POST",
                        f"/sessions/{session_id}/answer",
                        {
                            "question_id": question["question_id"],
                            "label": str(oracle.label(pair)),
                        },
                    )
                    assert status == 200
                latencies.append(time.perf_counter() - started)
                overlapped += 1
            build_status, _ = await slow
            return build_status, latencies, overlapped

        try:
            build_status, latencies, overlapped = asyncio.run(scenario())
        finally:
            app.manager.close()
        assert build_status == 201
        assert overlapped >= 5  # genuinely interleaved with the build
        ordered = sorted(latencies)
        p95 = ordered[max(0, int(len(ordered) * 0.95) - 1)]
        # Loop-side work is sub-millisecond; a blocked loop costs the
        # full 0.6 s build.  The bound leaves a wide margin for noisy
        # shared CI runners while still separating the two regimes.
        assert p95 < 0.35, f"p95 answer latency {p95:.3f}s during build"


class TestDefaultWorkerConfig:
    def test_warm_builtin_create_skips_busy_build_pool(self):
        """With the default single build worker, a warm builtin create
        must not queue behind a long cold CSV build — its validation is
        O(1) and its index is already cached."""
        app, _ = make_app(delay=0.5, build_workers=1)
        builtin = {"workload": "synthetic/1", "strategy": "TD", "seed": 0}

        async def scenario():
            status, _ = await app.dispatch("POST", "/sessions", dict(builtin))
            assert status == 201  # warms the cache
            cold = asyncio.ensure_future(
                app.dispatch("POST", "/sessions", csv_payload())
            )
            await asyncio.sleep(0.05)  # cold build occupies the 1 worker
            started = time.perf_counter()
            status, _ = await app.dispatch("POST", "/sessions", dict(builtin))
            warm_latency = time.perf_counter() - started
            assert status == 201
            assert not cold.done()  # the build really was in flight
            await cold
            return warm_latency

        try:
            warm_latency = asyncio.run(scenario())
        finally:
            app.manager.close()
        # Queuing behind the build would cost ~0.5 s; the slack covers
        # CI scheduling noise without blurring the two regimes.
        assert warm_latency < 0.35, (
            f"warm builtin create took {warm_latency:.3f}s behind a build"
        )

    def test_warm_upload_create_skips_busy_build_pool(self):
        """A warm uploaded-CSV create (parse + hash + cache hit) runs
        on the preprocessing pool, not behind the busy build worker."""
        app, _ = make_app(delay=0.5, build_workers=1)
        warm_payload = csv_payload(9)

        async def scenario():
            status, _ = await app.dispatch(
                "POST", "/sessions", dict(warm_payload)
            )
            assert status == 201  # warms the cache for fingerprint 9
            cold = asyncio.ensure_future(
                app.dispatch("POST", "/sessions", csv_payload(1))
            )
            await asyncio.sleep(0.05)
            started = time.perf_counter()
            status, created = await app.dispatch(
                "POST", "/sessions", dict(warm_payload)
            )
            warm_latency = time.perf_counter() - started
            assert status == 201 and created["index_cache_hit"]
            assert not cold.done()
            await cold
            return warm_latency

        try:
            warm_latency = asyncio.run(scenario())
        finally:
            app.manager.close()
        # Same regime separation as the builtin variant: blocked ≈ 0.5 s.
        assert warm_latency < 0.35, (
            f"warm upload create took {warm_latency:.3f}s behind a build"
        )


class TestBuildStatusEndpoint:
    def test_builds_visible_while_in_flight(self):
        app, _ = make_app(delay=0.3)

        async def scenario():
            create = asyncio.ensure_future(
                app.dispatch("POST", "/sessions", csv_payload())
            )
            await asyncio.sleep(0.1)
            status, during = await app.dispatch("GET", "/builds", None)
            assert status == 200
            await create
            status, after = await app.dispatch("GET", "/builds", None)
            return during, after

        try:
            during, after = asyncio.run(scenario())
        finally:
            app.manager.close()
        assert during["in_flight"] == 1
        (build,) = during["builds"]
        assert set(build) == {"key", "waiters", "elapsed_seconds"}
        assert build["elapsed_seconds"] >= 0
        assert build["waiters"] == 0
        assert after == {"builds": [], "in_flight": 0}

    def test_builds_rejects_non_get(self):
        app, _ = make_app(delay=0.0)

        async def scenario():
            return await app.dispatch("POST", "/builds", {})

        try:
            status, payload = asyncio.run(scenario())
        finally:
            app.manager.close()
        assert status == 400
        assert payload["error"] == "bad_request"

    def test_stats_carry_pipeline_counters(self):
        app, _ = make_app(delay=0.0)

        async def scenario():
            await app.dispatch("POST", "/sessions", csv_payload())
            return await app.dispatch("GET", "/stats", None)

        try:
            _, stats = asyncio.run(scenario())
        finally:
            app.manager.close()
        assert stats["build_workers"] == 2
        cache_stats = stats["index_cache"]
        assert cache_stats["in_flight"] == 0
        assert cache_stats["single_flight_waits"] == 0


class TestGetOrBuildAsync:
    def test_hashes_and_builds_off_loop_single_flight(self):
        """The server's async API, keyed by content fingerprint: one
        build for value-identical instances."""
        cache = IndexCache(builder=SlowBuilder(0.05))
        instance_a = Instance(
            Relation.build("R", ["A1"], [(1,), (2,)]),
            Relation.build("P", ["B1"], [(1,)]),
        )
        instance_b = Instance(
            Relation.build("R", ["A1"], [(1,), (2,)]),
            Relation.build("P", ["B1"], [(1,)]),
        )

        def keyed(instance):
            return cache.get_or_build_keyed_async(
                instance_fingerprint(instance), lambda: instance
            )

        async def scenario():
            return await asyncio.gather(keyed(instance_a), keyed(instance_b))

        (index_a, hit_a), (index_b, hit_b) = asyncio.run(scenario())
        assert index_a is index_b
        assert sorted((hit_a, hit_b)) == [False, True]
        assert cache.stats()["misses"] == 1
        assert cache.builder.builds == 1


class TestFingerprintMemoisation:
    def instance(self) -> Instance:
        return Instance(
            Relation.build("R", ["A1"], [(1,), (2,)]),
            Relation.build("P", ["B1"], [(1,)]),
        )

    def test_hash_computed_once_per_instance(self, monkeypatch):
        calls = {"count": 0}
        original = index_cache_module.json.dumps

        def counting_dumps(*args, **kwargs):
            calls["count"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(
            index_cache_module.json, "dumps", counting_dumps
        )
        instance = self.instance()
        first = instance_fingerprint(instance)
        second = instance_fingerprint(instance)
        assert first == second
        assert calls["count"] == 1

    def test_value_identical_instances_share_fingerprint(self):
        assert instance_fingerprint(self.instance()) == instance_fingerprint(
            self.instance()
        )

    def test_type_tagging_still_distinguishes(self):
        typed = Instance(
            Relation.build("R", ["A1"], [("1",), ("2",)]),
            Relation.build("P", ["B1"], [("1",)]),
        )
        assert instance_fingerprint(self.instance()) != instance_fingerprint(
            typed
        )


class TestCliPlumbing:
    def test_serve_flags_parse_and_reach_builder(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--build-workers",
                "3",
                "--max-sessions",
                "8",
            ]
        )
        assert args.build_workers == 3
        manager = manager_from_args(args)
        try:
            assert manager.build_workers == 3
            assert manager.max_sessions == 8
        finally:
            manager.close()

    def test_serve_defaults_single_shard(self):
        args = build_parser().parse_args(["serve"])
        assert args.build_workers == 1
        manager = manager_from_args(args)
        try:
            assert type(manager.index_cache.builder) is IndexBuilder
            # speculation defaults: on, depth 2, one full tree
            # (2^(depth+1) - 2 = 6 nodes) per build worker
            assert manager.speculate is True
            assert manager.speculation_depth == 2
            assert manager.speculation_slots == 6
            assert manager.speculation_min_think_seconds == 0.02
            assert manager._batcher is not None
        finally:
            manager.close()

    def test_serve_speculation_flags(self):
        args = build_parser().parse_args(["serve", "--no-speculate"])
        manager = manager_from_args(args)
        try:
            assert manager.speculate is False
        finally:
            manager.close()

    def test_serve_kernel_batch_flags(self):
        args = build_parser().parse_args(["serve", "--no-kernel-batch"])
        manager = manager_from_args(args)
        try:
            assert manager._batcher is None
            assert manager.stats()["kernel_batch"] == {"enabled": False}
        finally:
            manager.close()

    def test_serve_store_flags(self, tmp_path):
        from repro.service import SqliteSessionStore

        path = tmp_path / "sessions.db"
        args = build_parser().parse_args(
            [
                "serve",
                "--store",
                str(path),
                "--checkpoint-every",
                "5",
            ]
        )
        manager = manager_from_args(args)
        try:
            assert isinstance(manager.store, SqliteSessionStore)
            assert manager.store.path == str(path)
            assert manager.checkpoint_every == 5
        finally:
            manager.close()
            manager.store.close()

    def test_solo_store_server_shares_nothing_through_shm(self, tmp_path):
        """Only fleet siblings share /dev/shm tiers: a solo server with
        a store keeps its indexes and plan tables private, so an L2S
        round publishes no segment."""
        args = build_parser().parse_args(
            [
                "serve",
                "--store",
                str(tmp_path / "sessions.db"),
                "--index-cache-size",
                "5",
            ]
        )
        before = repro_shm_segments()
        manager = manager_from_args(args)
        try:
            assert manager.index_cache.shared_plane is None
            assert manager.plan_cache.shared is None
            stats = manager.stats()
            assert stats["index_cache"]["capacity"] == 5
            assert "shared" not in stats["index_cache"]
            assert "shared" not in stats["plan_cache"]
            managed = asyncio.run(
                manager.create_async(
                    parse_create_payload(
                        {"workload": "tpch/join4", "strategy": "L2S", "seed": 7}
                    )
                )
            )
            question = manager.propose_question(managed)
            manager.record_answer(
                managed, question.question_id, Label.NEGATIVE
            )
            assert manager.propose_question(managed) is not None
            assert repro_shm_segments() - before == set()
        finally:
            manager.close(wait=True)
            manager.store.close()

    def test_serve_defaults_no_store(self):
        args = build_parser().parse_args(["serve"])
        assert args.store is None
        assert args.checkpoint_every == 16
        manager = manager_from_args(args)
        try:
            assert manager.store is None
        finally:
            manager.close()

    def test_manager_validates_build_workers(self):
        with pytest.raises(ValueError):
            SessionManager(build_workers=0)

    def test_manager_validates_speculation_knobs(self):
        with pytest.raises(ValueError):
            SessionManager(speculation_slots=-1)
        with pytest.raises(ValueError):
            SessionManager(speculation_min_think_seconds=-0.1)

    def test_manager_validates_checkpoint_every(self):
        with pytest.raises(ValueError):
            SessionManager(checkpoint_every=0)
