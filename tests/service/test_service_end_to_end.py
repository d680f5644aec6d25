"""End-to-end tests over real HTTP: concurrent remote sessions must
reproduce exactly what the in-process Algorithm 1 loop infers.

The acceptance scenario: ≥ 32 sessions driven concurrently against one
server, all on the same TPC-H workload so a single cached signature
index serves every session; each runs to the strongest halt condition
(no informative tuple left) and its predicate must equal the in-process
``run_inference`` result for the same strategy and seed.  Snapshot +
server restart + resume must land on the identical final predicate.
"""

import itertools
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import (
    PerfectOracle,
    SignatureIndex,
    run_inference,
    strategy_by_name,
)
from repro.data import generate_tpch, tpch_workloads
from repro.service import (
    IndexCache,
    ServiceClient,
    ServiceClientError,
    ServiceServer,
    SessionManager,
)

from ..conftest import on_server_loop

WORKLOAD_NAME = "tpch/join4"
TPCH_SEED = 0
TPCH_SCALE = 1.0


@pytest.fixture(scope="module")
def join4():
    return tpch_workloads(
        generate_tpch(scale=TPCH_SCALE, seed=TPCH_SEED)
    )[3]


@pytest.fixture(scope="module")
def join4_index(join4):
    return SignatureIndex(join4.instance)


def remote_answerer(oracle):
    """Adapt a local oracle to question payloads from the wire."""

    def answer(question):
        pair = (
            tuple(question["left"]["row"]),
            tuple(question["right"]["row"]),
        )
        return str(oracle.label(pair))

    return answer


class TestConcurrentSessions:
    def test_32_sessions_share_one_index_and_match_inprocess(
        self, join4, join4_index
    ):
        """The acceptance scenario (see module docstring)."""
        oracle = PerfectOracle(join4.instance, join4.goal)
        strategies = ["RND", "BU", "TD", "L1S", "L2S"]
        jobs = [
            (name, seed)
            for seed, name in zip(
                range(32), itertools.cycle(strategies)
            )
        ]
        manager = SessionManager(
            index_cache=IndexCache(), max_sessions=64
        )

        def drive(job):
            name, seed = job
            with ServiceClient(server.host, server.port) as client:
                info = client.create_session(
                    workload=WORKLOAD_NAME,
                    strategy=name,
                    seed=seed,
                    workload_seed=TPCH_SEED,
                    scale=TPCH_SCALE,
                )
                final = client.drive(
                    info["session_id"], remote_answerer(oracle)
                )
                return name, seed, final

        with ServiceServer(manager=manager) as server:
            with ThreadPoolExecutor(max_workers=16) as pool:
                outcomes = list(pool.map(drive, jobs))
            stats = ServiceClient(server.host, server.port).stats()

        for name, seed, final in outcomes:
            reference = run_inference(
                join4.instance,
                strategy_by_name(name),
                oracle,
                index=join4_index,
                seed=seed,
            )
            expected = [
                [str(a), str(b)]
                for a, b in reference.predicate.sorted_pairs()
            ]
            assert final["predicate"]["pairs"] == expected, (
                f"{name} seed={seed} diverged from in-process run"
            )
            assert final["progress"]["done"]
            assert (
                final["progress"]["interactions"]
                == reference.interactions
            )

        cache = stats["index_cache"]
        assert cache["entries"] == 1  # one shared TPC-H index
        assert cache["misses"] == 1
        assert cache["hit_ratio"] > 0.9
        assert stats["sessions"] == 32

    def test_interleaved_sessions_do_not_corrupt_each_other(self, join4):
        """Concurrency regression: two sessions on the same cached index,
        answered strictly interleaved, with *different* goals — each must
        end exactly where its isolated in-process twin ends."""
        goal_a = join4.goal  # orderkey = orderkey
        goal_b = join4.goal.parse(
            "orders.custkey = lineitem.suppkey"
        )
        oracle_a = PerfectOracle(join4.instance, goal_a)
        oracle_b = PerfectOracle(join4.instance, goal_b)
        with ServiceServer() as server:
            client = ServiceClient(server.host, server.port)
            sid_a = client.create_session(
                workload=WORKLOAD_NAME, strategy="BU", seed=1
            )["session_id"]
            sid_b = client.create_session(
                workload=WORKLOAD_NAME, strategy="BU", seed=1
            )["session_id"]
            manager = server.manager
            managed = on_server_loop(server, manager.get_async(sid_a))
            other = on_server_loop(server, manager.get_async(sid_b))
            assert managed.session.index is other.session.index
            answer_a = remote_answerer(oracle_a)
            answer_b = remote_answerer(oracle_b)
            live = {sid_a: answer_a, sid_b: answer_b}
            while live:
                for sid, answer in list(live.items()):
                    question = client.next_question(sid)
                    if question is None:
                        del live[sid]
                        continue
                    client.post_answer(
                        sid, question["question_id"], answer(question)
                    )
            final_a = client.predicate(sid_a)
            final_b = client.predicate(sid_b)
            client.close()

        shared_index = SignatureIndex(join4.instance)
        for final, goal in ((final_a, goal_a), (final_b, goal_b)):
            reference = run_inference(
                join4.instance,
                strategy_by_name("BU"),
                PerfectOracle(join4.instance, goal),
                index=shared_index,
                seed=1,
            )
            assert final["predicate"]["pairs"] == [
                [str(a), str(b)]
                for a, b in reference.predicate.sorted_pairs()
            ]
            assert (
                final["progress"]["interactions"]
                == reference.interactions
            )

    def test_parallel_answers_against_one_session_stay_sequential(
        self, join4
    ):
        """Hammer a single session from 8 threads: exactly one answer per
        question can land (others get 409), and the session still ends in
        the correct predicate."""
        oracle = PerfectOracle(join4.instance, join4.goal)
        with ServiceServer() as server:
            control = ServiceClient(server.host, server.port)
            sid = control.create_session(
                workload=WORKLOAD_NAME, strategy="TD", seed=3
            )["session_id"]
            conflicts = []
            lock = threading.Lock()

            def hammer():
                with ServiceClient(server.host, server.port) as client:
                    while True:
                        question = client.next_question(sid)
                        if question is None:
                            return
                        try:
                            client.post_answer(
                                sid,
                                question["question_id"],
                                remote_answerer(oracle)(question),
                            )
                        except ServiceClientError as exc:
                            if exc.status != 409:
                                raise
                            with lock:
                                conflicts.append(exc.code)

            with ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(8):
                    pool.submit(hammer)
            final = control.predicate(sid)
            control.close()

        reference = run_inference(
            join4.instance,
            strategy_by_name("TD"),
            oracle,
            seed=3,
        )
        assert final["predicate"]["pairs"] == [
            [str(a), str(b)]
            for a, b in reference.predicate.sorted_pairs()
        ]
        assert final["progress"]["interactions"] == reference.interactions


class TestSnapshotRestartResume:
    def test_snapshot_survives_server_restart(self, join4):
        """Answer half the questions, snapshot, kill the server, start a
        brand-new one (empty cache), resume, finish — the final predicate
        must equal the uninterrupted in-process run."""
        oracle = PerfectOracle(join4.instance, join4.goal)
        reference = run_inference(
            join4.instance,
            strategy_by_name("L2S"),
            oracle,
            seed=13,
        )
        cut = max(1, reference.interactions // 2)

        with ServiceServer() as first:
            client = ServiceClient(first.host, first.port)
            sid = client.create_session(
                workload=WORKLOAD_NAME, strategy="L2S", seed=13
            )["session_id"]
            for _ in range(cut):
                question = client.next_question(sid)
                client.post_answer(
                    sid,
                    question["question_id"],
                    remote_answerer(oracle)(question),
                )
            snapshot = client.snapshot(sid)
            client.close()

        assert snapshot["instance"]["builtin"]["name"] == WORKLOAD_NAME
        assert len(snapshot["labeled"]) == cut

        with ServiceServer() as second:
            client = ServiceClient(second.host, second.port)
            resumed = client.resume(snapshot)
            rid = resumed["session_id"]
            assert resumed["progress"]["interactions"] == cut
            final = client.drive(rid, remote_answerer(oracle))
            client.close()

        assert final["predicate"]["pairs"] == [
            [str(a), str(b)]
            for a, b in reference.predicate.sorted_pairs()
        ]
        assert final["progress"]["interactions"] == reference.interactions

    def test_uploaded_csv_snapshot_is_self_contained(self):
        """Inline (uploaded) sessions snapshot with their data embedded,
        so resume works on a server that never saw the upload."""
        csv = {
            "left": {"name": "R", "text": "A1,A2\n0,1\n0,2\n2,2\n1,0\n"},
            "right": {"name": "P", "text": "B1,B2,B3\n1,1,0\n0,1,2\n2,0,0\n"},
        }
        with ServiceServer() as first:
            client = ServiceClient(first.host, first.port)
            sid = client.create_session(
                csv=csv, strategy="OPT", seed=0, infer_types=True
            )["session_id"]
            question = client.next_question(sid)
            client.post_answer(sid, question["question_id"], "-")
            snapshot = client.snapshot(sid)
            client.close()

        assert "inline" in snapshot["instance"]

        with ServiceServer() as second:
            client = ServiceClient(second.host, second.port)
            resumed = client.resume(snapshot)
            assert resumed["progress"]["interactions"] == 1
            final = client.drive(
                resumed["session_id"], lambda question: "-"
            )
            client.close()
        assert final["progress"]["done"]


class TestServiceHygiene:
    def test_capacity_limit_surfaces_as_429(self):
        manager = SessionManager(max_sessions=1)
        with ServiceServer(manager=manager) as server:
            client = ServiceClient(server.host, server.port)
            client.create_session(workload="synthetic/1", seed=0)
            with pytest.raises(ServiceClientError) as excinfo:
                client.create_session(workload="synthetic/1", seed=0)
            assert excinfo.value.status == 429
            client.close()

    def test_delete_frees_capacity(self):
        manager = SessionManager(max_sessions=1)
        with ServiceServer(manager=manager) as server:
            client = ServiceClient(server.host, server.port)
            sid = client.create_session(
                workload="synthetic/1", seed=0
            )["session_id"]
            client.delete_session(sid)
            client.create_session(workload="synthetic/1", seed=0)
            assert client.stats()["index_cache"]["hit_ratio"] == 0.5
            client.close()

    def test_session_listing(self):
        with ServiceServer() as server:
            client = ServiceClient(server.host, server.port)
            client.create_session(workload="synthetic/2", strategy="BU")
            client.create_session(workload="synthetic/2", strategy="TD")
            sessions = client.list_sessions()
            assert {s["strategy"] for s in sessions} == {"BU", "TD"}
            assert all(
                s["workload"]["name"] == "synthetic/2" for s in sessions
            )
            client.close()

    def test_busy_port_fails_at_once_with_the_bind_error(self):
        busy = socket.create_server(("127.0.0.1", 0))
        try:
            server = ServiceServer(port=busy.getsockname()[1])
            started = time.monotonic()
            with pytest.raises(RuntimeError) as excinfo:
                server.start()
            assert time.monotonic() - started < 5.0
            assert isinstance(excinfo.value.__cause__, OSError)
        finally:
            busy.close()


class TestPlanCacheStats:
    def test_stats_expose_the_plan_cache_block(self):
        manager = SessionManager(speculate=False)
        with ServiceServer(manager=manager) as server:
            client = ServiceClient(server.host, server.port)
            info = client.create_session(
                workload="tpch/join2", strategy="L2S", seed=3
            )
            question = client.next_question(info["session_id"])
            client.post_answer(
                info["session_id"], question["question_id"], "-"
            )
            client.next_question(info["session_id"])
            plan = client.plan_cache_stats()
            assert plan["enabled"]
            assert plan == client.stats()["plan_cache"]
            assert plan["computes"] >= 1
            assert plan["misses"] == (
                plan["local_hits"]
                + plan["shared_hits"]
                + plan["computes"]
            )
            client.close()

    def test_disabled_cache_reports_enabled_false(self):
        manager = SessionManager(speculate=False, plan_cache=False)
        with ServiceServer(manager=manager) as server:
            client = ServiceClient(server.host, server.port)
            assert client.plan_cache_stats() == {"enabled": False}
            client.close()
