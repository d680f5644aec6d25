"""Durable-session-store benchmark harness — emits ``BENCH_store.json``.

Measures what the persistence layer costs and what it buys:

* ``journal_overhead`` — the serving benchmark's concurrent-session
  cell (≥ 64 interactive TPC-H sessions, 16 client threads, one cached
  index) run twice: without a store and with a SQLite WAL store
  journaling every answer.  The gate: answer p95 with journaling stays
  within **15 %** of the store-less run — journal writes are batched
  off the event loop behind per-session single-flight, so the answer
  path never waits on a disk transaction.
* ``rehydrate`` — p50/p95 wall-clock of touching a demoted session:
  load checkpoint + journal tail from SQLite and replay it through
  propose/answer on the build pool.
* ``crash_recovery`` — a real ``kill -9``: a child process journals a
  session's answers and is killed without any shutdown; the parent
  reopens the store, recovers the session, **verifies the continuation
  is bit-for-bit identical** to an uninterrupted run, and reports the
  recover wall-clock.

Every timed session is parity-checked against the in-process
``run_inference`` result before timings are trusted.

Usage::

    PYTHONPATH=src python benchmarks/bench_store.py            # full run
    PYTHONPATH=src python benchmarks/bench_store.py --smoke    # CI smoke
    PYTHONPATH=src python benchmarks/bench_store.py --output my.json
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import (
    PerfectOracle,
    SignatureIndex,
    run_inference,
    strategy_by_name,
)
from repro.data import generate_tpch, tpch_workloads
from repro.service import (
    IndexCache,
    ServiceServer,
    SessionManager,
    SqliteSessionStore,
)

from bench_util import bench_meta, drive_session, latency_summary

TPCH_SEED = 0
TPCH_SCALE = 1.0
CLIENT_THREADS = 16
OVERHEAD_GATE_PCT = 15.0


def _serving_run(sessions, oracle, store=None):
    """One concurrent-serving pass; returns (latencies, outcomes, stats)."""
    strategies = ["RND", "BU", "TD", "L1S", "L2S"]
    jobs = list(zip(range(sessions), itertools.cycle(strategies)))
    latencies: list[float] = []
    manager = SessionManager(
        index_cache=IndexCache(),
        max_sessions=sessions * 2,
        store=store,
        speculate=False,
    )
    with ServiceServer(manager=manager) as server:
        with ThreadPoolExecutor(max_workers=CLIENT_THREADS) as pool:
            outcomes = list(
                pool.map(
                    lambda job: (
                        job,
                        drive_session(
                            server,
                            "tpch/join4",
                            job[1],
                            job[0],
                            oracle,
                            latencies,
                            workload_seed=TPCH_SEED,
                            scale=TPCH_SCALE,
                        ),
                    ),
                    jobs,
                )
            )
        manager.flush_store()
        stats = manager.stats()
    return latencies, outcomes, stats


def _check_parity(outcomes, workload, reference_index, oracle):
    cache: dict[tuple[str, int], tuple[list, int]] = {}
    for (seed, strategy), final in outcomes:
        key = (strategy, seed)
        if key not in cache:
            result = run_inference(
                workload.instance,
                strategy_by_name(strategy),
                oracle,
                index=reference_index,
                seed=seed,
            )
            cache[key] = (
                [
                    [str(a), str(b)]
                    for a, b in result.predicate.sorted_pairs()
                ],
                result.interactions,
            )
        expected, interactions = cache[key]
        assert final["predicate"]["pairs"] == expected, (
            f"parity failed: {strategy} seed={seed}"
        )
        assert final["progress"]["interactions"] == interactions


# --- cells -------------------------------------------------------------------


def bench_journal_overhead(sessions: int, db_dir: str) -> dict:
    """Answer p95 with journaling vs without, same serving load."""
    workload = tpch_workloads(
        generate_tpch(scale=TPCH_SCALE, seed=TPCH_SEED)
    )[3]
    oracle = PerfectOracle(workload.instance, workload.goal)
    reference_index = SignatureIndex(workload.instance)

    plain_lat, plain_out, _ = _serving_run(sessions, oracle, store=None)
    _check_parity(plain_out, workload, reference_index, oracle)

    store = SqliteSessionStore(os.path.join(db_dir, "bench_overhead.db"))
    store_lat, store_out, stats = _serving_run(
        sessions, oracle, store=store
    )
    _check_parity(store_out, workload, reference_index, oracle)
    store_stats = stats["store"]
    # every answer of every session must actually have been journaled
    assert store_stats["journal_appends"] == len(store_lat), (
        f"journaled {store_stats['journal_appends']} answers, "
        f"recorded {len(store_lat)}"
    )
    store.close()

    plain = latency_summary(plain_lat)
    journaled = latency_summary(store_lat)
    overhead_pct = round(
        (journaled["p95_ms"] / plain["p95_ms"] - 1.0) * 100.0, 2
    )
    return {
        "workload": "tpch/join4",
        "sessions": sessions,
        "client_threads": CLIENT_THREADS,
        "answers": len(store_lat),
        "plain_answer_latency": plain,
        "store_answer_latency": journaled,
        "overhead_p95_pct": overhead_pct,
        "store_stats": store_stats,
        "parity_checked": True,
    }


def bench_rehydrate(sessions: int, answers_each: int, db_dir: str) -> dict:
    """Wall-clock of touching a demoted session (load + replay)."""
    workload = tpch_workloads(
        generate_tpch(scale=TPCH_SCALE, seed=TPCH_SEED)
    )[3]
    oracle = PerfectOracle(workload.instance, workload.goal)
    store = SqliteSessionStore(os.path.join(db_dir, "bench_rehydrate.db"))
    manager = SessionManager(
        index_cache=IndexCache(),
        max_sessions=sessions * 2,
        store=store,
        speculate=False,
    )
    from repro.service.protocol import parse_create_payload

    ids = []
    for seed in range(sessions):
        managed = asyncio.run(
            manager.create_async(
                parse_create_payload(
                    {"workload": "tpch/join4", "strategy": "L2S", "seed": seed}
                )
            )
        )
        recorded = 0
        while recorded < answers_each:
            question = manager.propose_question(managed)
            if question is None:
                break
            manager.record_answer(
                managed,
                question.question_id,
                oracle.label(question.tuple_pair),
            )
            recorded += 1
        ids.append((managed.session_id, recorded))
    manager.demote_all()
    manager.flush_store()

    async def rehydrate_each() -> list[float]:
        # One event loop for every touch: its start-up stays out of
        # the timed region.
        latencies = []
        for session_id, recorded in ids:
            started = time.perf_counter()
            rehydrated = await manager.get_async(session_id)
            latencies.append(time.perf_counter() - started)
            assert rehydrated.session.state.interaction_count == recorded
            manager.demote(session_id)  # keep live-set size constant
        return latencies

    latencies = asyncio.run(rehydrate_each())
    manager.close(wait=True)
    store.close()
    return {
        "workload": "tpch/join4",
        "sessions": sessions,
        "answers_each": answers_each,
        "rehydrate_latency": latency_summary(latencies),
    }


_CRASH_CHILD = """
import asyncio, json, os, signal, sys

config = json.load(open(sys.argv[1]))

from repro.core import PerfectOracle
from repro.data import generate_tpch, tpch_workloads
from repro.service import SessionManager, SqliteSessionStore
from repro.service.protocol import parse_create_payload

workload = tpch_workloads(generate_tpch(scale=1.0, seed=0))[3]
oracle = PerfectOracle(workload.instance, workload.goal)
store = SqliteSessionStore(config["db"])
manager = SessionManager(store=store, speculate=False, checkpoint_every=4)
managed = asyncio.run(
    manager.create_async(
        parse_create_payload(
            {
                "workload": "tpch/join4",
                "strategy": config["strategy"],
                "seed": config["seed"],
            }
        )
    )
)
asked = []
for _ in range(config["cut"]):
    question = manager.propose_question(managed)
    if question is None:
        break
    asked.append(question.class_id)
    manager.record_answer(
        managed, question.question_id, oracle.label(question.tuple_pair)
    )
manager.flush_store()
print(
    json.dumps({"session_id": managed.session_id, "asked": asked}),
    flush=True,
)
os.kill(os.getpid(), signal.SIGKILL)
"""


def bench_crash_recovery(db_dir: str) -> dict:
    """kill -9 a journaling process; time reopen + recover, check parity."""
    workload = tpch_workloads(
        generate_tpch(scale=TPCH_SCALE, seed=TPCH_SEED)
    )[3]
    oracle = PerfectOracle(workload.instance, workload.goal)
    seed = 13
    strategy = "RND"  # the longest join4 sessions: >= 10 journaled answers
    reference = run_inference(
        workload.instance,
        strategy_by_name(strategy),
        oracle,
        index=SignatureIndex(workload.instance),
        seed=seed,
    )
    cut = min(max(1, reference.interactions - 2), 12)

    db = os.path.join(db_dir, "bench_crash.db")
    child = os.path.join(db_dir, "crash_child.py")
    config = os.path.join(db_dir, "crash_config.json")
    Path(child).write_text(_CRASH_CHILD)
    Path(config).write_text(
        json.dumps(
            {"db": db, "seed": seed, "cut": cut, "strategy": strategy}
        )
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, child, config],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert result.returncode == -signal.SIGKILL, result.stderr
    report = json.loads(result.stdout)

    started = time.perf_counter()
    store = SqliteSessionStore(db)
    manager = SessionManager(store=store, speculate=False)
    recovered = asyncio.run(manager.get_async(report["session_id"]))
    recover_seconds = time.perf_counter() - started
    assert recovered.session.state.interaction_count == cut

    remaining = []
    while True:
        question = manager.propose_question(recovered)
        if question is None:
            break
        remaining.append(question.class_id)
        manager.record_answer(
            recovered,
            question.question_id,
            oracle.label(question.tuple_pair),
        )
    final = recovered.session.current_predicate()
    manager.close(wait=True)
    store.close()

    # the recovered continuation must equal the uninterrupted run
    uninterrupted = []
    from repro.core import InferenceSession

    twin = InferenceSession(
        workload.instance,
        strategy_by_name(strategy),
        index=SignatureIndex(workload.instance),
        seed=seed,
    )
    while not twin.is_finished():
        question = twin.propose()
        uninterrupted.append(question.class_id)
        twin.answer(
            question.question_id, oracle.label(question.tuple_pair)
        )
    assert report["asked"] == uninterrupted[:cut]
    assert remaining == uninterrupted[cut:], (
        "recovered session diverged from the uninterrupted run"
    )
    assert final == reference.predicate
    return {
        "workload": "tpch/join4",
        "strategy": strategy,
        "journaled_answers": cut,
        "remaining_answers": len(remaining),
        "recover_wall_seconds": round(recover_seconds, 4),
        "identical_remaining_sequence": True,
    }


# --- harness -----------------------------------------------------------------


def run_benchmarks(smoke: bool = False) -> dict:
    sessions = 16 if smoke else 64
    with tempfile.TemporaryDirectory(prefix="bench_store_") as db_dir:
        print(
            f"[bench] journal overhead at {sessions} concurrent sessions",
            flush=True,
        )
        overhead = bench_journal_overhead(sessions, db_dir)
        print(
            f"[bench] answer p95 {overhead['plain_answer_latency']['p95_ms']}ms"
            f" plain vs {overhead['store_answer_latency']['p95_ms']}ms"
            f" journaled ({overhead['overhead_p95_pct']:+.1f}%)",
            flush=True,
        )
        rehydrate = bench_rehydrate(
            8 if smoke else 32, 6, db_dir
        )
        print(
            f"[bench] rehydrate p95 "
            f"{rehydrate['rehydrate_latency']['p95_ms']}ms",
            flush=True,
        )
        crash = bench_crash_recovery(db_dir)
        print(
            f"[bench] kill -9 -> recover in "
            f"{crash['recover_wall_seconds']}s "
            f"({crash['journaled_answers']} answers journaled)",
            flush=True,
        )

    return {
        "meta": bench_meta(
            smoke=smoke, transport="HTTP/1.1 keep-alive over loopback"
        ),
        "journal_overhead": overhead,
        "rehydrate": rehydrate,
        "crash_recovery": crash,
        "acceptance": {
            "journal_overhead_p95_pct": overhead["overhead_p95_pct"],
            "journal_overhead_max_pct": OVERHEAD_GATE_PCT,
            "overhead_gate": (
                overhead["overhead_p95_pct"] < OVERHEAD_GATE_PCT
            ),
            "rehydrate_p95_ms": rehydrate["rehydrate_latency"]["p95_ms"],
            "recover_wall_seconds": crash["recover_wall_seconds"],
            "crash_recovery_identical": crash[
                "identical_remaining_sequence"
            ],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=str(
            Path(__file__).resolve().parent.parent / "BENCH_store.json"
        ),
        help="where to write the JSON report (default: repo root)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="16 sessions — a CI regression canary",
    )
    args = parser.parse_args(argv)
    report = run_benchmarks(smoke=args.smoke)
    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    acceptance = report["acceptance"]
    print(
        f"  journal overhead: answer p95 "
        f"{acceptance['journal_overhead_p95_pct']:+.1f}% "
        f"(gate < {acceptance['journal_overhead_max_pct']}%)"
    )
    print(
        f"  rehydrate p95 {acceptance['rehydrate_p95_ms']}ms, "
        f"kill -9 recover {acceptance['recover_wall_seconds']}s"
    )
    gates = [
        ("crash_recovery_identical", acceptance["crash_recovery_identical"]),
    ]
    if not report["meta"]["smoke"]:
        # The smoke run's 16-session overhead is gated (with tolerance)
        # by benchmarks/check_trajectory.py in CI; the committed
        # full-run report must satisfy the hard 15% gate itself.
        gates.append(("overhead_gate", acceptance["overhead_gate"]))
    for name, ok in gates:
        print(f"acceptance: {name} → {'OK' if ok else 'FAIL'}")
    return 0 if all(ok for _, ok in gates) else 1


if __name__ == "__main__":
    raise SystemExit(main())
