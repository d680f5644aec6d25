"""Serving-fleet benchmark harness — emits ``BENCH_fleet.json``.

Measures what the multi-process fleet buys and what recovery costs:

* ``scaling`` — the same interactive TPC-H serving load (all five
  serving strategies, ``CLIENT_THREADS`` concurrent clients, durable
  store journaling every answer) driven through fleets of 1, 2 and 4
  workers; reports sessions/sec per worker count.  ``meta.cpu_count``
  records the machine the numbers came from: W workers cannot scale
  past min(W, cores).
* ``recovery`` — a 2-worker fleet loses one worker to ``kill -9``
  mid-session; reports the wall-clock from the kill to the victim
  session's next *successfully recorded answer* on a survivor (lease
  wait + takeover + rehydration, seen from the client), then finishes
  every session and parity-checks it.
* ``shared_index`` — what the zero-copy shared-memory index plane
  buys on the row-scaled largest Fig. 7 configuration: total
  index-resident bytes across a fleet vs the single-process figure
  (one machine-wide copy: ratio ≈ 1.0), and the p95 of a warm-fleet
  cold create resolved by *attaching* a sibling's segment vs one
  resolved by a private build.  Each timed create is classified
  attach/build/warm from the per-slot counter deltas on ``GET
  /fleet``, and the cell ends with a leaked-segment sweep.
* ``plan_cache`` — cross-worker reuse through the machine-wide plan
  cache: one full L2S session per slot over the same instance and
  seed, so the second slot rides the first slot's published entropy
  tables.  The cell reports the aggregated ``GET /fleet`` shared-tier
  hits and ends with a ``repro_plan_*`` leak sweep.

Every timed session's final predicate is parity-checked against the
in-process ``run_inference`` result before timings are trusted.  The
report holds measurements only; every bound on them is a row of the
gate table in ``check_trajectory.py``.

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet.py            # full run
    PYTHONPATH=src python benchmarks/bench_fleet.py --smoke    # CI smoke
    PYTHONPATH=src python benchmarks/bench_fleet.py --output my.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import tempfile
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import PerfectOracle, SignatureIndex, index_shm
from repro.core.serialize import instance_to_dict
from repro.data import generate_tpch, tpch_workloads
from repro.data.synthetic import SyntheticConfig, generate_synthetic
from repro.service import (
    PLAN_SEGMENT_PREFIX,
    FleetConfig,
    FleetServer,
    ServiceClient,
)

from bench_util import (
    bench_meta,
    drive_session,
    expected_pairs,
    latency_summary,
    percentile,
    remote_answerer,
)

TPCH_SEED = 0
TPCH_SCALE = 1.0
CLIENT_THREADS = 8
STRATEGIES = ["RND", "BU", "TD", "L1S", "L2S"]
RECOVERY_LEASE_TTL = 1.0
#: The shared-index cell runs the largest Fig. 7 configuration,
#: row-scaled exactly as ``bench_plan`` scales it: ``synthetic/0`` at
#: scale 24 is (3,3,2400,100).  Smoke uses scale 8 (~50 ms builds) to
#: stay a quick canary.
SHARED_INDEX_WORKLOAD = "synthetic/0"
SHARED_INDEX_SCALE = 24.0
SHARED_INDEX_SCALE_SMOKE = 8.0
#: The smoke times a cold create per seed on each side (a private build
#: on the single worker, an attach on the fleet), so it needs 20 seeds
#: for a p95 that is the 19th of 20 samples rather than one side's
#: maximum.
SHARED_INDEX_SEEDS_SMOKE = 20
#: The plan-cache cell drives one full adversarial L2S session per
#: slot over one synthetic instance; sizes keep the HTTP round-trips
#: bounded while leaving enough states for cross-worker reuse.
PLAN_CACHE_FLEET_CONFIG = SyntheticConfig(3, 3, 240, 40)
PLAN_CACHE_FLEET_CONFIG_SMOKE = SyntheticConfig(3, 3, 60, 10)


def _workload_oracle():
    workload = tpch_workloads(
        generate_tpch(scale=TPCH_SCALE, seed=TPCH_SEED)
    )[3]
    return workload, PerfectOracle(workload.instance, workload.goal)


def _check_parity(outcomes, workload, oracle):
    index = SignatureIndex(workload.instance)
    cache: dict[tuple[str, int], tuple[list, int]] = {}
    for (seed, strategy), final in outcomes:
        key = (strategy, seed)
        if key not in cache:
            cache[key] = expected_pairs(
                workload.instance, strategy, seed, oracle, index
            )
        pairs, interactions = cache[key]
        assert final["predicate"]["pairs"] == pairs, (
            f"parity failed: {strategy} seed={seed}"
        )
        assert final["progress"]["interactions"] == interactions


# --- cells -------------------------------------------------------------------


def bench_scaling(
    worker_counts: list[int], sessions: int, db_dir: str
) -> dict:
    """Sessions/sec for the same serving load at each fleet size."""
    workload, oracle = _workload_oracle()
    jobs = list(zip(range(sessions), itertools.cycle(STRATEGIES)))
    by_workers: dict[str, dict] = {}
    for workers in worker_counts:
        config = FleetConfig(
            store_path=os.path.join(db_dir, f"scale_w{workers}.db"),
            workers=workers,
            speculate=False,
        )
        latencies: list[float] = []
        with FleetServer(config) as server:
            started = time.perf_counter()
            with ThreadPoolExecutor(CLIENT_THREADS) as pool:
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
            elapsed = time.perf_counter() - started
        _check_parity(outcomes, workload, oracle)
        by_workers[str(workers)] = {
            "workers": workers,
            "sessions": sessions,
            "wall_seconds": round(elapsed, 3),
            "sessions_per_sec": round(sessions / elapsed, 3),
            "answer_latency": latency_summary(latencies),
        }
        print(
            f"[bench] {workers} worker(s): "
            f"{by_workers[str(workers)]['sessions_per_sec']} sessions/s "
            f"({elapsed:.1f}s wall)",
            flush=True,
        )
    return {
        "workload": "tpch/join4",
        "strategies": STRATEGIES,
        "client_threads": CLIENT_THREADS,
        "by_workers": by_workers,
        "parity_checked": True,
    }


def bench_recovery(sessions: int, db_dir: str) -> dict:
    """kill -9 one of two workers mid-session; time the takeover as
    the client sees it, then finish everything and check parity."""
    workload, oracle = _workload_oracle()
    answer = remote_answerer(oracle)
    config = FleetConfig(
        store_path=os.path.join(db_dir, "recovery.db"),
        workers=2,
        lease_ttl_seconds=RECOVERY_LEASE_TTL,
        checkpoint_every=4,
        speculate=False,
    )
    with FleetServer(config) as server:
        client = ServiceClient(
            server.host, server.port, retries=10, retry_backoff=0.2
        )
        opened = []
        unfinished = []
        for seed, strategy in zip(
            range(sessions), itertools.cycle(STRATEGIES)
        ):
            info = client.create_session(
                workload="tpch/join4",
                strategy=strategy,
                seed=seed,
                workload_seed=TPCH_SEED,
                scale=TPCH_SCALE,
            )
            sid = info["session_id"]
            # A few journaled answers so the takeover has a tail to
            # replay; fast strategies may finish inside the warmup,
            # so track which sessions still have questions pending.
            pending = True
            for _ in range(3):
                question = client.next_question(sid)
                if question is None:
                    pending = False
                    break
                client.post_answer(
                    sid, question["question_id"], answer(question)
                )
            opened.append((sid, seed, strategy))
            if pending:
                unfinished.append((sid, seed, strategy))

        assert unfinished, (
            "every session finished during warmup — nothing to take over"
        )
        victim = unfinished[0]
        dead_slot = zlib.crc32(victim[0].encode("utf-8")) % 2
        started = time.perf_counter()
        server.kill_worker(dead_slot)
        # First successful answer round on the victim session after the
        # kill: failover + lease wait + takeover + rehydrate + answer.
        question = client.next_question(victim[0])
        assert question is not None
        client.post_answer(
            victim[0], question["question_id"], answer(question)
        )
        takeover_seconds = time.perf_counter() - started
        print(
            f"[bench] kill -9 -> next recorded answer in "
            f"{takeover_seconds:.3f}s (lease TTL {RECOVERY_LEASE_TTL}s)",
            flush=True,
        )
        server.wait_for_slot(dead_slot)

        outcomes = []
        for sid, seed, strategy in opened:
            while (question := client.next_question(sid)) is not None:
                client.post_answer(
                    sid, question["question_id"], answer(question)
                )
            outcomes.append(((seed, strategy), client.predicate(sid)))
    _check_parity(outcomes, workload, oracle)
    return {
        "workload": "tpch/join4",
        "workers": 2,
        "sessions": sessions,
        "lease_ttl_seconds": RECOVERY_LEASE_TTL,
        "takeover_seconds": round(takeover_seconds, 4),
        "parity_checked": True,
    }


def _shm_segments() -> set[str]:
    """Current ``repro_idx_*`` names in ``/dev/shm`` (empty off-Linux)."""
    directory = "/dev/shm"
    if not os.path.isdir(directory):
        return set()
    return {
        entry
        for entry in os.listdir(directory)
        if entry.startswith(index_shm.SEGMENT_PREFIX)
    }


def _summary(samples: list[float]) -> dict:
    return latency_summary(samples) if samples else {"count": 0}


def _attach_build_totals(fleet_payload: dict) -> tuple[int, int]:
    """Fleet-wide (attach_hits, builds) from the aggregated payload."""
    shared = fleet_payload.get("shared_index", {})
    return (
        shared.get("attach_hits_total", 0),
        shared.get("builds_total", 0),
    )


def bench_shared_index(workers: int, seeds: int, db_dir: str, smoke: bool) -> dict:
    """Memory and cold-create latency, one worker vs a sharing fleet.

    The memory reference is a *single-worker* fleet with the plane on:
    one machine-wide flat segment per index, same encoding as the fleet
    side.  The ratio therefore isolates what the plane claims —
    N workers hold one copy, not N — instead of comparing flat-buffer
    bytes against heap numpy bytes, which at canary index sizes is
    dominated by the segment header and alignment padding, not by
    sharing."""
    scale = SHARED_INDEX_SCALE_SMOKE if smoke else SHARED_INDEX_SCALE
    supported = index_shm.shared_memory_available()
    cell: dict = {
        "workload": SHARED_INDEX_WORKLOAD,
        "scale": scale,
        "workers": workers,
        "seeds": seeds,
        "supported": supported,
    }
    if not supported:
        print(
            "[bench] shared-memory unavailable; shared_index cell skipped",
            flush=True,
        )
        return cell
    pre_existing = _shm_segments()

    def create(client: ServiceClient, seed: int) -> float:
        started = time.perf_counter()
        client.create_session(
            workload=SHARED_INDEX_WORKLOAD,
            strategy="RND",
            seed=0,
            workload_seed=seed,
            scale=scale,
        )
        return time.perf_counter() - started

    # Single-worker reference, plane on.  Every distinct workload_seed
    # is a value-distinct instance, so each create is a cold
    # build-and-publish: the timed latencies are the fleet's cold-build
    # path and the resident bytes are the same flat segments the fleet
    # attaches (the publish memcpy is noise against the build itself).
    config = FleetConfig(
        store_path=os.path.join(db_dir, "shmidx_single.db"),
        workers=1,
        speculate=False,
    )
    build_latencies: list[float] = []
    with FleetServer(config) as server:
        with ServiceClient(
            server.host, server.port, retries=10, retry_backoff=0.2
        ) as client:
            for seed in range(seeds):
                build_latencies.append(create(client, seed))
            single_memory = client.fleet()["memory"]
    single_resident = single_memory["index_resident_bytes_total"]

    # The shared fleet serves the same instances; every timed create is
    # classified by the fleet-wide attach/build counter delta it caused.
    config = FleetConfig(
        store_path=os.path.join(db_dir, "shmidx_fleet.db"),
        workers=workers,
        speculate=False,
    )
    attach_latencies: list[float] = []
    fleet_build_latencies: list[float] = []
    warm_hits = 0
    with FleetServer(config) as server:
        with ServiceClient(
            server.host, server.port, retries=10, retry_backoff=0.2
        ) as client:
            for seed in range(seeds):
                # Creates hash session ids uniformly over slots, so
                # ~3x workers of them land every worker at least once
                # with overwhelming probability: the first is the
                # build+publish, siblings attach, re-hits are warm.
                # The smoke keeps creating until every worker holds the
                # seed, so each seed yields workers - 1 attaches.
                resolved = creates = 0
                while creates < workers * 3 or (smoke and resolved < workers):
                    before = _attach_build_totals(client.fleet())
                    elapsed = create(client, seed)
                    after = _attach_build_totals(client.fleet())
                    creates += 1
                    if after[1] > before[1]:
                        fleet_build_latencies.append(elapsed)
                        resolved += 1
                    elif after[0] > before[0]:
                        attach_latencies.append(elapsed)
                        resolved += 1
                    else:
                        warm_hits += 1
            fleet_payload = client.fleet()
    fleet_memory = fleet_payload["memory"]
    fleet_resident = fleet_memory["index_resident_bytes_total"]

    leaked = sorted(_shm_segments() - pre_existing)
    memory_ratio = (
        round(fleet_resident / single_resident, 3)
        if single_resident
        else None
    )
    build_p95 = percentile(build_latencies, 95) if build_latencies else None
    attach_p95 = (
        percentile(attach_latencies, 95) if attach_latencies else None
    )
    attach_speedup = (
        round(build_p95 / attach_p95, 3)
        if build_p95 and attach_p95
        else None
    )
    cell.update(
        {
            "single_resident_bytes": single_resident,
            "fleet_resident_bytes": fleet_resident,
            "fleet_private_bytes": fleet_memory[
                "index_private_bytes_total"
            ],
            "fleet_shared_bytes": fleet_memory["index_shared_bytes"],
            "memory_ratio": memory_ratio,
            "private_build_latency": _summary(build_latencies),
            "attach_latency": _summary(attach_latencies),
            "fleet_build_latency": _summary(fleet_build_latencies),
            "warm_hits": warm_hits,
            "attach_speedup_p95": attach_speedup,
            "counters": fleet_payload.get("shared_index", {}),
            "leaked_segments": leaked,
        }
    )
    print(
        f"[bench] shared index: resident {fleet_resident}B across "
        f"{workers} workers vs {single_resident}B single "
        f"(ratio {memory_ratio}); attach p95 "
        f"{cell['attach_latency'].get('p95_ms')}ms vs build p95 "
        f"{cell['private_build_latency'].get('p95_ms')}ms "
        f"({attach_speedup}x)",
        flush=True,
    )
    return cell


def _plan_segments() -> set[str]:
    """Current ``repro_plan_*`` names in ``/dev/shm`` (empty off-Linux)."""
    directory = "/dev/shm"
    if not os.path.isdir(directory):
        return set()
    return {
        entry
        for entry in os.listdir(directory)
        if entry.startswith(PLAN_SEGMENT_PREFIX)
    }


def bench_plan_cache_fleet(db_dir: str, smoke: bool) -> dict:
    """Cross-worker entropy-table reuse through the plan cache.

    One full adversarial L2S session per slot over the same inline
    instance and seed: identical trajectories, so every state the
    second slot scores was already published by the first.  The
    question sequences are asserted identical before the counters are
    trusted, and the cell ends with a ``repro_plan_*`` leak sweep."""
    config = (
        PLAN_CACHE_FLEET_CONFIG_SMOKE if smoke else PLAN_CACHE_FLEET_CONFIG
    )
    supported = index_shm.shared_memory_available()
    cell: dict = {
        "config": config.label,
        "workers": 2,
        "strategy": "L2S",
        "oracle": "adversarial (all-negative)",
        "supported": supported,
    }
    if not supported:
        print(
            "[bench] shared-memory unavailable; plan_cache cell skipped",
            flush=True,
        )
        return cell
    pre_existing = _plan_segments()
    instance = generate_synthetic(config, seed=7)
    snapshot = {
        "kind": "session_snapshot",
        "version": 1,
        "instance": {"inline": instance_to_dict(instance)},
        "strategy": "L2S",
        "seed": 0,
        "max_questions": None,
        "labeled": [],
    }
    fleet = FleetConfig(
        store_path=os.path.join(db_dir, "plan_fleet.db"),
        workers=2,
        speculate=False,
    )
    asked: dict[int, list] = {}
    walls: dict[int, float] = {}
    with FleetServer(fleet) as server:
        with ServiceClient(
            server.host, server.port, retries=10, retry_backoff=0.2
        ) as client:
            # Session ids hash uniformly over the two slots, so a
            # handful of creates lands each slot with overwhelming
            # probability; extra sessions on a covered slot are left
            # undriven.
            for _ in range(24):
                sid = client.resume(dict(snapshot))["session_id"]
                slot = zlib.crc32(sid.encode("utf-8")) % 2
                if slot in asked:
                    continue
                transcript = []
                started = time.perf_counter()
                question = client.next_question(sid)
                while question is not None:
                    transcript.append(
                        [question["left"]["row"], question["right"]["row"]]
                    )
                    client.post_answer(sid, question["question_id"], "-")
                    question = client.next_question(sid)
                walls[slot] = round(time.perf_counter() - started, 4)
                asked[slot] = transcript
                if len(asked) == 2:
                    break
            payload = client.fleet()
    assert len(asked) == 2, "24 creates never covered both slots"
    assert asked[0] == asked[1], (
        "identical sessions diverged across workers"
    )
    leaked = sorted(_plan_segments() - pre_existing)
    counters = payload.get("plan_cache", {})
    cell.update(
        {
            "questions_per_session": len(asked[0]),
            "session_wall_seconds_by_slot": {
                str(slot): walls[slot] for slot in sorted(walls)
            },
            "counters": counters,
            "shared_hits_total": counters.get("shared_hits_total", 0),
            "leaked_segments": leaked,
            "parity_checked": True,
        }
    )
    print(
        f"[bench] fleet plan cache ({len(asked[0])} questions/slot): "
        f"{cell['shared_hits_total']} cross-worker shared hits, "
        f"{counters.get('shared_entries')} machine-wide entries",
        flush=True,
    )
    return cell


# --- harness -----------------------------------------------------------------


def run_benchmarks(smoke: bool = False) -> dict:
    worker_counts = [1, 2] if smoke else [1, 2, 4]
    sessions = 8 if smoke else 24
    with tempfile.TemporaryDirectory(prefix="bench_fleet_") as db_dir:
        scaling = bench_scaling(worker_counts, sessions, db_dir)
        recovery = bench_recovery(4 if smoke else 6, db_dir)
        shared_index = bench_shared_index(
            workers=2 if smoke else 4,
            seeds=SHARED_INDEX_SEEDS_SMOKE if smoke else 6,
            db_dir=db_dir,
            smoke=smoke,
        )
        plan_cache = bench_plan_cache_fleet(db_dir, smoke)

    workers_max = worker_counts[-1]
    by_workers = scaling["by_workers"]
    return {
        "meta": bench_meta(
            smoke=smoke, transport="HTTP/1.1 keep-alive over loopback"
        ),
        "scaling": scaling,
        "recovery": recovery,
        "shared_index": shared_index,
        "plan_cache": plan_cache,
        "acceptance": {
            "workers_max": workers_max,
            "sessions_per_sec_single": by_workers["1"]["sessions_per_sec"],
            "sessions_per_sec_max_workers": by_workers[str(workers_max)][
                "sessions_per_sec"
            ],
            "takeover_seconds": recovery["takeover_seconds"],
            "lease_ttl_seconds": recovery["lease_ttl_seconds"],
            "recovery_parity": recovery["parity_checked"],
            "scaling_parity": scaling["parity_checked"],
            "shared_index_supported": shared_index["supported"],
            "plan_cache_supported": plan_cache["supported"],
            "plan_shared_hits_total": plan_cache.get("shared_hits_total", 0),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=str(
            Path(__file__).resolve().parent.parent / "BENCH_fleet.json"
        ),
        help="where to write the JSON report (default: repo root)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="8 sessions, fleets of 1 and 2 — a CI regression canary",
    )
    args = parser.parse_args(argv)
    report = run_benchmarks(smoke=args.smoke)
    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    acceptance = report["acceptance"]
    print(
        f"  sessions/s on {report['meta']['cpu_count']} cores: "
        + ", ".join(
            f"{workers} worker(s) {cell['sessions_per_sec']}"
            for workers, cell in report["scaling"]["by_workers"].items()
        )
    )
    print(
        f"  kill -9 takeover {acceptance['takeover_seconds']}s "
        f"(lease TTL {acceptance['lease_ttl_seconds']}s)"
    )
    shared = report["shared_index"]
    if shared["supported"]:
        print(
            f"  shared index: memory ratio {shared['memory_ratio']}, "
            f"attach p95 speedup {shared['attach_speedup_p95']}x"
        )
    if acceptance["plan_cache_supported"]:
        print(
            f"  plan cache: {acceptance['plan_shared_hits_total']} "
            f"cross-worker shared hits"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
