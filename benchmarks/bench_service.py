"""Serving-layer benchmark harness — emits ``BENCH_service.json``.

A load generator against the :mod:`repro.service` HTTP server, measuring
what the core benchmarks cannot: the cost of putting Algorithm 1 behind
a shared, cached, concurrent serving layer.

* ``serving``  — ≥ 64 interactive sessions driven concurrently (16
                 client threads) against ONE cached TPC-H index:
                 sessions/sec, answers/sec, p50/p95 per-answer HTTP
                 latency, and the index-cache hit ratio (every session
                 after the first must hit).
* ``l2s_fig7`` — p50/p95 answer latency with the paper's most expensive
                 strategy (L2S) on the Figure 7 synthetic configurations,
                 i.e. "what does a question cost end-to-end when the
                 server is doing two-step lookahead".
* ``batched_sessions`` — the cross-session kernel batcher under real
                 HTTP load: many L2S sessions on ONE shared index,
                 kernel batching on vs off, with the batch-size
                 histogram from ``GET /stats`` proving that concurrent
                 proposals actually coalesced.

Every session is parity-checked against the in-process
``run_inference`` result for the same strategy/seed before timings are
trusted — a fast server that infers the wrong predicate is not a win.
The report holds measurements only; every bound on them is a row of
the gate table in ``check_trajectory.py``.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py            # full run
    PYTHONPATH=src python benchmarks/bench_service.py --smoke    # CI smoke
    PYTHONPATH=src python benchmarks/bench_service.py --output my.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import PerfectOracle, SignatureIndex
from repro.data import (
    PAPER_CONFIGS,
    generate_synthetic,
    generate_tpch,
    tpch_workloads,
)
from repro.relational import JoinPredicate
from repro.service import (
    IndexCache,
    ServiceClient,
    ServiceServer,
    SessionManager,
)

TPCH_SEED = 0
TPCH_SCALE = 1.0
CLIENT_THREADS = 16

#: The coalescing window used by the batched-sessions sweep (the
#: serving default): wide enough that concurrently pending proposals
#: pile up, short enough not to tax the answer round-trip.
SWEEP_BATCH_WINDOW = 0.002

from bench_util import (
    bench_meta,
    drive_session,
    expected_pairs,
    latency_summary,
)


# --- cells -------------------------------------------------------------------


def bench_concurrent_serving(sessions: int) -> dict:
    """≥ 64 concurrent TPC-H sessions over one cached index."""
    workload = tpch_workloads(
        generate_tpch(scale=TPCH_SCALE, seed=TPCH_SEED)
    )[3]
    oracle = PerfectOracle(workload.instance, workload.goal)
    reference_index = SignatureIndex(workload.instance)
    strategies = ["RND", "BU", "TD", "L1S", "L2S"]
    jobs = list(zip(range(sessions), itertools.cycle(strategies)))
    latencies: list[float] = []

    manager = SessionManager(
        index_cache=IndexCache(), max_sessions=sessions * 2
    )
    with ServiceServer(manager=manager) as server:
        started = time.perf_counter()
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
                            scale=TPCH_SCALE,
                        ),
                    ),
                    jobs,
                )
            )
        wall = time.perf_counter() - started
        cache_stats = manager.index_cache.stats()
        with ServiceClient(server.host, server.port) as client:
            server_stats = client.stats()

    for (seed, strategy), final in outcomes:
        expected, interactions = expected_pairs(
            workload.instance, strategy, seed, oracle, reference_index
        )
        assert final["predicate"]["pairs"] == expected, (
            f"parity failed: {strategy} seed={seed}"
        )
        assert final["progress"]["interactions"] == interactions

    return {
        "workload": "tpch/join4",
        "sessions": sessions,
        "client_threads": CLIENT_THREADS,
        "wall_seconds": round(wall, 4),
        "sessions_per_second": round(sessions / wall, 2),
        "answers_total": len(latencies),
        "answers_per_second": round(len(latencies) / wall, 1),
        "answer_latency": latency_summary(latencies),
        "index_cache": cache_stats,
        "speculation": server_stats["speculation"],
        "kernel_batch": server_stats["kernel_batch"],
        "parity_checked": True,
    }


def bench_l2s_fig7(config_ids, sessions_per_config: int) -> list[dict]:
    """Per-answer latency for L2S on the Figure 7 synthetic sizes."""
    cells = []
    for config_id in config_ids:
        config = PAPER_CONFIGS[config_id]
        instance = generate_synthetic(config, seed=7)
        goal = JoinPredicate([instance.omega[0]])
        oracle = PerfectOracle(instance, goal)
        index = SignatureIndex(instance)
        latencies: list[float] = []
        interactions = 0
        with ServiceServer() as server:
            for seed in range(sessions_per_config):
                final = drive_session(
                    server,
                    f"synthetic/{config_id}",
                    "L2S",
                    seed,
                    oracle,
                    latencies,
                    workload_seed=7,
                    scale=TPCH_SCALE,
                )
                expected, _ = expected_pairs(
                    instance, "L2S", seed, oracle, index
                )
                assert final["predicate"]["pairs"] == expected, (
                    f"parity failed: L2S on {config.label} seed={seed}"
                )
                interactions += final["progress"]["interactions"]
        cells.append(
            {
                "config": config.label,
                "product_size": instance.cartesian_size,
                "omega": len(instance.omega),
                "classes": len(index),
                "sessions": sessions_per_config,
                "interactions_total": interactions,
                "answer_latency": latency_summary(latencies),
                "parity_checked": True,
            }
        )
        print(
            f"[bench] L2S {config.label}: "
            f"p95 {cells[-1]['answer_latency']['p95_ms']}ms",
            flush=True,
        )
    return cells


def bench_batched_sessions(sessions: int) -> dict:
    """Many L2S sessions on ONE shared TPC-H index, kernel batching on
    vs off — the coalescing path under genuine concurrent HTTP load.
    Speculation is off in both modes so every proposal reaches the
    kernel router instead of being served from a precomputed branch."""
    workload = tpch_workloads(
        generate_tpch(scale=TPCH_SCALE, seed=TPCH_SEED)
    )[3]
    oracle = PerfectOracle(workload.instance, workload.goal)
    reference_index = SignatureIndex(workload.instance)
    distinct_seeds = min(sessions, 8)
    expected = {
        seed: expected_pairs(
            workload.instance, "L2S", seed, oracle, reference_index
        )
        for seed in range(distinct_seeds)
    }

    modes = {}
    for batched in (True, False):
        manager = SessionManager(
            index_cache=IndexCache(),
            max_sessions=sessions * 2,
            speculate=False,
            kernel_batch=batched,
            batch_window_seconds=SWEEP_BATCH_WINDOW,
        )
        latencies: list[float] = []
        with ServiceServer(manager=manager) as server:
            started = time.perf_counter()
            with ThreadPoolExecutor(max_workers=CLIENT_THREADS) as pool:
                outcomes = list(
                    pool.map(
                        lambda seed: (
                            seed,
                            drive_session(
                                server,
                                "tpch/join4",
                                "L2S",
                                seed % distinct_seeds,
                                oracle,
                                latencies,
                                scale=TPCH_SCALE,
                            ),
                        ),
                        range(sessions),
                    )
                )
            wall = time.perf_counter() - started
            with ServiceClient(server.host, server.port) as client:
                stats = client.stats()
        for seed, final in outcomes:
            pairs, _ = expected[seed % distinct_seeds]
            assert final["predicate"]["pairs"] == pairs, (
                f"parity failed: batched={batched} seed={seed}"
            )
        modes[batched] = {
            "wall_seconds": round(wall, 4),
            "answers_total": len(latencies),
            "answers_per_second": round(len(latencies) / wall, 1),
            "answer_latency": latency_summary(latencies),
            "kernel_batch": stats["kernel_batch"],
        }
        mode = "batched" if batched else "per-session"
        print(
            f"[bench] {mode} sweep: "
            f"{modes[batched]['answers_per_second']} answers/s "
            f"(p95 {modes[batched]['answer_latency']['p95_ms']}ms)",
            flush=True,
        )

    return {
        "workload": "tpch/join4",
        "strategy": "L2S",
        "sessions": sessions,
        "client_threads": CLIENT_THREADS,
        "batch_window_seconds": SWEEP_BATCH_WINDOW,
        "speculation": "off (isolates the kernel path)",
        "batched": modes[True],
        "per_session": modes[False],
        "throughput_ratio": round(
            modes[True]["answers_per_second"]
            / max(modes[False]["answers_per_second"], 1e-9),
            3,
        ),
        "parity_checked": True,
    }


# --- harness -----------------------------------------------------------------


def run_benchmarks(smoke: bool = False) -> dict:
    sessions = 16 if smoke else 64
    print(f"[bench] serving {sessions} concurrent sessions", flush=True)
    serving = bench_concurrent_serving(sessions)
    print(
        f"[bench] {serving['sessions_per_second']} sessions/s, "
        f"answer p95 {serving['answer_latency']['p95_ms']}ms, "
        f"cache hit ratio {serving['index_cache']['hit_ratio']}",
        flush=True,
    )
    config_ids = range(2) if smoke else range(len(PAPER_CONFIGS))
    l2s_cells = bench_l2s_fig7(config_ids, 1 if smoke else 3)
    sweep_sessions = 32 if smoke else 256
    print(
        f"[bench] batched-kernel sweep, {sweep_sessions} sessions "
        f"on one shared index",
        flush=True,
    )
    batched_sessions = bench_batched_sessions(sweep_sessions)

    return {
        "meta": bench_meta(
            smoke=smoke, transport="HTTP/1.1 keep-alive over loopback"
        ),
        "serving": serving,
        "l2s_fig7": l2s_cells,
        "batched_sessions": batched_sessions,
        "acceptance": {
            "l2s_p95_answer_ms_max": max(
                cell["answer_latency"]["p95_ms"] for cell in l2s_cells
            ),
            "batched_throughput_ratio": batched_sessions[
                "throughput_ratio"
            ],
            "speculation_depth": serving["speculation"]["depth"],
            "speculation_hit_ratio_by_depth": serving["speculation"][
                "hit_ratio_by_depth"
            ],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=str(
            Path(__file__).resolve().parent.parent / "BENCH_service.json"
        ),
        help="where to write the JSON report (default: repo root)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="16 sessions, 2 synthetic configs — a CI regression canary",
    )
    args = parser.parse_args(argv)
    report = run_benchmarks(smoke=args.smoke)
    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    serving = report["serving"]
    print(
        f"  serving: {serving['sessions']} sessions in "
        f"{serving['wall_seconds']}s "
        f"({serving['sessions_per_second']}/s), answer "
        f"p50 {serving['answer_latency']['p50_ms']}ms / "
        f"p95 {serving['answer_latency']['p95_ms']}ms, "
        f"cache hit ratio {serving['index_cache']['hit_ratio']}"
    )
    for cell in report["l2s_fig7"]:
        latency = cell["answer_latency"]
        print(
            f"  L2S {cell['config']:>15s}: "
            f"p50 {latency['p50_ms']:7.2f}ms   "
            f"p95 {latency['p95_ms']:7.2f}ms   "
            f"({cell['classes']} classes)"
        )
    sweep = report["batched_sessions"]
    print(
        f"  batched sweep ({sweep['sessions']} sessions): "
        f"{sweep['batched']['answers_per_second']} answers/s batched vs "
        f"{sweep['per_session']['answers_per_second']} per-session "
        f"({sweep['throughput_ratio']}x), histogram "
        f"{sweep['batched']['kernel_batch']['batch_size_histogram']}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
