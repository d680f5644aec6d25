"""Shared helpers for the benchmark harnesses.

Every harness emits a JSON report with the same ``meta`` header, and the
service-facing harnesses drive remote sessions the same way.  These are
the single implementations — they used to drift as near-identical
copies across ``bench_plan`` / ``bench_service`` / ``bench_store``.
"""

from __future__ import annotations

import math
import os
import platform
import time
from datetime import datetime, timezone

__all__ = [
    "percentile",
    "latency_summary",
    "bench_meta",
    "remote_answerer",
    "drive_session",
    "expected_pairs",
]


def percentile(samples: list[float], p: float) -> float:
    """The p-th percentile (nearest-rank) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(samples: list[float]) -> dict:
    """count / p50 / p95 / max of a latency sample, in milliseconds."""
    return {
        "count": len(samples),
        "p50_ms": round(percentile(samples, 50) * 1e3, 3),
        "p95_ms": round(percentile(samples, 95) * 1e3, 3),
        "max_ms": round(max(samples) * 1e3, 3),
    }


def bench_meta(**extra) -> dict:
    """The common report header — creation time, host toolchain, core
    count — with any harness-specific fields appended in keyword order."""
    meta = {
        "created": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }
    meta.update(extra)
    return meta


def remote_answerer(oracle):
    """Adapt an in-process oracle to the HTTP question payload."""

    def answer(question):
        pair = (
            tuple(question["left"]["row"]),
            tuple(question["right"]["row"]),
        )
        return str(oracle.label(pair))

    return answer


def drive_session(
    server,
    workload,
    strategy,
    seed,
    oracle,
    latencies,
    workload_seed=0,
    scale=1.0,
):
    """Create + drive one remote session to Γ; appends each answer-round
    latency to ``latencies`` and returns the final predicate payload."""
    # Imported here so the pure-math helpers above stay usable without
    # src/ on the path (check_trajectory's tests import this module).
    from repro.service import ServiceClient

    answer = remote_answerer(oracle)
    with ServiceClient(server.host, server.port) as client:
        info = client.create_session(
            workload=workload,
            strategy=strategy,
            seed=seed,
            workload_seed=workload_seed,
            scale=scale,
        )
        session_id = info["session_id"]
        while (question := client.next_question(session_id)) is not None:
            started = time.perf_counter()
            client.post_answer(
                session_id, question["question_id"], answer(question)
            )
            latencies.append(time.perf_counter() - started)
        return client.predicate(session_id)


def expected_pairs(instance, strategy, seed, oracle, index):
    """The in-process reference result a served session must match."""
    from repro.core import run_inference, strategy_by_name

    result = run_inference(
        instance, strategy_by_name(strategy), oracle, index=index, seed=seed
    )
    return (
        [[str(a), str(b)] for a, b in result.predicate.sorted_pairs()],
        result.interactions,
    )
