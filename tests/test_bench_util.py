"""Unit tests for the shared benchmark helpers
(``benchmarks/bench_util.py``) — the single implementations of the
percentile/latency summaries, the report ``meta`` header, and the
remote-session drivers that used to drift as copies across the bench
harnesses."""

from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path

import pytest

_MODULE_PATH = (
    Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "bench_util.py"
)
_spec = importlib.util.spec_from_file_location("bench_util", _MODULE_PATH)
bench_util = importlib.util.module_from_spec(_spec)
sys.modules["bench_util"] = bench_util
_spec.loader.exec_module(bench_util)


class TestPercentile:
    def test_nearest_rank_interior(self):
        samples = [float(v) for v in range(1, 11)]
        assert bench_util.percentile(samples, 50) == 5.0
        assert bench_util.percentile(samples, 95) == 10.0

    def test_order_independent(self):
        assert bench_util.percentile([3.0, 1.0, 2.0], 100) == 3.0

    def test_singleton(self):
        for p in (1, 50, 99):
            assert bench_util.percentile([7.0], p) == 7.0


class TestLatencySummary:
    def test_converts_to_milliseconds(self):
        summary = bench_util.latency_summary([0.001, 0.002, 0.003])
        assert summary == {
            "count": 3,
            "p50_ms": 2.0,
            "p95_ms": 3.0,
            "max_ms": 3.0,
        }


class TestBenchMeta:
    def test_common_header_fields(self):
        meta = bench_util.bench_meta()
        assert set(meta) == {"created", "python", "machine", "cpu_count"}
        assert meta["created"].endswith("+00:00")
        assert meta["cpu_count"] == os.cpu_count()

    def test_extras_append_after_header(self):
        meta = bench_util.bench_meta(smoke=True, transport="loopback")
        assert list(meta) == [
            "created",
            "python",
            "machine",
            "cpu_count",
            "smoke",
            "transport",
        ]
        assert meta["smoke"] is True


class TestRemoteAnswerer:
    def test_adapts_http_payload_to_oracle_pair(self):
        seen = []

        class Oracle:
            def label(self, pair):
                seen.append(pair)
                return "+"

        answer = bench_util.remote_answerer(Oracle())
        question = {
            "left": {"row": [1, "a"]},
            "right": {"row": [2, "b"]},
        }
        assert answer(question) == "+"
        assert seen == [((1, "a"), (2, "b"))]


class TestRemoteDrivers:
    """``drive_session`` / ``expected_pairs`` against a real server —
    the contract every bench harness leans on for its parity checks."""

    @pytest.fixture(scope="class")
    def workload(self):
        from repro.data import generate_tpch, tpch_workloads

        return tpch_workloads(generate_tpch(scale=1.0, seed=0))[3]

    def test_driven_session_matches_inline_reference(self, workload):
        from repro.core import PerfectOracle, SignatureIndex
        from repro.service import ServiceServer

        oracle = PerfectOracle(workload.instance, workload.goal)
        latencies: list[float] = []
        with ServiceServer() as server:
            final = bench_util.drive_session(
                server, "tpch/join4", "L2S", 3, oracle, latencies
            )
        pairs, interactions = bench_util.expected_pairs(
            workload.instance,
            "L2S",
            3,
            oracle,
            SignatureIndex(workload.instance),
        )
        assert final["predicate"]["pairs"] == pairs
        assert final["progress"]["interactions"] == interactions
        assert len(latencies) == interactions
        assert all(latency > 0.0 for latency in latencies)
