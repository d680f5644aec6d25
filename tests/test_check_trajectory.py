"""Unit tests for the bench gate table (``benchmarks/check_trajectory.py``).

Table-driven: almost every test is a ``case`` — a few raw numbers
changed in a committed full-run baseline (which passes every bound)
and the gates that must then fail at smoke scale and at full scale.
Every row has a passing and a failing case on each side of each of
its bounds, and a report can never move a bound."""

from __future__ import annotations

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_trajectory", _ROOT / "benchmarks" / "check_trajectory.py"
)
check_trajectory = importlib.util.module_from_spec(_spec)
# dataclasses resolves the defining module through sys.modules, so the
# module must be registered before exec.
sys.modules["check_trajectory"] = check_trajectory
_spec.loader.exec_module(check_trajectory)

SUITES = ["core", "plan", "service", "store", "fleet", "stream"]


def committed(suite: str) -> dict:
    return json.loads((_ROOT / f"BENCH_{suite}.json").read_text())


def changed(report: dict, changes: dict) -> dict:
    """A copy of ``report`` with each dotted path set (``None`` deletes
    it; an integer key indexes a list)."""
    report = copy.deepcopy(report)
    for path, value in changes.items():
        *parents, last = path.split(".")
        node = report
        for key in parents:
            node = node[int(key)] if isinstance(node, list) else node[key]
        if value is None:
            del node[last]
        elif isinstance(node, list):
            node[int(last)] = value
        else:
            node[last] = value
    return report


def failing(suite, changes, smoke, baseline=None) -> list[str]:
    report = changed(committed(suite), {**changes, "meta.smoke": smoke})
    base = changed(committed(suite), baseline or {})
    gates = check_trajectory.run_suite(suite, report, base)
    return sorted(gate.name for gate in gates if not gate.ok)


#: Every case: (suite, gates failing at smoke scale, at full scale).
CASES: list[tuple[str, list, list]] = []


def case(suite, changes, smoke=(), full=None, baseline=None):
    """A test: ``changes`` fail exactly the ``smoke`` gates at smoke
    scale and the ``full`` gates (by default the same) at full scale;
    ``baseline`` changes the committed baseline the same way."""
    full = smoke if full is None else full
    CASES.append((suite, list(smoke), list(full)))

    def test(self):
        for smoke_scale, expected in ((True, smoke), (False, full)):
            got = failing(suite, changes, smoke_scale, baseline)
            assert got == sorted(expected), f"smoke={smoke_scale}"

    return test


def plane_skipped(plane, rows):
    """A test: on a host without the plane, its rows pass as skipped."""

    def test(self):
        report = changed(committed("fleet"), {plane: {"supported": False}})
        gates = check_trajectory.run_suite("fleet", report, report)
        assert all(gate.ok for gate in gates)
        assert {gate.name for gate in gates if gate.skipped} == set(rows)

    return test


def registered(suite, rows):
    def test(self):
        assert suite in check_trajectory.SUITES
        assert set(rows) <= {
            row.name for row in check_trajectory.TABLE if row.suite == suite
        }

    return test


def over(paths, value):
    """The ratio ``paths[0] / paths[1]`` set to ``value``."""
    return {paths[0]: value, paths[1]: 1.0}


CELL = "speedup:l1s_step:synthetic(4,4,60,12)"
L2S = "l2s_incremental_within_tolerance"
KERNEL, THROUGHPUT = "batched_kernel_segment", "batched_answer_throughput"
WARM, IDENTITY = "plan_cache_warm_p95", "plan_cache_counter_identity"
COALESCED, DEPTH2 = "kernel_batch_coalesced", "speculation_depth2_reported"
OVERHEAD, REHYDRATE = "journal_overhead_p95", "rehydrate_p95_vs_baseline"
SCALING, OVERSUB = "scaling_vs_cores", "oversubscription_bounded"
MEMORY, ATTACH = "shared_index_memory", "shared_index_attach_speedup"
SHARED_ROWS = [MEMORY, ATTACH, "shared_index_no_leaks"]
PLAN_ROWS = ["plan_cross_worker_hits", "plan_no_leaked_segments"]
STREAMED, FAN = "streamed_beats_polled_p50", "fanout_overhead_p95"
A, S, F = "acceptance.", "shared_index.", "fanout."
CELL_S = ("benchmarks.0.baseline_seconds", "benchmarks.0.new_seconds")
L2S_MS = (A + "l2s_incremental_ms", A + "l2s_from_scratch_ms")
KERNEL_S = (A + "per_session_kernel_seconds", A + "batched_kernel_seconds")
ANSWERS = tuple(f"batched_kernels.{mode}.answers_per_second"
                for mode in ("batched", "per_session"))
COLD_WARM = (A + "plan_cache_cold_p95_ms", A + "plan_cache_warm_p95_ms")
SPECULATION = (A + "speculation_p95_with_ms", A + "speculation_p95_without_ms")
JOURNAL = tuple(f"journal_overhead.{mode}_answer_latency.p95_ms"
                for mode in ("store", "plain"))
RESIDENT = (S + "fleet_resident_bytes", S + "single_resident_bytes")
BUILD_ATTACH = (S + "private_build_latency.p95_ms", S + "attach_latency.p95_ms")
RATES = "scaling.by_workers.{}.sessions_per_sec"
HISTOGRAM = "batched_sessions.batched.kernel_batch.batch_size_histogram"
PLAN_HITS = "plan_cache.counters.shared_hits_total"


def hits(hit, miss):
    return {"serving.index_cache.hits": hit, "serving.index_cache.misses": miss}


def rates(cores, two, four):
    return {"meta.cpu_count": cores, RATES.format(1): 10.0,
            RATES.format(2): two, RATES.format(4): four}


def fanout(bare, fanned):
    return {F + "bare_answer_latency.p95_ms": bare,
            F + "fanout_answer_latency.p95_ms": fanned}


class TestCoreSuite:
    test_healthy_cells_pass = case("core", over(CELL_S, 0.5))
    test_regressed_cell_fails = case("core", over(CELL_S, 0.49), [CELL])
    test_empty_report_fails = case("core", {"benchmarks": []}, ["has_cells"])


class TestPlanSuite:
    test_gate_rederives_from_timings = case("plan", over(L2S_MS, 1.11), [L2S])
    test_within_tolerance_passes = case("plan", over(L2S_MS, 1.10))
    test_batched_kernel_gate_rederives_from_seconds = case(
        "plan", over(KERNEL_S, 1.3), [], [KERNEL])
    test_batched_kernel_below_smoke_floor_fails = case("plan", over(KERNEL_S, 1.29), [KERNEL])
    test_missing_batched_kernel_numbers_fail = case("plan", {KERNEL_S[1]: None}, [KERNEL])
    test_answer_throughput_at_floor_passes = case("plan", over(ANSWERS, 0.9))
    test_answer_throughput_below_floor_fails = case("plan", over(ANSWERS, 0.89), [THROUGHPUT])
    test_plan_cache_speedup_below_floor_fails = case("plan", over(COLD_WARM, 1.49), [WARM])
    test_plan_cache_smoke_floor_from_report = case("plan", over(COLD_WARM, 1.5), [], [WARM])
    test_plan_cache_floor_weakening_clamped = case(
        "plan", {**over(COLD_WARM, 1.4), A + "plan_cache_gate_min": 0.5}, [WARM])
    test_plan_cache_missing_latencies_fail = case("plan", {COLD_WARM[1]: None}, [WARM])
    test_plan_cache_counter_identity_rederived = case(
        "plan", {A + "plan_cache_misses": 93}, [IDENTITY])
    test_plan_cache_missing_counters_fail = case(
        "plan", {A + "plan_cache_computes": None}, [IDENTITY])
    test_speculation_gated_on_full_runs_only = case(
        "plan", over(SPECULATION, 1.0), [], ["speculation_p95"])


class TestServiceSuite:
    test_hit_ratio_gate = case("service", hits(9, 1), ["index_cache_hit_ratio"])
    test_hit_ratio_above_target_passes = case("service", hits(91, 9))
    test_singleton_histogram_fails = case("service", {HISTOGRAM: {"1": 5}}, [COALESCED])
    test_pair_batch_passes = case("service", {HISTOGRAM: {"2": 1}})
    test_missing_depth2_speculation_fails = case(
        "service", {"serving.speculation.hit_ratio_by_depth": {"1": 0.5}}, [DEPTH2])
    test_depth1_speculation_fails = case("service", {"serving.speculation.depth": 1}, [DEPTH2])


class TestStoreSuite:
    test_healthy_report_passes = case("store", over(JOURNAL, 1.14))
    test_overhead_between_full_and_smoke_bounds = case("store", over(JOURNAL, 1.24), [], [OVERHEAD])
    test_overhead_above_smoke_tolerance_fails = case("store", over(JOURNAL, 1.25), [OVERHEAD])
    test_non_identical_recovery_fails = case(
        "store", {A + "crash_recovery_identical": False}, ["crash_recovery_identical"])
    # The committed rehydrate p95 is 9.066 ms: the ceiling is 90.66 ms.
    test_rehydrate_within_ten_x_passes = case("store", {A + "rehydrate_p95_ms": 90.0})
    test_rehydrate_order_of_magnitude_regression_fails = case(
        "store", {A + "rehydrate_p95_ms": 91.0}, [REHYDRATE])
    test_rehydrate_gate_skipped_without_baseline = case(
        "store", {A + "rehydrate_p95_ms": 1e6}, baseline={A + "rehydrate_p95_ms": None})


class TestFleetSuite:
    # The committed fleet ran 1, 2 and 4 workers at 91.704, 65.814 and
    # 54.424 sessions/s on 1 core; its takeover took 0.9622 s.
    test_healthy_report_passes = case("fleet", {})
    test_speedup_rederived_from_raw_rates = case("fleet", {"meta.cpu_count": 2}, [SCALING])

    def test_floor_applies_to_largest_core_fitting_fleet(self):
        """0.75 x W at the largest measured W that fits the cores."""
        for cores, two, four, ok in [
            (1, 1.0, 1.0, True), (2, 15.0, 1.0, True), (2, 14.9, 99.0, False),
            (4, 15.0, 30.0, True), (4, 99.0, 29.9, False),
            (8, 15.0, 30.0, True), (8, 99.0, 29.9, False),
        ]:
            got = failing("fleet", rates(cores, two, four), True)
            assert (SCALING not in got) is ok, cores

    test_four_core_four_worker_floor_is_three_x = case("fleet", rates(4, 15.0, 29.9), [SCALING])
    test_oversubscription_at_floor_passes = case("fleet", {RATES.format(4): 23.0})
    test_oversubscription_collapse_fails = case("fleet", {RATES.format(4): 22.0}, [OVERSUB])
    test_parity_flags_gate = case(
        "fleet", {A + "recovery_parity": False, A + "scaling_parity": False},
        ["recovery_parity", "scaling_parity"])
    test_takeover_within_ten_x_passes = case("fleet", {A + "takeover_seconds": 9.6})
    test_takeover_order_of_magnitude_regression_fails = case(
        "fleet", {A + "takeover_seconds": 9.7}, ["takeover_vs_baseline"])
    test_takeover_gate_skipped_without_baseline = case(
        "fleet", {A + "takeover_seconds": 1e6}, baseline={A + "takeover_seconds": None})
    test_missing_rates_fail = case("fleet", {"scaling.by_workers": {}}, [OVERSUB, SCALING])
    test_missing_core_count_fails = case("fleet", {"meta.cpu_count": None}, [SCALING])
    test_suite_registered = registered("fleet", [SCALING])


class TestSharedIndexGates:
    test_healthy_cell_passes = case("fleet", {**over(RESIDENT, 1.5), **over(BUILD_ATTACH, 5.0)})
    test_unsupported_platform_passes_trivially = plane_skipped("shared_index", SHARED_ROWS)
    test_memory_ratio_rederived_from_raw_bytes = case("fleet", over(RESIDENT, 3.01), [MEMORY])
    test_memory_ratio_boundary = case("fleet", over(RESIDENT, 3.0), [], [MEMORY])
    test_smoke_report_ratio_ceiling_honored = case("fleet", over(RESIDENT, 1.51), [], [MEMORY])
    test_report_cannot_weaken_ratio_past_hard_cap = case(
        "fleet", {**over(RESIDENT, 4.0), A + "shared_memory_ratio_max": 100.0}, [MEMORY])
    test_attach_slower_than_floor_fails = case("fleet", over(BUILD_ATTACH, 1.49), [ATTACH])
    test_report_floor_cannot_undercut_the_minimum = case(
        "fleet", {**over(BUILD_ATTACH, 1.0), A + "shared_attach_speedup_floor": 0.1}, [ATTACH])
    test_full_run_floor_applies_when_recorded = case(
        "fleet", over(BUILD_ATTACH, 1.5), [], [ATTACH])
    test_leaked_segments_fail = case(
        "fleet", {S + "leaked_segments": ["repro_idx_x"]}, SHARED_ROWS[2:])
    test_missing_measurements_fail = case("fleet", {
        S + "attach_latency": None, RESIDENT[0]: None, S + "leaked_segments": None,
    }, SHARED_ROWS)
    test_gates_ride_along_in_check_fleet = registered("fleet", SHARED_ROWS)


class TestPlanCacheFleetGates:
    test_healthy_cell_passes = case("fleet", {PLAN_HITS: 1})
    test_unsupported_platform_passes_trivially = plane_skipped("plan_cache", PLAN_ROWS)
    test_zero_cross_worker_hits_fail = case("fleet", {PLAN_HITS: 0}, PLAN_ROWS[:1])
    test_unchecked_parity_fails = case("fleet", {"plan_cache.parity_checked": False}, PLAN_ROWS[:1])
    test_leaked_segments_fail = case(
        "fleet", {"plan_cache.leaked_segments": ["repro_plan_x"]}, PLAN_ROWS[1:])
    test_missing_leak_sweep_fails = case(
        "fleet", {"plan_cache.leaked_segments": None}, PLAN_ROWS[1:])
    test_gates_ride_along_in_check_fleet = registered("fleet", PLAN_ROWS)


class TestStreamSuite:
    test_suite_registered = registered("stream", [FAN])
    test_healthy_report_passes = case("stream", {})
    test_streamed_slower_than_polled_fails = case(
        "stream", {"latency.streamed_question_latency.p50_ms": 0.26}, [STREAMED])
    # Fan-out overhead holds below EITHER bound: (75 %, 4 ms) at smoke
    # scale, (25 %, 2 ms) at full scale.  The cases below add, in turn,
    # 24 % or 2.4 ms, 190 % or 1.9 ms, 30 % or 3 ms, 170 % or 3.4 ms,
    # and 76 % or 7.6 ms.
    test_ratio_forgives_large_absolute_on_slow_runner = case("stream", fanout(10.0, 12.4))
    test_absolute_floor_forgives_tiny_bare_p95 = case("stream", fanout(1.0, 2.9))
    test_ratio_within_smoke_tolerance_only = case("stream", fanout(10.0, 13.0), [], [FAN])
    test_absolute_within_smoke_tolerance_only = case("stream", fanout(2.0, 5.4), [], [FAN])
    test_overhead_above_both_tolerances_fails = case("stream", fanout(10.0, 17.6), [FAN])
    test_missing_latency_numbers_fail = case(
        "stream", {"latency.polled_question_latency": None}, [STREAMED])
    test_missing_fanout_numbers_fail = case("stream", {F + "bare_answer_latency": None}, [FAN])
    test_unchecked_parity_fails = case(
        "stream", {"latency.parity.checked": False}, ["stream_parity"])
    test_unflagged_stream_parity_fails = case(
        "stream", {A + "stream_parity": False}, ["stream_parity"])
    test_unchecked_fanout_parity_fails = case(
        "stream", {F + "parity_checked": False}, ["fanout_parity"])
    test_dropped_events_fail = case("stream", {F + "events_dropped": 1}, ["no_dropped_events"])
    test_enough_subscribers_pass = case("stream", {F + "subscribers": 64})
    test_too_few_subscribers_fail = case("stream", {F + "subscribers": 63}, ["fanout_subscribers"])


def test_every_row_has_a_failing_case():
    failed = {(suite, name.split(":")[0])
              for suite, smoke, full in CASES for name in smoke + full}
    assert {(row.suite, row.name) for row in check_trajectory.TABLE} <= failed


def test_bound_fields_in_a_report_change_nothing():
    """Nothing a report says moves a bound: an 8x L2S regression fails
    even when the report carries a 9x tolerance."""
    loose = {
        A + "l2s_gate_tolerance": 9, A + "plan_cache_gate_min": 0.5,
        A + "batched_kernel_gate_min": 0.1, A + "scaling_floor_factor": 0.01,
        A + "shared_attach_speedup_floor": 0.1,
        A + "journal_overhead_max_pct": 1e3,
    }
    for suite, changes, gate in [
        ("plan", over(L2S_MS, 8.0), L2S),
        ("fleet", over(BUILD_ATTACH, 1.0), ATTACH),
        ("store", over(JOURNAL, 1.3), OVERHEAD),
    ]:
        for smoke in (True, False):
            assert gate in failing(suite, {**changes, **loose}, smoke)


class TestCli:
    def run(self, tmp_path, suite, report):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        return check_trajectory.main(
            ["--suite", suite, "--report", str(path),
             "--baseline", str(_ROOT / f"BENCH_{suite}.json")]
        )

    def test_exit_zero_on_pass(self, tmp_path, capsys):
        assert self.run(tmp_path, "fleet", committed("fleet")) == 0
        out = capsys.readouterr().out
        assert "[OK] fleet/scaling_vs_cores" in out
        assert out.splitlines()[-1].endswith("full scale, 1 core(s)")

    def test_exit_one_on_failure(self, tmp_path, capsys):
        report = changed(committed("service"), {"serving.index_cache.hits": 1})
        assert self.run(tmp_path, "service", report) == 1
        out = capsys.readouterr().out
        assert "[FAIL] service/index_cache_hit_ratio" in out
        assert "1/3 trajectory gates failed" in out

    def test_unknown_suite_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            check_trajectory.main(
                ["--suite", "nope", "--report", "x", "--baseline", "y"]
            )

    def test_report_without_meta_smoke_is_rejected(self, tmp_path, capsys):
        report = changed(committed("store"), {"meta.smoke": None})
        with pytest.raises(ValueError, match="meta.smoke"):
            check_trajectory.run_suite("store", report, report)
        assert self.run(tmp_path, "store", report) == 1
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 and "meta.smoke" in out[0]

    def test_committed_baselines_satisfy_their_own_gates(self):
        """The committed full-run reports pass every full bound."""
        for suite in SUITES:
            baseline = committed(suite)
            assert baseline["meta"]["smoke"] is False
            gates = check_trajectory.run_suite(suite, baseline, baseline)
            assert [g.name for g in gates if not g.ok or g.skipped] == [], suite
