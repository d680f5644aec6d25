"""CI gate: check a bench report against the one table of bench gates.

Every ``benchmarks/bench_<suite>.py`` writes a JSON report of
measurements only; the full-run reports are committed at the repo
root (``BENCH_<suite>.json``).  Every bound lives in :data:`TABLE`, one
row per gate: the row re-derives its measurement from the report's raw
numbers and gives its comparison, its smoke bound and its full bound.
One evaluator picks the bound from the report's ``meta.smoke``, so the
same rows check CI's smokes and the nightly full runs, and nothing a
report says (a ratio, a flag, a recorded floor) can move a bound.

* A missing measurement fails.
* A row of a ``/dev/shm`` plane the host cannot use, a relative row
  (at most 10x the committed baseline) whose baseline has no number,
  and a row with no bound at the report's scale pass as skipped.
* A row measuring a mapping (core's per-cell speedups) yields one gate
  per entry, named ``<row>:<key>``.

Usage (one suite per CI matrix job)::

    python benchmarks/check_trajectory.py --suite core \
        --report BENCH_core_smoke.json --baseline BENCH_core.json

Exit status 0 when every gate holds, 1 otherwise (a report without
``meta.smoke`` included); every gate is printed either way.  The
module is import-safe and unit-tested (``tests/test_check_trajectory.py``).
"""

from __future__ import annotations

import argparse
import json
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

__all__ = ["Gate", "Row", "TABLE", "SUITES", "run_suite", "main"]


@dataclass(frozen=True)
class Gate:
    """One named verdict with a human-readable detail line."""

    name: str
    ok: bool
    detail: str
    skipped: bool = False


class Skip(Exception):
    """Raised by a measurement that does not apply to this report."""


def get(doc, path: str):
    """The value at dotted ``path`` in ``doc``, or None."""
    for key in path.split("."):
        if not isinstance(doc, dict) or key not in doc:
            return None
        doc = doc[key]
    return doc


def _all(report, *paths):
    """The values at ``paths``, or None when one is missing."""
    values = tuple(get(report, path) for path in paths)
    return None if None in values else values


def _ratio(numerator, denominator):
    if numerator is None or not denominator:
        return None
    return numerator / denominator


# --- measurements: each maps (report, baseline) to a value or None ---------


def at(path: str) -> Callable:
    return lambda report, baseline: get(report, path)


def ratio(numerator: str, denominator: str) -> Callable:
    return lambda report, baseline: _ratio(
        get(report, numerator), get(report, denominator)
    )


def flags(*paths: str) -> Callable:
    """True when every flag is true."""
    return lambda report, baseline: (
        (values := _all(report, *paths)) and all(values)
    )


def vs_baseline(path: str) -> Callable:
    """The report's number over the committed baseline's."""

    def measure(report, baseline):
        if not get(baseline, path):
            raise Skip(f"the baseline has no {path}")
        return _ratio(get(report, path), get(baseline, path))

    return measure


def on_plane(plane: str, measure: Callable) -> Callable:
    """``measure``, skipped when the host cannot use the shared plane."""

    def gated(report, baseline):
        if not get(report, f"{plane}.supported"):
            raise Skip(f"{plane}: shared memory unavailable on this host")
        return measure(report, baseline)

    return gated


def cell_count(report, baseline):
    cells = get(report, "benchmarks")
    return None if cells is None else len(cells)


def core_speedups(report, baseline):
    """Seed seconds over new seconds, per cell."""
    return {
        f"{cell.get('name')}:{cell.get('workload')}": _ratio(
            cell.get("baseline_seconds"), cell.get("new_seconds")
        )
        for cell in get(report, "benchmarks") or []
    }


def counter_identity(report, baseline):
    """misses == local hits + shared hits + computes."""
    names = ("misses", "local_hits", "shared_hits", "computes")
    counts = _all(report, *(f"acceptance.plan_cache_{name}" for name in names))
    return counts and counts[0] == sum(counts[1:])


def index_hit_ratio(report, baseline):
    counts = _all(report, "serving.index_cache.hits", "serving.index_cache.misses")
    return counts and _ratio(counts[0], sum(counts))


def largest_batch(report, baseline):
    sizes = get(report, "batched_sessions.batched.kernel_batch.batch_size_histogram")
    return None if sizes is None else max(map(int, sizes), default=0)


def depth2_reported(report, baseline):
    depth = get(report, "serving.speculation.depth")
    ratios = get(report, "serving.speculation.hit_ratio_by_depth") or {}
    return None if depth is None else depth >= 2 and "2" in ratios


def journal_overhead_pct(report, baseline):
    """Answer p95 with journaling over without, as a % overhead."""
    share = _ratio(
        get(report, "journal_overhead.store_answer_latency.p95_ms"),
        get(report, "journal_overhead.plain_answer_latency.p95_ms"),
    )
    return None if share is None else (share - 1.0) * 100.0


def _fleet_rates(report) -> dict[int, float]:
    return {
        int(workers): cell["sessions_per_sec"]
        for workers, cell in (get(report, "scaling.by_workers") or {}).items()
        if isinstance(cell, dict) and cell.get("sessions_per_sec")
    }


def scaling_per_worker(report, baseline):
    """Speedup over one worker, divided by W, at the largest measured
    fleet whose W fits ``meta.cpu_count``: W workers cannot scale past
    the cores they run on, so the 0.75 bound asks 0.75 x W (a 1-core
    host holds the identity, a 4-core host >= 3x at 4 workers)."""
    rates = _fleet_rates(report)
    cores = get(report, "meta.cpu_count")
    fitting = [w for w in rates if cores is not None and w <= cores]
    if 1 not in rates or not fitting:
        return None
    return rates[max(fitting)] / rates[1] / max(fitting)


def oversubscribed_speedup(report, baseline):
    """Speedup over one worker at the largest measured fleet."""
    rates = _fleet_rates(report)
    return _ratio(rates.get(max(rates, default=1)), rates.get(1))


def cross_worker_hits(report, baseline):
    """Shared-tier hits, counted only once the cell checked parity."""
    if get(report, "plan_cache.parity_checked") is not True:
        return None
    return get(report, "plan_cache.counters.shared_hits_total")


def fanout_overhead(report, baseline):
    """(%, ms) that the fanned-out feed adds to the bare answer p95."""
    bare = get(report, "fanout.bare_answer_latency.p95_ms")
    fanned = get(report, "fanout.fanout_answer_latency.p95_ms")
    if not bare or fanned is None:
        return None
    return ((fanned / bare - 1.0) * 100.0, fanned - bare)


# --- the table ---------------------------------------------------------------


OPS = {
    ">=": operator.ge, ">": operator.gt, "<=": operator.le,
    "<": operator.lt, "==": operator.eq,
    # Fan-out overhead holds below EITHER its % or its ms bound: under
    # paced interactive load the bare p95 is sub-millisecond, where a
    # pure ratio prices scheduler noise.
    "either <": lambda got, bound: got[0] < bound[0] or got[1] < bound[1],
}


@dataclass(frozen=True)
class Row:
    """One gate: its measurement, comparison and bound per scale (a
    ``None`` bound means the gate does not apply at that scale)."""

    suite: str
    name: str
    measure: Callable
    op: str
    smoke: object
    full: object

    def gates(self, report: dict, baseline: dict, smoke: bool) -> list[Gate]:
        bound = self.smoke if smoke else self.full
        if bound is None:
            scale = "smoke" if smoke else "full"
            return [Gate(self.name, True, f"not gated at {scale} scale", True)]
        try:
            got = self.measure(report, baseline)
        except Skip as skip:
            return [Gate(self.name, True, str(skip), True)]
        items = got.items() if isinstance(got, dict) else [(None, got)]
        return [
            _judge(f"{self.name}:{key}" if key else self.name, value, self.op, bound)
            for key, value in items
        ]


def _show(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, tuple):
        return " / ".join(map(_show, value))
    return repr(value)


def _judge(name: str, value, op: str, bound) -> Gate:
    need = f"need {op} {_show(bound)}"
    if value is None:
        return Gate(name, False, f"measurement missing ({need})")
    try:
        ok = bool(OPS[op](value, bound))
    except TypeError:
        ok = False
    return Gate(name, ok, f"{_show(value)} ({need})")


#: Every bench gate: suite, gate, measurement (re-derived from the
#: report's raw numbers), comparison, smoke bound, full bound.  A smoke
#: run has smaller instances and fewer samples per percentile, so some
#: smoke bounds are looser; none is tighter.
TABLE = [
    Row("core", "has_cells", cell_count, ">=", 1, 1),
    # Smoke cells are tiny and fixed overheads dominate them: the floor
    # trips only when the engine falls clearly behind the seed.
    Row("core", "speedup", core_speedups, ">=", 0.5, 0.5),
    # Full-length (adversarial-oracle) L2S sessions on the largest
    # Fig. 7 configuration: incremental over from-scratch ms, expected
    # below 1.0, with a measurement tolerance for shared runners.
    Row("plan", "l2s_incremental_within_tolerance",
        ratio("acceptance.l2s_incremental_ms", "acceptance.l2s_from_scratch_ms"),
        "<=", 1.10, 1.10),
    # The 128-session smoke keeps a noise margin below the full 2x.
    Row("plan", "batched_kernel_segment",
        ratio("acceptance.per_session_kernel_seconds",
              "acceptance.batched_kernel_seconds"), ">=", 1.3, 2.0),
    # Answers/s may not regress: non-kernel answer cost, paid by both
    # modes alike, dilutes the kernel's gain end to end.
    Row("plan", "batched_answer_throughput",
        ratio("batched_kernels.batched.answers_per_second",
              "batched_kernels.per_session.answers_per_second"), ">=", 0.9, 0.9),
    # A smoke p95 sits on a session's first (largest) steps, where the
    # propose work outside the memoised kernel weighs more.
    Row("plan", "plan_cache_warm_p95",
        ratio("acceptance.plan_cache_cold_p95_ms", "acceptance.plan_cache_warm_p95_ms"),
        ">=", 1.5, 3.0),
    Row("plan", "plan_cache_counter_identity", counter_identity, "==", True, True),
    Row("plan", "speculation_p95",
        ratio("acceptance.speculation_p95_with_ms",
              "acceptance.speculation_p95_without_ms"), "<", None, 1.0),
    Row("service", "index_cache_hit_ratio", index_hit_ratio, ">", 0.9, 0.9),
    Row("service", "kernel_batch_coalesced", largest_batch, ">=", 2, 2),
    Row("service", "speculation_depth2_reported", depth2_reported, "==", True, True),
    # The 16-session smoke has fewer samples per percentile.
    Row("store", "journal_overhead_p95", journal_overhead_pct, "<", 25.0, 15.0),
    Row("store", "crash_recovery_identical",
        flags("acceptance.crash_recovery_identical"), "==", True, True),
    # Runner speeds differ; an order of magnitude is a real regression.
    Row("store", "rehydrate_p95_vs_baseline",
        vs_baseline("acceptance.rehydrate_p95_ms"), "<=", 10.0, 10.0),
    Row("fleet", "scaling_vs_cores", scaling_per_worker, ">=", 0.75, 0.75),
    # Extra workers on the same cores may cost throughput, not collapse.
    Row("fleet", "oversubscription_bounded", oversubscribed_speedup, ">=", 0.25, 0.25),
    Row("fleet", "recovery_parity", flags("acceptance.recovery_parity"), "==", True, True),
    Row("fleet", "scaling_parity", flags("acceptance.scaling_parity"), "==", True, True),
    Row("fleet", "takeover_vs_baseline",
        vs_baseline("acceptance.takeover_seconds"), "<=", 10.0, 10.0),
    # One machine-wide copy, not one per worker.  Smoke indexes are
    # ~1 KB, where each segment's header and alignment weigh more.
    Row("fleet", "shared_index_memory",
        on_plane("shared_index", ratio("shared_index.fleet_resident_bytes",
                                       "shared_index.single_resident_bytes")),
        "<=", 3.0, 1.5),
    # Smoke builds are ~6x smaller, so HTTP round trips are a larger
    # slice of each create.
    Row("fleet", "shared_index_attach_speedup",
        on_plane("shared_index", ratio("shared_index.private_build_latency.p95_ms",
                                       "shared_index.attach_latency.p95_ms")),
        ">=", 1.5, 5.0),
    Row("fleet", "shared_index_no_leaks",
        on_plane("shared_index", at("shared_index.leaked_segments")), "==", [], []),
    Row("fleet", "plan_cross_worker_hits",
        on_plane("plan_cache", cross_worker_hits), ">=", 1, 1),
    Row("fleet", "plan_no_leaked_segments",
        on_plane("plan_cache", at("plan_cache.leaked_segments")), "==", [], []),
    Row("stream", "streamed_beats_polled_p50",
        ratio("latency.streamed_question_latency.p50_ms",
              "latency.polled_question_latency.p50_ms"), "<", 1.0, 1.0),
    Row("stream", "stream_parity",
        flags("latency.parity.checked", "acceptance.stream_parity"), "==", True, True),
    Row("stream", "fanout_subscribers", at("fanout.subscribers"), ">=", 64, 64),
    # A smoke p95 is over ~39 answers, fewer than a tail percentile needs.
    Row("stream", "fanout_overhead_p95", fanout_overhead, "either <",
        (75.0, 4.0), (25.0, 2.0)),
    Row("stream", "fanout_parity", flags("fanout.parity_checked"), "==", True, True),
    Row("stream", "no_dropped_events", at("fanout.events_dropped"), "==", 0, 0),
]

SUITES = sorted({row.suite for row in TABLE})


def run_suite(suite: str, report: dict, baseline: dict) -> list[Gate]:
    """Every gate of one suite at the report's scale.  Raises
    ``KeyError`` for an unknown suite and ``ValueError`` for a report
    without a boolean ``meta.smoke``."""
    if suite not in SUITES:
        raise KeyError(suite)
    smoke = get(report, "meta.smoke")
    if not isinstance(smoke, bool):
        raise ValueError("the report has no boolean meta.smoke")
    return [
        gate
        for row in TABLE
        if row.suite == suite
        for gate in row.gates(report, baseline, smoke)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", required=True, choices=SUITES)
    parser.add_argument(
        "--report", required=True, type=Path,
        help="the JSON report to gate (a --smoke run or a full run)",
    )
    parser.add_argument(
        "--baseline", required=True, type=Path,
        help="the committed full-run baseline (BENCH_<suite>.json)",
    )
    args = parser.parse_args(argv)
    report = json.loads(args.report.read_text())
    baseline = json.loads(args.baseline.read_text())
    try:
        gates = run_suite(args.suite, report, baseline)
    except ValueError as error:
        print(f"{args.report}: {error}")
        return 1
    for gate in gates:
        status = "SKIP" if gate.skipped else "OK" if gate.ok else "FAIL"
        print(f"[{status}] {args.suite}/{gate.name}: {gate.detail}")
    cores = get(report, "meta.cpu_count")
    where = (
        f"{args.suite!r} at {'smoke' if report['meta']['smoke'] else 'full'}"
        f" scale, {'unrecorded' if cores is None else cores} core(s)"
    )
    failed = [gate for gate in gates if not gate.ok]
    if failed:
        print(f"{len(failed)}/{len(gates)} trajectory gates failed for {where}")
        return 1
    print(f"all {len(gates)} trajectory gates hold for {where}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
