"""Pure helpers: percentiles, span arithmetic and metric derivation.

Nothing here touches the network, the clock or the file system, so the
benchmark's own tests (``test_perfbench.py``) cover every rule the
report relies on: the nearest-rank percentile, a span's self time,
on-path/off-path classification and how each end-to-end metric is
derived from the raw samples of one run.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

#: Every named percentile must have at least this many samples above
#: its rank; below that the run fails instead of printing a guess.
MIN_SAMPLES_BEYOND = 10

#: Span name of the request boundary inside a server process.  A span
#: with this ancestor ran on the request's critical path.
REQUEST_SPAN = "app.dispatch"


def nearest_rank(values, p: float) -> float:
    """The nearest-rank ``p``-th percentile: the smallest sample with at
    least ``p`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def rank(n: int, p: float) -> int:
    """1-based nearest rank of the ``p``-th percentile among ``n``."""
    return max(1, math.ceil(p / 100.0 * n))


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly above the ``p``-th
    percentile's rank."""
    return n - rank(n, p) if n else 0


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, with the quartiles ``statistics.quantiles(values, n=4)``
    gives (the steadiness rule the benchmark is accepted by)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


# --- spans -------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Span:
    """One timed call recorded inside a server process.

    ``sid`` is unique within ``pid``; ``parent`` is the ``sid`` of the
    enclosing span in the same process, or ``None``.  ``key`` is the
    request key of a request-boundary span (``"GET /sessions/x/question"``)
    and ``None`` otherwise.
    """

    pid: int
    sid: int
    parent: int | None
    name: str
    start: int
    end: int
    key: str | None = None

    @property
    def duration(self) -> int:
        return self.end - self.start


def union_length(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


@dataclass(slots=True)
class SpanTree:
    """Spans of one or more processes, indexed by ``(pid, sid)``."""

    spans: list[Span]
    by_id: dict[tuple[int, int], Span] = field(init=False)
    children: dict[tuple[int, int], list[Span]] = field(init=False)

    def __post_init__(self) -> None:
        self.by_id = {(s.pid, s.sid): s for s in self.spans}
        self.children = {}
        for s in self.spans:
            if s.parent is not None:
                self.children.setdefault((s.pid, s.parent), []).append(s)

    def self_time(self, span: Span) -> int:
        """``span``'s duration minus the union of its children's
        intervals — children may overlap (threads) or outlive it."""
        kids = self.children.get((span.pid, span.sid), ())
        covered = union_length(
            ((k.start, k.end) for k in kids), span.start, span.end
        )
        return span.duration - covered

    def on_path(self, span: Span) -> bool:
        """True iff ``span`` is (nested under) a request span.  A parent
        is always recorded with a smaller ``sid`` than its children, so
        the walk up ends."""
        node: Span | None = span
        while node is not None:
            if node.name == REQUEST_SPAN:
                return True
            if node.parent is None:
                return False
            node = self.by_id.get((node.pid, node.parent))
        return False


# --- end-to-end metrics ------------------------------------------------------


@dataclass(slots=True)
class RunSamples:
    """Raw observations of one untraced pass of one workload."""

    setup_s: list[float]
    round_ms: list[float]
    first_question_ms: list[float]
    wall_s: float
    questions: int
    sessions_attempted: int
    sessions_completed: int
    sessions_failed: int
    server_cpu_ms: float
    server_peak_rss_mb: float
    server_processes: int


#: name -> (unit, better); the order the report prints them in.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "round_p50_ms": ("ms", "lower"),
    "round_p95_ms": ("ms", "lower"),
    "first_question_p50_ms": ("ms", "lower"),
    "rounds_per_s": ("1/s", "higher"),
    "questions_per_session": ("count", "lower"),
    "server_cpu_ms_per_round": ("ms", "lower"),
    "server_peak_rss_mb": ("MB", "lower"),
    "failed_share": ("share", "lower"),
}

#: Printed in every report but not regression-gated.  ``failed_share``
#: is 0 on a good run, so no relative bound applies to it (the result's
#: ``attempted``/``failed`` carry it).  ``round_p95_ms`` moved between
#: runs of identical code by more than the largest bound a gated metric
#: may carry (quartile spread 0.3–0.5 of the median over ten seeds on a
#: 2-vCPU VM whose host stole 0–30 % of its CPU time), so as a gate it
#: would only produce false regressions.
PRINTED_ONLY = ("round_p95_ms", "failed_share")

#: Percentiles a metric name promises; each must be supported by at
#: least MIN_SAMPLES_BEYOND samples above its rank.
NAMED_PERCENTILES = {
    "round_p50_ms": 50,
    "round_p95_ms": 95,
    "first_question_p50_ms": 50,
}


@dataclass(frozen=True, slots=True)
class Metric:
    value: float
    unit: str
    samples: int


def end_to_end(raw: RunSamples) -> dict[str, Metric]:
    """Derive every end-to-end metric (with its sample count) from the
    raw samples of one run."""
    rounds = len(raw.round_ms)
    sessions = raw.sessions_completed
    out = {
        "setup_s": (
            statistics.median(raw.setup_s) if raw.setup_s else math.nan,
            len(raw.setup_s),
        ),
        "round_p50_ms": (_pct(raw.round_ms, 50), rounds),
        "round_p95_ms": (_pct(raw.round_ms, 95), rounds),
        "first_question_p50_ms": (
            _pct(raw.first_question_ms, 50),
            len(raw.first_question_ms),
        ),
        "rounds_per_s": (
            rounds / raw.wall_s if raw.wall_s > 0 else math.nan,
            rounds,
        ),
        "questions_per_session": (
            raw.questions / sessions if sessions else math.nan,
            sessions,
        ),
        "server_cpu_ms_per_round": (
            raw.server_cpu_ms / rounds if rounds else math.nan,
            rounds,
        ),
        "server_peak_rss_mb": (
            raw.server_peak_rss_mb,
            raw.server_processes,
        ),
        "failed_share": (
            raw.sessions_failed / raw.sessions_attempted
            if raw.sessions_attempted
            else math.nan,
            raw.sessions_attempted,
        ),
    }
    return {
        name: Metric(value, END_TO_END[name][0], n)
        for name, (value, n) in out.items()
    }


def thin_percentiles(raw: RunSamples) -> list[str]:
    """Named percentiles lacking MIN_SAMPLES_BEYOND samples beyond them."""
    sources = {
        "round_p50_ms": raw.round_ms,
        "round_p95_ms": raw.round_ms,
        "first_question_p50_ms": raw.first_question_ms,
    }
    problems = []
    for name, p in NAMED_PERCENTILES.items():
        n = len(sources[name])
        beyond = samples_beyond(n, p)
        if beyond < MIN_SAMPLES_BEYOND:
            problems.append(
                f"{name}: {n} samples leave {beyond} beyond p{p} "
                f"(need {MIN_SAMPLES_BEYOND})"
            )
    return problems


def _pct(values, p: float) -> float:
    return nearest_rank(values, p) if values else math.nan
