"""Per-layer metrics of a traced run.

Each metric is derived from three sources: the server's spans (see
``tracer/sitecustomize.py``), the counters of ``GET /stats`` (summed
over fleet workers) before and after the measured phase, and the load
generator's own observations.  ``PER_LAYER`` lists every metric with
its unit and the end-to-end metric and workload it should move.
"""

from __future__ import annotations

from dataclasses import dataclass

from stats import Span, SpanTree, nearest_rank

#: name -> (unit, better, end-to-end metric it should move, on workloads).
PER_LAYER = {
    "service.app.outside_ms_per_round": (
        "ms", "lower", "round_p50_ms; round_p95_ms", "upload; think",
    ),
    "service.app.self_ms_per_round": (
        "ms", "lower", "round_p50_ms", "upload",
    ),
    "service.app.requests_per_round": (
        "count", "lower", "rounds_per_s", "upload",
    ),
    "service.protocol.parse_create_ms_per_session": (
        "ms", "lower", "first_question_p50_ms", "upload",
    ),
    "relational.csv_io.read_ms_per_session": (
        "ms", "lower", "first_question_p50_ms", "upload",
    ),
    "service.index_cache.fingerprint_ms_per_session": (
        "ms", "lower", "first_question_p50_ms", "upload",
    ),
    "service.index_cache.hit_ratio": (
        "share", "higher", "first_question_p50_ms", "upload vs think",
    ),
    "core.index_build.build_ms_per_session": (
        "ms", "lower", "first_question_p50_ms", "upload",
    ),
    "core.index_build.build_ms_setup": (
        "ms", "lower", "setup_s", "think, fleet",
    ),
    "data.workloads.generate_ms_setup": (
        "ms", "lower", "setup_s", "think, fleet",
    ),
    "service.manager.create_self_ms_per_session": (
        "ms", "lower", "first_question_p50_ms", "all",
    ),
    "service.manager.answer_self_ms_per_round": (
        "ms", "lower", "round_p50_ms", "upload, think",
    ),
    "service.manager.propose_self_ms_per_round": (
        "ms", "lower", "round_p50_ms", "think",
    ),
    "service.manager.offload_wait_ms_per_round": (
        "ms", "lower", "round_p50_ms", "think",
    ),
    "service.manager.speculation_hit_ratio": (
        "share", "higher", "round_p95_ms", "think",
    ),
    "service.manager.speculation_used_share": (
        "share", "higher", "server_cpu_ms_per_round", "think",
    ),
    "service.manager.speculation_skipped_think": (
        "count", "higher", "round_p50_ms", "think",
    ),
    "core.session.fork_ms_per_round": (
        "ms", "lower", "server_cpu_ms_per_round", "think",
    ),
    "core.state.record_ms_per_round": (
        "ms", "lower", "round_p50_ms", "upload",
    ),
    "core.strategies.propose_onpath_ms_per_round": (
        "ms", "lower", "round_p95_ms", "think",
    ),
    "core.strategies.propose_offpath_ms_per_round": (
        "ms", "lower", "server_cpu_ms_per_round", "think",
    ),
    "core.planner.entropies_ms_per_round": (
        "ms", "lower", "server_cpu_ms_per_round; round_p95_ms", "think",
    ),
    "core.planner.advance_ms_per_round": (
        "ms", "lower", "server_cpu_ms_per_round", "think",
    ),
    "core.fast_lookahead.entropies_ms_per_round": (
        "ms", "lower", "server_cpu_ms_per_round", "think",
    ),
    "core.kernel_batch.batched_share": (
        "share", "higher", "server_cpu_ms_per_round", "think",
    ),
    "core.kernel_batch.wait_ms_per_round": (
        "ms", "lower", "round_p95_ms", "think",
    ),
    "core.plan_cache.hit_ratio": (
        "share", "higher", "server_cpu_ms_per_round", "think",
    ),
    "core.plan_cache.ms_per_round": (
        "ms", "lower", "server_cpu_ms_per_round", "think",
    ),
    "service.plan_registry.ms_per_round": (
        "ms", "lower", "server_cpu_ms_per_round", "think, fleet",
    ),
    "service.plan_registry.shared_hits_per_round": (
        "count", "higher", "server_cpu_ms_per_round", "fleet",
    ),
    "service.store.append_ms_per_round": (
        "ms", "lower", "server_cpu_ms_per_round, rounds_per_s", "upload",
    ),
    "service.store.checkpoint_ms_per_session": (
        "ms", "lower", "server_cpu_ms_per_round", "upload",
    ),
    "service.store.rows_per_flush": (
        "count", "higher", "server_cpu_ms_per_round", "upload",
    ),
    "service.store.retries": ("count", "lower", "failed_share", "all"),
    "service.events.publish_ms_per_round": (
        "ms", "lower", "round_p50_ms", "upload",
    ),
    "service.router.hop_ms_per_round": (
        "ms", "lower", "round_p50_ms", "fleet",
    ),
    "service.router.failovers": ("count", "lower", "failed_share", "fleet"),
    "service.shm_registry.attach_ms_setup": (
        "ms", "lower", "setup_s", "fleet",
    ),
    "service.shm_registry.attach_share": (
        "share", "higher", "server_peak_rss_mb", "fleet",
    ),
    "service.shm_registry.leaked_segments": (
        "count", "lower", "failed_share", "all",
    ),
    "loadgen.late_ms_p95": (
        "ms", "lower", "guards round_p95_ms", "think, fleet",
    ),
    "loadgen.cpu_ms_per_round": (
        "ms", "lower", "guards rounds_per_s", "upload",
    ),
}

#: ``/stats`` leaves the metrics read, as paths into one manager's
#: stats; a fleet's are summed over its workers.
COUNTERS = {
    "index_hits": ("index_cache", "hits"),
    "index_misses": ("index_cache", "misses"),
    "attach_hits": ("index_cache", "attach_hits"),
    "builds": ("index_cache", "builds"),
    "spec_hits": ("speculation", "hits"),
    "spec_misses": ("speculation", "misses"),
    "spec_submitted": ("speculation", "submitted"),
    "spec_skipped_think": ("speculation", "skipped_think"),
    "batched_jobs": ("kernel_batch", "batched_jobs"),
    "fallback_jobs": ("kernel_batch", "fallback_jobs"),
    "plan_local_hits": ("plan_cache", "local_hits"),
    "plan_shared_hits": ("plan_cache", "shared_hits"),
    "plan_computes": ("plan_cache", "computes"),
    "journal_appends": ("store", "journal_appends"),
    "busy_retries": ("store", "busy_retries"),
    "flush_errors": ("store", "flush_errors"),
}


def counters(stats: dict) -> dict[str, float]:
    """The ``COUNTERS`` of a solo ``/stats`` payload or, for a fleet's
    (``{"workers": {slot: stats}}``), their sums over the workers."""
    managers = (
        list(stats["workers"].values()) if "workers" in stats else [stats]
    )
    out = {}
    for name, (block, leaf) in COUNTERS.items():
        out[name] = float(
            sum((m.get(block) or {}).get(leaf, 0) or 0 for m in managers)
        )
    return out


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


@dataclass(slots=True)
class TracedRun:
    """Everything one traced pass hands to :func:`per_layer`."""

    spans: list[Span]
    #: Client requests ``(key, sent ns, received ns, in a round)``.
    requests: list[tuple[str, int, int, bool]]
    setup_start: int
    measure_start: int
    measure_end: int
    stats_before: dict
    stats_after: dict
    fleet_after: dict | None
    rounds: int
    sessions: int
    leaked_segments: int
    late_ms: list[float]
    client_cpu_ms: float


def match_requests(requests, spans: list[Span]):
    """Pair each client request with the server span of the same request
    key: the k-th request with a key meets the k-th span with it (one
    session's requests never overlap, so the order is unambiguous)."""
    by_key: dict[str, list[Span]] = {}
    for span in sorted(spans, key=lambda s: s.start):
        by_key.setdefault(span.key, []).append(span)
    seen: dict[str, int] = {}
    pairs = []
    for request in sorted(requests, key=lambda r: r[1]):
        key = request[0]
        k = seen.get(key, 0)
        seen[key] = k + 1
        candidates = by_key.get(key, ())
        if k < len(candidates):
            pairs.append((request, candidates[k]))
    return pairs


def per_layer(run: TracedRun) -> dict[str, float]:
    """Every ``PER_LAYER`` metric of one traced pass."""
    tree = SpanTree(run.spans)
    measured = [
        s for s in run.spans if run.measure_start <= s.start <= run.measure_end
    ]
    setup = [
        s for s in run.spans if run.setup_start <= s.start < run.measure_start
    ]
    rounds, sessions = max(run.rounds, 1), max(run.sessions, 1)

    def named(spans, *names):
        return [s for s in spans if s.name in names]

    def total_ms(spans, *names):
        return sum(s.duration for s in named(spans, *names)) / 1e6

    def self_ms(spans, *names):
        return sum(tree.self_time(s) for s in named(spans, *names)) / 1e6

    dispatch = named(measured, "app.dispatch")
    round_requests = [r for r in run.requests if r[3]]
    served = match_requests(round_requests, dispatch)
    outside = sum((r[2] - r[1]) - s.duration for r, s in served) / 1e6
    dispatch_self = sum(tree.self_time(s) for _, s in served) / 1e6
    hop = 0.0
    proxied = named(measured, "router.proxy")
    if proxied:
        routed = dict(match_requests(round_requests, proxied))
        hop = sum(
            routed[r].duration - s.duration for r, s in served if r in routed
        ) / 1e6
    propose = named(measured, "strategies.propose")
    onpath = sum(s.duration for s in propose if tree.on_path(s)) / 1e6
    offpath = sum(s.duration for s in propose if not tree.on_path(s)) / 1e6

    before, after = counters(run.stats_before), counters(run.stats_after)
    delta = {k: after[k] - before[k] for k in after}
    fleet = run.fleet_after or {}
    shared_index = fleet.get("shared_index")
    if shared_index is not None:
        attach = shared_index["attach_hits_total"]
        builds = shared_index["builds_total"]
    else:
        attach, builds = after["attach_hits"], after["builds"]
    appends = len(named(measured, "store.append_answers"))
    plan_hits = delta["plan_local_hits"] + delta["plan_shared_hits"]

    return {
        "service.app.outside_ms_per_round": outside / rounds,
        "service.app.self_ms_per_round": dispatch_self / rounds,
        "service.app.requests_per_round": len(dispatch) / rounds,
        "service.protocol.parse_create_ms_per_session":
            self_ms(measured, "protocol.parse_create_payload") / sessions,
        "relational.csv_io.read_ms_per_session":
            total_ms(measured, "csv_io.read_csv_text") / sessions,
        "service.index_cache.fingerprint_ms_per_session":
            total_ms(measured, "index_cache.instance_fingerprint") / sessions,
        "service.index_cache.hit_ratio": ratio(
            delta["index_hits"], delta["index_hits"] + delta["index_misses"]
        ),
        "core.index_build.build_ms_per_session":
            total_ms(measured, "index_build.build") / sessions,
        "core.index_build.build_ms_setup": total_ms(setup, "index_build.build"),
        "data.workloads.generate_ms_setup":
            total_ms(setup, "workloads.builtin_instance"),
        "service.manager.create_self_ms_per_session":
            self_ms(measured, "manager.create_async") / sessions,
        "service.manager.answer_self_ms_per_round":
            self_ms(measured, "manager.record_answer") / rounds,
        "service.manager.propose_self_ms_per_round":
            self_ms(measured, "manager.propose_question_async") / rounds,
        "service.manager.offload_wait_ms_per_round":
            total_ms(measured, "manager.offload_wait") / rounds,
        "service.manager.speculation_hit_ratio": ratio(
            delta["spec_hits"], delta["spec_hits"] + delta["spec_misses"]
        ),
        "service.manager.speculation_used_share": ratio(
            delta["spec_hits"], delta["spec_submitted"]
        ),
        "service.manager.speculation_skipped_think":
            delta["spec_skipped_think"],
        "core.session.fork_ms_per_round":
            total_ms(measured, "session.fork") / rounds,
        "core.state.record_ms_per_round":
            total_ms(measured, "state.record") / rounds,
        "core.strategies.propose_onpath_ms_per_round": onpath / rounds,
        "core.strategies.propose_offpath_ms_per_round": offpath / rounds,
        "core.planner.entropies_ms_per_round":
            total_ms(measured, "planner.entropies") / rounds,
        "core.planner.advance_ms_per_round":
            total_ms(measured, "planner.advance") / rounds,
        "core.fast_lookahead.entropies_ms_per_round": total_ms(
            measured, "fast_lookahead.entropies_for_informative"
        ) / rounds,
        "core.kernel_batch.batched_share": ratio(
            delta["batched_jobs"],
            delta["batched_jobs"] + delta["fallback_jobs"],
        ),
        "core.kernel_batch.wait_ms_per_round":
            total_ms(measured, "kernel_batch.wait") / rounds,
        "core.plan_cache.hit_ratio": ratio(
            plan_hits, plan_hits + delta["plan_computes"]
        ),
        "core.plan_cache.ms_per_round":
            self_ms(measured, "plan_cache.get", "plan_cache.install") / rounds,
        "service.plan_registry.ms_per_round": total_ms(
            measured, "plan_registry.get", "plan_registry.publish"
        ) / rounds,
        "service.plan_registry.shared_hits_per_round":
            delta["plan_shared_hits"] / rounds,
        "service.store.append_ms_per_round":
            total_ms(measured, "store.append_answers") / rounds,
        "service.store.checkpoint_ms_per_session":
            total_ms(measured, "store.put_checkpoint") / sessions,
        "service.store.rows_per_flush": ratio(
            delta["journal_appends"], appends
        ),
        "service.store.retries":
            delta["busy_retries"] + delta["flush_errors"],
        "service.events.publish_ms_per_round":
            total_ms(measured, "events.publish") / rounds,
        "service.router.hop_ms_per_round": hop / rounds,
        "service.router.failovers": float(
            fleet.get("failovers_total", 0) + fleet.get("respawns_total", 0)
        ),
        "service.shm_registry.attach_ms_setup":
            total_ms(setup, "shm_registry.get_or_build"),
        "service.shm_registry.attach_share": ratio(attach, attach + builds),
        "service.shm_registry.leaked_segments": float(run.leaked_segments),
        "loadgen.late_ms_p95":
            nearest_rank(run.late_ms, 95) if run.late_ms else 0.0,
        "loadgen.cpu_ms_per_round": run.client_cpu_ms / rounds,
    }
