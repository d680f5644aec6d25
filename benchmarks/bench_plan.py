"""Planner benchmark harness — emits ``BENCH_plan.json``.

Measures what the cross-step planner refactor is for:

* ``lookahead_sessions`` — **full-session** L1S/L2S wall-clock,
  incremental planner vs the from-scratch per-step path, on the
  Figure 7 synthetic configurations (plus the largest one row-scaled
  and one larger stress config).  Each cell runs a mix of oracles —
  perfect (paper §5 style), adversarial all-negative (the longest
  consistent sessions, where negatives accumulate and from-scratch
  re-scans them every step), and random coin answers — and asserts the
  two modes ask **bit-for-bit identical question sequences** before any
  timing is trusted.
* ``speculation`` — service answer-round latency (``POST answer`` +
  ``GET question``) p50/p95 for L2S with and without speculative
  next-question precompute, with a think-time-paced client: while the
  "user" thinks, the server precomputes both answer branches, so the
  next round collapses to a lookup on the predicted branch.
* ``plan_cache`` — answer→question latency cold (every step computes
  its entropy table) vs warm (every step is a plan-cache hit): two
  identical adversarial L2S sessions on one manager over the largest
  Figure 7 configuration, question sequences asserted identical before
  any timing is trusted.
* ``batched_kernels`` — cross-session batched L1S/L2S kernels vs the
  per-session planners over one shared index.

The report holds measurements only; every bound on them is a row of
the gate table in ``check_trajectory.py``.

Usage::

    PYTHONPATH=src python benchmarks/bench_plan.py            # full run
    PYTHONPATH=src python benchmarks/bench_plan.py --smoke    # CI smoke
    PYTHONPATH=src python benchmarks/bench_plan.py --output my.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import (
    InferenceSession,
    Label,
    LookaheadSkylineStrategy,
    PerfectOracle,
    SignatureIndex,
)
from repro.core.fast_lookahead import entropies_for_informative
from repro.core.kernel_batch import batched_entropies
from repro.core.oracle import Oracle
from repro.data.synthetic import (
    PAPER_CONFIGS,
    SyntheticConfig,
    generate_synthetic,
)
from repro.core.serialize import instance_to_dict
from repro.relational import JoinPredicate
from repro.service import ServiceClient, ServiceServer, SessionManager
from repro.service.protocol import CreateSpec

from bench_util import bench_meta, latency_summary

#: The largest Figure 7 configuration, row-scaled until the
#: signature-class count saturates (|N| ≈ 101, product ≈ 5.76M) — below
#: that, per-step matrices are so small that incremental-vs-scratch
#: differences drown in fixed numpy call overhead.
LARGEST_FIG7 = SyntheticConfig(3, 3, 2400, 100)

#: A larger synthetic stress configuration (|N| ≈ 700) showing the
#: asymptotic benefit; not part of Figure 7, not part of the gate.
STRESS = SyntheticConfig(4, 4, 400, 30)


class AdversarialOracle(Oracle):
    """Always negative — the longest consistent session."""

    def label(self, tuple_pair):
        return Label.NEGATIVE


class CoinOracle(Oracle):
    """Seeded random answers."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def label(self, tuple_pair):
        return self._rng.choice([Label.POSITIVE, Label.NEGATIVE])


# --- full-session lookahead cell ---------------------------------------------


def _session_jobs(instance, seeds):
    """The oracle mix driven for one (config, depth, mode) measurement."""
    goal = JoinPredicate([instance.omega[0]])
    jobs = []
    for seed in seeds:
        jobs.append(("perfect", lambda: PerfectOracle(instance, goal), seed))
        jobs.append(("adversarial", AdversarialOracle, seed))
        jobs.append(("coin", lambda seed=seed: CoinOracle(seed), seed))
    return jobs


class ScratchLookahead(LookaheadSkylineStrategy):
    """The from-scratch per-step path: every proposal recomputes its
    entropies through the vectorised kernels, with no cross-step
    planner."""

    def _entropies(self, state):
        return entropies_for_informative(state, self.depth)


def _run_session(instance, index, depth, incremental, make_oracle, seed):
    """One full session; returns (wall_seconds, asked class ids, mask)."""
    oracle = make_oracle()
    lookahead = LookaheadSkylineStrategy if incremental else ScratchLookahead
    strategy = lookahead(depth=depth)
    session = InferenceSession(
        instance, strategy, oracle, index=index, seed=seed
    )
    asked: list[int] = []
    started = time.perf_counter()
    while not session.is_finished():
        question = session.propose()
        asked.append(question.class_id)
        session.answer(question.question_id, oracle.label(question.tuple_pair))
    wall = time.perf_counter() - started
    return wall, asked, session.state.result_mask()


def bench_lookahead_sessions(configs, seeds, rounds) -> list[dict]:
    cells = []
    for label, config in configs:
        instance = generate_synthetic(config, seed=7)
        index = SignatureIndex(instance)
        jobs = _session_jobs(instance, seeds)
        cell = {
            "config": label,
            "product_size": instance.cartesian_size,
            "classes": len(index),
            "sessions_per_mode": len(jobs),
            "oracles": sorted({kind for kind, _, _ in jobs}),
            "depths": {},
        }
        for depth in (1, 2):
            questions: dict[str, int] = {}
            totals = {
                (kind, incremental): []
                for kind in {k for k, _, _ in jobs}
                for incremental in (True, False)
            }
            for round_index in range(rounds):
                for incremental in (True, False):
                    per_kind: dict[str, float] = {}
                    transcripts = []
                    for kind, make_oracle, seed in jobs:
                        wall, asked, mask = _run_session(
                            instance, index, depth, incremental,
                            make_oracle, seed,
                        )
                        per_kind[kind] = per_kind.get(kind, 0.0) + wall
                        transcripts.append((kind, seed, asked, mask))
                    for kind, total in per_kind.items():
                        totals[kind, incremental].append(total)
                    if incremental:
                        incremental_transcripts = transcripts
                    else:
                        assert incremental_transcripts == transcripts, (
                            f"question-sequence parity broke: "
                            f"{label} L{depth}S"
                        )
                if round_index == 0:
                    for kind, _, asked, _ in transcripts:
                        questions[kind] = questions.get(kind, 0) + len(
                            asked
                        )
            oracles = {}
            for kind in sorted(questions):
                inc_ms = round(min(totals[kind, True]) * 1e3, 3)
                scratch_ms = round(min(totals[kind, False]) * 1e3, 3)
                oracles[kind] = {
                    "questions_total": questions[kind],
                    "incremental_ms": inc_ms,
                    "from_scratch_ms": scratch_ms,
                    "speedup": round(scratch_ms / max(inc_ms, 1e-9), 3),
                }
            inc_all = round(
                sum(row["incremental_ms"] for row in oracles.values()), 3
            )
            scratch_all = round(
                sum(row["from_scratch_ms"] for row in oracles.values()), 3
            )
            cell["depths"][f"L{depth}S"] = {
                "questions_total": sum(questions.values()),
                "incremental_ms": inc_all,
                "from_scratch_ms": scratch_all,
                "speedup": round(scratch_all / max(inc_all, 1e-9), 3),
                "oracles": oracles,
                "parity_checked": True,
            }
            adversarial = oracles["adversarial"]
            print(
                f"[bench] {label} L{depth}S: incremental {inc_all}ms "
                f"vs from-scratch {scratch_all}ms "
                f"({cell['depths'][f'L{depth}S']['speedup']}x; "
                f"full-length sessions "
                f"{adversarial['speedup']}x)",
                flush=True,
            )
        cells.append(cell)
    return cells


# --- speculation cell --------------------------------------------------------


def _relation_csv(relation) -> dict:
    header = ",".join(attr.name for attr in relation.schema)
    lines = [header] + [
        ",".join(str(value) for value in row) for row in relation.rows
    ]
    return {"name": relation.name, "text": "\n".join(lines) + "\n"}


def _drive_answer_rounds(
    server, csv_payload, max_questions, think_seconds
) -> tuple[list[float], dict]:
    """Create one L2S session and measure each answer round:
    ``POST answer`` + follow-up ``GET question`` (the user-visible gap
    between answering and seeing the next tuple).  All-negative answers
    keep the informative set large, so every step stays costly."""
    rounds: list[float] = []
    with ServiceClient(server.host, server.port) as client:
        info = client.create_session(
            csv=csv_payload,
            infer_types=True,
            strategy="L2S",
            seed=0,
            max_questions=max_questions,
        )
        session_id = info["session_id"]
        question = client.next_question(session_id)
        while question is not None:
            time.sleep(think_seconds)  # the oracle "thinks"
            started = time.perf_counter()
            client.post_answer(session_id, question["question_id"], "-")
            question = client.next_question(session_id)
            rounds.append(time.perf_counter() - started)
        stats = client.stats()
    return rounds, stats


def bench_speculation(max_questions, think_seconds) -> dict:
    # The Fig. 7 builtins are too small to show a visible per-step cost,
    # so this cell uploads the stress instance (|N| ≈ 700, L2S step in
    # the tens of milliseconds) as CSV — exactly how a real client would
    # bring its own data.
    instance = generate_synthetic(STRESS, seed=7)
    csv_payload = {
        "left": _relation_csv(instance.left),
        "right": _relation_csv(instance.right),
    }
    label = f"stress{STRESS.label} (uploaded CSV)"

    results = {}
    for speculate in (True, False):
        manager = SessionManager(
            build_workers=2, speculate=speculate
        )
        with ServiceServer(manager=manager) as server:
            rounds, stats = _drive_answer_rounds(
                server, csv_payload, max_questions, think_seconds
            )
        # The first rounds cover one-off warm-up (deferred planner table
        # construction on the speculative branch; nothing on the
        # baseline) — steady-state latency is what a long interactive
        # session experiences, so both modes drop the same prefix.
        steady = rounds[2:] if len(rounds) > 4 else rounds
        results[speculate] = {
            "answer_round_latency": latency_summary(steady),
            "warmup_rounds_excluded": len(rounds) - len(steady),
            "speculation": stats["speculation"],
        }
        mode = "speculative" if speculate else "baseline"
        print(
            f"[bench] {mode} answer rounds: "
            f"p95 {results[speculate]['answer_round_latency']['p95_ms']}ms",
            flush=True,
        )
    return {
        "workload": label,
        "strategy": "L2S",
        "oracle": "adversarial (all-negative)",
        "max_questions": max_questions,
        "think_seconds": think_seconds,
        "with_speculation": results[True],
        "without_speculation": results[False],
        "p95_speedup": round(
            results[False]["answer_round_latency"]["p95_ms"]
            / max(
                results[True]["answer_round_latency"]["p95_ms"], 1e-9
            ),
            3,
        ),
    }


# --- plan-cache cell ---------------------------------------------------------

def bench_plan_cache(max_questions) -> dict:
    """Cold vs warm answer→question latency through the plan cache.

    Two identical adversarial L2S sessions on one manager: the first
    computes (and memoises) every entropy table, the second rides
    local hits end to end.  Speculation and the kernel batcher are off
    so each timed ``propose`` isolates exactly compute-vs-lookup."""
    instance = generate_synthetic(LARGEST_FIG7, seed=7)
    manager = SessionManager(speculate=False, kernel_batch=False)

    def timed_session():
        managed = asyncio.run(
            manager.create_async(
                CreateSpec(
                    {"inline": instance_to_dict(instance)},
                    instance,
                    "L2S",
                    0,
                    None,
                )
            )
        )
        latencies, asked = [], []
        while len(asked) < max_questions:
            started = time.perf_counter()
            question = manager.propose_question(managed)
            latencies.append(time.perf_counter() - started)
            if question is None:
                break
            asked.append(question.class_id)
            manager.record_answer(
                managed, question.question_id, Label.NEGATIVE
            )
        return latencies, asked

    try:
        cold_latencies, cold_asked = timed_session()
        warm_latencies, warm_asked = timed_session()
        assert warm_asked == cold_asked, (
            "plan-cache warm session diverged from the cold run"
        )
        stats = manager.stats()["plan_cache"]
    finally:
        manager.close(wait=True)
    cold = latency_summary(cold_latencies)
    warm = latency_summary(warm_latencies)
    cell = {
        "config": f"fig7-largest{LARGEST_FIG7.label}",
        "strategy": "L2S",
        "oracle": "adversarial (all-negative)",
        "questions_per_session": len(cold_asked),
        "cold_question_latency": cold,
        "warm_question_latency": warm,
        "p95_speedup": round(
            cold["p95_ms"] / max(warm["p95_ms"], 1e-9), 3
        ),
        "plan_cache": stats,
        "parity_checked": True,
    }
    print(
        f"[bench] plan cache ({len(cold_asked)} questions): cold p95 "
        f"{cold['p95_ms']}ms vs warm p95 {warm['p95_ms']}ms "
        f"({cell['p95_speedup']}x)",
        flush=True,
    )
    return cell


# --- batched-kernel cell -----------------------------------------------------

#: Synthetic bands where the planner exports batchable jobs: an L2S
#: band (|N| ≈ 40 after the adversarial drive) and a larger L1S band
#: (|N| ≈ 380).  Both sit inside the export floor — see
#: ``IncrementalLookaheadPlanner.export_batch_job``.
L2S_BAND = (SyntheticConfig(3, 3, 100, 20), 2, 40)
L1S_BAND = (SyntheticConfig(4, 4, 100, 20), 1, 400)


def _band_sessions(config, depth, seeds, target_max):
    """Sessions pinned (via the all-negative oracle) at the first state
    whose planner exports a batch job with ``|N| <= target_max``."""
    instance = generate_synthetic(config, seed=7)
    index = SignatureIndex(instance)
    pinned = []
    for seed in seeds:
        strategy = LookaheadSkylineStrategy(depth=depth)
        session = InferenceSession(instance, strategy, index=index, seed=seed)
        for _ in range(30):
            planner = strategy.planner_for(session.state)
            if (
                planner.ids.size <= target_max
                and planner.export_batch_job() is not None
            ):
                pinned.append(session)
                break
            question = session.propose()
            if question is None:
                break
            session.answer(question.question_id, Label.NEGATIVE)
    return pinned


def _batched_round(snapshots, sessions, batched):
    """One steady-state answer round over ``sessions`` forked copies of
    the pinned band sessions.  Population forks are outside the timed
    region (fork cost is identical in both modes and not what this cell
    measures).  The kernel segment — entropy-table production — is
    timed separately from the full round wall-clock; both modes then
    run the identical propose/answer tail off the primed tables."""
    population = [
        snapshots[i % len(snapshots)].fork() for i in range(sessions)
    ]
    transcript = []
    wall_started = time.perf_counter()
    kernel_started = time.perf_counter()
    if batched:
        jobs, owners = [], []
        for session in population:
            strategy = session.strategy
            planner = strategy.planner_for(session.state)
            job = planner.export_batch_job()
            if job is not None:
                jobs.append(job)
                owners.append((session, strategy))
        if jobs:
            for (session, strategy), table in zip(
                owners, batched_entropies(jobs)
            ):
                strategy.prime_entropies(session.state, table)
    else:
        for session in population:
            strategy = session.strategy
            planner = strategy.planner_for(session.state)
            strategy.prime_entropies(session.state, planner.entropies())
    kernel_seconds = time.perf_counter() - kernel_started
    for session in population:
        question = session.propose()
        session.answer(question.question_id, Label.NEGATIVE)
        transcript.append(question.class_id)
    wall_seconds = time.perf_counter() - wall_started
    return transcript, wall_seconds, kernel_seconds


def bench_batched_kernels(sessions, rounds) -> dict:
    """Cross-session batched L1S/L2S kernels vs the per-session planner
    on one shared index: ``sessions`` concurrent sessions (a ragged
    L2S + L1S mix), ``rounds`` interleaved A/B answer rounds, question
    transcripts asserted identical before any timing is trusted."""
    l2s = _band_sessions(L2S_BAND[0], L2S_BAND[1], range(16), L2S_BAND[2])
    l1s = _band_sessions(L1S_BAND[0], L1S_BAND[1], range(16), L1S_BAND[2])
    snapshots = l2s + l1s
    warm = min(32, sessions)
    _batched_round(snapshots, warm, True)
    _batched_round(snapshots, warm, False)

    totals = {True: [0.0, 0.0, 0], False: [0.0, 0.0, 0]}
    for _ in range(rounds):
        # Modes interleave round-by-round so allocator and cache state
        # drift hits both equally.
        per_tr, per_wall, per_kernel = _batched_round(
            snapshots, sessions, False
        )
        bat_tr, bat_wall, bat_kernel = _batched_round(
            snapshots, sessions, True
        )
        assert per_tr == bat_tr, (
            "batched/per-session question transcripts diverged"
        )
        totals[False][0] += per_wall
        totals[False][1] += per_kernel
        totals[False][2] += len(per_tr)
        totals[True][0] += bat_wall
        totals[True][1] += bat_kernel
        totals[True][2] += len(bat_tr)

    def mode_row(batched):
        wall, kernel, answers = totals[batched]
        return {
            "wall_seconds": round(wall, 4),
            "kernel_seconds": round(kernel, 4),
            "answers_total": answers,
            "answers_per_second": round(answers / wall, 1),
        }

    per_session, batched = mode_row(False), mode_row(True)
    cell = {
        "bands": {
            "L2S": {
                "config": L2S_BAND[0].label,
                "informative_max": L2S_BAND[2],
                "pinned_sessions": len(l2s),
            },
            "L1S": {
                "config": L1S_BAND[0].label,
                "informative_max": L1S_BAND[2],
                "pinned_sessions": len(l1s),
            },
        },
        "sessions": sessions,
        "rounds": rounds,
        "oracle": "adversarial (all-negative)",
        "per_session": per_session,
        "batched": batched,
        "kernel_segment_speedup": round(
            totals[False][1] / max(totals[True][1], 1e-9), 3
        ),
        "answer_throughput_ratio": round(
            batched["answers_per_second"]
            / max(per_session["answers_per_second"], 1e-9),
            3,
        ),
        "parity_checked": True,
    }
    print(
        f"[bench] batched kernels ({sessions} sessions x {rounds} "
        f"rounds): kernel segment "
        f"{cell['kernel_segment_speedup']}x, answer throughput "
        f"{cell['answer_throughput_ratio']}x",
        flush=True,
    )
    return cell


# --- harness -----------------------------------------------------------------


def run_benchmarks(smoke: bool = False) -> dict:
    largest_label = f"fig7-largest{LARGEST_FIG7.label}"
    if smoke:
        configs = [
            (config.label, config) for config in PAPER_CONFIGS[:2]
        ] + [(largest_label, LARGEST_FIG7)]
        seeds, rounds = [0], 3
        max_questions, think_seconds = 21, 0.15
    else:
        configs = [
            (config.label, config) for config in PAPER_CONFIGS
        ] + [(largest_label, LARGEST_FIG7), (f"stress{STRESS.label}", STRESS)]
        seeds, rounds = [0, 1], 4
        max_questions, think_seconds = 30, 0.2

    sessions = bench_lookahead_sessions(configs, seeds, rounds)
    speculation = bench_speculation(max_questions, think_seconds)
    batch_sessions, batch_rounds = (128, 3) if smoke else (256, 6)
    batched_kernels = bench_batched_kernels(batch_sessions, batch_rounds)
    plan_cache = bench_plan_cache(16 if smoke else 48)

    largest = next(c for c in sessions if c["config"] == largest_label)
    # The L2S numbers are *full-length* sessions (the adversarial oracle
    # runs the informative set down one class at a time — every other
    # oracle collapses it in a handful of questions, leaving nothing to
    # reuse across steps and nothing meaningful to time).
    l2s = largest["depths"]["L2S"]["oracles"]["adversarial"]
    return {
        "meta": bench_meta(smoke=smoke),
        "lookahead_sessions": sessions,
        "speculation": speculation,
        "batched_kernels": batched_kernels,
        "plan_cache": plan_cache,
        "acceptance": {
            "largest_fig7_config": largest_label,
            "l2s_incremental_ms": l2s["incremental_ms"],
            "l2s_from_scratch_ms": l2s["from_scratch_ms"],
            "speculation_p95_with_ms": speculation["with_speculation"][
                "answer_round_latency"
            ]["p95_ms"],
            "speculation_p95_without_ms": speculation[
                "without_speculation"
            ]["answer_round_latency"]["p95_ms"],
            "speculation_hit_ratio": speculation["with_speculation"][
                "speculation"
            ]["hit_ratio"],
            "batched_kernel_seconds": batched_kernels["batched"][
                "kernel_seconds"
            ],
            "per_session_kernel_seconds": batched_kernels["per_session"][
                "kernel_seconds"
            ],
            "plan_cache_cold_p95_ms": plan_cache[
                "cold_question_latency"
            ]["p95_ms"],
            "plan_cache_warm_p95_ms": plan_cache[
                "warm_question_latency"
            ]["p95_ms"],
            "plan_cache_misses": plan_cache["plan_cache"]["misses"],
            "plan_cache_local_hits": plan_cache["plan_cache"][
                "local_hits"
            ],
            "plan_cache_shared_hits": plan_cache["plan_cache"][
                "shared_hits"
            ],
            "plan_cache_computes": plan_cache["plan_cache"][
                "computes"
            ],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=str(
            Path(__file__).resolve().parent.parent / "BENCH_plan.json"
        ),
        help="where to write the JSON report (default: repo root)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="2 Fig. 7 configs + the largest, fewer seeds — a CI canary",
    )
    args = parser.parse_args(argv)
    report = run_benchmarks(smoke=args.smoke)
    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    for cell in report["lookahead_sessions"]:
        for depth, row in cell["depths"].items():
            print(
                f"  {cell['config']:>24s} {depth}: "
                f"incremental {row['incremental_ms']:9.2f}ms   "
                f"from-scratch {row['from_scratch_ms']:9.2f}ms   "
                f"{row['speedup']}x"
            )
    speculation = report["speculation"]
    print(
        f"  speculation ({speculation['workload']}): answer-round p95 "
        f"{speculation['with_speculation']['answer_round_latency']['p95_ms']}ms"
        f" with vs "
        f"{speculation['without_speculation']['answer_round_latency']['p95_ms']}ms"
        f" without ({speculation['p95_speedup']}x), hit ratio "
        f"{speculation['with_speculation']['speculation']['hit_ratio']}"
    )
    batched = report["batched_kernels"]
    print(
        f"  batched kernels ({batched['sessions']} sessions): "
        f"kernel segment {batched['kernel_segment_speedup']}x, "
        f"answer throughput {batched['answer_throughput_ratio']}x"
    )
    plan_cache = report["plan_cache"]
    print(
        f"  plan cache ({plan_cache['config']}): cold p95 "
        f"{plan_cache['cold_question_latency']['p95_ms']}ms vs warm "
        f"p95 {plan_cache['warm_question_latency']['p95_ms']}ms "
        f"({plan_cache['p95_speedup']}x)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
