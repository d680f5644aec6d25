"""Core-engine benchmark harness — emits ``BENCH_core.json``.

Measures the array-native inference engine against the frozen seed
implementations (:mod:`legacy_seed`) so the performance trajectory is
tracked from one PR to the next with a fixed baseline:

* ``index_build``      — ``SignatureIndex`` construction (chunked packed
                         words + factorised unique vs the seed's dense
                         ``(words, |R|, |P|)`` tensor), on synthetic and
                         TPC-H products of ≥ 10⁵ tuples;
* ``l1s_step``/``l2s_step`` — one full ``entropy^k`` sweep over every
                         informative class on a fresh state;
* ``l2s_full_session`` — a complete interactive inference run with the
                         L2S strategy against a perfect oracle (the
                         paper's most expensive configuration, §5.3).

Every cell checks bit-for-bit parity between baseline and new engine
before timing, so a speedup never hides a behaviour change.  The report
holds measurements only; the speedup floor is a row of the gate table
in ``check_trajectory.py``.

Usage::

    PYTHONPATH=src python benchmarks/bench_core.py            # full run
    PYTHONPATH=src python benchmarks/bench_core.py --smoke    # CI smoke
    PYTHONPATH=src python benchmarks/bench_core.py --output my.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

import legacy_seed
from bench_util import bench_meta
from repro.core import (
    PerfectOracle,
    SignatureIndex,
    run_inference,
    sample_goal_of_size,
)
from repro.core.fast_lookahead import entropies_for_informative
from repro.core.session import InferenceSession
from repro.core.state import InferenceState
from repro.core.strategies.lookahead import LookaheadSkylineStrategy
from repro.data import generate_tpch, tpch_workloads
from repro.data.synthetic import SyntheticConfig, generate_synthetic

import random


def _best_of(repeats: int, fn) -> float:
    """Wall-clock of the fastest of ``repeats`` runs (reduces jitter)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _cell(name, workload, params, baseline_seconds, new_seconds):
    return {
        "name": name,
        "workload": workload,
        "params": params,
        "baseline_seconds": round(baseline_seconds, 6),
        "new_seconds": round(new_seconds, 6),
        "speedup": round(baseline_seconds / max(new_seconds, 1e-12), 2),
        "parity_checked": True,
    }


# --- index construction -------------------------------------------------------


def bench_index_build(instance, workload_name, repeats):
    new_index = SignatureIndex(instance, backend="numpy")
    legacy_classes, legacy_maximal = legacy_seed.legacy_build_index(instance)
    assert [(c.mask, c.count, c.representative) for c in new_index] == [
        (c.mask, c.count, c.representative) for c in legacy_classes
    ], f"index parity failed on {workload_name}"
    assert new_index.maximal_class_ids == legacy_maximal

    baseline = _best_of(
        repeats, lambda: legacy_seed.legacy_build_index(instance)
    )
    new = _best_of(
        repeats, lambda: SignatureIndex(instance, backend="numpy")
    )
    return _cell(
        "index_build",
        workload_name,
        {
            "product_size": instance.cartesian_size,
            "omega": len(instance.omega),
            "classes": len(new_index),
        },
        baseline,
        new,
    )


# --- lookahead steps ----------------------------------------------------------


def bench_lookahead_step(index, workload_name, depth, repeats):
    state = InferenceState(index)
    legacy_state = legacy_seed.LegacyInferenceState(index)
    new_result = entropies_for_informative(state, depth)
    legacy_result = legacy_seed.legacy_entropies_for_informative(
        legacy_state, depth
    )
    assert new_result == legacy_result, (
        f"L{depth}S parity failed on {workload_name}"
    )

    baseline = _best_of(
        repeats,
        lambda: legacy_seed.legacy_entropies_for_informative(
            legacy_seed.LegacyInferenceState(index), depth
        ),
    )
    new = _best_of(
        repeats,
        lambda: entropies_for_informative(InferenceState(index), depth),
    )
    return _cell(
        f"l{depth}s_step",
        workload_name,
        {"classes": len(index), "omega": len(index.instance.omega)},
        baseline,
        new,
    )


# --- full sessions ------------------------------------------------------------


def _run_legacy_session(instance, index, goal, depth):
    session = InferenceSession(
        instance,
        legacy_seed.LegacyLookaheadStrategy(depth),
        PerfectOracle(instance, goal),
        index=index,
        seed=0,
    )
    session.state = legacy_seed.LegacyInferenceState(index)
    return session.run()


def _run_new_session(instance, index, goal, depth):
    return run_inference(
        instance,
        LookaheadSkylineStrategy(depth=depth),
        PerfectOracle(instance, goal),
        index=index,
        seed=0,
    )


def bench_full_session(instance, index, goal, workload_name, depth, repeats):
    new_result = _run_new_session(instance, index, goal, depth)
    legacy_result = _run_legacy_session(instance, index, goal, depth)
    assert new_result.predicate == legacy_result.predicate, (
        f"session predicate parity failed on {workload_name}"
    )
    assert new_result.interactions == legacy_result.interactions

    baseline = _best_of(
        repeats, lambda: _run_legacy_session(instance, index, goal, depth)
    )
    new = _best_of(
        repeats, lambda: _run_new_session(instance, index, goal, depth)
    )
    return _cell(
        f"l{depth}s_full_session",
        workload_name,
        {
            "classes": len(index),
            "omega": len(index.instance.omega),
            "interactions": new_result.interactions,
            "goal_size": len(goal),
        },
        baseline,
        new,
    )


# --- harness ------------------------------------------------------------------


def run_benchmarks(smoke: bool = False) -> dict:
    repeats = 1 if smoke else 3
    cells = []

    # Synthetic L2S workload: |N| ≥ 200 classes (acceptance floor).
    session_config = (
        SyntheticConfig(4, 4, 25, 8) if smoke else SyntheticConfig(4, 4, 60, 12)
    )
    instance = generate_synthetic(session_config, seed=1)
    index = SignatureIndex(instance)
    label = f"synthetic{session_config.label}"
    print(f"[bench] {label}: {len(index)} classes", flush=True)
    cells.append(bench_lookahead_step(index, label, 1, repeats))
    cells.append(bench_lookahead_step(index, label, 2, repeats))
    goal = sample_goal_of_size(index, 3, random.Random(7))
    if goal is None:
        goal = index.predicate_of(len(index) - 1)
    session_repeats = 1 if smoke else 2
    cells.append(
        bench_full_session(instance, index, goal, label, 2, session_repeats)
    )
    print(f"[bench] {label}: sessions done", flush=True)

    # Index construction at |R|×|P| ≥ 10⁵ (acceptance floor).
    build_config = (
        SyntheticConfig(4, 4, 40, 30) if smoke else SyntheticConfig(4, 4, 350, 30)
    )
    build_instance = generate_synthetic(build_config, seed=2)
    cells.append(
        bench_index_build(
            build_instance, f"synthetic{build_config.label}", repeats
        )
    )
    print("[bench] synthetic index build done", flush=True)

    # TPC-H: the paper's join5 (the largest index) for construction and a
    # session on join4.
    scale = 0.5 if smoke else 4.0
    tables = generate_tpch(scale=scale, seed=0)
    workloads = {w.name: w for w in tpch_workloads(tables)}
    join5 = workloads["join5"]
    cells.append(
        bench_index_build(join5.instance, f"tpch-join5@sf{scale}", repeats)
    )
    print("[bench] tpch index build done", flush=True)

    session_scale = 0.5 if smoke else 2.0
    session_tables = (
        tables
        if session_scale == scale
        else generate_tpch(scale=session_scale, seed=0)
    )
    session_workloads = {w.name: w for w in tpch_workloads(session_tables)}
    join5s = session_workloads["join5"]
    join5s_index = SignatureIndex(join5s.instance)
    cells.append(
        bench_lookahead_step(
            join5s_index, f"tpch-join5@sf{session_scale}", 2, repeats
        )
    )
    cells.append(
        bench_full_session(
            join5s.instance,
            join5s_index,
            join5s.goal,
            f"tpch-join5@sf{session_scale}",
            2,
            session_repeats,
        )
    )
    print("[bench] tpch sessions done", flush=True)

    by_name: dict[str, list] = {}
    for cell in cells:
        by_name.setdefault(cell["name"], []).append(cell)

    def _acceptance(name, predicate=lambda cell: True):
        eligible = [c for c in by_name.get(name, ()) if predicate(c)]
        return min((c["speedup"] for c in eligible), default=None)

    report = {
        "meta": bench_meta(
            numpy=np.__version__,
            smoke=smoke,
            baseline="seed implementations (benchmarks/legacy_seed.py)",
        ),
        "benchmarks": cells,
        "acceptance": {
            "l2s_full_session_speedup_min": _acceptance(
                "l2s_full_session",
                lambda cell: smoke or cell["params"]["classes"] >= 200,
            ),
            "index_build_speedup_min": _acceptance(
                "index_build",
                lambda cell: smoke
                or cell["params"]["product_size"] >= 100_000,
            ),
        },
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_core.json"),
        help="where to write the JSON report (default: repo root)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny instances, single repeat — a CI regression canary",
    )
    args = parser.parse_args(argv)
    report = run_benchmarks(smoke=args.smoke)
    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    for cell in report["benchmarks"]:
        print(
            f"  {cell['name']:20s} {cell['workload']:28s} "
            f"baseline {cell['baseline_seconds']*1e3:9.1f}ms   "
            f"new {cell['new_seconds']*1e3:9.1f}ms   "
            f"speedup {cell['speedup']:6.2f}x"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
