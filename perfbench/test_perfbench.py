"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from layers import PER_LAYER, counters, match_requests  # noqa: E402
from loadgen import oracle_label  # noqa: E402
from stats import (  # noqa: E402
    END_TO_END,
    PRINTED_ONLY,
    RunSamples,
    Span,
    SpanTree,
    end_to_end,
    nearest_rank,
    samples_beyond,
    thin_percentiles,
    union_length,
)
from workloads import (  # noqa: E402
    WORKLOADS,
    Instances,
    Kind,
    Workload,
    generate_sessions,
)

# --- percentiles -------------------------------------------------------------


def test_nearest_rank_picks_a_sample_at_the_ceiling_rank():
    values = list(range(10, 0, -1))  # unsorted on purpose
    assert nearest_rank(values, 50) == 5
    assert nearest_rank(values, 90) == 9
    assert nearest_rank(values, 91) == 10
    assert nearest_rank(values, 100) == 10
    assert nearest_rank([7.5], 95) == 7.5


def test_nearest_rank_rejects_no_samples_and_bad_ranks():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1], 0)


def test_samples_beyond_the_rank():
    assert samples_beyond(200, 95) == 10
    assert samples_beyond(199, 95) == 9
    assert samples_beyond(20, 50) == 10
    assert samples_beyond(0, 50) == 0


# --- spans -------------------------------------------------------------------


def _span(sid, parent, name, start, end, pid=1, key=None):
    return Span(pid, sid, parent, name, start, end, key)


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(10, 30), (20, 50), (90, 120)], 0, 100) == 50
    assert union_length([(0, 5), (5, 8)], 0, 100) == 8
    assert union_length([(200, 300)], 0, 100) == 0
    assert union_length([], 0, 100) == 0


def test_self_time_subtracts_the_union_of_direct_children():
    tree = SpanTree([
        _span(1, None, "parent", 0, 100),
        _span(2, 1, "child", 10, 30),
        _span(3, 1, "child", 20, 50),  # overlaps its sibling
        _span(4, 1, "child", 90, 120),  # outlives the parent
        _span(5, 2, "grandchild", 12, 14),  # covered by its own parent
    ])
    assert tree.self_time(tree.by_id[(1, 1)]) == 50
    assert tree.self_time(tree.by_id[(1, 2)]) == 18
    assert tree.self_time(tree.by_id[(1, 5)]) == 2


def test_spans_of_different_processes_never_nest():
    tree = SpanTree([
        _span(1, None, "app.dispatch", 0, 100, pid=1),
        _span(2, 1, "state.record", 10, 20, pid=2),  # parent 1 of pid 2
    ])
    assert tree.self_time(tree.by_id[(1, 1)]) == 100
    assert not tree.on_path(tree.by_id[(2, 2)])


def test_on_path_means_nested_under_a_request_span():
    tree = SpanTree([
        _span(1, None, "app.dispatch", 0, 100),
        _span(2, 1, "manager.propose_question_async", 5, 90),
        _span(3, 2, "manager.offload_job", 10, 20),
        _span(4, 3, "strategies.propose", 11, 19),
        # a speculation branch: started on a pool thread, no parent
        _span(5, None, "strategies.propose", 30, 60),
        # a parent that was never recorded (e.g. still open at exit)
        _span(6, 99, "strategies.propose", 30, 60),
    ])
    assert tree.on_path(tree.by_id[(1, 4)])
    assert tree.on_path(tree.by_id[(1, 1)])
    assert not tree.on_path(tree.by_id[(1, 5)])
    assert not tree.on_path(tree.by_id[(1, 6)])


def test_requests_pair_with_spans_of_the_same_key_in_order():
    requests = [
        ("GET /sessions/a/question", 100, 200, True),
        ("GET /sessions/a/question", 300, 400, True),
        ("POST /sessions/a/answer", 250, 290, True),
    ]
    spans = [
        _span(3, None, "app.dispatch", 310, 390, key="GET /sessions/a/question"),
        _span(1, None, "app.dispatch", 110, 190, key="GET /sessions/a/question"),
        _span(2, None, "app.dispatch", 255, 285, key="POST /sessions/a/answer"),
    ]
    pairs = {(r[1], s.sid) for r, s in match_requests(requests, spans)}
    assert pairs == {(100, 1), (300, 3), (250, 2)}


def test_fleet_counters_sum_over_workers():
    one = {"index_cache": {"hits": 3, "misses": 1}, "store": {"busy_retries": 2}}
    two = {"index_cache": {"hits": 4, "misses": 0}, "store": {}}
    fleet = counters({"fleet": {}, "workers": {"0": one, "1": two}})
    assert fleet["index_hits"] == 7 and fleet["index_misses"] == 1
    assert fleet["busy_retries"] == 2 and fleet["plan_computes"] == 0
    assert counters(one)["index_hits"] == 3


# --- end-to-end metrics ------------------------------------------------------


def _samples(**overrides):
    base = dict(
        setup_s=[1.2, 0.9, 1.0],
        round_ms=[float(v) for v in range(1, 201)],
        first_question_ms=[float(v) for v in range(1, 21)],
        wall_s=4.0,
        questions=200,
        sessions_attempted=21,
        sessions_completed=20,
        sessions_failed=1,
        server_cpu_ms=500.0,
        server_peak_rss_mb=100.5,
        server_processes=3,
    )
    base.update(overrides)
    return RunSamples(**base)


def test_end_to_end_metrics_derive_from_raw_samples():
    metrics = end_to_end(_samples())
    assert list(metrics) == list(END_TO_END)
    assert metrics["setup_s"].value == 1.0 and metrics["setup_s"].samples == 3
    assert metrics["round_p50_ms"].value == 100.0
    assert metrics["round_p95_ms"].value == 190.0
    assert metrics["round_p95_ms"].samples == 200
    assert metrics["first_question_p50_ms"].value == 10.0
    assert metrics["rounds_per_s"].value == 50.0
    assert metrics["questions_per_session"].value == 10.0
    assert metrics["server_cpu_ms_per_round"].value == 2.5
    assert metrics["server_peak_rss_mb"].value == 100.5
    assert metrics["server_peak_rss_mb"].samples == 3
    assert metrics["failed_share"].value == pytest.approx(1 / 21)
    for name, metric in metrics.items():
        assert metric.unit == END_TO_END[name][0]


def test_thin_percentiles_are_reported():
    assert thin_percentiles(_samples()) == []
    thin = thin_percentiles(
        _samples(round_ms=[1.0] * 199, first_question_ms=[1.0] * 19)
    )
    assert [p.split(":")[0] for p in thin] == [
        "round_p95_ms", "first_question_p50_ms",
    ]


# --- workloads ---------------------------------------------------------------


def test_oracle_label_checks_every_goal_pair():
    question = {
        "left": {"attributes": ["a", "b"], "row": [1, "x"]},
        "right": {"attributes": ["c", "d"], "row": ["x", 1]},
    }
    assert oracle_label([["a", "d"]], question) == "+"
    assert oracle_label([["a", "d"], ["b", "c"]], question) == "+"
    assert oracle_label([["a", "c"]], question) == "-"


_TINY = Workload(
    name="tiny",
    why="test",
    kinds=(
        Kind("tpch/join3", 1.0, "TD", 2),
        Kind("tpch/join3", 1.0, "RND", 1),
        Kind(None, 1.0, "TD", 1),
    ),
    connections=2,
    users=2,
    rounds_per_s=20.0,
    paced=True,
)


def test_session_list_is_a_pure_function_of_the_seed():
    instances = Instances()
    first = generate_sessions(_TINY, 7, 1.0, instances)
    again = generate_sessions(_TINY, 7, 1.0, Instances())
    other = generate_sessions(_TINY, 8, 1.0, instances)
    assert json.dumps(first) == json.dumps(again)
    assert json.dumps(first) != json.dumps(other)
    weights = sum(k.weight for k in _TINY.kinds)
    for kind in _TINY.kinds:
        # each kind's rounds land within one session of its quota
        quota = 20.0 * kind.weight / weights
        counts = [
            s["expect"]["questions"] for s in first if s["kind"] == kind.label
        ]
        assert counts and abs(sum(counts) - quota) <= max(counts)
    for user in range(_TINY.users):
        mine = [s for s in first if s["user"] == user]
        # each user's think times span the whole run
        assert sum(sum(s["thinks"]) for s in mine) == pytest.approx(1.0)
    for session in first:
        assert len(session["thinks"]) == session["expect"]["questions"] + 1


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["paths"] == ["perfbench"]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [
        w.why for w in WORKLOADS.values()
    ]
    assert [m["name"] for m in bench["end_to_end"]] == [
        name for name in END_TO_END if name not in PRINTED_ONLY
    ]
    for metric in bench["end_to_end"]:
        unit, better = END_TO_END[metric["name"]]
        assert (metric["unit"], metric["better"]) == (unit, better)
        assert 0 < metric["bound"] <= 0.25
    assert [m["name"] for m in bench["per_layer"]] == list(PER_LAYER)
    for metric in bench["per_layer"]:
        unit, better = PER_LAYER[metric["name"]][:2]
        assert (metric["unit"], metric["better"]) == (unit, better)


# --- tracer ------------------------------------------------------------------


def test_tracer_records_rebound_functions_with_their_parents(tmp_path):
    script = (
        "from repro.service.protocol import parse_create_payload\n"
        "import repro.service.protocol as p\n"
        "p.parse_create_payload({'csv': {"
        "'left': {'name': 'R', 'text': 'a\\n1\\n'},"
        "'right': {'name': 'P', 'text': 'b\\n1\\n'}}})\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(BENCH_DIR / "tracer"), str(ROOT / "src")]
    )
    env["PERFBENCH_SPANS_DIR"] = str(tmp_path)
    subprocess.run(
        [sys.executable, "-c", script], env=env, check=True, timeout=120
    )
    (path,) = tmp_path.glob("spans-*.json")
    spans = json.loads(path.read_text())["spans"]
    by_name = {name: (sid, parent) for sid, parent, name, *_ in spans}
    parse_sid, parse_parent = by_name["protocol.parse_create_payload"]
    assert parse_parent is None
    reads = [s for s in spans if s[2] == "csv_io.read_csv_text"]
    assert len(reads) == 2 and all(s[1] == parse_sid for s in reads)
