"""End-to-end benchmark of the served interactive round.

    python3 perfbench/run.py --workload think --seed 1 --seconds 25 --trace 0

Per run: generate the workload's session list from ``--seed`` (with
every session's expected outcome, computed in-process off the clock),
start a fresh ``repro serve`` subprocess on loopback with a fresh
``--store`` and warm it up — three times, reporting the median set-up
time — then play the list against the last server from one client
process, check every session, stop the server cleanly and print the
report.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``; with ``--trace 1`` the per-layer metrics of
a second, traced pass over the same inputs, after which the report
also shows the tracing overhead on each end-to-end metric.

Exits non-zero when a session fails its check, a named percentile has
fewer than ten samples beyond it, or the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACER = BENCH_DIR / "tracer"
CACHE_DIR = BENCH_DIR / ".cache"
WORK_DIR = BENCH_DIR / ".work"

#: Servers started and warmed up per pass; ``setup_s`` is their median.
SETUPS = 3

HOST = "127.0.0.1"


@dataclass(slots=True)
class Pass:
    """One pass over the session list: samples, checks and, when
    traced, everything the per-layer metrics need."""

    samples: object
    failures: list[str]
    leaked: set[str]
    command: list[str]
    #: Generator lateness of every due action, in ms.
    late_ms: list[float]
    #: Share of CPU time the hypervisor gave elsewhere while measuring.
    steal_share: float
    traced: object = None


def run_pass(workload, sessions, trace: bool, tag: str) -> Pass:
    """Set up ``SETUPS`` servers, measure the last one, stop it."""
    from layers import TracedRun
    from loadgen import get_json, play, warm_up
    from server import (
        Server, cpu_ms, cpu_steal, peak_rss_mb, reap_shm, shm_entries,
    )
    from stats import RunSamples
    from workloads import warmup_sessions

    workdir = WORK_DIR / f"{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    creates = warmup_sessions(workload)
    builtins = {(c["workload"], c["scale"]) for c in creates if "workload" in c}
    setup_s: list[float] = []
    servers: list[Server] = []
    log: list = []
    shm_before = shm_entries()

    def fetch(path):
        return asyncio.run(get_json(HOST, server.port, path))

    try:
        for i in range(SETUPS):
            if servers:
                servers[-1].stop()
            spans_dir = workdir / f"spans{i}"
            server = Server(
                SRC, workdir / f"server{i}", workload.workers,
                tracer=TRACER if trace else None, spans_dir=spans_dir,
            )
            servers.append(server)
            if trace:
                spans_dir.mkdir(parents=True)
            spawned = time.perf_counter_ns()
            server.start()
            asyncio.run(
                warm_up(HOST, server.port, creates, workload.workers, log)
            )
            if workload.workers > 1:
                fleet = fetch("/fleet")
                _check_fleet_warm(fleet, len(builtins))
                server.worker_pids = [s["pid"] for s in fleet["slots"]]
            setup_s.append((time.perf_counter_ns() - spawned) / 1e9)

        stats_before = fetch("/stats")
        cpu_before = sum(cpu_ms(pid) for pid in server.pids)
        client_before = time.process_time()
        steal_before = cpu_steal()
        outcome = asyncio.run(
            play(HOST, server.port, sessions, workload.connections, log)
        )
        steal_after = cpu_steal()
        client_cpu = (time.process_time() - client_before) * 1000.0
        server_cpu = sum(cpu_ms(pid) for pid in server.pids) - cpu_before
        rss = sum(peak_rss_mb(pid) for pid in server.pids)
        stats_after = fetch("/stats")
        fleet_after = fetch("/fleet") if workload.workers > 1 else None
        processes = len(server.pids)
        server.stop()
        spans = (
            _load_spans(workdir / f"spans{SETUPS - 1}", processes)
            if trace else None
        )
    finally:
        for s in servers:
            if s.process is not None and s.process.poll() is None:
                s.kill()
            if s.forced:
                # A shutdown hang is the program's defect: shown, and
                # its leftovers reaped below, but it fails no session.
                print(f"WARNING: {workload.name} server ignored "
                      f"{'SIGTERM' if s.workers > 1 else 'SIGINT'} twice "
                      f"and was killed; its stderr ends:\n"
                      f"{s.stderr_tail()}", file=sys.stderr)
        leaked = shm_entries() - shm_before
        reap_shm(leaked)
        shutil.rmtree(workdir, ignore_errors=True)

    samples = RunSamples(
        setup_s=setup_s,
        round_ms=outcome.round_ms,
        first_question_ms=outcome.first_question_ms,
        wall_s=outcome.wall_s,
        questions=outcome.questions,
        sessions_attempted=len(sessions),
        sessions_completed=outcome.completed,
        sessions_failed=len(outcome.failures),
        server_cpu_ms=server_cpu,
        server_peak_rss_mb=rss,
        server_processes=processes,
    )
    steal = [b - a for a, b in zip(steal_before, steal_after)]
    result = Pass(
        samples, outcome.failures, leaked, server.command, outcome.late_ms,
        steal[0] / steal[1] if steal[1] else 0.0,
    )
    if trace:
        result.traced = TracedRun(
            spans=spans,
            requests=log,
            setup_start=spawned,
            measure_start=outcome.started_ns,
            measure_end=outcome.ended_ns,
            stats_before=stats_before,
            stats_after=stats_after,
            fleet_after=fleet_after,
            rounds=len(outcome.round_ms),
            sessions=outcome.completed,
            leaked_segments=len(leaked),
            late_ms=outcome.late_ms,
            client_cpu_ms=client_cpu,
        )
    return result


def _check_fleet_warm(fleet: dict, instances: int) -> None:
    """Every worker must hold every builtin index (built or attached)."""
    for slot, row in fleet["memory"]["by_slot"].items():
        held = row["attach_hits"] + row["builds"]
        if held < instances:
            raise RuntimeError(
                f"fleet worker {slot} holds {held} of {instances} indexes "
                f"after warm-up"
            )


def _load_spans(directory: Path, processes: int):
    from stats import Span

    files = sorted(directory.glob("spans-*.json"))
    if len(files) != processes:
        raise RuntimeError(
            f"expected span files from {processes} server processes, "
            f"found {len(files)} in {directory}"
        )
    spans = []
    for path in files:
        data = json.loads(path.read_text())
        pid = data["pid"]
        spans.extend(
            Span(pid, sid, parent, name, start, end, key)
            for sid, parent, name, start, end, key in data["spans"]
        )
    return spans


def _report_head(workload, args, first: Pass) -> list[str]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    mode = (
        f"think-paced at {workload.rounds_per_s:g} rounds/s offered"
        if workload.paced else "closed loop"
    )
    return [
        f"workload {workload.name} (seed {args.seed}, {args.seconds:g} s of "
        f"work): {mode}, {workload.users} session(s) in flight over "
        f"{workload.connections} connection(s)",
        f"why: {workload.why}",
        f"nproc {os.cpu_count()}, python {platform.python_version()}, "
        f"numpy {numpy.__version__}, commit {commit}, host steal "
        f"{100 * first.steal_share:.1f}% of CPU time while measuring",
        "server: " + " ".join(first.command),
    ]


def _report_end_to_end(title: str, p: Pass, metrics) -> None:
    from stats import nearest_rank

    def pct(values, q):
        return f"{nearest_rank(values, q):.4f}" if values else "-"

    raw = p.samples
    print(f"  {title}")
    for name, m in metrics.items():
        print(f"    {name:<28} {m.value:>12.4f} {m.unit:<6} n={m.samples}")
    print(f"    round_p99_ms {pct(raw.round_ms, 99)} ms n={len(raw.round_ms)}")
    print(f"    sessions {raw.sessions_completed}/{raw.sessions_attempted} "
          f"completed, {raw.questions} questions, wall {raw.wall_s:.3f} s")
    print(f"    loadgen late_ms_p95 {pct(p.late_ms, 95)} ms n={len(p.late_ms)}"
          f" (due time to send, client side)")
    print(f"    shm segments left behind {len(p.leaked)}")


def _number(value: float):
    """JSON has no NaN; an undefined metric (no samples) prints null."""
    return None if math.isnan(value) else value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing "
              f"(run from the root of a checkout)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH_DIR), str(SRC)]
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from layers import PER_LAYER, per_layer
    from stats import END_TO_END, PRINTED_ONLY, end_to_end, thin_percentiles
    from workloads import WORKLOADS, load_sessions

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    sessions = load_sessions(workload, args.seed, args.seconds, CACHE_DIR, SRC)

    plain = run_pass(workload, sessions, False, f"{workload.name}-plain")
    passes = [plain]
    metrics = end_to_end(plain.samples)
    for line in _report_head(workload, args, plain):
        print(line)
    _report_end_to_end("end to end (untraced)", plain, metrics)
    result = {
        name: {"value": _number(metrics[name].value), "unit": metrics[name].unit}
        for name in END_TO_END
        if name not in PRINTED_ONLY
    }
    if args.trace:
        traced = run_pass(workload, sessions, True, f"{workload.name}-traced")
        passes.append(traced)
        traced_metrics = end_to_end(traced.samples)
        _report_end_to_end("end to end (traced)", traced, traced_metrics)
        print("  tracing overhead (traced - untraced)")
        for name, m in traced_metrics.items():
            print(f"    {name:<28} {m.value - metrics[name].value:>+12.4f} "
                  f"{m.unit}")
        layer = per_layer(traced.traced)
        print("  per layer (traced)")
        for name, value in layer.items():
            unit, _, moves, on = PER_LAYER[name]
            print(f"    {name:<48} {value:>12.4f} {unit:<6} "
                  f"-> {moves} on {on}")
        result = {
            name: {"value": _number(value), "unit": PER_LAYER[name][0]}
            for name, value in layer.items()
        }

    problems = []
    for p in passes:
        problems += p.failures
        problems += thin_percentiles(p.samples)
        if p.leaked:
            # The program's defect, not a wrong answer: reported (and
            # removed, so the next run starts clean) but not failed.
            print(f"WARNING: the server left {len(p.leaked)} /dev/shm "
                  f"segment(s) behind: {sorted(p.leaked)[:5]}",
                  file=sys.stderr)
    for problem in problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p.samples.sessions_attempted for p in passes),
        "failed": sum(p.samples.sessions_failed for p in passes),
        "metrics": result,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
