"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload think --seeds 1-10 --seconds 25

Runs ``run.py`` once per seed (untraced), then prints each metric's
median and the distance between its first and third quartile as a
share of the median — the steadiness rule the benchmark's bounds in
``BENCHMARK.json`` are judged by (a spread should stay below a third
of the metric's bound).  Each run's JSON line goes to ``--out`` as well.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from stats import quartile_spread  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {
        m["name"]: m["bound"]
        for m in json.loads(
            (BENCH_DIR.parent / "BENCHMARK.json").read_text()
        )["end_to_end"]
    }
    runs = []
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", f"{args.seconds:g}", "--trace", "0"],
            capture_output=True, text=True,
        )
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
        if proc.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        result = json.loads(last)
        runs.append(result)
        values = " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
        )
        print(f"seed {seed}: {values}", flush=True)
        if args.out:
            with args.out.open("a") as handle:
                handle.write(json.dumps({"seed": seed, **result}) + "\n")
    if len(runs) < 2:
        return 0
    print(f"{'metric':<26} {'median':>10} {'spread':>7} {'bound/3':>8}")
    worst = 0.0
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        spread = quartile_spread(values)
        third = bounds.get(name, float("nan")) / 3
        flag = "" if spread < third else "  <-- too wide"
        if name != "setup_s":
            worst = max(worst, spread / third if third else 0.0)
        print(f"{name:<26} {median:>10.4g} {spread:>7.3f} {third:>8.3f}{flag}")
    print(f"widest spread / (bound/3), setup_s excluded: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
