"""Index-build pipeline benchmark harness — emits ``BENCH_build.json``.

Measures what ``bench_core.py`` cannot: the build pipeline of
``core/index_build.py`` — the one signature kernel, which the
``SignatureIndex(backend="numpy")`` constructor runs as a single shard —
on the **largest Figure 7 configuration** ``(3,3,l,100)`` scaled up so
the product exceeds 10⁶ tuples:

* ``shard_scaling``  — wall-clock of the builder at shard counts
                       {1, 2, 4, 8}, shards run one after another
                       (informational: what sharding costs);
* ``streaming_csv``  — tracemalloc peak (a portable RSS proxy) of a
                       streaming :class:`CsvSource` build vs reading the
                       CSV into memory and building in one shard — the
                       bounded-memory story for products ≫ 10⁷, and the
                       one gate;
* ``sqlite_source``  — the same product loaded from SQLite tables and
                       built (informational).

Every cell asserts bit-for-bit parity (masks, counts, representatives,
maximal set) against the single-shard build before timings are trusted;
``tests/properties/test_index_build.py`` pins that build to the
pure-Python reference.

Usage::

    PYTHONPATH=src python benchmarks/bench_build.py            # full run
    PYTHONPATH=src python benchmarks/bench_build.py --smoke    # CI smoke
    PYTHONPATH=src python benchmarks/bench_build.py --output my.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
import tracemalloc
from math import ceil
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core import IndexBuilder, SignatureIndex
from repro.data.synthetic import SyntheticConfig, generate_synthetic
from repro.relational import CsvSource, Instance, SqliteSource, read_csv, write_csv
from repro.relational import sqlite_backend

from bench_util import bench_meta

#: The largest Figure 7 configuration, row-scaled for a ≥10⁶ product.
FULL_ROWS = 1200
SMOKE_ROWS = 250
SHARD_COUNTS = (1, 2, 4, 8)


def _fingerprint(index: SignatureIndex) -> list:
    return [
        (cls.class_id, cls.mask, cls.count, cls.representative)
        for cls in index
    ] + [sorted(index.maximal_class_ids)]


def _assert_parity(built: SignatureIndex, reference: SignatureIndex, what: str):
    assert _fingerprint(built) == _fingerprint(reference), (
        f"build parity failed: {what}"
    )


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _traced_peak(fn):
    tracemalloc.start()
    result = fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, peak


def bench_shard_scaling(
    instance: Instance, repeats: int, reference: SignatureIndex
) -> list[dict]:
    n_rows = len(instance.left)
    cells = []
    for count in SHARD_COUNTS:
        shard_rows = None if count == 1 else ceil(n_rows / count)
        builder = IndexBuilder(shard_rows=shard_rows)
        _assert_parity(
            builder.build(instance), reference, f"shards={count}"
        )
        cells.append(
            {
                "name": f"builder_shards_{count}",
                "shards": count,
                "seconds": round(
                    _best_of(repeats, lambda: builder.build(instance)), 6
                ),
            }
        )
    return cells


def bench_streaming_csv(
    instance: Instance, directory: Path, shard_rows: int
) -> dict:
    left_path = directory / "R.csv"
    right_path = directory / "P.csv"
    write_csv(instance.left, left_path)
    write_csv(instance.right, right_path)

    def monolithic():
        left = read_csv(left_path)
        right = read_csv(right_path)
        return SignatureIndex(Instance(left, right), backend="numpy")

    def streaming():
        return IndexBuilder(shard_rows=shard_rows).build(
            CsvSource(left_path, right_path)
        )

    mono_index, mono_peak = _traced_peak(monolithic)
    stream_index, stream_peak = _traced_peak(streaming)
    _assert_parity(stream_index, mono_index, "streaming CSV")
    return {
        "shard_rows": shard_rows,
        "monolithic_peak_bytes": mono_peak,
        "streaming_peak_bytes": stream_peak,
        "peak_ratio": round(stream_peak / max(mono_peak, 1), 4),
    }


def bench_sqlite_source(
    instance: Instance, repeats: int, reference: SignatureIndex
) -> dict:
    """Load both tables from SQLite and build, timed together."""
    conn = sqlite_backend.connect_memory()
    sqlite_backend.store_instance(conn, instance)

    def build():
        return IndexBuilder().build(
            SqliteSource(conn, instance.left.name, instance.right.name)
        )

    _assert_parity(build(), reference, "sqlite source")
    return {"seconds": round(_best_of(repeats, build), 6)}


def run_benchmarks(smoke: bool = False) -> dict:
    repeats = 1 if smoke else 3
    rows = SMOKE_ROWS if smoke else FULL_ROWS
    config = SyntheticConfig(3, 3, rows, 100)
    instance = generate_synthetic(config, seed=0)
    print(
        f"[bench] fig7 {config.label}: product {instance.cartesian_size}",
        flush=True,
    )

    reference = SignatureIndex(instance, backend="numpy")
    scaling = bench_shard_scaling(instance, repeats, reference)
    print("[bench] shard scaling done", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        streaming = bench_streaming_csv(
            instance, Path(tmp), shard_rows=128
        )
    print("[bench] streaming CSV done", flush=True)
    sqlite_cell = bench_sqlite_source(instance, repeats, reference)
    print("[bench] sqlite source done", flush=True)

    return {
        "meta": bench_meta(
            numpy=np.__version__,
            smoke=smoke,
            workload=f"fig7-largest{config.label}",
            product_size=instance.cartesian_size,
            baseline="in-memory single-shard SignatureIndex build",
        ),
        "shard_scaling": scaling,
        "streaming_csv": streaming,
        "sqlite_source": sqlite_cell,
        "acceptance": {
            "streaming_peak_ratio": streaming["peak_ratio"],
            "targets": {"streaming_peak_ratio_max": 0.75},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=str(
            Path(__file__).resolve().parent.parent / "BENCH_build.json"
        ),
        help="where to write the JSON report (default: repo root)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small instance, single repeat — a CI regression canary",
    )
    args = parser.parse_args(argv)
    report = run_benchmarks(smoke=args.smoke)
    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    for cell in report["shard_scaling"]:
        print(
            f"  {cell['name']:20s} shards={cell['shards']:<2d} "
            f"{cell['seconds']*1e3:9.1f}ms"
        )
    streaming = report["streaming_csv"]
    print(
        f"  streaming CSV peak {streaming['streaming_peak_bytes']/1e6:.1f} MB"
        f" vs in-memory {streaming['monolithic_peak_bytes']/1e6:.1f} MB"
        f" (ratio {streaming['peak_ratio']})"
    )
    print(
        f"  sqlite source     {report['sqlite_source']['seconds']*1e3:9.1f}ms"
    )
    acceptance = report["acceptance"]
    print(f"acceptance: streaming peak ratio {acceptance['streaming_peak_ratio']}")
    if acceptance["streaming_peak_ratio"] >= acceptance["targets"][
        "streaming_peak_ratio_max"
    ]:
        print("FAIL: streaming CSV build peak not bounded below monolithic")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
