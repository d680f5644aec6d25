"""Command-line interface.

Subcommands
-----------

* ``infer``      — interactively infer a join between two CSV files: the
  tool picks informative tuple pairs, you answer y/n, it prints the join
  predicate you had in mind (Algorithm 1 with a human oracle).
* ``generate``   — write the mini TPC-H tables or a synthetic instance
  to CSV files.
* ``experiment`` — regenerate the paper's Figure 6 / Figure 7 / Table 1.
* ``demo``       — the flight&hotel walk-through from the paper's
  introduction, with a simulated user.
* ``serve``      — host many concurrent interactive sessions over an
  HTTP/JSON API (see :mod:`repro.service`): remote users are the oracle,
  sessions on the same data share one cached signature index, and
  snapshots let sessions survive restarts.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .core import (
    CallbackOracle,
    InferenceSession,
    Label,
    MaxInteractions,
    PerfectOracle,
    run_inference,
    strategy_by_name,
)
from .data import SyntheticConfig, generate_synthetic, generate_tpch
from .relational import Instance, JoinPredicate, read_csv, write_csv

__all__ = ["main", "build_parser", "manager_from_args"]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _port(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    # 0 asks the OS for a free port.
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError("must be between 0 and 65535")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    # NaN fails every comparison and inf overflows timed waits
    # (`Event.wait(inf)`), so neither reaches a range check.
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be a finite number")
    return value


def _non_negative_float(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _strategy_name(text: str) -> str:
    """A ``--strategy`` value that :func:`strategy_by_name` accepts."""
    try:
        strategy_by_name(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-join",
        description=(
            "Interactive inference of join queries "
            "(Bonifati, Ciucanu, Staworko — EDBT 2014)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    infer = subparsers.add_parser(
        "infer", help="interactively infer a join between two CSV files"
    )
    infer.add_argument("left_csv", type=Path, help="relation R (CSV)")
    infer.add_argument("right_csv", type=Path, help="relation P (CSV)")
    infer.add_argument(
        "--strategy",
        type=_strategy_name,
        default="TD",
        help="RND / BU / TD / L1S / L2S / LkS / OPT (default: TD)",
    )
    infer.add_argument(
        "--max-questions",
        type=int,
        default=None,
        help="stop early after this many questions",
    )
    infer.add_argument(
        "--infer-types",
        action="store_true",
        help="convert numeric-looking CSV columns to numbers",
    )
    infer.add_argument(
        "--save-transcript",
        type=Path,
        default=None,
        help="write the full Q&A transcript and result as JSON",
    )
    # Lets the command report an unreadable CSV like a bad argument.
    infer.set_defaults(error=infer.error)

    generate = subparsers.add_parser(
        "generate", help="write benchmark datasets as CSV"
    )
    generate.add_argument("kind", choices=["tpch", "synthetic"])
    generate.add_argument("--out-dir", type=Path, default=Path("."))
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--scale", type=float, default=1.0, help="TPC-H scale"
    )
    generate.add_argument(
        "--config",
        default="(3,3,50,100)",
        help="synthetic configuration, e.g. '(3,3,50,100)'",
    )

    experiment = subparsers.add_parser(
        "experiment", help="regenerate the paper's tables"
    )
    experiment.add_argument(
        "what", choices=["fig6", "fig7", "table1", "all"]
    )
    experiment.add_argument("--runs", type=int, default=3)
    experiment.add_argument("--seed", type=int, default=0)

    subparsers.add_parser(
        "demo", help="the paper's flight&hotel walk-through"
    )

    serve = subparsers.add_parser(
        "serve", help="run the multi-session inference HTTP service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_port, default=8642)
    serve.add_argument(
        "--max-sessions",
        type=_positive_int,
        default=256,
        help="concurrent-session capacity (default: 256)",
    )
    serve.add_argument(
        "--session-ttl",
        type=_non_negative_float,
        default=3600.0,
        help="idle seconds before a session is evicted; 0 disables",
    )
    serve.add_argument(
        "--index-cache-size",
        type=_positive_int,
        default=16,
        help="distinct instances whose indexes stay cached",
    )
    serve.add_argument(
        "--build-workers",
        type=_positive_int,
        default=1,
        help=(
            "worker threads for off-loop index builds and speculative "
            "precompute; each build runs on one thread — size to the "
            "machine's cores, not the request rate (default: 1)"
        ),
    )
    serve.add_argument(
        "--no-speculate",
        dest="speculate",
        action="store_false",
        help=(
            "disable speculative next-question precompute (by default "
            "both answer branches of a pending question are computed "
            "ahead of time on the build pool during oracle think-time)"
        ),
    )
    serve.add_argument(
        "--no-kernel-batch",
        dest="kernel_batch",
        action="store_false",
        help=(
            "disable cross-session kernel batching (by default the "
            "L1S/L2S proposal kernels of sessions sharing one index "
            "are coalesced into stacked batch contractions)"
        ),
    )
    serve.add_argument(
        "--store",
        type=Path,
        default=None,
        help=(
            "SQLite file for durable sessions (WAL mode): answers are "
            "journaled off the event loop, idle/capacity eviction "
            "demotes sessions to disk instead of deleting them, and "
            "any session — including one orphaned by a crash — "
            "rehydrates on its next touch (default: no store; "
            "eviction deletes)"
        ),
    )
    serve.add_argument(
        "--checkpoint-every",
        type=_positive_int,
        default=16,
        help=(
            "answers between full snapshot checkpoints in the store; "
            "between checkpoints each answer appends one journal row "
            "(default: 16)"
        ),
    )
    serve.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help=(
            "worker processes behind a front router; 1 serves "
            "in-process (the classic single-server mode), N>1 runs a "
            "fleet — requires --store, sessions are partitioned by id "
            "hash and leased so a killed worker's sessions resume on "
            "survivors, and the workers share built indexes through "
            "/dev/shm (default: 1)"
        ),
    )
    serve.add_argument(
        "--lease-ttl",
        type=_positive_float,
        default=10.0,
        help=(
            "fleet-mode session lease TTL in seconds: how long after a "
            "worker's last heartbeat its sessions can be taken over by "
            "a survivor (default: 10)"
        ),
    )
    serve.add_argument(
        "--plan-cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "memoise planner entropy tables per process — and, in a "
            "fleet where /dev/shm is usable, share them between the "
            "workers — so sessions at the same state reuse one kernel "
            "run; question sequences are identical either way "
            "(default: on)"
        ),
    )
    serve.add_argument(
        "--plan-cache-entries",
        type=_positive_int,
        default=1024,
        help=(
            "per-process plan-cache LRU capacity in tables "
            "(default: 1024)"
        ),
    )
    # Lets the command report a fleet without a store like a bad argument.
    serve.set_defaults(error=serve.error)
    return parser


def _parse_config(text: str) -> SyntheticConfig:
    cleaned = text.strip().strip("()")
    try:
        left, right, rows, values = (int(x) for x in cleaned.split(","))
    except ValueError:
        raise SystemExit(
            f"bad configuration {text!r}; expected '(nR,nP,rows,values)'"
        )
    return SyntheticConfig(left, right, rows, values)


def _format_question(instance: Instance, tuple_pair) -> str:
    r_row, p_row = tuple_pair
    left_part = ", ".join(
        f"{attr.name}={value}"
        for attr, value in zip(instance.left.schema, r_row)
    )
    right_part = ", ".join(
        f"{attr.name}={value}"
        for attr, value in zip(instance.right.schema, p_row)
    )
    return (
        f"  {instance.left.name}({left_part})\n"
        f"  {instance.right.name}({right_part})"
    )


def _console_oracle(instance: Instance, stream=None) -> CallbackOracle:
    counter = {"asked": 0}

    def ask(tuple_pair) -> Label:
        counter["asked"] += 1
        print(f"\nQuestion {counter['asked']}: should this pair be joined?")
        print(_format_question(instance, tuple_pair))
        while True:
            answer = (
                input("  [y]es / [n]o > ") if stream is None
                else stream.readline().strip()
            )
            answer = answer.strip().lower()
            if answer in ("y", "yes", "+"):
                return Label.POSITIVE
            if answer in ("n", "no", "-"):
                return Label.NEGATIVE
            print("  please answer y or n")

    return CallbackOracle(ask)


def _cmd_infer(args: argparse.Namespace) -> int:
    try:
        left = read_csv(args.left_csv, infer_types=args.infer_types)
        right = read_csv(args.right_csv, infer_types=args.infer_types)
    except OSError as error:
        args.error(f"cannot read {error.filename}: {error.strerror}")
    instance = Instance(left, right)
    strategy = strategy_by_name(args.strategy)
    halt = (
        MaxInteractions(args.max_questions)
        if args.max_questions is not None
        else None
    )
    session = InferenceSession(
        instance,
        strategy,
        _console_oracle(instance),
        halt_condition=halt,
        seed=0,
    )
    print(
        f"Inferring a join between {left.name} ({len(left)} rows) and "
        f"{right.name} ({len(right)} rows) with strategy {strategy.name}."
    )
    result = session.run()
    print("\nInferred join predicate:")
    print(f"  {result.predicate}")
    print(f"({result.interactions} questions asked)")
    if args.save_transcript is not None:
        from .core import dumps

        args.save_transcript.write_text(dumps(result))
        print(f"transcript written to {args.save_transcript}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    args.out_dir.mkdir(parents=True, exist_ok=True)
    if args.kind == "tpch":
        tables = generate_tpch(scale=args.scale, seed=args.seed)
        for relation in tables.all_tables():
            path = args.out_dir / f"{relation.name}.csv"
            write_csv(relation, path)
            print(f"wrote {path} ({len(relation)} rows)")
        return 0
    config = _parse_config(args.config)
    instance = generate_synthetic(config, seed=args.seed)
    for relation in (instance.left, instance.right):
        path = args.out_dir / f"{relation.name}.csv"
        write_csv(relation, path)
        print(f"wrote {path} ({len(relation)} rows)")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import (
        figure6,
        figure7,
        render_figure6,
        render_figure7,
        render_table1,
        table1,
    )

    if args.what in ("fig6", "all"):
        print(render_figure6(figure6(seed=args.seed)))
        print()
    if args.what in ("fig7", "all"):
        print(render_figure7(figure7(seed=args.seed, runs=args.runs)))
        print()
    if args.what in ("table1", "all"):
        print(render_table1(table1(seed=args.seed, runs=args.runs)))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from .relational import Relation

    flights = Relation.build(
        "Flight",
        ["From_", "To", "Airline"],
        [
            ("Paris", "Lille", "AF"),
            ("Lille", "NYC", "AA"),
            ("NYC", "Paris", "AA"),
            ("Paris", "NYC", "AF"),
        ],
    )
    hotels = Relation.build(
        "Hotel",
        ["City", "Discount"],
        [("NYC", "AA"), ("Paris", "NoDiscount"), ("Lille", "AF")],
    )
    instance = Instance(flights, hotels)
    print("Flight table:")
    print(flights.pretty())
    print("\nHotel table:")
    print(hotels.pretty())
    goal = JoinPredicate.parse(
        "Flight.To = Hotel.City AND Flight.Airline = Hotel.Discount"
    )
    print(f"\nSimulated user has in mind:  {goal}")
    for name in ("BU", "TD", "L1S", "L2S"):
        result = run_inference(
            instance,
            strategy_by_name(name),
            PerfectOracle(instance, goal),
            seed=0,
        )
        print(
            f"  {name:>3}: {result.interactions} questions → "
            f"{result.predicate}"
        )
    return 0


def _serve_settings(args: argparse.Namespace) -> dict:
    """The ``serve`` flags as manager settings, keyed by
    :class:`~repro.service.fleet.FleetConfig` field name: a solo server
    builds its manager from them, a fleet hands them to every worker."""
    return {
        "store_path": str(args.store) if args.store is not None else None,
        "lease_ttl_seconds": args.lease_ttl,
        "checkpoint_every": args.checkpoint_every,
        "max_sessions": args.max_sessions,
        "ttl_seconds": args.session_ttl if args.session_ttl > 0 else None,
        "index_cache_size": args.index_cache_size,
        "build_workers": args.build_workers,
        "speculate": args.speculate,
        "kernel_batch": args.kernel_batch,
        "plan_cache": args.plan_cache,
        "plan_cache_entries": args.plan_cache_entries,
    }


def manager_from_args(args: argparse.Namespace):
    """The solo server's :class:`~repro.service.manager.SessionManager`,
    built from the ``serve`` flags by the assembly fleet workers use
    (kept separate so tests can check the plumbing)."""
    from .service.fleet import manager_from_config

    return manager_from_config(_serve_settings(args))


def _cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: a solo server, or with ``--workers N`` a front router
    over N worker processes; either way :func:`repro.service.serve`
    runs it until SIGTERM or SIGINT, then drains it.  A store that
    cannot be opened is a usage error (exit 2), raised before either
    front is built; an address it cannot listen on exits 1."""
    import asyncio
    import sqlite3

    from .service import (
        Fleet,
        FleetConfig,
        FleetRouter,
        ServiceApp,
        SqliteSessionStore,
        serve,
    )

    if args.workers > 1 and args.store is None:
        args.error(
            "--workers requires --store: the fleet's workers "
            "share sessions through the durable store's lease protocol"
        )
    if args.store is not None:
        try:
            SqliteSessionStore(str(args.store)).close()
        except sqlite3.Error as error:
            args.error(f"cannot open --store {args.store}: {error}")
    if args.workers == 1:
        front = ServiceApp(manager_from_args(args))
        banner = "repro-join service listening on {host}:{port}"
    else:
        config = FleetConfig(
            workers=args.workers, host=args.host, **_serve_settings(args)
        )
        front = FleetRouter(Fleet(config))
        banner = (
            f"fleet of {args.workers} workers serving on "
            "http://{host}:{port}"
        )
    try:
        asyncio.run(serve(front, args.host, args.port, banner))
    except OSError as error:
        print(
            f"repro serve: cannot listen on {args.host}:{args.port}: "
            f"{error}",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    handlers = {
        "infer": _cmd_infer,
        "generate": _cmd_generate,
        "experiment": _cmd_experiment,
        "demo": _cmd_demo,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
