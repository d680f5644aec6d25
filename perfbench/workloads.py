"""The benchmark's workloads and their seed-generated session lists.

A session list is a pure function of ``(workload, seed, seconds)``: the
same arguments give the same sessions, goals, think times and upload
data, so ``questions_per_session`` repeats exactly for a seed.  Every
session also carries its expected outcome, computed in-process with
``run_inference`` on the same instance, strategy, seed and a perfect
oracle for the goal — the served session must reproduce it exactly.
Lists are cached under ``perfbench/.cache`` keyed by the arguments and
a hash of this generator's and the program's sources.

A paced workload's traffic spans exactly ``seconds``; a closed loop's
list holds ``rounds_per_s × seconds`` rounds and takes as long as the
server needs for them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

from repro.core.equivalence import instance_equivalent
from repro.core.index_build import IndexBuilder
from repro.core.lattice import predicates_of_size
from repro.core.oracle import PerfectOracle
from repro.core.session import run_inference
from repro.core.strategies import strategy_by_name
from repro.data.synthetic import SyntheticConfig, generate_synthetic
from repro.data.workloads import builtin_instance
from repro.relational.csv_io import read_csv_text
from repro.relational.predicate import JoinPredicate
from repro.relational.relation import Instance

#: Goal sizes drawn from (the paper's §5.2 goal sampling, sizes 1–3).
GOAL_SIZES = (1, 2, 3)

#: Uploaded pairs: 400-row 3×3 relations over 100 values, the
#: generator of the paper's Fig. 7 at a size whose index builds in tens
#: of milliseconds.
UPLOAD_CONFIG = SyntheticConfig(3, 3, 400, 100)


@dataclass(frozen=True, slots=True)
class Kind:
    """One kind of session: an instance (a builtin, or ``None`` for a
    fresh upload) and a strategy, drawn with ``weight``."""

    builtin: str | None
    scale: float
    strategy: str
    weight: int

    @property
    def label(self) -> str:
        source = (
            "upload" if self.builtin is None
            else f"{self.builtin}@{self.scale:g}"
        )
        return f"{source}:{self.strategy}"


@dataclass(frozen=True, slots=True)
class Workload:
    name: str
    why: str
    kinds: tuple[Kind, ...]
    #: Client connections the sessions are multiplexed over.
    connections: int
    #: Sessions in flight at once (1 for a closed loop).
    users: int
    #: Rounds the list holds per measured second.  In a paced workload
    #: this is the offered rate: think times (exponential, before each
    #: answer and each session start) average ``users / rounds_per_s``.
    rounds_per_s: float
    #: Whether users think between questions; ``False`` is a closed loop.
    paced: bool
    #: Server worker processes (``--workers``); 1 serves in-process.
    workers: int = 1


def _kinds(builtins, strategies) -> tuple[Kind, ...]:
    return tuple(
        Kind(name, scale, strategy, weight)
        for name, scale in builtins
        for strategy, weight in strategies
    )


# The paced mix: two TPC-H goal joins (one row-scaled) and the largest
# Fig. 7 configuration row-scaled 24×, whose index build gives warm-up
# real work; lookahead strategies dominate, as interactive users would
# choose the strategy that asks least.
_THINK_KINDS = _kinds(
    [("tpch/join4", 8.0), ("tpch/join1", 4.0), ("synthetic/0", 24.0)],
    [("L2S", 3), ("L1S", 2), ("TD", 1)],
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="think",
            why=(
                "interactive users with think time: speculation, the "
                "incremental planner, both plan-cache tiers and the kernel "
                "batcher do most of the work; CSV parsing and builds none"
            ),
            kinds=_THINK_KINDS,
            connections=2,
            users=8,
            rounds_per_s=30.0,
            paced=True,
        ),
        Workload(
            name="upload",
            why=(
                "users bring fresh CSV pairs in a closed loop: parsing, "
                "fingerprinting, index builds, cache misses, inline-data "
                "checkpoints and per-round HTTP and journal costs dominate"
            ),
            kinds=(Kind(None, 1.0, "TD", 1),),
            connections=1,
            users=1,
            rounds_per_s=120.0,
            paced=False,
        ),
        Workload(
            name="fleet",
            why=(
                "the think traffic against a 2-worker fleet: router hop, "
                "leases, shared index attach and cross-worker plan hits "
                "run only here; paired with think it prices the fleet"
            ),
            kinds=_THINK_KINDS,
            connections=2,
            users=8,
            rounds_per_s=30.0,
            paced=True,
            workers=2,
        ),
    )
}


# --- instances ---------------------------------------------------------------


class Instances:
    """Builtin instances and their indexes, built once per process."""

    def __init__(self):
        self._cache: dict[tuple[str, float], tuple[Instance, object]] = {}

    def builtin(self, name: str, scale: float):
        key = (name, scale)
        if key not in self._cache:
            instance = builtin_instance(name, seed=0, scale=scale)
            self._cache[key] = (instance, IndexBuilder().build(instance))
        return self._cache[key]


def csv_text(relation) -> str:
    """``relation`` as CSV text, header first (what a user uploads)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([a.name for a in relation.schema])
    writer.writerows(relation.rows)
    return out.getvalue()


def upload_payload(data_seed: int) -> dict:
    """A fresh CSV pair; distinct seeds give distinct content."""
    instance = generate_synthetic(UPLOAD_CONFIG, seed=data_seed)
    return {
        "left": {"name": "R", "text": csv_text(instance.left)},
        "right": {"name": "P", "text": csv_text(instance.right)},
    }


def parse_upload(csv_payload: dict) -> Instance:
    """The instance the server parses from an upload (same reader, same
    cell types), so the in-process reference sees identical data."""
    return Instance(
        read_csv_text(csv_payload["left"]["text"], csv_payload["left"]["name"]),
        read_csv_text(
            csv_payload["right"]["text"], csv_payload["right"]["name"]
        ),
    )


def goal_pool(index) -> list[JoinPredicate]:
    return [g for size in GOAL_SIZES for g in predicates_of_size(index, size)]


# --- session lists -----------------------------------------------------------


def expected_outcome(instance, index, strategy, seed, goal) -> dict:
    """The in-process reference for one session: question count and the
    inferred predicate's pairs, checked instance-equivalent to the goal."""
    result = run_inference(
        instance,
        strategy_by_name(strategy),
        PerfectOracle(instance, goal),
        index=index,
        seed=seed,
    )
    if not instance_equivalent(instance, result.predicate, goal, index):
        raise RuntimeError(
            f"reference run of {strategy} did not infer the goal {goal}"
        )
    return {
        "questions": result.interactions,
        "pairs": [[str(a), str(b)] for a, b in result.predicate.sorted_pairs()],
    }


def goal_payload(goal: JoinPredicate) -> list[list[str]]:
    """Goal as ``[[left attribute, right attribute], ...]``."""
    return [[a.name, b.name] for a, b in goal.sorted_pairs()]


def draw_session(
    kind: Kind, rng: random.Random, instances: Instances, pools: dict,
    paced: bool,
) -> dict:
    """One session of ``kind``: goal, seed, expected outcome and
    relative think times (exponential with mean 1, scaled later)."""
    session_seed = rng.randrange(2**31)
    if kind.builtin is None:
        csv_payload = upload_payload(rng.randrange(2**31))
        instance = parse_upload(csv_payload)
        index = IndexBuilder().build(instance)
        pool = goal_pool(index)
        create = {"csv": csv_payload}
    else:
        instance, index = instances.builtin(kind.builtin, kind.scale)
        key = (kind.builtin, kind.scale)
        if key not in pools:
            pools[key] = goal_pool(index)
        pool = pools[key]
        create = {"workload": kind.builtin, "scale": kind.scale}
    goal = rng.choice(pool)
    create.update(strategy=kind.strategy, seed=session_seed)
    expect = expected_outcome(instance, index, kind.strategy, session_seed, goal)
    thinks = [
        rng.expovariate(1.0) if paced else 0.0
        for _ in range(expect["questions"] + 1)
    ]
    return {
        "kind": kind.label,
        "create": create,
        "goal": goal_payload(goal),
        "expect": expect,
        "thinks": thinks,
    }


def generate_sessions(
    workload: Workload, seed: int, seconds: float, instances: Instances
) -> list[dict]:
    """The session list of one run.

    Each kind gets its weight's share of ``rounds_per_s × seconds``
    rounds and draws sessions until their expected questions come
    closest to that quota, so every seed offers the same mix of round
    costs; only goals, session seeds, order and think times vary.  The
    shuffled sessions go to the user with the fewest rounds so far and,
    in a paced workload, every user's think times are scaled to sum to
    ``seconds``: all users stay busy for the whole run, so the offered
    rate holds to the end instead of trailing off behind a straggler.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    total = workload.rounds_per_s * seconds
    weights = sum(k.weight for k in workload.kinds)
    pools: dict = {}
    sessions: list[dict] = []
    for kind in workload.kinds:
        quota = total * kind.weight / weights
        rounds = 0
        while rounds < quota:
            plan = draw_session(kind, rng, instances, pools, workload.paced)
            questions = plan["expect"]["questions"]
            if rounds and rounds + questions - quota > quota - rounds:
                break  # stopping short lands closer to the quota
            sessions.append(plan)
            rounds += questions
    rng.shuffle(sessions)
    load = [0] * workload.users
    for plan in sessions:
        user = min(range(workload.users), key=lambda u: (load[u], u))
        plan["user"] = user
        load[user] += plan["expect"]["questions"]
    if workload.paced:
        for user in range(workload.users):
            mine = [p for p in sessions if p["user"] == user]
            scale = seconds / sum(sum(p["thinks"]) for p in mine)
            for plan in mine:
                plan["thinks"] = [t * scale for t in plan["thinks"]]
    return sessions


def warmup_sessions(workload: Workload) -> list[dict]:
    """One throwaway create payload per kind the workload sends."""
    out = []
    for kind in workload.kinds:
        if kind.builtin is None:
            create = {"csv": upload_payload(-1)}
        else:
            create = {"workload": kind.builtin, "scale": kind.scale}
        create.update(strategy=kind.strategy, seed=0)
        if create not in out:
            out.append(create)
    return out


def source_hash(src_dir: Path) -> str:
    """Content hash of this generator and every ``.py`` file of the
    program: a list (and its references) is reused only by the code
    that would generate it again."""
    digest = hashlib.sha256(Path(__file__).read_bytes())
    for path in sorted(src_dir.rglob("*.py")):
        digest.update(str(path.relative_to(src_dir)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def load_sessions(
    workload: Workload, seed: int, seconds: float, cache_dir: Path,
    src_dir: Path,
) -> list[dict]:
    """``generate_sessions``, memoised on disk per seed."""
    code = source_hash(src_dir)
    path = cache_dir / f"{workload.name}-{seed}-{seconds:g}-{code}.json"
    if path.exists():
        return json.loads(path.read_text())
    sessions = generate_sessions(workload, seed, seconds, Instances())
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(sessions))
    tmp.replace(path)
    return sessions
