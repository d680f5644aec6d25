"""Wire protocol of the inference service — payload shapes and errors.

Everything the HTTP layer exchanges is JSON; this module owns the
validation of incoming payloads (create/answer/resume requests) and the
construction of outgoing ones (questions, progress, predicates).  Both
the server and :class:`~repro.service.client.ServiceClient` speak these
shapes, and the answer endpoint's label validation is the same strict
:meth:`Label.parse <repro.core.sample.Label.parse>` the JSON
deserialisers use — an unknown label string is a 400, never a silent
negative.

Instance specs
--------------

A session is created over either a *builtin* workload (named TPC-H goal
join or Figure 7 synthetic configuration, regenerated deterministically
from ``(seed, scale)``) or *inline* data (uploaded CSV text, parsed once
and carried verbatim in snapshots).  The canonical spec is what session
snapshots embed as their instance reference, so a snapshot of a builtin
session is a few hundred bytes while an uploaded one stays
self-contained::

    {"builtin": {"name": "tpch/join4", "seed": 0, "scale": 1.0}}
    {"inline": {"left": {...}, "right": {...}}}
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Any

from ..core.sample import Label
from ..core.serialize import instance_from_dict, instance_to_dict
from ..core.session import InferenceSession, Question
from ..core.strategies import strategy_by_name
from ..data.workloads import BUILTIN_WORKLOAD_NAMES, builtin_instance
from ..relational.csv_io import read_csv_text
from ..relational.relation import Instance
from ..relational.schema import SchemaError

__all__ = [
    "ServiceError",
    "BadRequest",
    "NotFound",
    "Conflict",
    "CapacityExceeded",
    "CreateSpec",
    "parse_create_payload",
    "parse_answer_payload",
    "parse_label",
    "instance_from_spec",
    "question_payload",
    "progress_payload",
    "predicate_payload",
    "builds_payload",
    "sessions_payload",
]


class ServiceError(Exception):
    """Base of all protocol-level failures; carries the HTTP status."""

    status = 500
    code = "internal_error"


class BadRequest(ServiceError):
    """Malformed or invalid request payload."""

    status = 400
    code = "bad_request"


class NotFound(ServiceError):
    """Unknown session id or route."""

    status = 404
    code = "not_found"


class Conflict(ServiceError):
    """A well-formed request the session state rejects — stale question
    id, or an answer that contradicts the sample."""

    status = 409
    code = "conflict"


class CapacityExceeded(ServiceError):
    """The server is at its concurrent-session limit."""

    status = 429
    code = "capacity_exceeded"


@dataclass(frozen=True, slots=True)
class CreateSpec:
    """A validated session-creation request.

    ``instance_spec`` is canonical (builtin ref or inline data);
    ``instance`` is pre-parsed for uploads and ``None`` for builtins,
    whose generation is deferred to :func:`instance_from_spec`.
    """

    instance_spec: dict[str, Any]
    instance: Instance | None
    strategy: str
    seed: int | None
    max_questions: int | None
    #: Caller-assigned id (the fleet router partitions sessions by id
    #: hash, so it must pick the id before choosing the worker); None
    #: lets the manager mint one.
    session_id: str | None = None


def _require_dict(payload: Any, what: str) -> dict[str, Any]:
    if not isinstance(payload, dict):
        raise BadRequest(f"{what} must be a JSON object")
    return payload


def _optional_int(payload: dict[str, Any], key: str, default=None):
    value = payload.get(key, default)
    if value is not None and (
        not isinstance(value, int) or isinstance(value, bool)
    ):
        raise BadRequest(f"{key!r} must be an integer or null")
    return value


def _csv_relation(payload: Any, side: str, infer_types: bool):
    payload = _require_dict(payload, f"csv.{side}")
    name = payload.get("name", side)
    text = payload.get("text")
    if not isinstance(name, str) or not isinstance(text, str):
        raise BadRequest(
            f"csv.{side} needs string fields 'name' and 'text'"
        )
    try:
        return read_csv_text(text, name, infer_types=infer_types)
    except ValueError as exc:
        raise BadRequest(f"csv.{side}: {exc}") from exc


def parse_create_payload(payload: Any) -> CreateSpec:
    """Validate a ``POST /sessions`` body."""
    payload = _require_dict(payload, "request body")
    strategy = payload.get("strategy", "TD")
    if not isinstance(strategy, str):
        raise BadRequest("'strategy' must be a string")
    try:
        strategy = strategy_by_name(strategy).name
    except ValueError as exc:
        raise BadRequest(str(exc)) from exc
    seed = _optional_int(payload, "seed", 0)
    if seed is None:
        # Hosted sessions must stay snapshot-able, which requires a
        # concrete seed; "give me randomness" gets a fresh one drawn here.
        seed = secrets.randbelow(2**31)
    max_questions = _optional_int(payload, "max_questions")
    if max_questions is not None and max_questions < 0:
        raise BadRequest("'max_questions' must be non-negative")

    workload = payload.get("workload")
    csv_payload = payload.get("csv")
    if (workload is None) == (csv_payload is None):
        raise BadRequest(
            "provide exactly one of 'workload' (builtin name) or "
            "'csv' (uploaded relations)"
        )
    if workload is not None:
        if not isinstance(workload, str):
            raise BadRequest("'workload' must be a string")
        workload_seed = _optional_int(payload, "workload_seed", 0)
        scale = payload.get("scale", 1.0)
        if not isinstance(scale, (int, float)) or isinstance(scale, bool):
            raise BadRequest("'scale' must be a number")
        if workload not in BUILTIN_WORKLOAD_NAMES:
            raise BadRequest(
                f"unknown builtin workload {workload!r}; choose one of "
                f"{', '.join(BUILTIN_WORKLOAD_NAMES)}"
            )
        spec = {
            "builtin": {
                "name": workload,
                "seed": workload_seed,
                "scale": float(scale),
            }
        }
        return CreateSpec(spec, None, strategy, seed, max_questions)

    csv_payload = _require_dict(csv_payload, "'csv'")
    infer_types = bool(payload.get("infer_types", False))
    left = _csv_relation(csv_payload.get("left"), "left", infer_types)
    right = _csv_relation(csv_payload.get("right"), "right", infer_types)
    try:
        instance = Instance(left, right)
    except SchemaError as exc:
        raise BadRequest(str(exc)) from exc
    spec = {"inline": instance_to_dict(instance)}
    return CreateSpec(spec, instance, strategy, seed, max_questions)


def instance_from_spec(spec: dict[str, Any]) -> Instance:
    """Materialise the instance a canonical spec describes."""
    if "builtin" in spec:
        ref = spec["builtin"]
        try:
            return builtin_instance(
                ref["name"], seed=ref["seed"], scale=ref["scale"]
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise BadRequest(f"bad builtin workload spec: {exc}") from exc
    if "inline" in spec:
        try:
            return instance_from_dict(spec["inline"])
        except (KeyError, TypeError, SchemaError) as exc:
            raise BadRequest(f"bad inline instance spec: {exc}") from exc
    raise BadRequest(
        f"instance spec must carry 'builtin' or 'inline'; got "
        f"{sorted(spec)}"
    )


def parse_label(text: Any) -> Label:
    """Strict label validation shared with the JSON deserialisers."""
    if not isinstance(text, str):
        raise BadRequest("'label' must be the string '+' or '-'")
    try:
        return Label.parse(text)
    except ValueError as exc:
        raise BadRequest(str(exc)) from exc


def parse_answer_payload(payload: Any) -> tuple[int, Label]:
    """Validate a ``POST .../answer`` body into (question_id, label)."""
    payload = _require_dict(payload, "request body")
    question_id = payload.get("question_id")
    if not isinstance(question_id, int) or isinstance(question_id, bool):
        raise BadRequest("'question_id' must be an integer")
    return question_id, parse_label(payload.get("label"))


# --- response payloads -------------------------------------------------------


def question_payload(
    session: InferenceSession, question: Question
) -> dict[str, Any]:
    """One membership question, with enough context to render it."""
    left_row, right_row = question.tuple_pair
    instance = session.instance
    return {
        "question_id": question.question_id,
        "left": {
            "relation": instance.left.name,
            "attributes": [a.name for a in instance.left.schema],
            "row": list(left_row),
        },
        "right": {
            "relation": instance.right.name,
            "attributes": [a.name for a in instance.right.schema],
            "row": list(right_row),
        },
    }


def progress_payload(session: InferenceSession) -> dict[str, Any]:
    """Where the session stands: labels so far, classes still open."""
    informative = int(session.state.informative_ids_array().size)
    return {
        "interactions": session.state.interaction_count,
        "informative_remaining": informative,
        "total_classes": len(session.index),
        "done": session.is_finished(),
    }


def builds_payload(statuses: list[dict[str, Any]]) -> dict[str, Any]:
    """The ``GET /builds`` response: in-flight index builds, oldest
    first, each with its key, waiter count and elapsed seconds (the
    shape the :class:`~repro.service.index_cache.BuildStatus` payloads
    already carry — wrapped here so the wire shape is owned by the
    protocol)."""
    return {"builds": statuses, "in_flight": len(statuses)}


def sessions_payload(
    sessions: list[dict[str, Any]], counts: dict[str, int]
) -> dict[str, Any]:
    """The ``GET /sessions`` response: live sessions plus the durable
    store's tallies — ``live`` (in memory), ``demoted`` (evicted to the
    store by this process, rehydrated on touch) and ``recoverable``
    (every stored session not currently live, including those left by
    a previous — possibly crashed — process)."""
    return {"sessions": sessions, **counts}


def predicate_payload(session: InferenceSession) -> dict[str, Any]:
    """The current ``T(S+)`` plus progress."""
    predicate = session.current_predicate()
    return {
        "predicate": {
            "pairs": [
                [str(a), str(b)] for a, b in predicate.sorted_pairs()
            ]
        },
        "pretty": str(predicate),
        "progress": progress_payload(session),
    }
