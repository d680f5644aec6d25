"""Memoised planner score tables — the machine-wide plan cache.

The lookahead strategies' entropy tables are a *pure function* of
``(signature index, labeled-class state, depth)``, and so is the choice
made from them: ties go to the first class in canonical order (see
:meth:`~repro.core.strategies.lookahead.LookaheadSkylineStrategy.propose`,
which never reads the session rng).  Two sessions at the same state over
the same index compute identical tables — and under a shared workload
most sessions traverse overlapping answer prefixes.  This module
memoises those tables:

* :func:`canonical_state_key` — the identity of a scoring problem.  It
  hashes the index by *content* fingerprint and freezes the labeled
  classes as an order-insensitive set: two sessions that answered the
  same questions in different orders share one key (the state they
  reached is the same — each class is labeled at most once, so the set
  fully determines it), and a session rehydrated from a snapshot or
  journal lands on the same key as its pre-crash incarnation.
* :func:`encode_table` / :func:`decode_table` — a fixed-width byte
  codec for the shared tier.  Decoding reproduces the planner's exact
  values: finite entries come back as Python ints and infinite ones as
  ``math.inf``, so a cached table compares equal, entry for entry, to a
  freshly computed one.
* :class:`PlanCache` — a thread-safe two-tier cache: a per-process LRU
  over decoded tables, backed by an optional machine-wide shared tier
  (:class:`~repro.service.plan_registry.SharedPlanTier`) that fleet
  workers publish into and attach from.

**Counter identity.**  The cache is only consulted when the session's
own tier-0 (the strategy's primed table or in-sync incremental planner)
could not answer, so every :meth:`PlanCache.get` is a *miss* of that
tier-0 and resolves as exactly one of: a local hit, a shared hit, or a
compute (the caller runs the kernel and calls :meth:`PlanCache.install`).
Hence ``misses == local_hits + shared_hits + computes`` — the plan-twin
of the index cache's ``misses == attach_hits + builds`` — barring
transient errors (e.g. a kernel scheduler shutting down mid-request
computes without installing).

**Determinism contract.**  A hit returns the score table only; question
selection still runs the strategy's own canonical-order tie-break over
that table, so question sequences are bit-for-bit identical with the
cache on or off.  Returned tables are shared across sessions and MUST be
treated as read-only.
"""

from __future__ import annotations

import math
import struct
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from .entropy import Entropy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .planner import IncrementalLookaheadPlanner

__all__ = [
    "PlanCache",
    "PlanCacheError",
    "canonical_state_key",
    "decode_table",
    "encode_table",
    "plan_key_for_planner",
]


class PlanCacheError(ValueError):
    """A shared-tier payload failed validation."""


# --- the canonical state key ---------------------------------------------


def canonical_state_key(
    index_fingerprint: str,
    strategy: str,
    labeled: Iterable[tuple[int, Any]],
) -> str:
    """The identity of one scoring problem.

    ``labeled`` is the session's ``(class_id, label)`` history in any
    order (labels may be :class:`~repro.relational.sample.Label` members
    or their ``"+"``/``"-"`` string forms); the key freezes it as a
    class-id-sorted set, so answer order does not matter.  ``strategy``
    is the strategy/depth tag (e.g. ``"L2S"``) and ``index_fingerprint``
    the index *content* fingerprint, so distinct relations, depths, or
    strategies never collide.
    """
    frozen = sorted((int(class_id), str(label)) for class_id, label in labeled)
    state = ",".join(f"{class_id}{label}" for class_id, label in frozen)
    return f"{strategy}|{index_fingerprint}|{state}"


def plan_key_for_planner(
    planner: "IncrementalLookaheadPlanner", index_fingerprint: str
) -> str:
    """The canonical key for the state a planner is bound to."""
    return canonical_state_key(
        index_fingerprint,
        f"L{planner.depth}S",
        planner.state.labeled_classes(),
    )


# --- the shared-tier codec ------------------------------------------------

_MAGIC = b"RJQPLAN1"
_HEADER = struct.Struct("<8sQ")


def encode_table(table: dict[int, Entropy]) -> bytes:
    """Serialise an entropy table for the shared tier.

    Layout: magic, uint64 entry count, int64 class ids, float64
    ``(min, max)`` pairs — fixed width, so a segment is validated by
    length alone.
    """
    count = len(table)
    ids = np.fromiter(table.keys(), dtype=np.int64, count=count)
    values = np.empty((count, 2), dtype=np.float64)
    for position, pair in enumerate(table.values()):
        values[position, 0] = pair[0]
        values[position, 1] = pair[1]
    return _HEADER.pack(_MAGIC, count) + ids.tobytes() + values.tobytes()


def _decode_value(value: float) -> float | int:
    if math.isinf(value):
        return math.inf
    as_int = int(value)
    return as_int if as_int == value else value


def decode_table(payload: bytes) -> dict[int, Entropy]:
    """Inverse of :func:`encode_table`, reproducing the planner's exact
    value types (finite scores are ints, infinities are ``math.inf``)."""
    if len(payload) < _HEADER.size:
        raise PlanCacheError(
            f"plan payload truncated: {len(payload)} bytes"
        )
    magic, count = _HEADER.unpack_from(payload)
    if magic != _MAGIC:
        raise PlanCacheError(f"plan payload bad magic: {magic!r}")
    expected = _HEADER.size + count * 24
    if len(payload) != expected:
        raise PlanCacheError(
            f"plan payload size mismatch: {len(payload)} bytes for "
            f"{count} entries (expected {expected})"
        )
    ids = np.frombuffer(
        payload, dtype=np.int64, count=count, offset=_HEADER.size
    )
    values = np.frombuffer(
        payload,
        dtype=np.float64,
        count=2 * count,
        offset=_HEADER.size + 8 * count,
    ).reshape(count, 2)
    return {
        class_id: (_decode_value(low), _decode_value(high))
        for class_id, (low, high) in zip(ids.tolist(), values.tolist())
    }


# --- the cache ------------------------------------------------------------


class PlanCache:
    """Per-process LRU over decoded tables + optional shared tier.

    ``shared``, when given, must provide ``get(key) -> bytes | None``,
    ``publish(key, payload) -> bool``, ``release(key)``, ``stats()``,
    and ``close()`` (see
    :class:`~repro.service.plan_registry.SharedPlanTier`).  All methods
    are thread-safe; the shared tier is only touched outside the local
    lock, so a slow registry never blocks local hits on other threads.
    """

    __slots__ = (
        "_lock",
        "_max_entries",
        "_shared",
        "_tables",
        "_nbytes",
        "_misses",
        "_local_hits",
        "_shared_hits",
        "_computes",
        "_evictions",
        "_publishes",
        "_decode_errors",
    )

    def __init__(
        self,
        max_entries: int = 1024,
        *,
        shared: Any | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("plan cache needs max_entries >= 1")
        self._lock = threading.Lock()
        self._max_entries = max_entries
        self._shared = shared
        self._tables: OrderedDict[str, dict[int, Entropy]] = OrderedDict()
        self._nbytes: dict[str, int] = {}
        self._misses = 0
        self._local_hits = 0
        self._shared_hits = 0
        self._computes = 0
        self._evictions = 0
        self._publishes = 0
        self._decode_errors = 0

    @property
    def shared(self) -> Any | None:
        return self._shared

    def get(
        self, key: str, *, probe_shared: bool = True
    ) -> dict[int, Entropy] | None:
        """Look ``key`` up; None means the caller must compute (and is
        expected to :meth:`install` the result).

        Every call counts one miss of the session's tier-0 (see the
        module docstring's counter identity).  ``probe_shared=False``
        restricts to the local tier — the event-loop path uses it so a
        busy registry can never stall serving.
        """
        with self._lock:
            self._misses += 1
            table = self._tables.get(key)
            if table is not None:
                self._tables.move_to_end(key)
                self._local_hits += 1
                return table
        if self._shared is None or not probe_shared:
            return None
        payload = self._shared.get(key)
        if payload is None:
            return None
        try:
            table = decode_table(payload)
        except PlanCacheError:
            with self._lock:
                self._decode_errors += 1
            return None
        with self._lock:
            if key not in self._tables:
                evicted = self._store_locked(key, table, len(payload))
            else:
                evicted = []
            self._tables.move_to_end(key)
            self._shared_hits += 1
            stored = self._tables[key]
        self._release_shared(evicted)
        return stored

    def install(
        self, key: str, table: dict[int, Entropy], *, publish: bool = True
    ) -> None:
        """Record a freshly computed table (write-through both tiers).

        ``publish=False`` restricts the write-through to the local tier
        — the event-loop compute path uses it so a busy registry can
        never stall serving (the identity counters are unaffected).
        """
        payload = encode_table(table)
        with self._lock:
            self._computes += 1
            evicted = self._store_locked(key, table, len(payload))
        self._release_shared(evicted)
        if (
            publish
            and self._shared is not None
            and self._shared.publish(key, payload)
        ):
            with self._lock:
                self._publishes += 1

    def _store_locked(
        self, key: str, table: dict[int, Entropy], nbytes: int
    ) -> list[str]:
        """Insert under the held lock; returns LRU-evicted keys whose
        shared refs the caller must release (outside the lock)."""
        evicted = []
        self._tables[key] = table
        self._tables.move_to_end(key)
        self._nbytes[key] = nbytes
        while len(self._tables) > self._max_entries:
            old_key, _ = self._tables.popitem(last=False)
            self._nbytes.pop(old_key, None)
            self._evictions += 1
            evicted.append(old_key)
        return evicted

    def _release_shared(self, evicted: list[str]) -> None:
        if self._shared is None:
            return
        for old_key in evicted:
            self._shared.release(old_key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._tables)

    def resident_bytes(self) -> int:
        """Encoded size of the locally resident tables."""
        with self._lock:
            return sum(self._nbytes.values())

    def stats(self) -> dict[str, Any]:
        with self._lock:
            payload = {
                "entries": len(self._tables),
                "max_entries": self._max_entries,
                "resident_bytes": sum(self._nbytes.values()),
                "misses": self._misses,
                "local_hits": self._local_hits,
                "shared_hits": self._shared_hits,
                "computes": self._computes,
                "evictions": self._evictions,
                "publishes": self._publishes,
                "decode_errors": self._decode_errors,
            }
        if self._shared is not None:
            payload["shared"] = self._shared.stats()
        return payload

    def close(self) -> None:
        if self._shared is not None:
            self._shared.close()
