"""Content-addressed cache of signature indexes, with off-loop builds.

Building the :class:`SignatureIndex` is the expensive step of a session —
it walks ``|R|·|P|`` product tuples — while everything recorded afterwards
lives in the per-session :class:`~repro.core.state.InferenceState`.  The
index itself is immutable, so every session over value-identical data can
share one: the cache keys on a content hash of the instance (schema +
rows, type-tagged so ``1`` and ``"1"`` hash apart, exactly as they compare
apart under the inference semantics).

Construction goes through an
:class:`~repro.core.index_build.IndexBuilder` (replaceable, so tests can
substitute a slow one).  Two build paths exist:

* :meth:`IndexCache.get_or_build` / ``get_or_build_keyed`` — synchronous,
  used by non-async callers; the caller's thread builds inline.
* :meth:`IndexCache.get_or_build_keyed_async` — the server path: the
  build runs on a ``concurrent.futures`` executor so the event loop keeps
  serving every other session, and concurrent *async* requests for the
  same key are **single-flight** — the first awaits the executor, later
  arrivals await the same in-flight future, and exactly one build ever
  runs.  In-flight builds publish shard-level progress
  (:class:`BuildStatus`, surfaced on ``GET /builds``).

One cache instance belongs to one concurrency domain: either the event
loop (async methods; worker threads only ever run the builder, never
touch the cache dict) or a single synchronous caller.  Mixing the sync
methods into a live server from another thread would race the LRU dict
and duplicate builds — embedders drive :class:`SessionManager`'s sync
API *instead of* a running server, not alongside one.

Eviction is LRU by entry count.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from ..core.index_build import IndexBuilder
from ..core.signatures import SignatureIndex
from ..relational.relation import Instance, Relation

__all__ = ["BuildStatus", "IndexCache", "instance_fingerprint"]


def _relation_payload(relation: Relation) -> dict:
    # Cells carry their type name, so 1 and "1", and True and 1, hash
    # apart.  A column whose cells share one type is tagged once; only
    # a mixed column tags each cell.
    rows = relation.rows
    columns = list(zip(*rows))
    types = [set(map(type, column)) for column in columns]
    mixed = [
        position for position, kinds in enumerate(types) if len(kinds) > 1
    ]
    for position in mixed:
        columns[position] = [
            [type(value).__name__, value] for value in columns[position]
        ]
    if mixed:
        rows = list(zip(*columns))
    return {
        "name": relation.name,
        "attributes": [attr.name for attr in relation.schema],
        "types": [
            next(iter(kinds)).__name__ if len(kinds) == 1 else None
            for kinds in types
        ],
        "rows": rows,
    }


def instance_fingerprint(instance: Instance) -> str:
    """A stable content hash of an instance's schema and data.

    Two instances get the same fingerprint iff they are value-identical
    (same relation names, attribute names, and rows in order, with cell
    types distinguished) — the precondition for their signature indexes
    being interchangeable.

    The hash walks every cell, so it is memoised per ``Instance``
    object: session creation over an uploaded instance used to re-hash
    the full data on every request touching the cache, now only the
    first computation pays.
    """
    cached = instance._content_fingerprint
    if cached is not None:
        return cached
    canonical = json.dumps(
        {
            "left": _relation_payload(instance.left),
            "right": _relation_payload(instance.right),
        },
        separators=(",", ":"),
        sort_keys=True,
    )
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    instance._content_fingerprint = digest
    return digest


@dataclass(slots=True)
class BuildStatus:
    """Progress of one in-flight index build (read across threads).

    The builder's worker thread bumps ``shards_done``/``shards_total``;
    the event loop reads them for the build-status endpoint.  Plain
    attribute writes are atomic under the GIL, so no locking is needed
    for this monitoring-only data.
    """

    key: str
    started: float = field(default_factory=time.monotonic)
    shards_done: int = 0
    shards_total: int | None = None
    waiters: int = 0

    def payload(self) -> dict[str, Any]:
        """The JSON shape served by ``GET /builds``."""
        return {
            "key": self.key,
            "shards_done": self.shards_done,
            "shards_total": self.shards_total,
            "waiters": self.waiters,
            "elapsed_seconds": round(time.monotonic() - self.started, 3),
        }


class IndexCache:
    """LRU cache mapping instance fingerprints to shared indexes."""

    __slots__ = (
        "_capacity",
        "_entries",
        "_entry_kinds",
        "_builder",
        "_shared",
        "_pending",
        "_build_tasks",
        "_hits",
        "_misses",
        "_single_flight_waits",
        "_attach_hits",
        "_builds",
        "_publishes",
    )

    def __init__(
        self,
        capacity: int = 16,
        builder: IndexBuilder | None = None,
        shared=None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._entries: OrderedDict[str, SignatureIndex] = OrderedDict()
        self._entry_kinds: dict[str, tuple[str, int]] = {}
        self._builder = builder if builder is not None else IndexBuilder()
        self._shared = shared
        self._pending: dict[str, tuple[asyncio.Future, BuildStatus]] = {}
        self._build_tasks: set[asyncio.Task] = set()
        self._hits = 0
        self._misses = 0
        self._single_flight_waits = 0
        self._attach_hits = 0
        self._builds = 0
        self._publishes = 0

    @property
    def builder(self) -> IndexBuilder:
        """The build pipeline used on cache misses."""
        return self._builder

    @property
    def shared_plane(self):
        """The shared-memory index plane, if the cache has one.

        With a plane, a miss first tries to *attach* a sibling
        process's published segment; only when no segment is ready does
        the local builder run (and publish for the siblings in turn).
        """
        return self._shared

    # --- synchronous path -------------------------------------------------

    def get_or_build(
        self, instance: Instance
    ) -> tuple[SignatureIndex, bool]:
        """The shared index for ``instance`` and whether it was cached."""
        return self.get_or_build_keyed(
            instance_fingerprint(instance), lambda: instance
        )

    def get_or_build_keyed(
        self, key: str, make_instance
    ) -> tuple[SignatureIndex, bool]:
        """Like :meth:`get_or_build` with a caller-supplied cache key.

        ``make_instance`` is only invoked on a miss, which lets callers
        with an already-canonical key — the service's builtin workload
        specs — skip both data regeneration and content hashing on the
        hot path.  (An index cached under a spec key is a separate entry
        from the same data cached by fingerprint; builtin specs are
        deterministic, so in practice the split never occurs.)
        """
        index = self._entries.get(key)
        if index is not None:
            self._entries.move_to_end(key)
            self._hits += 1
            return index, True
        self._misses += 1
        index, kind = self._resolve_miss(key, make_instance, None)
        return self._store(key, index, kind), False

    # --- asynchronous single-flight path -----------------------------------

    async def get_or_build_async(
        self, instance: Instance, executor=None
    ) -> tuple[SignatureIndex, bool]:
        """Async twin of :meth:`get_or_build` (single-flight, off-loop).

        The content fingerprint walks every cell, so for not-yet-memoised
        instances it is computed on ``executor`` too — a ~10⁶-cell upload
        must not stall the loop hashing, any more than building.  Note
        ``executor`` serves both the hash and the build here; a caller
        that wants hashing kept off a busy build pool (the service does
        — see ``SessionManager.offload``) should hash on its own pool
        and call :meth:`get_or_build_keyed_async` directly.
        """
        if instance._content_fingerprint is not None:
            key = instance._content_fingerprint
        else:
            loop = asyncio.get_running_loop()
            key = await loop.run_in_executor(
                executor, instance_fingerprint, instance
            )
        return await self.get_or_build_keyed_async(
            key, lambda: instance, executor
        )

    async def get_or_build_keyed_async(
        self, key: str, make_instance, executor=None
    ) -> tuple[SignatureIndex, bool]:
        """Single-flight, executor-backed variant of
        :meth:`get_or_build_keyed`.

        A cold key starts exactly one build on ``executor`` (``None`` =
        the loop's default pool); every concurrent request for the same
        key awaits that build's future and counts as a cache hit.  The
        event loop never blocks — while shards grind on worker threads,
        unrelated sessions keep answering.

        The build is driven by a task owned by the cache, and every
        requester awaits the shared future through
        :func:`asyncio.shield` — cancelling any one requester (client
        disconnect, ``wait_for`` timeout) affects only that requester;
        the build still completes, lands in the cache, and resolves the
        other waiters.
        """
        index = self._entries.get(key)
        if index is not None:
            self._entries.move_to_end(key)
            self._hits += 1
            return index, True
        pending = self._pending.get(key)
        if pending is not None:
            future, status = pending
            self._single_flight_waits += 1
            status.waiters += 1
            try:
                index = await asyncio.shield(future)
            except asyncio.CancelledError:
                # This waiter is gone (client disconnect); the build
                # carries on, but /builds must not keep reporting them.
                status.waiters -= 1
                raise
            # Counted only after the shared build succeeds: a failed
            # build must not inflate the hit ratio the CI gates on.
            self._hits += 1
            return index, True
        self._misses += 1
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        status = BuildStatus(key=key)
        self._pending[key] = (future, status)
        task = loop.create_task(
            self._drive_build(key, make_instance, status, future, executor)
        )
        self._build_tasks.add(task)
        task.add_done_callback(self._build_tasks.discard)
        return await asyncio.shield(future), False

    async def _drive_build(
        self,
        key: str,
        make_instance,
        status: BuildStatus,
        future: asyncio.Future,
        executor,
    ) -> None:
        """Run one cold build to completion and settle its future."""
        loop = asyncio.get_running_loop()
        try:
            index, kind = await loop.run_in_executor(
                executor, self._resolve_miss, key, make_instance, status
            )
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                # Mark retrieved so an un-awaited future (every
                # requester already cancelled) does not log
                # "exception was never retrieved".
                future.exception()
            if isinstance(exc, asyncio.CancelledError):
                raise  # loop shutdown: stay a well-behaved cancelled task
        else:
            self._store(key, index, kind)
            if not future.done():
                future.set_result(index)
        finally:
            self._pending.pop(key, None)

    # --- internals ----------------------------------------------------------

    def _resolve_miss(
        self, key: str, make_instance, status: BuildStatus | None
    ) -> tuple[SignatureIndex, str]:
        """Resolve a cold key on a worker thread: attach tier, then build.

        Returns ``(index, kind)`` where ``kind`` is ``"attach"`` (mapped
        a sibling's shared segment), ``"publish"`` (built locally and
        published the segment), or ``"build"`` (private build — no
        shared plane, or the plane degraded).  Counter bumps are plain
        GIL-atomic writes, same as :class:`BuildStatus`.
        """
        instance = make_instance()
        if self._shared is not None:
            index, kind = self._shared.get_or_build(
                key,
                instance,
                lambda inst: self._run_build(inst, status),
            )
        else:
            index, kind = self._run_build(instance, status), "build"
        if kind == "attach":
            self._attach_hits += 1
        else:
            self._builds += 1
            if kind == "publish":
                self._publishes += 1
        return index, kind

    def _run_build(
        self, instance: Instance, status: BuildStatus | None
    ) -> SignatureIndex:
        """Run the builder over a materialised instance (worker thread)."""

        def progress(done: int, total: int | None) -> None:
            if status is not None:
                status.shards_done = done
                status.shards_total = total

        return self._builder.build(instance, progress=progress)

    def _store(
        self, key: str, index: SignatureIndex, kind: str = "build"
    ) -> SignatureIndex:
        self._entries[key] = index
        self._entry_kinds[key] = (kind, index.nbytes)
        self._entries.move_to_end(key)
        while len(self._entries) > self._capacity:
            evicted, _ = self._entries.popitem(last=False)
            self._entry_kinds.pop(evicted, None)
        return index

    # --- introspection -------------------------------------------------------

    def pending_builds(self) -> list[dict[str, Any]]:
        """Status payloads of every in-flight build, oldest first."""
        return [
            status.payload()
            for _, status in sorted(
                self._pending.values(), key=lambda item: item[1].started
            )
        ]

    @property
    def hits(self) -> int:
        """Lookups answered from the cache (including single-flight waits)."""
        return self._hits

    @property
    def misses(self) -> int:
        """Lookups that triggered an index build."""
        return self._misses

    @property
    def single_flight_waits(self) -> int:
        """Lookups that joined an in-flight build instead of starting one."""
        return self._single_flight_waits

    @property
    def attach_hits(self) -> int:
        """Misses resolved by attaching a shared segment, not building.

        An attach still counts as a *miss* — ``hits``/``misses`` keep
        their pre-plane meaning (answered from this process's LRU or
        not), so the benchmarked hit-ratio gate is undisturbed; the
        attach/build split decomposes the misses instead:
        ``misses == attach_hits + builds`` (barring failed builds).
        """
        return self._attach_hits

    @property
    def builds(self) -> int:
        """Misses that ran the local builder (including publishes)."""
        return self._builds

    @property
    def publishes(self) -> int:
        """Local builds that also published a shared segment."""
        return self._publishes

    def resident_bytes(self) -> dict[str, int]:
        """Index bytes resident via this cache, split by backing.

        ``private_bytes`` live on this process's heap; ``shared_bytes``
        are the shared-memory segments this process maps (one machine-
        wide copy, reported by every attached process).
        """
        private = 0
        for kind, nbytes in self._entry_kinds.values():
            if kind == "build":
                private += nbytes
        shared = (
            self._shared.shared_bytes() if self._shared is not None else 0
        )
        return {"private_bytes": private, "shared_bytes": shared}

    @property
    def hit_ratio(self) -> float:
        """``hits / (hits + misses)``, 0.0 before any lookup."""
        total = self._hits + self._misses
        return self._hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Whether ``key`` is warm — without touching LRU order or the
        hit/miss counters (a pure peek for callers deciding whether a
        create is about to trigger a cold build)."""
        return key in self._entries

    def stats(self) -> dict:
        """Counters for the service's stats endpoint and benchmarks."""
        payload = {
            "entries": len(self._entries),
            "capacity": self._capacity,
            "hits": self._hits,
            "misses": self._misses,
            "hit_ratio": round(self.hit_ratio, 4),
            "in_flight": len(self._pending),
            "single_flight_waits": self._single_flight_waits,
            "attach_hits": self._attach_hits,
            "builds": self._builds,
            "publishes": self._publishes,
        }
        payload.update(self.resident_bytes())
        if self._shared is not None:
            payload["shared"] = self._shared.stats()
        return payload
