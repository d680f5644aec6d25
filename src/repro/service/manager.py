"""Session lifecycle: creation, lookup, TTL eviction, snapshot/resume.

The manager owns every live :class:`~repro.core.session.InferenceSession`
plus the shared :class:`~repro.service.index_cache.IndexCache`.  Sessions
on the same data share one immutable index but each keeps its own
``InferenceState``; an :class:`asyncio.Lock` per session serialises the
mutating operations (propose/answer/snapshot) so concurrent HTTP requests
against one session cannot interleave mid-protocol.

Expiry is lazy: every entry-point sweeps sessions idle longer than the
TTL, and capacity is enforced after the sweep — a full server answers
creation requests with 429 rather than evicting live users.

Opening, looking up, listing and deleting sessions are coroutines run
on the server's event loop: :meth:`~SessionManager.create_async` pushes
a cold index build through the cache's single-flight path onto a
``concurrent.futures`` worker pool (``build_workers`` threads, each
running one whole build through the index kernel), replays run there
too and every store call on one writer thread, so none stalls the loop.
A question round — :meth:`~SessionManager.propose_question_async`, then
:meth:`~SessionManager.record_answer` — runs under the session's lock.

**Speculative next-question precompute.**  Question selection — L2S
especially — is the expensive half of a round-trip, and it happens while
the human oracle is *thinking*.  When a question goes out,
:meth:`~SessionManager.propose_question` forks the session twice and
answers each fork with one of the two possible labels on the build pool,
running the next proposal ahead of time; when the real answer arrives,
:meth:`~SessionManager.record_answer` swaps in the matching fork and the
follow-up ``GET /question`` is a lookup.  Both branches are precomputed,
so a *finished* branch always matches; a miss only means the oracle
answered faster than the branch could compute, in which case the branch
is aborted and the answer takes the ordinary inline path.  Speculation
is capacity-capped (``speculation_slots`` concurrent branch jobs;
excess proposals skip speculation rather than queue), cancellation-safe
(aborted branches stop at the next checkpoint and their forks are
discarded; pending jobs are cancelled outright), and **adaptive**: each
session's question→answer gap is tracked as an EWMA, and a session
whose oracle answers faster than ``speculation_min_think_seconds`` has
no think-time to hide work behind, so it stops speculating (a load
generator hammering the API costs nothing; a human thinking for seconds
gets every precompute).  ``GET /stats`` reports the hit ratio.

Speculation is a **tree**: each branch that finishes its follow-up
proposal forks again and precomputes *its* two answer branches, down to
``speculation_depth`` levels (default 2 — four grandchildren behind one
outstanding question).  Forked planners share their sub-matrices
copy-on-write, so the whole tree costs four entropy kernels, not four
session rebuilds.  On a hit the matching child tree is **adopted** as
the next question's speculation — answer→question→answer collapses to
two lookups; per-depth hit ratios are reported separately.

**Cross-session kernel batching.**  Sessions sharing one index run the
same L1S/L2S contraction shapes; a
:class:`~repro.core.kernel_batch.KernelBatchScheduler` coalesces their
proposal jobs (``batch_window_seconds``) into stacked 3-D kernels per
index and scatters the per-session tables back, bit-for-bit identical
to the per-session planner path (which remains the fallback for
singleton batches and non-batchable planners).  Speculative branches
ride the same batches — the router is inherited by forks — so a busy
server's lookahead work amortises one numpy dispatch across the fleet.

**Durable sessions.**  With a
:class:`~repro.service.store.SqliteSessionStore` attached, every
accepted answer is journaled (append-only, keyed by session id) and a
full snapshot payload is checkpointed every ``checkpoint_every``
answers.  Every store call, reads included, runs **off the event
loop** on one writer thread (the lease heartbeat's renewals aside), so
a read sees every op queued before it.  Writes go through per-session
single-flight batching: an answer enqueues its journal op and returns,
and one flush drains everything queued since the last (a burst of
answers becomes one SQLite transaction; the answer path never waits
on a disk write).  Idle-TTL and capacity eviction then *demote to
disk instead of deleting*: the in-memory session is dropped, its
pending journal ops are flushed, and the next touch transparently
**rehydrates** it — the stored checkpoint + journal tail replay
through the ordinary propose/answer resume path on the build pool
(off-loop, single-flight per session id, exactly like a cold index
build), restoring strategy and rng bit-for-bit.  After a crash
(``kill -9``), the same path recovers every session whose writes had
committed; ``GET /sessions`` reports live/demoted/recoverable counts.

:func:`repro.service.fleet.manager_from_config` builds every served
manager, solo or fleet worker; the speculation and batching knobs are
constructor arguments only, which ``serve`` leaves at their defaults.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
import uuid
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

from ..core.kernel_batch import KernelBatchScheduler
from ..core.plan_cache import PlanCache, plan_key_for_planner
from ..core.sample import Example, Label
from ..core.serialize import (
    SnapshotError,
    snapshot_payload,
)
from ..core.serialize import resume_session as core_resume_session
from ..core.session import InferenceSession, MaxInteractions, Question
from ..core.signatures import SignatureIndex
from ..core.strategies import strategy_by_name
from ..core.strategies.lookahead import LookaheadSkylineStrategy
from ..relational.relation import Instance
from .events import EventBus
from .index_cache import IndexCache, instance_fingerprint
from .protocol import (
    BadRequest,
    CapacityExceeded,
    Conflict,
    CreateSpec,
    NotFound,
    instance_from_spec,
    progress_payload,
    question_payload,
)
from .store import LeaseFenced, SqliteSessionStore, StoredSession

__all__ = ["ManagedSession", "SessionManager", "Speculation"]


def _process_rss_bytes() -> int | None:
    """This process's resident set size, or None off Linux procfs.

    Read from ``/proc/self/statm`` (no dependency on psutil); shared
    pages — e.g. mapped index segments — count in every mapping
    process, which is why fleet aggregation reports shared index bytes
    separately instead of summing RSS.
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGESIZE")
    except (OSError, ValueError, IndexError):  # pragma: no cover
        return None


@dataclass(slots=True)
class _SpeculativeBranch:
    """One node of the speculation tree: the worker job precomputing
    this answer branch, its kill switch, its depth below the real
    pending question (1 = direct child), and the grandchild branches
    the worker spawned for *its* follow-up question, if any."""

    future: Future | None = None
    abort: threading.Event = field(default_factory=threading.Event)
    depth: int = 1
    children: dict[Label, "_SpeculativeBranch"] = field(
        default_factory=dict
    )

    def cancel(self) -> None:
        """Stop the subtree: drop queued jobs, let running ones notice
        the abort flag and bail out cheaply.  Setting ``abort`` before
        walking ``children`` closes the race with a worker attaching
        new grandchildren: whichever side runs second sees the other's
        write (the worker re-checks ``abort`` after attaching)."""
        self.abort.set()
        if self.future is not None:
            self.future.cancel()
        for child in self.children.values():
            child.cancel()


@dataclass(slots=True)
class Speculation:
    """The precomputed answer tree for one outstanding question."""

    question_id: int
    branches: dict[Label, _SpeculativeBranch]

    def cancel(self) -> None:
        for branch in self.branches.values():
            branch.cancel()


@dataclass(slots=True)
class ManagedSession:
    """One hosted session plus its serving metadata."""

    session_id: str
    session: InferenceSession
    instance_spec: dict[str, Any]
    cache_hit: bool
    created_at: float
    last_used: float
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    speculation: Speculation | None = None
    #: When the current pending question was first handed out (and its
    #: id, so idempotent re-fetches don't restart the clock), plus the
    #: session's smoothed question→answer gap — the observed oracle
    #: think-time that decides whether speculating is worth a fork.
    question_sent_at: float | None = None
    question_sent_id: int | None = None
    think_ewma: float | None = None
    #: Durable-store bookkeeping.  ``store_seq`` counts answers enqueued
    #: for the journal (== the session's interaction count while every
    #: answer goes through the manager); ``checkpoint_seq`` is how many
    #: of them the latest enqueued checkpoint covers.  ``store_ops`` is
    #: the per-session write queue drained by the single-flight flush
    #: job (``store_flushing`` guards at-most-one in flight).
    durable: bool = False
    store_seq: int = 0
    checkpoint_seq: int = 0
    store_ops: list[tuple] = field(default_factory=list)
    store_lock: threading.Lock = field(default_factory=threading.Lock)
    store_flushing: bool = False
    #: Fleet leasing (None/False outside a fleet): the fencing epoch
    #: this owner holds the session's lease at, and whether that lease
    #: was lost (fenced write or failed heartbeat) — a lost session is
    #: shed from memory on the next event-loop touch, never served
    #: stale.
    lease_epoch: int | None = None
    lease_lost: bool = False
    #: How the *pending* question's entropy table was resolved —
    #: ``"speculation"`` (adopted fork), ``"plan_cache"``, ``"batched"``,
    #: ``"computed"`` (off-loop per-session kernel) or ``None`` (inline
    #: synchronous path).  Consumed by the question event.
    pending_source: str | None = None

    def describe(self) -> dict[str, Any]:
        """The session-info payload (no inference state)."""
        halt = self.session.halt_condition
        return {
            "session_id": self.session_id,
            "strategy": self.session.strategy.name,
            "seed": self.session.seed,
            "max_questions": (
                halt.budget if isinstance(halt, MaxInteractions) else None
            ),
            "workload": self.instance_spec.get("builtin"),
            "index_cache_hit": self.cache_hit,
            "durable": self.durable,
        }


class SessionManager:
    """All live sessions of one server process."""

    def __init__(
        self,
        *,
        index_cache: IndexCache | None = None,
        max_sessions: int = 256,
        ttl_seconds: float | None = 3600.0,
        clock: Callable[[], float] = time.monotonic,
        build_workers: int = 1,
        speculate: bool = True,
        speculation_slots: int | None = None,
        speculation_min_think_seconds: float = 0.02,
        speculation_depth: int = 2,
        kernel_batch: bool = True,
        batch_window_seconds: float = 0.002,
        plan_cache: bool = True,
        plan_cache_entries: int = 1024,
        shared_plan=None,
        store: SqliteSessionStore | None = None,
        checkpoint_every: int = 16,
        owner_id: str | None = None,
        lease_ttl_seconds: float = 10.0,
    ):
        if max_sessions < 1:
            raise ValueError("max_sessions must be positive")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive or None")
        if build_workers < 1:
            raise ValueError("build_workers must be positive")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")
        if speculation_slots is not None and speculation_slots < 0:
            raise ValueError("speculation_slots must be non-negative")
        if speculation_min_think_seconds < 0:
            raise ValueError(
                "speculation_min_think_seconds must be non-negative"
            )
        if speculation_depth < 1:
            raise ValueError("speculation_depth must be positive")
        if lease_ttl_seconds <= 0:
            raise ValueError("lease_ttl_seconds must be positive")
        # `index_cache or ...` would discard an *empty* cache (len 0).
        self.index_cache = (
            index_cache if index_cache is not None else IndexCache()
        )
        self.max_sessions = max_sessions
        self.ttl_seconds = ttl_seconds
        self.build_workers = build_workers
        self.speculate = speculate
        self.speculation_depth = speculation_depth
        #: Concurrent speculative branch jobs allowed on the build pool;
        #: a spawn point (root question or a finished branch fanning
        #: out) needing more skips speculation instead of queueing
        #: behind work it was meant to hide.  The default admits one
        #: full tree per worker under sequential branch completion
        #: (2^(depth+1) - 2 nodes).
        self.speculation_slots = (
            speculation_slots
            if speculation_slots is not None
            else (2 ** (speculation_depth + 1) - 2) * build_workers
        )
        #: Sessions whose observed question→answer gap (EWMA) falls
        #: below this stop speculating: there is no think-time to hide
        #: the precompute behind, so a fork is pure overhead.  0 means
        #: always speculate.
        self.speculation_min_think_seconds = speculation_min_think_seconds
        #: Cross-session kernel batcher (None when disabled): sessions
        #: sharing one index coalesce their L1S/L2S proposal kernels
        #: into stacked contractions within ``batch_window_seconds``.
        self._batcher = (
            KernelBatchScheduler(window_seconds=batch_window_seconds)
            if kernel_batch
            else None
        )
        #: Plan cache (None when disabled; ``shared_plan`` is a fleet
        #: worker's machine-wide tier): memoised
        #: entropy tables keyed by canonical state key, consulted by the
        #: entropy router before any kernel runs and written through
        #: from both the per-session path and the batch scheduler.  A
        #: hit supplies only the score table: the strategy still breaks
        #: ties over it by canonical class order (the lookahead
        #: strategies never read the session rng), so question
        #: sequences are bit-for-bit identical with the cache on or off.
        if shared_plan is not None and not plan_cache:
            raise ValueError(
                "shared_plan requires plan_cache=True (the shared tier "
                "backs the per-process plan cache)"
            )
        self.plan_cache = (
            PlanCache(plan_cache_entries, shared=shared_plan)
            if plan_cache
            else None
        )
        if self._batcher is not None and self.plan_cache is not None:
            # A flushed batch publishes every member's table (batched
            # and fallback members alike).
            self._batcher.plan_sink = self.plan_cache.install
        self.store = store
        self.checkpoint_every = checkpoint_every
        #: Fleet leasing.  With an ``owner_id`` set (a fleet worker),
        #: every durable session is claimed through the store's lease
        #: protocol: acquired before its first write, renewed by the
        #: heartbeat thread, fenced on every journal flush, released on
        #: demote.  ``owner_id=None`` (the default, single-process
        #: serving) keeps the PR 5 behaviour bit-for-bit: no lease rows,
        #: no fences, no heartbeat.
        self.owner_id = owner_id
        self.lease_ttl_seconds = lease_ttl_seconds
        self._heartbeat_thread: threading.Thread | None = None
        self._heartbeat_stop = threading.Event()
        self._fenced_total = 0
        self._leases_lost = 0
        self._lease_denied = 0
        self._clock = clock
        self._sessions: dict[str, ManagedSession] = {}
        self._expired_total = 0
        #: Durable-store state: ids this process demoted (and has not
        #: rehydrated since), and the single-flight map of in-progress
        #: rehydrations (event-loop only, like the index cache's
        #: pending builds).
        self._demoted: set[str] = set()
        self._rehydrating: dict[str, asyncio.Future] = {}
        self._rehydrate_tasks: set[asyncio.Task] = set()
        #: Ids deleted while their rehydration was in flight: the
        #: rehydrate task checks this right before admission, so a
        #: DELETE racing a touch can never resurrect the session.
        self._rehydrate_tombstones: set[str] = set()
        self._demotions_total = 0
        self._rehydrated_total = 0
        self._store_errors = 0
        #: The three pools start no thread before their first job, and
        #: once :meth:`close` has shut them down a submit raises
        #: ``RuntimeError``: a closed manager stays closed.  Index
        #: builds, replays and speculation run on the build pool.  The
        #: store pool is the writer, the one thread that calls the
        #: store, reads included (the heartbeat's renewals aside), so a
        #: long cold build never delays durability.  Its order:
        #: * one session's ops commit in the order they were queued
        #:   (one writer thread, one drain in flight per session);
        #: * a store call made after an op was queued runs after that
        #:   op commits: an op queued while its session's drain is
        #:   queued or running joins that drain, submitted first;
        #:   otherwise the op's own drain is submitted first;
        #: * so a load sees a demotion's journal tail and lease
        #:   release; a load, ``DELETE`` probe or count sees a queued
        #:   delete; ``GET /stats`` counts every acknowledged answer;
        #:   and an answer recorded on a session demoted while it
        #:   waited for the lock queues like any other, so a load
        #:   issued after it sees it;
        #: * :meth:`close` never cancels a queued store job.
        self._build_executor = ThreadPoolExecutor(
            max_workers=build_workers, thread_name_prefix="index-build"
        )
        self._store_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="session-store"
        )
        self._offload_executor = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="create-offload"
        )
        self._spec_lock = threading.Lock()
        self._spec_inflight = 0
        self._spec_submitted = 0
        self._spec_hits = 0
        self._spec_misses = 0
        self._spec_hits_by_depth: dict[int, int] = {}
        self._spec_misses_by_depth: dict[int, int] = {}
        self._spec_skipped = 0
        self._spec_skipped_think = 0
        self._spec_branch_errors = 0
        #: The event plane (PR 10): per-session + service-wide feeds
        #: and the incrementally maintained dashboard aggregates.
        self.events = EventBus()

    def offload(self, fn, *args):
        """Awaitable running CPU-bound ``fn(*args)`` off the event loop.

        Every O(data) *request-preprocessing* step goes through here —
        CSV parsing, content hashing, instance materialisation — on a
        small pool of its own, separate from the build pool: a warm
        upload create (parse + hash + cache hit) must never queue
        behind a long cold build occupying the build workers.
        Exceptions (e.g. ``BadRequest`` from validation) propagate to
        the awaiter unchanged.
        """
        return asyncio.get_running_loop().run_in_executor(
            self._offload_executor, fn, *args
        )

    def _on_writer(self, fn, *args):
        """Awaitable ``fn(*args)`` on the writer, after every job before it."""
        return asyncio.get_running_loop().run_in_executor(
            self._store_executor, fn, *args
        )

    def _heavy_offload(self, fn, *args):
        """Like :meth:`offload` but on the *build* pool — for O(session)
        compute (snapshot replays) that must not crowd out the small
        preprocessing pool fast creates depend on.  Mandatory work:
        in-flight speculation yields to it like it yields to builds."""
        self._yield_speculation_to_build()
        return asyncio.get_running_loop().run_in_executor(
            self._build_executor, fn, *args
        )

    def close(self, wait: bool = False) -> None:
        """Release the worker pools; the manager takes no work after.

        Queued-but-not-started jobs are cancelled either way; a job
        already executing always runs to completion.  ``wait=True``
        blocks until it has — the server's loop thread does this before
        closing its event loop, so a build finishing during shutdown
        never fires completion callbacks into a closed loop.
        Speculative branches are aborted first, so shutdown never waits
        on a lookahead whose result nobody will read.  Queued store
        jobs are **never cancelled** — durability ops already
        enqueued always reach the store (with ``wait=False`` they
        complete on the writer thread, joined at interpreter exit).
        """
        self._heartbeat_stop.set()
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout=5)
            self._heartbeat_thread = None
        for managed in self._sessions.values():
            self._drop_speculation(managed)
        if self._batcher is not None:
            # Before the build pool: cancelling queued batch futures
            # unblocks any branch worker waiting on a batched kernel
            # (its router falls back per-session or bails on abort).
            self._batcher.close(wait=wait)
        self._build_executor.shutdown(wait=wait, cancel_futures=True)
        self._offload_executor.shutdown(wait=wait, cancel_futures=True)
        self._store_executor.shutdown(wait=wait, cancel_futures=False)
        # After the build pool: no in-flight build can race the plane's
        # registry teardown.  Releases this worker's shared-segment refs
        # and publish leases so siblings (or the reaper) can reclaim.
        plane = self.index_cache.shared_plane
        if plane is not None:
            plane.close()
        # Likewise for the plan cache's shared tier: releases this
        # worker's plan-segment refs and publish leases.
        if self.plan_cache is not None:
            self.plan_cache.close()

    # --- lifecycle -----------------------------------------------------------

    def sweep(self) -> list[str]:
        """Evict sessions idle past the TTL; returns the evicted ids.

        With a store attached, a durable session is *demoted* — its
        pending journal ops flush to disk and a later touch rehydrates
        it — while non-durable sessions (no store, or unseeded and
        therefore unsnapshotable) are dropped outright as before."""
        if self.ttl_seconds is None:
            return []
        deadline = self._clock() - self.ttl_seconds
        expired = [
            session_id
            for session_id, managed in self._sessions.items()
            if managed.last_used < deadline
        ]
        evicted = []
        for session_id in expired:
            managed = self._sessions[session_id]
            if managed.durable:
                if managed.lock.locked():
                    # A request is mid-protocol on this session; evict
                    # it on a later sweep rather than yank the state a
                    # live handler is about to mutate.  Not evicted,
                    # so not reported as such.
                    continue
                self._demote(session_id, managed)
            else:
                self._drop_speculation(managed)
                del self._sessions[session_id]
                self._expired_total += 1
                self._publish_lifecycle(managed, "session_expired")
            evicted.append(session_id)
        return evicted

    def _demote(self, session_id: str, managed: ManagedSession) -> None:
        """Move a live session to the store (it must be durable).

        The in-memory object is dropped immediately; whatever journal
        ops are still queued flush on the writer thread, ahead of any
        later load of the same id (see the writer's order in
        ``__init__``)."""
        self._drop_speculation(managed)
        del self._sessions[session_id]
        if self._leasing:
            # Trailing op: the lease is handed back only after every
            # journal write queued before it has committed, so the next
            # owner's acquire-then-load sees the complete tail.  Queued
            # even before the acquire commits: the drain releases only
            # an epoch that was granted.
            self._enqueue_store_op(managed, ("release",))
        self._kick_flush(managed)
        self._demoted.add(session_id)
        self._demotions_total += 1
        self._publish_lifecycle(managed, "session_demoted")

    def demote(self, session_id: str) -> None:
        """Explicitly evict one live durable session to the store."""
        managed = self._sessions.get(session_id)
        if managed is None:
            raise NotFound(f"no live session {session_id!r}")
        if not managed.durable:
            raise BadRequest(
                f"session {session_id!r} is not durable (no store, or "
                f"unseeded); it cannot be demoted"
            )
        self._demote(session_id, managed)

    def demote_all(self) -> None:
        """Demote every live durable session."""
        for session_id, managed in list(self._sessions.items()):
            if managed.durable:
                self._demote(session_id, managed)

    def _demote_lru(self) -> bool:
        """Demote the least-recently-used durable session, if any.

        Sessions whose lock is held are exempt: a request is actively
        using them, and demoting state a handler holds a reference to
        would make its (still-succeeding) answer land on a session no
        longer live.  On the
        server every mutation runs under the session lock with no
        awaits between lookup and acquisition, so this check closes
        the demote-while-referenced race outright."""
        candidates = [
            (managed.last_used, session_id)
            for session_id, managed in self._sessions.items()
            if managed.durable and not managed.lock.locked()
        ]
        if not candidates:
            return False
        _, session_id = min(candidates)
        self._demote(session_id, self._sessions[session_id])
        return True

    def _ensure_capacity(self) -> None:
        """Make room in O(live) *before* any index build or replay.

        Without a store this rejects at capacity (429) as before; with
        one, the least-recently-used durable session is demoted to disk
        instead — a full server sheds idle state rather than refusing
        new users."""
        self.sweep()
        while len(self._sessions) >= self.max_sessions:
            if not self._demote_lru():
                raise CapacityExceeded(
                    f"server is at capacity ({self.max_sessions} "
                    f"sessions); retry later or delete a session"
                )

    def _admit(self, managed: ManagedSession) -> ManagedSession:
        self._ensure_capacity()
        self._sessions[managed.session_id] = managed
        return managed

    def _build(
        self,
        session: InferenceSession,
        instance_spec: dict[str, Any],
        cache_hit: bool,
        session_id: str | None = None,
    ) -> ManagedSession:
        now = self._clock()
        self._enable_batching(session)
        return ManagedSession(
            session_id=(
                session_id if session_id is not None
                else uuid.uuid4().hex[:16]
            ),
            session=session,
            instance_spec=instance_spec,
            cache_hit=cache_hit,
            created_at=now,
            last_used=now,
        )

    def _enable_batching(self, session: InferenceSession) -> None:
        """Route the session's entropy kernels through the shared
        batcher.  Every admission path funnels through :meth:`_build`
        (create, resume, rehydrate — replay happens *before* the
        router is installed, so replayed proposals stay per-session),
        and forks inherit the router, so speculative branches ride the
        same batches — and, with the plan cache on, a forked branch
        whose canonical state key hits installs the cached table
        instead of scheduling a kernel job."""
        if self._batcher is None and self.plan_cache is None:
            return
        strategy = session.strategy
        if isinstance(strategy, LookaheadSkylineStrategy):
            strategy.entropy_router = self._batch_router(
                id(session.index)
            )

    def _plan_key(self, planner) -> str:
        """Canonical state key for the state a planner is bound to."""
        return plan_key_for_planner(
            planner, instance_fingerprint(planner.state.index.instance)
        )

    def _batch_router(
        self, key: Hashable
    ) -> Callable[..., dict[int, Any] | None]:
        """The strategy-side hook, consulted whenever a proposal needs
        an entropy table the session's own tier-0 (primed table or
        in-sync planner fast path) could not supply.

        Resolution order: (1) the plan cache — a hit returns the
        memoised table with no kernel at all; (2) off the event loop,
        block the calling worker thread on the shared batch for ``key``
        (the batch write-through installs the result under its
        ``plan_key``); (3) compute per-session and install.  On the
        event loop the shared-tier probe and publish are skipped so a
        busy registry can never stall serving; a closed batcher or
        cancelled flush declines (→ strategy's per-session path).
        """
        batcher = self._batcher
        plan_cache = self.plan_cache

        def route(planner):
            try:
                asyncio.get_running_loop()
            except RuntimeError:
                on_loop = False
            else:
                # A propose on the loop whose table was not primed
                # (e.g. the batcher closed): never block the loop on a
                # batch window or the shared registry.
                on_loop = True
            plan_key = None
            if plan_cache is not None:
                plan_key = self._plan_key(planner)
                table = plan_cache.get(
                    plan_key, probe_shared=not on_loop
                )
                if table is not None:
                    return table
            if not on_loop and batcher is not None:
                try:
                    return batcher.entropies(
                        key, planner, plan_key=plan_key
                    )
                except (RuntimeError, CancelledError):
                    return None
            if plan_key is None:
                return None
            table = planner.entropies()
            plan_cache.install(plan_key, table, publish=not on_loop)
            return table

        return route

    async def _index_for_spec_async(
        self, spec: dict[str, Any], instance: Instance | None
    ) -> tuple[Instance, SignatureIndex, bool]:
        """Resolve ``(instance, shared index, cache hit)`` for a spec.

        A builtin spec is canonical, so it keys the cache directly: a
        hit skips both workload regeneration and content hashing, and
        the instance comes back off the cached index.  A cold build
        runs on the manager's worker pool (single-flight per key), so
        the event loop keeps serving other sessions meanwhile."""
        cache = self.index_cache
        executor = self._build_executor
        if instance is None and "builtin" in spec:
            key = "builtin:" + json.dumps(
                spec["builtin"], sort_keys=True, default=str
            )
            if key not in cache:
                self._yield_speculation_to_build()
            index, hit = await cache.get_or_build_keyed_async(
                key, lambda: instance_from_spec(spec), executor
            )
            return index.instance, index, hit
        if instance is None:
            # Inline snapshot specs carry the whole dataset —
            # materialise off-loop like everything else O(data).
            instance = await self.offload(instance_from_spec, spec)
        # Hash on the preprocessing pool (fast, never behind a build);
        # only the build itself competes for the build workers.
        key = await self.offload(instance_fingerprint, instance)
        if key not in cache:
            self._yield_speculation_to_build()
        index, hit = await cache.get_or_build_keyed_async(
            key, lambda: instance, executor
        )
        return instance, index, hit

    def _yield_speculation_to_build(self) -> None:
        """A cold index build is about to be submitted: cancel every
        in-flight speculation so mandatory, user-visible work never
        queues behind droppable branch jobs (queued branches are dropped
        outright; running ones bail at their next abort checkpoint)."""
        for managed in self._sessions.values():
            self._drop_speculation(managed)

    def _make_session(
        self, spec: CreateSpec, instance: Instance, index: SignatureIndex
    ) -> InferenceSession:
        return InferenceSession(
            instance,
            strategy_by_name(spec.strategy),
            halt_condition=(
                MaxInteractions(spec.max_questions)
                if spec.max_questions is not None
                else None
            ),
            index=index,
            seed=spec.seed,
        )

    def _check_session_id(self, session_id: str | None) -> None:
        """Reject a caller-assigned id (fleet router) already live here."""
        if session_id is not None and session_id in self._sessions:
            raise Conflict(f"session {session_id!r} already exists")

    async def create_async(self, spec: CreateSpec) -> ManagedSession:
        """Open a session per a validated creation request; a cold
        index build happens off-loop.

        Capacity is re-checked by ``_admit`` after the await — the
        server may have filled while the build was in flight.
        """
        self._check_session_id(spec.session_id)
        self._ensure_capacity()
        instance, index, hit = await self._index_for_spec_async(
            spec.instance_spec, spec.instance
        )
        session = self._make_session(spec, instance, index)
        managed = self._admit(
            self._build(
                session, spec.instance_spec, hit,
                session_id=spec.session_id,
            )
        )
        self._persist_create(managed)
        self._publish_lifecycle(managed, "session_created")
        return managed

    def _resume_session(
        self,
        payload: dict[str, Any],
        instance: Instance,
        index: SignatureIndex,
    ) -> InferenceSession:
        try:
            return core_resume_session(
                payload, instance=instance, index=index
            )
        except (SnapshotError, ValueError, KeyError, TypeError) as exc:
            raise BadRequest(f"cannot resume snapshot: {exc}") from exc

    @staticmethod
    def _snapshot_instance_spec(payload: dict[str, Any]) -> dict[str, Any]:
        if not isinstance(payload, dict) or "labeled" not in payload:
            raise BadRequest("expected a session_snapshot payload")
        instance_spec = payload.get("instance")
        if not isinstance(instance_spec, dict):
            raise BadRequest("snapshot carries no instance spec")
        return instance_spec

    async def resume_async(
        self, payload: dict[str, Any], session_id: str | None = None
    ) -> ManagedSession:
        """Open a session by replaying a snapshot payload.  The cold
        index build *and* the label replay happen off-loop — replaying
        a long snapshot steps the strategy once per label, which is
        O(snapshot), not O(1)."""
        self._check_session_id(session_id)
        instance_spec = self._snapshot_instance_spec(payload)
        self._ensure_capacity()
        instance, index, hit = await self._index_for_spec_async(
            instance_spec, None
        )
        session = await self._heavy_offload(
            self._resume_session, payload, instance, index
        )
        managed = self._admit(
            self._build(
                session, instance_spec, hit, session_id=session_id
            )
        )
        self._persist_create(managed)
        self._publish_lifecycle(managed, "session_resumed")
        return managed

    @staticmethod
    def snapshot(managed: ManagedSession) -> dict[str, Any]:
        """The resumable state of one session as a JSON payload.

        Takes the session a caller holds (the HTTP handler, under its
        lock) rather than an id: looking the id up again could find it
        demoted in the meantime and rehydrate it."""
        return snapshot_payload(
            managed.session, instance_ref=managed.instance_spec
        )

    # --- event emission ------------------------------------------------------

    def dashboard(self) -> dict[str, Any]:
        """``GET /dashboard``: the incrementally maintained aggregates —
        a dict copy of running counters, with no sweep, no store scan
        and no per-session iteration on the request path."""
        payload = self.events.dashboard.payload(self.events)
        payload["totals"]["sessions_live"] = len(self._sessions)
        return payload

    def _publish_lifecycle(
        self, managed: ManagedSession, kind: str
    ) -> None:
        """One session-lifecycle event (created/resumed/rehydrated/
        demoted/deleted/expired) onto the session's feed (and, like
        every publish, the service-wide feed + dashboard)."""
        self.events.publish(
            managed.session_id,
            kind,
            {
                "session_id": managed.session_id,
                "strategy": managed.session.strategy.name,
                "durable": managed.durable,
                "progress": progress_payload(managed.session),
            },
        )

    def _publish_question(
        self, managed: ManagedSession, question: Question
    ) -> None:
        """A freshly proposed question: the push event streaming clients
        consume instead of polling ``GET /question``.  Carries the full
        question payload, how its entropy table was resolved
        (``source``), the strategy's planner progress (mode, last
        skyline entropy) and the session's progress."""
        session = managed.session
        source = managed.pending_source
        managed.pending_source = None
        self.events.publish(
            managed.session_id,
            "question",
            {
                "session_id": managed.session_id,
                "strategy": session.strategy.name,
                "source": source or "inline",
                "planner": session.strategy.progress(),
                "progress": progress_payload(session),
                **question_payload(session, question),
            },
        )

    def _publish_answer(
        self,
        managed: ManagedSession,
        question_id: int,
        example: Example,
        hit: bool,
    ) -> None:
        """One recorded answer (and, when Γ now holds, the terminal
        ``done`` event).  ``removed_classes`` comes straight from the
        session's :class:`~repro.core.state.StateDelta` — the informative
        classes this label eliminated."""
        session = managed.session
        delta = session.last_delta
        removed = (
            int(delta.removed.size)
            if delta is not None and delta.removed is not None
            else None
        )
        self.events.publish(
            managed.session_id,
            "answer",
            {
                "session_id": managed.session_id,
                "strategy": session.strategy.name,
                "question_id": question_id,
                "label": str(example.label),
                "speculation_hit": hit,
                "removed_classes": removed,
                "planner": session.strategy.progress(),
                "progress": progress_payload(session),
            },
        )
        if session.is_finished():
            self.events.publish(
                managed.session_id,
                "done",
                {
                    "session_id": managed.session_id,
                    "strategy": session.strategy.name,
                    "interactions": session.state.interaction_count,
                    "progress": progress_payload(session),
                },
            )

    # --- question round-trips (with speculative precompute) ------------------

    def propose_question(self, managed: ManagedSession) -> Question | None:
        """The session's next question, kicking off speculation for it.

        Must run under the session's lock (the app does).  Idempotent
        like :meth:`InferenceSession.propose`: re-fetching the pending
        question neither consults the strategy again nor re-submits
        speculation jobs.
        """
        question = managed.session.propose()
        if question is not None:
            fresh = managed.question_sent_id != question.question_id
            if fresh:
                # newly proposed (not an idempotent re-fetch): the
                # think-time clock starts now, and the speculation
                # decision is made exactly once — so a polling client
                # neither re-runs the skip gates nor skews the counters
                managed.question_sent_id = question.question_id
                managed.question_sent_at = self._clock()
                # Streamed before speculation forks: subscribers get the
                # push the moment the proposal resolves.
                self._publish_question(managed, question)
                if self.speculate:
                    self._speculate(managed, question)
        return question

    async def propose_question_async(
        self, managed: ManagedSession
    ) -> Question | None:
        """Server path for ``GET /question``: when the proposal will
        run an entropy kernel, the table is resolved *off-loop* first —
        a plan-cache probe (both tiers), then the shared batcher
        (coalescing with other sessions' concurrent proposals), then a
        per-session compute — and primed into the strategy so the
        ordinary synchronous path consumes it without blocking the
        event loop.  Runs under the session lock (the app holds it),
        so the state cannot move between submission and propose."""
        session = managed.session
        strategy = session.strategy
        if (
            (self._batcher is not None or self.plan_cache is not None)
            and session.pending_question is None
            and isinstance(strategy, LookaheadSkylineStrategy)
            and strategy.entropy_router is not None
            and not session.is_finished()
            and session.state.has_informative()
        ):
            planner = strategy.planner_for(session.state)
            plan_key: str | None = None
            entropies = None
            source = None
            if self.plan_cache is not None:

                def probe():
                    key = self._plan_key(planner)
                    return key, self.plan_cache.get(key)

                plan_key, entropies = await self.offload(probe)
                if entropies is not None:
                    source = "plan_cache"
            if entropies is None and self._batcher is not None:
                try:
                    future = self._batcher.submit(
                        id(session.index), planner, plan_key=plan_key
                    )
                    entropies = await asyncio.wrap_future(future)
                    source = "batched"
                except (RuntimeError, CancelledError):
                    entropies = None  # closed batcher: inline path
            elif entropies is None and plan_key is not None:
                # Plan cache on, batcher off: run the kernel off-loop
                # and write it through both tiers.
                def compute(key=plan_key):
                    table = planner.entropies()
                    self.plan_cache.install(key, table)
                    return table

                entropies = await self._heavy_offload(compute)
                source = "computed"
            if entropies is not None:
                strategy.prime_entropies(session.state, entropies)
                # How this table was resolved, for the question event.
                managed.pending_source = source
        return self.propose_question(managed)

    def record_answer(
        self, managed: ManagedSession, question_id: int, label: Label
    ) -> Example:
        """Record the user's label, swapping in a precomputed branch.

        On a speculation hit the matching fork — which already recorded
        the label *and* proposed the next question — becomes the live
        session, so the answer and the follow-up question fetch are both
        lookups.  On a miss (branch still computing) or with speculation
        off, the label takes the ordinary inline path.  Raises exactly
        what :meth:`InferenceSession.answer` raises; an answer with a
        stale question id leaves the speculation intact for the retry,
        while an answer the sample rejects (only possible when a custom
        strategy proposed an already-certain class) has spent the
        question's speculation and retries inline.

        Every accepted answer publishes an ``answer`` event (and, when
        Γ now holds, a ``done`` event) on the session's feed; a
        rejected one publishes nothing.
        """
        example, hit = self._record_answer(managed, question_id, label)
        self._publish_answer(managed, question_id, example, hit)
        return example

    def _record_answer(
        self, managed: ManagedSession, question_id: int, label: Label
    ) -> tuple[Example, bool]:
        """The recording itself; returns ``(example, speculation_hit)``."""
        self._observe_think_time(managed, question_id)
        # The pending question's class id is what the journal records;
        # captured before a speculation hit swaps in the fork (which has
        # already answered and cleared its pending question).
        pending = managed.session.pending_question
        spec = managed.speculation
        if spec is None or spec.question_id != question_id:
            # No speculation for this id.  A mismatched id is rejected by
            # the session below without touching the live speculation.
            example = managed.session.answer(question_id, label)
            self._journal_answer(managed, pending.class_id, label)
            return example, False
        managed.speculation = None
        for branch_label, branch in spec.branches.items():
            if branch_label is not label:
                branch.cancel()
        branch = spec.branches.get(label)
        outcome = None
        if (
            branch is not None
            and branch.future.done()
            and not branch.future.cancelled()
        ):
            try:
                outcome = branch.future.result()
            except Exception:  # noqa: BLE001 - fall back to the inline path
                outcome = None
                # Counted separately from misses: erroring branches mean
                # a fork/planner bug, not an oracle winning the race.
                with self._spec_lock:
                    self._spec_branch_errors += 1
        if outcome is not None:
            example, twin = outcome
            managed.session = twin
            with self._spec_lock:
                self._spec_hits += 1
                self._spec_hits_by_depth[branch.depth] = (
                    self._spec_hits_by_depth.get(branch.depth, 0) + 1
                )
            self._adopt_children(managed, branch, twin)
            self._journal_answer(managed, pending.class_id, label)
            # The adopted fork's pending question was precomputed by
            # the speculation tree — the question event says so.
            managed.pending_source = "speculation"
            return example, True
        if branch is not None:
            branch.cancel()
        with self._spec_lock:
            self._spec_misses += 1
            depth = branch.depth if branch is not None else 1
            self._spec_misses_by_depth[depth] = (
                self._spec_misses_by_depth.get(depth, 0) + 1
            )
        example = managed.session.answer(question_id, label)
        self._journal_answer(managed, pending.class_id, label)
        return example, False

    @staticmethod
    def _adopt_children(
        managed: ManagedSession,
        branch: _SpeculativeBranch,
        twin: InferenceSession,
    ) -> None:
        """A hit's precomputed grandchild branches become the *next*
        question's speculation outright — answer→question→answer then
        collapses to two lookups, no new forks submitted."""
        if branch.children and twin.pending_question is not None:
            managed.speculation = Speculation(
                twin.pending_question.question_id, branch.children
            )
        else:
            for child in branch.children.values():
                child.cancel()

    def _observe_think_time(
        self, managed: ManagedSession, question_id: int
    ) -> None:
        """Fold the question→answer gap into the session's EWMA.

        Each question is observed at most once — the clock is consumed
        here, so a duplicate/retried answer POST cannot fold the same
        question's (by then much larger) gap in a second time.
        """
        if (
            managed.question_sent_at is None
            or managed.question_sent_id != question_id
        ):
            return
        gap = self._clock() - managed.question_sent_at
        managed.question_sent_at = None
        if managed.think_ewma is None:
            managed.think_ewma = gap
        else:
            managed.think_ewma = 0.5 * managed.think_ewma + 0.5 * gap

    def _speculate(
        self, managed: ManagedSession, question: Question
    ) -> None:
        """Precompute the answer tree for the pending question."""
        if not managed.session.strategy.speculative:
            return  # proposal is cheaper than a fork — nothing to hide
        spec = managed.speculation
        if spec is not None and spec.question_id == question.question_id:
            # Already in flight for this very question — or *adopted*
            # from a hit branch's precomputed grandchildren.  Checked
            # before every other gate so an adopted tree is neither
            # dropped nor run through the skip counters.
            return
        if (
            managed.think_ewma is not None
            and managed.think_ewma < self.speculation_min_think_seconds
        ):
            # The oracle answers faster than a branch could compute —
            # a zero-think-time client (load generator, script) gains
            # nothing and a fork is pure overhead.  The first question
            # always speculates (optimistic start, no gap observed yet).
            with self._spec_lock:
                self._spec_skipped_think += 1
            return
        if self.index_cache.pending_builds():
            # A cold index build — mandatory, user-visible work — is on
            # (or queued for) the build pool; droppable speculation must
            # not delay it (priority inversion).
            with self._spec_lock:
                self._spec_skipped += 1
            return
        self._drop_speculation(managed)
        branches = self._spawn_branches(
            managed.session, question.question_id, depth=1
        )
        if branches is None:
            return
        with self._spec_lock:
            self._spec_submitted += 1
        managed.speculation = Speculation(question.question_id, branches)

    def _spawn_branches(
        self,
        session: InferenceSession,
        question_id: int,
        depth: int,
    ) -> dict[Label, _SpeculativeBranch] | None:
        """Fork ``session`` and submit both answer branches at ``depth``,
        slot-gated as one pair; ``None`` when capacity declined them.

        Called from the event-loop side for the root pair and from
        branch workers for grandchildren — the slot ledger is the only
        shared state, and every submitted node releases its slot via
        the done callback regardless of which side spawned it."""
        with self._spec_lock:
            if self._spec_inflight + 2 > self.speculation_slots:
                self._spec_skipped += 1
                return None
            self._spec_inflight += 2
        branches: dict[Label, _SpeculativeBranch] = {}
        for branch_label in (Label.POSITIVE, Label.NEGATIVE):
            node = _SpeculativeBranch(depth=depth)
            twin = session.fork()
            try:
                node.future = self._build_executor.submit(
                    self._speculate_branch,
                    twin,
                    question_id,
                    branch_label,
                    node,
                )
            except RuntimeError:
                # Executor shut down mid-spawn: reap what made it out
                # (their done callbacks release those slots) and hand
                # back the unsubmitted reservations ourselves.
                for submitted in branches.values():
                    submitted.cancel()
                with self._spec_lock:
                    self._spec_inflight -= 2 - len(branches)
                return None
            node.future.add_done_callback(self._branch_finished)
            branches[branch_label] = node
        return branches

    def _branch_finished(self, _future: Future) -> None:
        with self._spec_lock:
            self._spec_inflight -= 1

    def _speculate_branch(
        self,
        twin: InferenceSession,
        question_id: int,
        label: Label,
        node: _SpeculativeBranch,
    ) -> tuple[Example, InferenceSession] | None:
        """Answer the fork with one hypothetical label and propose the
        follow-up question; abort checkpoints keep a cancelled branch
        from burning a full lookahead step.

        Below ``speculation_depth`` a finished branch fans out again,
        precomputing *its* answer pair (the grandchild level of the
        tree).  The worker attaches the children and then re-checks
        abort — mirroring ``cancel``'s set-then-walk — so a
        cancellation racing the attach always reaps them."""
        abort = node.abort
        if abort.is_set():
            return None
        example = twin.answer(question_id, label)
        if abort.is_set():
            return None
        next_question = twin.propose()
        if (
            next_question is not None
            and node.depth < self.speculation_depth
            and not abort.is_set()
        ):
            children = self._spawn_branches(
                twin, next_question.question_id, depth=node.depth + 1
            )
            if children is not None:
                node.children = children
                if abort.is_set():
                    for child in children.values():
                        child.cancel()
        return example, twin

    @staticmethod
    def _drop_speculation(managed: ManagedSession) -> None:
        if managed.speculation is not None:
            managed.speculation.cancel()
            managed.speculation = None

    # --- durable store plumbing ----------------------------------------------

    @property
    def _leasing(self) -> bool:
        return self.store is not None and self.owner_id is not None

    def _ensure_heartbeat(self) -> None:
        """Start the lease-renewal thread (once, lazily, leasing only).

        One daemon thread renews every held lease at a third of the TTL
        so a live worker never expires; a worker that stops renewing —
        SIGKILL, hard hang — loses its leases one TTL later and the
        survivors take its sessions over."""
        if not self._leasing or self._heartbeat_thread is not None:
            return
        self._heartbeat_stop.clear()
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop,
            name="lease-heartbeat",
            daemon=True,
        )
        self._heartbeat_thread.start()

    def _heartbeat_loop(self) -> None:
        interval = self.lease_ttl_seconds / 3.0
        while not self._heartbeat_stop.wait(interval):
            # Snapshot: the event loop owns self._sessions; this thread
            # only flips per-session flags, never mutates the dict.
            for managed in list(self._sessions.values()):
                if (
                    not managed.durable
                    or managed.lease_lost
                    or managed.lease_epoch is None
                ):
                    continue
                try:
                    renewed = self.store.renew_lease(
                        managed.session_id,
                        self.owner_id,
                        managed.lease_epoch,
                        self.lease_ttl_seconds,
                    )
                except Exception:  # noqa: BLE001 - keep heartbeating others
                    continue
                if not renewed:
                    self._mark_lease_lost(managed)

    def _mark_lease_lost(self, managed: ManagedSession) -> None:
        """Another owner took this session: stop writing immediately
        and flag it for shedding (the dict entry is removed on the
        event loop, in :meth:`_shed_lease_lost`)."""
        with managed.store_lock:
            managed.store_ops.clear()
        managed.lease_lost = True
        managed.durable = False
        self._demoted.discard(managed.session_id)
        self._leases_lost += 1

    def _shed_lease_lost(self, session_id: str) -> None:
        """Drop a deposed session from memory (event loop only).

        Its durable state now belongs to the lease's new owner, so the
        store row is left strictly alone; a later touch goes through
        the ordinary rehydrate path and competes for the lease again."""
        managed = self._sessions.get(session_id)
        if managed is not None and managed.lease_lost:
            self._drop_speculation(managed)
            del self._sessions[session_id]

    def _persist_create(self, managed: ManagedSession) -> None:
        """Write the session's create record (checkpoint at admission).

        Unseeded sessions cannot snapshot, hence cannot be journaled —
        they stay non-durable and keep the delete-on-evict behaviour.
        Under leasing the queue leads with an ``acquire`` op, so the
        lease (and its fencing epoch) is in hand before the create
        checkpoint — or any later answer — touches the store.
        """
        if self.store is None or managed.session.seed is None:
            return
        managed.durable = True
        seq = managed.session.state.interaction_count
        managed.store_seq = seq
        managed.checkpoint_seq = seq
        if self._leasing:
            self._enqueue_store_op(managed, ("acquire",))
            self._ensure_heartbeat()
        self._enqueue_store_op(
            managed, ("checkpoint", self.snapshot(managed), seq)
        )
        self._kick_flush(managed)

    def _journal_answer(
        self, managed: ManagedSession, class_id: int, label: Label
    ) -> None:
        """Enqueue one accepted answer (and, on cadence, a checkpoint)."""
        if not managed.durable:
            return
        managed.store_seq += 1
        seq = managed.store_seq
        self._enqueue_store_op(
            managed, ("answer", seq, class_id, str(label))
        )
        if seq - managed.checkpoint_seq >= self.checkpoint_every:
            managed.checkpoint_seq = seq
            self._enqueue_store_op(
                managed,
                ("checkpoint", self.snapshot(managed), seq),
            )
        self._kick_flush(managed)

    def _enqueue_store_op(
        self, managed: ManagedSession, op: tuple
    ) -> None:
        with managed.store_lock:
            managed.store_ops.append(op)

    def _kick_flush(self, managed: ManagedSession) -> None:
        """Submit a drain job unless one is already in flight
        (per-session single-flight: a burst of answers becomes one
        batched store transaction)."""
        with managed.store_lock:
            if managed.store_flushing or not managed.store_ops:
                return
            managed.store_flushing = True
        self._store_executor.submit(self._drain_store_ops, managed)

    def _drain_store_ops(self, managed: ManagedSession) -> None:
        """Flush everything queued for one session (writer thread).

        Loops until the queue is empty so ops enqueued while a batch was
        writing are picked up by the same job — the single-flight
        guarantee.  Consecutive answers collapse into one journal
        transaction.  A store failure marks the session non-durable
        (and drops its queue) rather than erroring the answer path
        forever; the error is counted for ``GET /stats``.
        """
        store = self.store
        while True:
            with managed.store_lock:
                ops = managed.store_ops[:]
                managed.store_ops.clear()
                if not ops:
                    managed.store_flushing = False
                    return
            try:
                answers: list[tuple[int, int, str]] = []
                for op in ops:
                    if op[0] == "answer":
                        answers.append(op[1:])
                        continue
                    if answers:
                        store.append_answers(
                            managed.session_id,
                            answers,
                            fence=self._fence_of(managed),
                        )
                        answers = []
                    if op[0] == "acquire":
                        self._drain_acquire(managed)
                        continue
                    if op[0] == "release":
                        # The epoch stays set: a late answer drained
                        # after the release is still fenced, so it
                        # commits only if nobody took the lease over.
                        if managed.lease_epoch is not None:
                            store.release_lease(
                                managed.session_id,
                                self.owner_id,
                                managed.lease_epoch,
                            )
                        continue
                    store.put_checkpoint(
                        managed.session_id,
                        op[1],
                        op[2],
                        fence=self._fence_of(managed),
                    )
                if answers:
                    store.append_answers(
                        managed.session_id,
                        answers,
                        fence=self._fence_of(managed),
                    )
            except LeaseFenced:
                # Deposed: another worker holds the lease now and owns
                # the stored row — dropping OUR queue is mandatory,
                # touching THEIR data is forbidden (no delete here,
                # unlike the generic-failure arm below).
                with managed.store_lock:
                    managed.store_flushing = False
                self._mark_lease_lost(managed)
                self._fenced_total += 1
                return
            except Exception:  # noqa: BLE001 - durability must not kill serving
                with managed.store_lock:
                    managed.store_ops.clear()
                    managed.store_flushing = False
                managed.durable = False
                self._store_errors += 1
                self._demoted.discard(managed.session_id)
                try:
                    # The row now trails the live session; left behind,
                    # a later eviction-then-touch (or a DELETE, which
                    # skips the store for non-durable sessions) would
                    # resurrect a silently rolled-back copy.  Under
                    # leasing the row is deleted only while we still
                    # hold the lease (released here, atomically): if a
                    # takeover already happened, the row is the new
                    # owner's to keep.
                    if self._leasing:
                        epoch = managed.lease_epoch
                        managed.lease_epoch = None
                        if epoch is not None and self.store.release_lease(
                            managed.session_id, self.owner_id, epoch
                        ):
                            self.store.delete(managed.session_id)
                    else:
                        self.store.delete(managed.session_id)
                except Exception:  # noqa: BLE001 - store is already failing
                    pass
                return

    def _fence_of(self, managed: ManagedSession) -> tuple[str, int] | None:
        """The (owner, epoch) stamp for this session's store writes —
        None outside a fleet, so single-process stores never pay the
        per-write lease lookup."""
        if not self._leasing or managed.lease_epoch is None:
            return None
        return (self.owner_id, managed.lease_epoch)

    def _drain_acquire(self, managed: ManagedSession) -> None:
        """Process a queued ``acquire`` op (writer thread).

        A fresh session id cannot be contended, so a denial means the
        id is deliberately reused while another worker still holds it —
        surfaced as :class:`LeaseFenced` so the shared failure arm
        sheds the session without touching the holder's data."""
        lease = self.store.acquire_lease(
            managed.session_id, self.owner_id, self.lease_ttl_seconds
        )
        if lease is None:
            self._lease_denied += 1
            raise LeaseFenced(
                f"session {managed.session_id!r}: lease denied — held "
                f"by another live owner"
            )
        managed.lease_epoch = lease.epoch

    def flush_store(self) -> None:
        """Block until every enqueued store op has committed: kick every
        live session's drain, then wait for one no-op job on the writer.

        The durability barrier of a drain: every server's shutdown and
        ``POST /control/demote`` run it off-loop before they go on.
        Embedders and tests use it before deliberately killing the
        process.  Answers and creates do not wait for it.
        """
        for managed in list(self._sessions.values()):
            self._kick_flush(managed)
        self._store_executor.submit(lambda: None).result()

    async def _load_stored(
        self, session_id: str
    ) -> tuple[StoredSession | None, int | None]:
        """A stored session (``None`` if there is none) and the lease
        epoch granted for it (``None`` outside a fleet), read by a
        writer job.  Under leasing the job acquires the lease before it
        loads, fencing out any late flush of the previous owner.  While
        another owner's lease stands, each writer job makes one attempt
        and the wait between attempts sleeps on the event loop, holding
        no pool thread; after twice the TTL the touch is refused with
        409, never served from a contended copy."""
        deadline = time.time() + self.lease_ttl_seconds * 2.0
        while True:
            try:
                return await self._on_writer(
                    self._acquire_and_load, session_id
                )
            except Conflict:
                if time.time() >= deadline:
                    self._lease_denied += 1
                    raise
            await asyncio.sleep(min(0.05, self.lease_ttl_seconds / 10))

    def _acquire_and_load(
        self, session_id: str
    ) -> tuple[StoredSession | None, int | None]:
        """One load attempt (writer thread); under leasing, raises
        :class:`Conflict` while another owner's lease stands."""
        if not self._leasing:
            return self.store.load(session_id), None
        if session_id not in self.store:
            return None, None
        lease = self.store.acquire_lease(
            session_id, self.owner_id, self.lease_ttl_seconds
        )
        if lease is None:
            raise Conflict(
                f"session {session_id!r} is leased to another worker; "
                f"retry shortly"
            )
        return self.store.load(session_id), lease.epoch

    def _admit_rehydrated(
        self,
        session_id: str,
        session: InferenceSession,
        instance_spec: dict[str, Any],
        cache_hit: bool,
        stored: StoredSession,
        epoch: int | None,
    ) -> ManagedSession:
        managed = self._build(
            session, instance_spec, cache_hit, session_id=session_id
        )
        managed.durable = True
        managed.store_seq = stored.journal_seq
        managed.checkpoint_seq = stored.checkpoint_seq
        managed.lease_epoch = epoch
        self._ensure_heartbeat()
        self._admit(managed)
        self._demoted.discard(session_id)
        self._rehydrated_total += 1
        self._publish_lifecycle(managed, "session_rehydrated")
        return managed

    async def _drive_rehydrate(
        self, session_id: str, future: asyncio.Future
    ) -> None:
        """Run one rehydration to completion and settle its future
        (cache-owned task, same pattern as the index cache's builds:
        cancelling one waiter never abandons the rehydration)."""
        try:
            stored, epoch = await self._load_stored(session_id)
            if stored is None:
                raise NotFound(f"no session {session_id!r}")
            instance_spec = self._snapshot_instance_spec(stored.payload)
            self._ensure_capacity()
            instance, index, hit = await self._index_for_spec_async(
                instance_spec, None
            )
            session = await self._heavy_offload(
                self._resume_session, stored.payload, instance, index
            )
            if session_id in self._rehydrate_tombstones:
                # Deleted while we were replaying: do not resurrect.
                raise NotFound(f"no session {session_id!r}")
            managed = self._admit_rehydrated(
                session_id, session, instance_spec, hit, stored, epoch
            )
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                future.exception()
            if isinstance(exc, asyncio.CancelledError):
                raise
        else:
            if not future.done():
                future.set_result(managed)
        finally:
            self._rehydrating.pop(session_id, None)
            self._rehydrate_tombstones.discard(session_id)

    # --- lookup --------------------------------------------------------------

    def _touch_live_durable(self, session_id: str) -> ManagedSession | None:
        """Short-circuit for a *durable* session still in memory.

        Touched exactly at TTL expiry, sweeping first would demote it
        and the same call would immediately rehydrate it — a flush
        wait, store load and full replay reconstructing the state that
        is one dict lookup away (and dropping the pending question on
        the floor).  Touching IS the TTL reset, so the durable session
        is revived in place instead.  Non-durable sessions keep the
        sweep-first semantics: expired means gone."""
        managed = self._sessions.get(session_id)
        if managed is not None and managed.durable:
            managed.last_used = self._clock()
            return managed
        return None

    async def get_async(self, session_id: str) -> ManagedSession:
        """The live session with this id (touches its TTL clock).

        With a store attached, a demoted or recoverable session is
        transparently rehydrated off the loop (store read on the
        writer thread, label replay on the build pool) behind
        per-session single-flight — two concurrent touches of one
        demoted session trigger exactly one replay."""
        self._shed_lease_lost(session_id)
        managed = self._touch_live_durable(session_id)
        if managed is not None:
            self.sweep()
            return managed
        self.sweep()
        managed = self._sessions.get(session_id)
        if managed is not None:
            managed.last_used = self._clock()
            return managed
        if self.store is None:
            raise NotFound(f"no session {session_id!r}")
        pending = self._rehydrating.get(session_id)
        if pending is None:
            loop = asyncio.get_running_loop()
            pending = loop.create_future()
            self._rehydrating[session_id] = pending
            task = loop.create_task(
                self._drive_rehydrate(session_id, pending)
            )
            self._rehydrate_tasks.add(task)
            task.add_done_callback(self._rehydrate_tasks.discard)
        managed = await asyncio.shield(pending)
        managed.last_used = self._clock()
        return managed

    async def delete_async(self, session_id: str) -> None:
        """Drop a session — and, when a store is attached, forget its
        durable state too; unknown ids raise :class:`NotFound`.  The
        store existence probe for a non-live id is a writer job, so it
        never stalls the event loop and it sees an earlier delete of
        the id: a second delete raises.  The row delete is awaited
        behind every op the session queued, so ``session_deleted`` is
        published only once it has committed, and a failed delete is
        counted in ``flush_errors`` and raised with every acknowledged
        answer still in the row."""
        managed = self._sessions.pop(session_id, None)
        if managed is None:
            if self.store is None or not await self._on_writer(
                self.store.__contains__, session_id
            ):
                raise NotFound(f"no session {session_id!r}")
            # A touch may have rehydrated it while the probe ran.
            managed = self._sessions.pop(session_id, None)
        if managed is None:
            if session_id in self._rehydrating:
                # A touch is replaying this session right now; mark it
                # so the rehydrate task refuses to admit it.
                self._rehydrate_tombstones.add(session_id)
            self._demoted.discard(session_id)
            await self._on_writer(self._delete_row, session_id)
            self.events.publish(
                session_id,
                "session_deleted",
                {"session_id": session_id, "stored": True},
            )
            return
        self._drop_speculation(managed)
        if managed.durable:
            # Journal no more answers; the ones queued commit first.
            managed.durable = False
            await self._on_writer(self._delete_row, session_id)
        self._publish_lifecycle(managed, "session_deleted")

    def _delete_row(self, session_id: str) -> None:
        """Delete a stored session (writer thread, so behind every op
        queued before it); a failure is counted and raised."""
        try:
            self.store.delete(session_id)
        except Exception:
            self._store_errors += 1
            raise

    def list_sessions(self) -> list[ManagedSession]:
        """All live sessions, oldest first."""
        self.sweep()
        return sorted(
            self._sessions.values(), key=lambda m: m.created_at
        )

    async def session_counts_async(self) -> dict[str, int]:
        """Live/demoted/recoverable tallies for ``GET /sessions``.

        *live* sessions are in memory; *demoted* ones were evicted to
        the store by this process and rehydrate on touch; *recoverable*
        is every stored session that is not currently live — demoted
        ones plus sessions left by a previous (possibly crashed)
        process on the same store.  The id scan is a writer job, so it
        never stalls the event loop and runs after every queued flush
        and delete: a deleted id is not counted.
        """
        self.sweep()
        stored_ids = (
            await self._on_writer(self.store.session_ids)
            if self.store is not None
            else ()
        )
        return {
            "live": len(self._sessions),
            "demoted": len(self._demoted),
            "recoverable": len(set(stored_ids).difference(self._sessions)),
        }

    def __len__(self) -> int:
        return len(self._sessions)

    def builds(self) -> list[dict[str, Any]]:
        """Progress of every in-flight index build (for ``GET /builds``)."""
        return self.index_cache.pending_builds()

    async def stats_async(self) -> dict[str, Any]:
        """Server path for ``GET /stats``: the store's counter scan is
        a writer job, off the event loop and after every store op
        queued before it, so it counts every acknowledged answer."""
        store_stats = (
            await self._on_writer(self.store.stats)
            if self.store is not None
            else None
        )
        return self.stats(_store_stats=store_stats)

    def stats(
        self, _store_stats: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        """Server counters for the stats endpoint (waits for the writer)."""
        self.sweep()
        with self._spec_lock:
            hits, misses = self._spec_hits, self._spec_misses
            hits_by_depth: dict[str, int] = {}
            misses_by_depth: dict[str, int] = {}
            ratio_by_depth: dict[str, float] = {}
            for level in range(1, self.speculation_depth + 1):
                h = self._spec_hits_by_depth.get(level, 0)
                m = self._spec_misses_by_depth.get(level, 0)
                hits_by_depth[str(level)] = h
                misses_by_depth[str(level)] = m
                ratio_by_depth[str(level)] = round(h / max(1, h + m), 4)
            speculation = {
                "enabled": self.speculate,
                "depth": self.speculation_depth,
                "slots": self.speculation_slots,
                "min_think_seconds": self.speculation_min_think_seconds,
                "in_flight": self._spec_inflight,
                "submitted": self._spec_submitted,
                "hits": hits,
                "misses": misses,
                "skipped_capacity": self._spec_skipped,
                "skipped_think": self._spec_skipped_think,
                "branch_errors": self._spec_branch_errors,
                "hit_ratio": round(hits / max(1, hits + misses), 4),
                "hits_by_depth": hits_by_depth,
                "misses_by_depth": misses_by_depth,
                "hit_ratio_by_depth": ratio_by_depth,
            }
        kernel_batch: dict[str, Any] = {
            "enabled": self._batcher is not None
        }
        if self._batcher is not None:
            kernel_batch.update(self._batcher.stats())
        plan_cache: dict[str, Any] = {
            "enabled": self.plan_cache is not None
        }
        if self.plan_cache is not None:
            plan_cache.update(self.plan_cache.stats())
        store: dict[str, Any] = {"enabled": self.store is not None}
        if self.store is not None:
            if _store_stats is None:
                _store_stats = self._store_executor.submit(
                    self.store.stats
                ).result()
            store.update(_store_stats)
            store.update(
                checkpoint_every=self.checkpoint_every,
                demoted=len(self._demoted),
                demotions_total=self._demotions_total,
                rehydrations_total=self._rehydrated_total,
                flush_errors=self._store_errors,
            )
            if self._leasing:
                store["lease"] = {
                    "owner": self.owner_id,
                    "ttl_seconds": self.lease_ttl_seconds,
                    "held": sum(
                        1
                        for m in self._sessions.values()
                        if m.lease_epoch is not None
                    ),
                    "fenced_writes": self._fenced_total,
                    "lost": self._leases_lost,
                    "denied": self._lease_denied,
                }
        resident = self.index_cache.resident_bytes()
        memory = {
            "rss_bytes": _process_rss_bytes(),
            "index_private_bytes": resident["private_bytes"],
            "index_shared_bytes": resident["shared_bytes"],
        }
        return {
            "sessions": len(self._sessions),
            "max_sessions": self.max_sessions,
            "ttl_seconds": self.ttl_seconds,
            "expired_total": self._expired_total,
            "build_workers": self.build_workers,
            "memory": memory,
            "speculation": speculation,
            "kernel_batch": kernel_batch,
            "plan_cache": plan_cache,
            "store": store,
            "index_cache": self.index_cache.stats(),
        }
