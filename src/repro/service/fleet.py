"""The multi-process serving fleet: leased-session workers + supervisor.

One interpreter — however well batched — is one GIL.  The fleet
multiplies the per-process wins (shared index cache, batched kernels,
speculation trees) by the core count: a front router (see
:mod:`~repro.service.router`) proxies the public HTTP/JSON protocol,
unchanged, to N **worker subprocesses**, each a full
:class:`~repro.service.manager.SessionManager` +
:class:`~repro.service.app.ServiceApp` stack listening on its own
localhost port.  Sessions are partitioned by session-id hash and pinned
to their owning worker, so a session's state never needs to be shared —
only its *durable* journal is, through one
:class:`~repro.service.store.SqliteSessionStore` file all workers open
(WAL mode, busy-retry).

Ownership is the store's lease protocol (PR 7): each worker claims its
sessions under a unique ``owner_id`` per incarnation, heartbeats the
leases, and stamps every journal flush with its fencing epoch.  Kill a
worker with ``kill -9`` and nothing is lost: its leases stop renewing,
the router fails the affected requests over to a survivor, the survivor
waits out the lease, takes it over (epoch bump — the dead worker's
late flushes, were any still buffered, are fenced out) and rehydrates
the session bit-for-bit from the checkpoint + journal tail.  Meanwhile
the supervisor respawns the dead slot and the router rebalances the
displaced sessions home.

This module is both sides of the process boundary:

* :func:`manager_from_config` builds every served manager, solo or
  worker.  Only fleet workers join the ``/dev/shm`` tiers (the shared
  index plane and the shared plan tier): a solo server has no sibling
  to share with.
* ``python -m repro.service.fleet_worker '<json-config>'`` is the
  **worker** entry point: build the manager over the shared store and
  run it through :func:`~repro.service.app.serve`, the lifecycle every
  server process shares, with the control route enabled: announce
  ``FLEET_WORKER_READY port=N`` on stdout, and on SIGTERM drain like
  any stopped server (demote every durable session, flush its journal
  tail, release every lease) before exiting.
* :class:`Fleet` is the **supervisor** the router embeds: spawn the
  worker subprocesses, watch them, respawn dead slots, and on the
  router's shutdown SIGTERM them all — the fleet's whole drain.
* :class:`FleetServer` is router + fleet on the background-thread
  harness :class:`~repro.service.app.ServerThread`, which
  :class:`~repro.service.app.ServiceServer` uses too, for tests,
  benchmarks and embedders.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Awaitable, Callable

from .app import ServerThread, ServiceApp, serve

__all__ = [
    "FleetConfig",
    "Fleet",
    "FleetServer",
    "WorkerHandle",
    "manager_from_config",
    "worker_main",
]

_READY_PATTERN = re.compile(rb"FLEET_WORKER_READY port=(\d+)")

#: Seconds a spawned worker has to announce readiness.
_SPAWN_TIMEOUT = 60.0

#: Seconds a SIGTERMed worker has to drain before it is SIGKILLed.
_TERMINATE_TIMEOUT = 15.0


@dataclass(frozen=True, slots=True)
class FleetConfig:
    """Everything needed to spawn and serve one worker fleet.

    ``store_path`` is the shared SQLite file — the fleet's only shared
    mutable state; every other field is per-worker configuration passed
    down verbatim to :func:`manager_from_config`, which a solo server
    calls with the same settings.  ``lease_ttl_seconds`` bounds takeover
    latency after a worker is SIGKILLed: survivors can claim its
    sessions one TTL after its last heartbeat."""

    store_path: str
    workers: int = 2
    host: str = "127.0.0.1"
    lease_ttl_seconds: float = 10.0
    checkpoint_every: int = 16
    max_sessions: int = 256
    ttl_seconds: float | None = 3600.0
    #: Distinct instances whose indexes stay cached in each worker.
    index_cache_size: int = 16
    build_workers: int = 1
    speculate: bool = True
    kernel_batch: bool = True
    #: Memoise planner entropy tables per worker and share them between
    #: the workers through ``/dev/shm`` (see
    #: :mod:`repro.service.plan_registry`): each (index, state, depth)
    #: table is computed by one worker and attached by the rest.
    plan_cache: bool = True
    plan_cache_entries: int = 1024

    def worker_payload(self, slot: int, owner_id: str) -> dict[str, Any]:
        """The JSON argv one worker subprocess is launched with."""
        return {**asdict(self), "slot": slot, "owner_id": owner_id}


# --- worker side -------------------------------------------------------------


def manager_from_config(config: dict[str, Any]):
    """Build a served manager from :class:`FleetConfig`'s manager
    settings, keyed by field name (``store_path`` None: no store).

    Only a fleet worker's payload has an ``owner_id``; with it the
    manager leases its sessions and joins the ``/dev/shm`` tiers, which
    degrade to private builds and a per-process plan cache when POSIX
    shared memory is unusable.  Tests call this in-process to assemble
    the exact in-worker stack without a subprocess."""
    from .index_cache import IndexCache
    from .manager import SessionManager
    from .plan_registry import SharedPlanTier
    from .shm_registry import SharedIndexPlane
    from .store import SqliteSessionStore

    store_path = config["store_path"]
    store = SqliteSessionStore(store_path) if store_path is not None else None
    owner_id = config.get("owner_id")
    lease_ttl = config["lease_ttl_seconds"]
    plan_cache = config["plan_cache"]
    plane = shared_plan = None
    if owner_id is not None:
        plane = SharedIndexPlane.if_available(
            store_path, owner_id, ttl_seconds=lease_ttl
        )
        if plan_cache:
            shared_plan = SharedPlanTier.if_available(
                store_path, owner_id, ttl_seconds=lease_ttl
            )
        # Claim anything a crashed predecessor left behind before the
        # first build or publish races it.
        for tier in (plane, shared_plan):
            if tier is not None:
                tier.reap()
    return SessionManager(
        index_cache=IndexCache(
            capacity=config["index_cache_size"], shared=plane
        ),
        max_sessions=config["max_sessions"],
        ttl_seconds=config["ttl_seconds"],
        build_workers=config["build_workers"],
        speculate=config["speculate"],
        kernel_batch=config["kernel_batch"],
        plan_cache=plan_cache,
        plan_cache_entries=config["plan_cache_entries"],
        shared_plan=shared_plan,
        store=store,
        checkpoint_every=config["checkpoint_every"],
        owner_id=owner_id,
        lease_ttl_seconds=lease_ttl,
    )


def worker_main(argv: list[str]) -> int:
    """``python -m repro.service.fleet_worker <json-config>`` body."""
    if len(argv) != 1:
        print(
            "usage: python -m repro.service.fleet_worker '<json-config>'",
            file=sys.stderr,
        )
        return 2
    config = json.loads(argv[0])
    app = ServiceApp(manager_from_config(config), control=True)
    # The READY line is the handshake the supervisor blocks on: port 0
    # means the OS picked the port, and this line is how the router
    # learns it.  On SIGTERM the worker drains: it demotes every
    # durable session (journal tail flushed, lease released) before it
    # exits, and a SIGKILL skips all of that, which is what the lease
    # takeover path is for.
    asyncio.run(
        serve(app, config["host"], 0, "FLEET_WORKER_READY port={port}")
    )
    return 0


# --- supervisor side ---------------------------------------------------------


@dataclass(slots=True)
class WorkerHandle:
    """One live worker incarnation, as the supervisor tracks it."""

    slot: int
    generation: int
    owner_id: str
    port: int
    process: asyncio.subprocess.Process

    @property
    def pid(self) -> int:
        return self.process.pid

    @property
    def alive(self) -> bool:
        return self.process.returncode is None

    def describe(self) -> dict[str, Any]:
        return {
            "slot": self.slot,
            "generation": self.generation,
            "owner": self.owner_id,
            "pid": self.pid,
            "port": self.port,
            "alive": self.alive,
        }


def _worker_env() -> dict[str, str]:
    """The subprocess environment: inherit everything, make sure the
    package root is importable (the fleet may be driven from a checkout
    that was put on ``sys.path`` rather than installed)."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src if not existing else src + os.pathsep + existing
    )
    return env


class Fleet:
    """Spawn, watch and respawn the worker subprocesses.

    Lives on the router's event loop.  ``on_respawn`` (set by the
    router) is awaited after a dead slot comes back, so the router can
    rebalance the sessions that failed over to survivors while the
    slot was down."""

    def __init__(self, config: FleetConfig):
        if config.workers < 1:
            raise ValueError("workers must be positive")
        self.config = config
        self.workers: list[WorkerHandle | None] = [None] * config.workers
        self.on_respawn: (
            Callable[[WorkerHandle], Awaitable[None]] | None
        ) = None
        self.respawns_total = 0
        self._generation = 0
        self._closing = False
        self._monitors: set[asyncio.Task] = set()

    @property
    def size(self) -> int:
        return self.config.workers

    def alive(self, slot: int) -> WorkerHandle | None:
        handle = self.workers[slot]
        return handle if handle is not None and handle.alive else None

    def live_handles(self) -> list[WorkerHandle]:
        return [h for h in self.workers if h is not None and h.alive]

    async def start(self) -> None:
        for slot in range(self.size):
            await self.spawn(slot)

    async def spawn(self, slot: int) -> WorkerHandle:
        """Launch one worker and block until its READY handshake."""
        self._generation += 1
        generation = self._generation
        # Unique per incarnation: a respawned slot must never be able
        # to renew (or be fenced as) its predecessor's leases.
        owner_id = f"w{slot}g{generation}"
        payload = self.config.worker_payload(slot, owner_id)
        process = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "repro.service.fleet_worker",
            json.dumps(payload),
            stdout=asyncio.subprocess.PIPE,
            env=_worker_env(),
        )
        try:
            port = await asyncio.wait_for(
                self._await_ready(process), _SPAWN_TIMEOUT
            )
        except BaseException:
            if process.returncode is None:
                process.kill()
                await process.wait()
            raise
        handle = WorkerHandle(
            slot=slot,
            generation=generation,
            owner_id=owner_id,
            port=port,
            process=process,
        )
        self.workers[slot] = handle
        monitor = asyncio.ensure_future(self._watch(handle))
        self._monitors.add(monitor)
        monitor.add_done_callback(self._monitors.discard)
        return handle

    @staticmethod
    async def _await_ready(
        process: asyncio.subprocess.Process,
    ) -> int:
        while True:
            line = await process.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"fleet worker (pid {process.pid}) exited before "
                    f"announcing readiness"
                )
            match = _READY_PATTERN.search(line)
            if match:
                return int(match.group(1))

    async def _watch(self, handle: WorkerHandle) -> None:
        """Respawn the slot when this incarnation dies uncommanded."""
        await handle.process.wait()
        if self._closing or self.workers[handle.slot] is not handle:
            return
        self.workers[handle.slot] = None
        self.respawns_total += 1
        replacement = await self.spawn(handle.slot)
        if self.on_respawn is not None:
            await self.on_respawn(replacement)

    async def terminate(self) -> None:
        """SIGTERM every worker (each drains) and reap them all."""
        self._closing = True
        handles = [h for h in self.workers if h is not None]
        for handle in handles:
            if handle.alive:
                handle.process.terminate()
        for handle in handles:
            try:
                await asyncio.wait_for(
                    handle.process.wait(), _TERMINATE_TIMEOUT
                )
            except asyncio.TimeoutError:
                handle.process.kill()
                await handle.process.wait()
        for monitor in list(self._monitors):
            monitor.cancel()


# --- in-process harness ------------------------------------------------------


class FleetServer(ServerThread):
    """Router + worker fleet on a background thread: tests and
    benchmarks point an ordinary
    :class:`~repro.service.client.ServiceClient` at ``host:port`` and
    get the whole fleet behind it.  ``close()`` shuts the router down:
    it terminates the workers, and each drains on that SIGTERM.

    Usage::

        config = FleetConfig(store_path=..., workers=2)
        with FleetServer(config) as server:
            client = ServiceClient(server.host, server.port)
            ...
            server.kill_worker(0)   # SIGKILL; sessions fail over
    """

    def __init__(self, config: FleetConfig):
        from .router import FleetRouter

        self.fleet = Fleet(config)
        super().__init__(FleetRouter(self.fleet), config.host, 0)
        #: slot -> generation we SIGKILLed last; wait_for_slot waits
        #: for a *newer* incarnation (right after the kill the dead
        #: handle still reads alive until the supervisor reaps it).
        self._killed_generation: dict[int, int] = {}

    def kill_worker(self, slot: int) -> int:
        """SIGKILL one worker from the router's loop, between two of its
        callbacks; returns its pid.  Sent straight from the calling
        thread, it made the kill -9 test's known divergence (ROADMAP
        direction 1) several times more frequent."""
        handle = self.fleet.alive(slot)
        if handle is None:
            raise RuntimeError(f"no live worker in slot {slot}")

        async def kill() -> None:
            handle.process.kill()

        self._on_loop(kill())
        self._killed_generation[slot] = handle.generation
        return handle.pid

    def wait_for_slot(self, slot: int, timeout: float = 60.0) -> int:
        """Block until ``slot`` has a live worker of a *newer*
        incarnation than the last one killed; returns its pid."""
        threshold = self._killed_generation.get(slot, 0)
        deadline = time.time() + timeout
        while time.time() < deadline:
            handle = self.fleet.workers[slot]
            if (
                handle is not None
                and handle.alive
                and handle.generation > threshold
            ):
                return handle.pid
            time.sleep(0.05)
        raise TimeoutError(f"slot {slot} did not respawn in {timeout}s")
