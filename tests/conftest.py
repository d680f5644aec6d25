"""Shared fixtures: the paper's worked instances.

``example21`` is the running example of the paper (Example 2.1, Figures
3–5); ``flights_hotels`` is the motivating travel-agency instance of the
introduction (Figures 1–2).  Tests reference the paper's tuple names
through the returned namespaces.
"""

from __future__ import annotations

import asyncio
import faulthandler
import os
import random
import sys
import time
from types import SimpleNamespace

import pytest

from repro import Attribute, Instance, JoinPredicate, Relation
from repro.core import SignatureIndex

try:
    import pytest_timeout  # noqa: F401
except ImportError:
    _TIMEOUT_FALLBACK = True
else:
    _TIMEOUT_FALLBACK = False

#: Where a timed-out test's tracebacks go: a copy of the real stderr,
#: taken while output capture is suspended, so the dump outlives it.
_TIMEOUT_STDERR = pytest.StashKey[int]()


def pytest_addoption(parser):
    # pyproject's `timeout` is pytest-timeout's per-test ceiling.
    # Without the plugin the key is registered here and enforced by
    # faulthandler below, so a hung test still ends the run.
    if _TIMEOUT_FALLBACK:
        parser.addini(
            "timeout",
            "per-test ceiling in seconds (0 disables); enforced by "
            "faulthandler when pytest-timeout is not installed",
            default="0",
        )


def pytest_configure(config):
    if _TIMEOUT_FALLBACK:
        config.stash[_TIMEOUT_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    if _TIMEOUT_STDERR in config.stash:
        os.close(config.stash[_TIMEOUT_STDERR])
        del config.stash[_TIMEOUT_STDERR]


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Arm the fallback ceiling around a test's setup, call and
    teardown: past it, dump every thread's traceback and exit 1."""
    seconds = float(item.config.getini("timeout")) if _TIMEOUT_FALLBACK else 0
    if seconds > 0:
        faulthandler.dump_traceback_later(
            seconds, exit=True, file=item.config.stash[_TIMEOUT_STDERR]
        )
    try:
        return (yield)
    finally:
        if seconds > 0:
            faulthandler.cancel_dump_traceback_later()


def predicate_of(left: str, right: str, *pairs: tuple[str, str]) -> JoinPredicate:
    """Build a predicate from bare attribute-name pairs."""
    return JoinPredicate(
        (Attribute(left, a), Attribute(right, b)) for a, b in pairs
    )


@pytest.fixture(scope="session")
def example21() -> SimpleNamespace:
    """Example 2.1: R0 (4 rows, 2 attrs), P0 (3 rows, 3 attrs)."""
    r0 = Relation.build(
        "R0", ["A1", "A2"], [(0, 1), (0, 2), (2, 2), (1, 0)]
    )
    p0 = Relation.build(
        "P0", ["B1", "B2", "B3"], [(1, 1, 0), (0, 1, 2), (2, 0, 0)]
    )
    instance = Instance(r0, p0)
    t1, t2, t3, t4 = r0.rows
    u1, u2, u3 = p0.rows

    def theta(*pairs: tuple[str, str]) -> JoinPredicate:
        return predicate_of("R0", "P0", *pairs)

    return SimpleNamespace(
        instance=instance,
        r0=r0,
        p0=p0,
        t1=t1,
        t2=t2,
        t3=t3,
        t4=t4,
        u1=u1,
        u2=u2,
        u3=u3,
        theta=theta,
    )


@pytest.fixture(scope="session")
def example21_index(example21) -> SignatureIndex:
    return SignatureIndex(example21.instance, backend="python")


@pytest.fixture(scope="session")
def figure3_signatures(example21) -> dict:
    """Every T value printed in Figure 3 of the paper."""
    e = example21
    return {
        (e.t1, e.u1): {("A1", "B3"), ("A2", "B1"), ("A2", "B2")},
        (e.t1, e.u2): {("A1", "B1"), ("A2", "B2")},
        (e.t1, e.u3): {("A1", "B2"), ("A1", "B3")},
        (e.t2, e.u1): {("A1", "B3")},
        (e.t2, e.u2): {("A1", "B1"), ("A2", "B3")},
        (e.t2, e.u3): {("A1", "B2"), ("A1", "B3"), ("A2", "B1")},
        (e.t3, e.u1): set(),
        (e.t3, e.u2): {("A1", "B3"), ("A2", "B3")},
        (e.t3, e.u3): {("A1", "B1"), ("A2", "B1")},
        (e.t4, e.u1): {("A1", "B1"), ("A1", "B2"), ("A2", "B3")},
        (e.t4, e.u2): {("A1", "B2"), ("A2", "B1")},
        (e.t4, e.u3): {("A2", "B2"), ("A2", "B3")},
    }


@pytest.fixture(scope="session")
def flights_hotels() -> SimpleNamespace:
    """The introduction's travel-agency instance (Figure 1)."""
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

    def theta(*pairs: tuple[str, str]) -> JoinPredicate:
        return predicate_of("Flight", "Hotel", *pairs)

    q1 = theta(("To", "City"))
    q2 = theta(("To", "City"), ("Airline", "Discount"))
    return SimpleNamespace(
        instance=instance,
        flights=flights,
        hotels=hotels,
        q1=q1,
        q2=q2,
        theta=theta,
    )


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(20140324)  # EDBT 2014 started March 24.


def make_random_instance(
    rng: random.Random,
    left_arity: int,
    right_arity: int,
    rows: int,
    values: int,
) -> Instance:
    """A random instance in the style of the paper's synthetic generator
    (small, for property tests)."""
    left = Relation.build(
        "R",
        [f"A{i}" for i in range(1, left_arity + 1)],
        [
            tuple(rng.randrange(values) for _ in range(left_arity))
            for _ in range(rows)
        ],
    )
    right = Relation.build(
        "P",
        [f"B{j}" for j in range(1, right_arity + 1)],
        [
            tuple(rng.randrange(values) for _ in range(right_arity))
            for _ in range(rows)
        ],
    )
    return Instance(left, right)


#: Thread-name prefixes of every background worker the suite may spin
#: up; any of them still alive after the last test is a leak.
_BACKGROUND_THREAD_PREFIXES = (
    "repro-service",
    "index-build",
    "session-store",
    "create-offload",
    "lease-heartbeat",
)


@pytest.fixture(autouse=True, scope="session")
def no_leaked_servers_or_threads():
    """Fail the suite if a test leaked a live server or a background
    worker thread.  Teardown is asynchronous (server loops join their
    threads), so the check retries for a few seconds before declaring
    a leak rather than flaking on the last test's shutdown still being
    in flight."""
    import threading

    from repro.service import ServiceServer

    yield
    deadline = time.monotonic() + 5.0
    while True:
        servers = list(ServiceServer._live)
        threads = [
            thread.name
            for thread in threading.enumerate()
            if thread.is_alive()
            and thread.name.startswith(_BACKGROUND_THREAD_PREFIXES)
        ]
        if not servers and not threads:
            return
        if time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert not servers, (
        f"tests leaked live ServiceServer instances: {servers}"
    )
    assert not threads, (
        f"tests leaked background threads: {threads}"
    )


def lookup(cache, instance):
    """One ``IndexCache`` lookup keyed by content fingerprint, as the
    manager makes for uploaded data."""
    from repro.service.index_cache import instance_fingerprint

    return asyncio.run(
        cache.get_or_build_keyed_async(
            instance_fingerprint(instance), lambda: instance
        )
    )


def on_server_loop(server, coro, timeout: float = 30.0):
    """Run ``coro`` on a live ``ServiceServer``'s event loop from the
    test thread and return its result: the loop owns the manager's
    session table, so lookups go through it."""
    return asyncio.run_coroutine_threadsafe(coro, server._loop).result(
        timeout
    )


def repro_shm_segments() -> set[str]:
    """Current ``repro_*`` entries in ``/dev/shm`` (empty off-Linux)."""
    directory = "/dev/shm"
    if not os.path.isdir(directory):  # pragma: no cover - non-Linux
        return set()
    return {
        entry for entry in os.listdir(directory) if entry.startswith("repro_")
    }


@pytest.fixture(autouse=True, scope="session")
def no_leaked_shm_segments():
    """Fail the suite if any test leaves a ``repro_*`` shared-memory
    segment behind: every publish/attach path must unlink on shutdown
    (the CI job runs the same check as a separate step, so a leak is
    caught even if this fixture's teardown is skipped by a crash)."""
    before = repro_shm_segments()
    yield
    remaining = sorted(repro_shm_segments() - before)
    assert not remaining, (
        f"leaked shared-memory segments: {remaining}"
    )
