"""The shared-memory index plane: registry leases, plane resolution,
cache attach tier, and kill ``-9`` of a publisher.

The acceptance properties:

* **single-flight publish** — for one fingerprint, exactly one process
  builds; everyone else waits for ``ready`` and attaches.
* **fenced takeover** — an expired publish lease is taken over with an
  epoch bump *and* a fresh segment generation; the deposed publisher's
  ``finish_publish`` is refused and its never-visible segment dropped.
* **no orphans** — ``kill -9`` of a mid-publish worker leaves zero
  ``/dev/shm`` segments once a survivor reaps and republishes, and a
  clean fleet shutdown unlinks everything it mapped.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.core import SignatureIndex
from repro.core import index_shm
from repro.service import (
    IndexCache,
    SharedIndexPlane,
    ShmRegistry,
    ShmRegistryError,
    instance_fingerprint,
)
from repro.service.shm_registry import _segment_name

from ..conftest import lookup, make_random_instance
from ..properties.test_index_build import assert_identical

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

needs_shm = pytest.mark.skipif(
    not index_shm.shared_memory_available(),
    reason="POSIX shared memory unavailable",
)


class FakeClock:
    """Deterministic time for lease-expiry tests."""

    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture()
def registry(tmp_path, clock):
    reg = ShmRegistry(tmp_path / "fleet.db", clock=clock)
    yield reg
    reg.close()


FP = "a" * 64  # a fingerprint-shaped key


class TestRegistryLease:
    def test_first_caller_gets_the_publish_lease(self, registry):
        ticket = registry.begin_publish(FP, "w0", ttl_seconds=10.0)
        assert ticket.action == "publish"
        assert ticket.generation == 1
        assert ticket.epoch == 1
        assert ticket.name == _segment_name(FP, 1)
        assert ticket.stale_name is None

    def test_second_caller_waits(self, registry):
        registry.begin_publish(FP, "w0", ttl_seconds=10.0)
        ticket = registry.begin_publish(FP, "w1", ttl_seconds=10.0)
        assert ticket.action == "wait"

    def test_publisher_reentry_refreshes_the_lease(
        self, registry, clock
    ):
        registry.begin_publish(FP, "w0", ttl_seconds=10.0)
        clock.advance(8.0)
        again = registry.begin_publish(FP, "w0", ttl_seconds=10.0)
        assert again.action == "publish"
        assert again.generation == 1
        clock.advance(8.0)  # 16s after start, 8s after refresh
        assert registry.begin_publish(FP, "w1", 10.0).action == "wait"

    def test_finish_publish_flips_to_ready_with_own_ref(self, registry):
        ticket = registry.begin_publish(FP, "w0", ttl_seconds=10.0)
        assert registry.finish_publish(
            FP, "w0", ticket.generation, nbytes=512, ref_ttl_seconds=10.0
        )
        ready = registry.begin_publish(FP, "w1", ttl_seconds=10.0)
        assert ready.action == "ready"
        info = registry.acquire_attach(FP, "w1", ref_ttl_seconds=10.0)
        assert info is not None
        assert info.name == ticket.name
        assert info.nbytes == 512
        stats = registry.stats()
        assert stats["ready_segments"] == 1
        assert stats["ready_bytes"] == 512
        assert stats["refs"] == 2  # publisher + attacher

    def test_expired_lease_takeover_bumps_epoch_and_generation(
        self, registry, clock
    ):
        first = registry.begin_publish(FP, "w0", ttl_seconds=10.0)
        clock.advance(11.0)
        taken = registry.begin_publish(FP, "w1", ttl_seconds=10.0)
        assert taken.action == "publish"
        assert taken.generation == 2
        assert taken.epoch == 2
        assert taken.name == _segment_name(FP, 2)
        assert taken.stale_name == first.name

    def test_deposed_publisher_cannot_finish(self, registry, clock):
        registry.begin_publish(FP, "w0", ttl_seconds=10.0)
        clock.advance(11.0)
        taken = registry.begin_publish(FP, "w1", ttl_seconds=10.0)
        # The original publisher finally finishes its build: fenced out.
        assert not registry.finish_publish(FP, "w0", 1, 100, 10.0)
        # The takeover publisher is fine.
        assert registry.finish_publish(
            FP, "w1", taken.generation, 100, 10.0
        )

    def test_abort_publish_clears_the_row(self, registry):
        ticket = registry.begin_publish(FP, "w0", ttl_seconds=10.0)
        assert registry.abort_publish(FP, "w0", ticket.generation)
        fresh = registry.begin_publish(FP, "w1", ttl_seconds=10.0)
        assert fresh.action == "publish"
        assert fresh.generation == 1  # generations restart with the row

    def test_acquire_attach_requires_ready(self, registry):
        assert registry.acquire_attach(FP, "w1", 10.0) is None
        registry.begin_publish(FP, "w0", ttl_seconds=10.0)
        assert registry.acquire_attach(FP, "w1", 10.0) is None

    def test_heartbeat_renews_refs_and_leases(self, registry, clock):
        ticket = registry.begin_publish(FP, "w0", ttl_seconds=10.0)
        clock.advance(8.0)
        registry.heartbeat("w0", ttl_seconds=10.0)
        clock.advance(8.0)
        # Publishing lease is 8s old post-heartbeat: not expired.
        assert registry.begin_publish(FP, "w1", 10.0).action == "wait"
        registry.abort_publish(FP, "w0", ticket.generation)

    def test_forget_segment_forces_republish(self, registry):
        ticket = registry.begin_publish(FP, "w0", ttl_seconds=10.0)
        registry.finish_publish(FP, "w0", ticket.generation, 64, 10.0)
        registry.forget_segment(FP, ticket.name)
        assert registry.acquire_attach(FP, "w1", 10.0) is None
        assert registry.begin_publish(FP, "w1", 10.0).action == "publish"

    def test_release_owner_unlinks_refless_segments(self, registry):
        ticket = registry.begin_publish(FP, "w0", ttl_seconds=10.0)
        registry.finish_publish(FP, "w0", ticket.generation, 64, 10.0)
        registry.acquire_attach(FP, "w1", ref_ttl_seconds=10.0)
        # The attacher still holds a live ref: nothing to unlink.
        assert registry.release_owner("w0") == []
        # Last ref gone: the segment name comes back for unlinking.
        assert registry.release_owner("w1") == [ticket.name]
        assert registry.known_names() == []

    def test_reap_expired_publishing_and_refless_ready(
        self, registry, clock
    ):
        crashed = registry.begin_publish(FP, "w0", ttl_seconds=10.0)
        other_fp = "b" * 64
        ok = registry.begin_publish(other_fp, "w1", ttl_seconds=10.0)
        registry.finish_publish(other_fp, "w1", ok.generation, 64, 10.0)
        assert registry.reap() == []  # nothing expired yet
        clock.advance(11.0)
        # w0's publish lease and w1's ref both expired.
        doomed = set(registry.reap())
        assert doomed == {crashed.name, ok.name}
        assert registry.known_names() == []

    def test_closed_registry_raises(self, tmp_path, clock):
        reg = ShmRegistry(tmp_path / "fleet.db", clock=clock)
        reg.close()
        reg.close()  # idempotent
        with pytest.raises(ShmRegistryError):
            reg.begin_publish(FP, "w0", 10.0)


@needs_shm
class TestSharedIndexPlane:
    def _plane(self, tmp_path, owner, **kwargs):
        kwargs.setdefault("ttl_seconds", 30.0)
        return SharedIndexPlane(tmp_path / "fleet.db", owner, **kwargs)

    def test_publish_then_sibling_attaches_identically(self, tmp_path):
        rng = random.Random(31)
        instance = make_random_instance(rng, 3, 3, rows=10, values=3)
        fp = instance_fingerprint(instance)
        publisher = self._plane(tmp_path, "w0")
        sibling = self._plane(tmp_path, "w1")
        builds = []

        def build(inst):
            index = SignatureIndex(inst)
            builds.append(index)
            return index

        try:
            published, kind = publisher.get_or_build(fp, instance, build)
            assert kind == "publish"
            assert len(builds) == 1
            # The publisher's returned index is the shm-backed view.
            assert not published.packed_masks.flags.writeable
            assert_identical(published, builds[0])

            attached, kind = sibling.get_or_build(fp, instance, build)
            assert kind == "attach"
            assert len(builds) == 1  # sibling never built
            assert_identical(attached, builds[0])
            assert not attached.packed_masks.flags.writeable

            assert publisher.stats()["publishes"] == 1
            assert sibling.stats()["attaches"] == 1
            assert sibling.shared_bytes() == publisher.shared_bytes() > 0
        finally:
            publisher.close()
            sibling.close()
        assert not _segment_files(fp)

    def test_reattach_rebuilds_views_over_same_mapping(self, tmp_path):
        rng = random.Random(32)
        instance = make_random_instance(rng, 2, 2, rows=8, values=2)
        fp = instance_fingerprint(instance)
        plane = self._plane(tmp_path, "w0")
        try:
            first, _ = plane.get_or_build(fp, instance, SignatureIndex)
            # The cache evicted and asks again: same pages, fresh views.
            second, kind = plane.get_or_build(
                fp, instance, SignatureIndex
            )
            assert kind == "attach"
            assert plane.stats()["segments"] == 1
            assert_identical(second, first)
        finally:
            plane.close()

    def test_wait_timeout_degrades_to_private_build(self, tmp_path):
        rng = random.Random(33)
        instance = make_random_instance(rng, 2, 2, rows=6, values=2)
        fp = instance_fingerprint(instance)
        # Someone else holds the (unexpired) publish lease...
        other = ShmRegistry(tmp_path / "fleet.db")
        other.begin_publish(fp, "stuck", ttl_seconds=60.0)
        plane = self._plane(
            tmp_path, "w0", wait_timeout=0.1, poll_interval=0.01
        )
        try:
            index, kind = plane.get_or_build(fp, instance, SignatureIndex)
            assert kind == "build"
            assert index.packed_masks.flags.writeable  # private arrays
            stats = plane.stats()
            assert stats["private_fallbacks"] == 1
            assert stats["waits"] == 1
        finally:
            plane.close()
            other.close()

    def test_waiter_attaches_once_publisher_finishes(self, tmp_path):
        rng = random.Random(34)
        instance = make_random_instance(rng, 3, 3, rows=10, values=3)
        fp = instance_fingerprint(instance)
        publisher = self._plane(tmp_path, "w0")
        waiter = self._plane(
            tmp_path, "w1", wait_timeout=30.0, poll_interval=0.005
        )
        release = threading.Event()
        build_calls = []

        def slow_build(inst):
            build_calls.append(inst)
            release.wait(timeout=30.0)
            return SignatureIndex(inst)

        results = {}

        def publish_side():
            results["publish"] = publisher.get_or_build(
                fp, instance, slow_build
            )

        try:
            thread = threading.Thread(target=publish_side)
            thread.start()
            while not build_calls:  # publisher holds the lease
                time.sleep(0.005)
            waited = threading.Thread(
                target=lambda: results.update(
                    wait=waiter.get_or_build(fp, instance, slow_build)
                )
            )
            waited.start()
            time.sleep(0.05)  # the waiter is now polling
            release.set()
            thread.join(timeout=30.0)
            waited.join(timeout=30.0)
            assert len(build_calls) == 1  # single-flight across processes
            assert results["publish"][1] == "publish"
            assert results["wait"][1] == "attach"
            assert_identical(results["wait"][0], results["publish"][0])
        finally:
            release.set()
            publisher.close()
            waiter.close()
        assert not _segment_files(fp)

    def test_build_failure_aborts_the_lease(self, tmp_path):
        rng = random.Random(35)
        instance = make_random_instance(rng, 2, 2, rows=6, values=2)
        fp = instance_fingerprint(instance)
        plane = self._plane(tmp_path, "w0")

        def boom(inst):
            raise RuntimeError("build failed")

        try:
            with pytest.raises(RuntimeError, match="build failed"):
                plane.get_or_build(fp, instance, boom)
            # The lease is gone: a retry builds and publishes normally.
            index, kind = plane.get_or_build(fp, instance, SignatureIndex)
            assert kind == "publish"
        finally:
            plane.close()
        assert not _segment_files(fp)

    def test_if_available_returns_plane_or_none(self, tmp_path):
        plane = SharedIndexPlane.if_available(tmp_path / "fleet.db", "w0")
        assert plane is not None  # guarded by needs_shm
        plane.close()

    def test_close_is_idempotent(self, tmp_path):
        plane = self._plane(tmp_path, "w0")
        plane.close()
        plane.close()


def _segment_files(fingerprint: str) -> list[str]:
    """``/dev/shm`` entries for this fingerprint's segments."""
    prefix = _segment_name(fingerprint, 0).rsplit("_g", 1)[0]
    directory = "/dev/shm"
    if not os.path.isdir(directory):  # pragma: no cover - non-Linux
        return []
    return sorted(f for f in os.listdir(directory) if f.startswith(prefix))


# --- kill -9 of a mid-publish worker -----------------------------------------

_CRASH_PUBLISHER = """
import json, os, signal, sys

config = json.load(open(sys.argv[1]))

from repro.core import index_shm
from repro.service import ShmRegistry

registry = ShmRegistry(config["db"])
ticket = registry.begin_publish(
    config["fingerprint"], "doomed", ttl_seconds=config["ttl"]
)
assert ticket.action == "publish", ticket
# The segment exists but never flips to ready: the crash window.
shm = index_shm.create_segment(ticket.name, 4096)
print(ticket.name, flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


@needs_shm
class TestPublisherKill9:
    def test_survivor_reaps_and_republishes(self, tmp_path):
        rng = random.Random(36)
        instance = make_random_instance(rng, 3, 3, rows=10, values=3)
        fp = instance_fingerprint(instance)
        db = str(tmp_path / "fleet.db")
        ttl = 0.5

        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"db": db, "fingerprint": fp, "ttl": ttl})
        )
        child = tmp_path / "crash_publisher.py"
        child.write_text(_CRASH_PUBLISHER)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        result = subprocess.run(
            [sys.executable, str(child), str(config)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert result.returncode == -signal.SIGKILL, result.stderr
        stale_name = result.stdout.strip()
        assert stale_name in _segment_files(fp)  # the orphan exists

        # Let the dead publisher's lease expire first, so the survivor's
        # very first begin_publish deterministically takes the lease
        # over (epoch + generation bump) rather than racing its own
        # background reaper for the expired row.
        time.sleep(ttl + 0.2)
        survivor = SharedIndexPlane(
            db,
            "survivor",
            ttl_seconds=ttl,
            wait_timeout=30.0,
            poll_interval=0.01,
        )
        try:
            index, kind = survivor.get_or_build(
                fp, instance, SignatureIndex
            )
            # The survivor waited out the dead lease, took it over with
            # a fresh generation, unlinked the orphan, and published.
            assert kind == "publish"
            reference = SignatureIndex(instance)
            assert_identical(index, reference)
            files = _segment_files(fp)
            assert stale_name not in files  # orphan unlinked
            assert files == [_segment_name(fp, 2)]
            survivor.reap()  # no false positives on the live segment
            assert _segment_files(fp) == [_segment_name(fp, 2)]
        finally:
            survivor.close()
        assert not _segment_files(fp)  # zero orphans after shutdown


# --- the cache's attach tier -------------------------------------------------


@needs_shm
class TestIndexCacheAttachTier:
    def test_sibling_caches_share_one_build(self, tmp_path):
        rng = random.Random(41)
        instance = make_random_instance(rng, 3, 3, rows=10, values=3)
        db = tmp_path / "fleet.db"
        plane_a = SharedIndexPlane(db, "w0", ttl_seconds=30.0)
        plane_b = SharedIndexPlane(db, "w1", ttl_seconds=30.0)
        cache_a = IndexCache(capacity=4, shared=plane_a)
        cache_b = IndexCache(capacity=4, shared=plane_b)
        try:
            index_a, cached = lookup(cache_a, instance)
            assert not cached
            assert cache_a.misses == 1
            assert cache_a.builds == 1
            assert cache_a.publishes == 1
            assert cache_a.attach_hits == 0

            # Warm in A: an ordinary LRU hit, no plane traffic.
            again, cached = lookup(cache_a, instance)
            assert cached and again is index_a
            assert cache_a.hits == 1

            # Cold in B: resolved by attach, not build.
            index_b, cached = lookup(cache_b, instance)
            assert not cached
            assert cache_b.misses == 1
            assert cache_b.attach_hits == 1
            assert cache_b.builds == 0
            assert cache_b.misses == cache_b.attach_hits + cache_b.builds
            assert_identical(index_b, index_a)

            # Both processes report the one machine-wide copy; neither
            # holds a private duplicate.
            resident_a = cache_a.resident_bytes()
            resident_b = cache_b.resident_bytes()
            assert resident_a["private_bytes"] == 0
            assert resident_b["private_bytes"] == 0
            assert (
                resident_a["shared_bytes"]
                == resident_b["shared_bytes"]
                > 0
            )

            stats = cache_b.stats()
            assert stats["attach_hits"] == 1
            assert stats["builds"] == 0
            assert stats["shared"]["attaches"] == 1
        finally:
            cache_a = cache_b = None
            plane_a.close()
            plane_b.close()

    def test_async_miss_uses_the_attach_tier(self, tmp_path):
        rng = random.Random(42)
        instance = make_random_instance(rng, 2, 3, rows=8, values=2)
        db = tmp_path / "fleet.db"
        plane_a = SharedIndexPlane(db, "w0", ttl_seconds=30.0)
        plane_b = SharedIndexPlane(db, "w1", ttl_seconds=30.0)
        cache_a = IndexCache(capacity=4, shared=plane_a)
        cache_b = IndexCache(capacity=4, shared=plane_b)
        try:
            lookup(cache_a, instance)

            async def attach():
                return await cache_b.get_or_build_keyed_async(
                    instance_fingerprint(instance), lambda: instance
                )

            index, cached = asyncio.run(attach())
            assert not cached
            assert cache_b.attach_hits == 1
            assert cache_b.builds == 0
            assert not index.packed_masks.flags.writeable
        finally:
            plane_a.close()
            plane_b.close()


class TestIndexCacheWithoutPlane:
    def test_private_builds_and_resident_bytes(self):
        rng = random.Random(43)
        instance = make_random_instance(rng, 2, 2, rows=8, values=2)
        cache = IndexCache(capacity=4)
        index, cached = lookup(cache, instance)
        assert not cached
        assert cache.builds == 1
        assert cache.attach_hits == 0
        assert cache.publishes == 0
        resident = cache.resident_bytes()
        assert resident["private_bytes"] == index.nbytes > 0
        assert resident["shared_bytes"] == 0
        assert "shared" not in cache.stats()

    def test_eviction_drops_resident_accounting(self):
        rng = random.Random(44)
        first = make_random_instance(rng, 2, 2, rows=8, values=2)
        second = make_random_instance(rng, 2, 2, rows=8, values=2)
        assert instance_fingerprint(first) != instance_fingerprint(second)
        cache = IndexCache(capacity=1)
        lookup(cache, first)
        index_two, _ = lookup(cache, second)
        assert len(cache) == 1
        assert (
            cache.resident_bytes()["private_bytes"] == index_two.nbytes
        )
