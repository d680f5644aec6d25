"""Server lifecycle and the ``/proc`` and ``/dev/shm`` readings.

The server is the unchanged CLI: ``python -u -m repro serve --port 0
--store <fresh dir>/sessions.db`` (plus ``--workers N`` for a fleet),
importing the package from the checkout's ``src``.  A solo server is
stopped with SIGINT — its ``serve`` command handles only
``KeyboardInterrupt``, so SIGTERM would skip the manager's close and
leave every published ``repro_plan_*`` segment behind — and a fleet
router with SIGTERM, on which it drains its workers.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "repro_"

_LISTENING = re.compile(rb"127\.0\.0\.1:(\d+)")

#: Seconds a server may take to print its port, and to exit once asked
#: (per signal sent).
START_TIMEOUT_S = 60.0
STOP_GRACE_S = 10.0


class ServerError(RuntimeError):
    """The server did not start, or did not stop when asked."""


class Server:
    """One ``repro serve`` subprocess (a solo server or a fleet router)."""

    def __init__(
        self,
        src: Path,
        workdir: Path,
        workers: int = 1,
        tracer: Path | None = None,
        spans_dir: Path | None = None,
    ):
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        self.workers = workers
        self.command = [
            sys.executable, "-u", "-m", "repro", "serve",
            "--port", "0", "--store", str(workdir / "sessions.db"),
        ]
        if workers > 1:
            self.command += ["--workers", str(workers)]
        path = [str(src)]
        self.env = dict(os.environ)
        if tracer is not None:
            # The tracer is a sitecustomize: the interpreter imports it
            # at start-up, in the router and in every fleet worker (the
            # fleet hands its workers the parent's environment).
            path.insert(0, str(tracer))
            self.env["PERFBENCH_SPANS_DIR"] = str(spans_dir)
        self.env["PYTHONPATH"] = os.pathsep.join(path)
        self.process: subprocess.Popen | None = None
        self.port: int | None = None
        self.worker_pids: list[int] = []
        self._port_seen = threading.Event()
        self._reader: threading.Thread | None = None
        self._stderr = None
        #: Set when the server had to be killed instead of exiting.
        self.forced = False

    @property
    def pids(self) -> list[int]:
        return [self.process.pid, *self.worker_pids]

    def start(self) -> None:
        """Spawn and block until the server accepts connections."""
        self._stderr = open(self.workdir / "server.err", "wb")
        self.process = subprocess.Popen(
            self.command,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=self.env,
            start_new_session=True,
        )
        self._reader = threading.Thread(
            target=self._read_stdout, name="server-stdout", daemon=True
        )
        self._reader.start()
        if not self._port_seen.wait(START_TIMEOUT_S) or self.port is None:
            self.kill()
            raise ServerError(
                f"server printed no port within {START_TIMEOUT_S:g}s: "
                f"{self.stderr_tail()}"
            )

    def _read_stdout(self) -> None:
        # Drains stdout for the server's whole life so it never blocks
        # on a full pipe; the first address line carries the port.
        for line in self.process.stdout:
            if self.port is None:
                match = _LISTENING.search(line)
                if match:
                    self.port = int(match.group(1))
                    self._port_seen.set()
        self._port_seen.set()

    def stderr_tail(self, limit: int = 2000) -> str:
        try:
            data = (self.workdir / "server.err").read_bytes()
        except OSError:
            return ""
        return data[-limit:].decode("utf-8", "replace")

    def stop(self) -> None:
        """Ask the server to exit cleanly and wait for every process.

        The signal is sent twice (asyncio turns a second SIGINT into an
        immediate ``KeyboardInterrupt``) before the process group is
        killed; ``forced`` records that the clean path did not finish.
        """
        if self.process is None:
            return
        sig = signal.SIGTERM if self.workers > 1 else signal.SIGINT
        for _ in range(2):
            if self.process.poll() is not None:
                break
            self.process.send_signal(sig)
            try:
                self.process.wait(STOP_GRACE_S)
            except subprocess.TimeoutExpired:
                continue
        deadline = time.monotonic() + STOP_GRACE_S
        while self.process.poll() is None or any(
            _alive(pid) for pid in self.worker_pids
        ):
            if time.monotonic() > deadline:
                self.forced = True
                self.kill()
                return
            time.sleep(0.02)
        self._finish()

    def kill(self) -> None:
        """Last resort: SIGKILL the server's whole process group (fleet
        workers included) and wait for each process to end."""
        if self.process is None:
            return
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        deadline = time.monotonic() + STOP_GRACE_S
        while any(_alive(p) for p in self.worker_pids):
            if time.monotonic() > deadline:
                break
            time.sleep(0.02)
        self._finish()

    def _finish(self) -> None:
        if self._reader is not None:
            self._reader.join(timeout=10)
        if self.process.stdout is not None:
            self.process.stdout.close()
        if self._stderr is not None:
            self._stderr.close()
            self._stderr = None


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie awaiting its reaper is dead)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_ms(pid: int) -> float:
    """User+system CPU of ``pid`` (all its threads) so far, in ms."""
    fields = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()
    # fields[0] is the state (stat field 3): utime/stime are fields 14/15.
    return (int(fields[11]) + int(fields[12])) * 1000.0 / _TICKS


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MB (its resident-set high-water mark)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise ServerError(f"no VmHWM for pid {pid}")


def cpu_steal() -> tuple[int, int]:
    """``(steal, total)`` CPU time of the machine so far, in ticks: the
    share a hypervisor ran something else shows why a run was slow."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]
    ticks = [int(x) for x in fields]
    return ticks[7], sum(ticks)


def shm_entries() -> set[str]:
    try:
        return {p.name for p in SHM_DIR.iterdir() if p.name.startswith(SHM_PREFIX)}
    except OSError:
        return set()


def reap_shm(names) -> None:
    """Remove the named ``/dev/shm`` entries (a run's own leftovers)."""
    for name in names:
        try:
            (SHM_DIR / name).unlink()
        except FileNotFoundError:
            pass
