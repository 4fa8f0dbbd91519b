"""Host fingerprint, CPU and memory readings, and server subprocesses."""

from __future__ import annotations

import hashlib
import os
import platform
import re
import resource
import subprocess
import sys
import threading
import time
from typing import List

from repro.coexpr.proc import default_context

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_STATS = re.compile(r"stats \S+ served=(\d+) active=(\d+) shed=(\d+)")


def fingerprint(root: str, seed: int) -> dict:
    """What a result must carry to be compared with another one."""
    gil = getattr(sys, "_is_gil_enabled", None)
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gil_enabled": True if gil is None else bool(gil()),
        "mp_start_method": default_context().get_start_method(),
        "commit": _git_head(root),
        "src_sha256": _tree_digest(os.path.join(root, "src")),
        "seed": seed,
    }


def _git_head(root: str) -> str | None:
    """The checked-out commit, read from ``.git`` without running git
    (None when the checkout is not a repository)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _tree_digest(top: str) -> str:
    """A digest of every ``.py`` file under *top*: identifies the code
    measured when no commit hash is available."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, top).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def own_cpu_s() -> float:
    """User+sys CPU of this process and of its reaped children."""
    times = os.times()
    return time.process_time() + times.children_user + times.children_system


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_cpu_s(pid: int) -> float:
    """User+sys CPU of a live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields 14 and 15 (utime, stime) sit at 11 and 12 after the comm.
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class ServerProcess:
    """One ``junicon-serve`` subprocess on an ephemeral loopback port.

    The server logs its session counters to stderr every
    ``STATS_INTERVAL`` seconds; a reader thread keeps the latest line so
    the benchmark can check that no session outlived a timed window.
    """

    STATS_INTERVAL = 0.5

    def __init__(self, root: str, use_async: bool) -> None:
        self.kind = "async" if use_async else "thread"
        command = [
            sys.executable,
            "-m",
            "repro.net.cli",
            "--port",
            "0",
            "--stats-interval",
            str(self.STATS_INTERVAL),
        ]
        if use_async:
            command.append("--async")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.proc = subprocess.Popen(
            command,
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.address: tuple | None = None
        self._cond = threading.Condition()
        self._stats: tuple | None = None  # (monotonic time, served, active, shed)
        self._stderr_tail: List[str] = []
        self._reader = threading.Thread(
            target=self._read_stderr, name=f"serve-{self.kind}-stderr", daemon=True
        )
        self._reader.start()

    def wait_ready(self) -> tuple:
        """Block until the server prints its bound address."""
        line = self.proc.stdout.readline()
        match = re.match(r"listening on (\S+):(\d+)", line or "")
        if match is None:
            self.stop()
            raise RuntimeError(
                f"junicon-serve ({self.kind}) did not start: {line!r} "
                f"{''.join(self._stderr_tail)[-2000:]}"
            )
        self.address = (match.group(1), int(match.group(2)))
        return self.address

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            match = _STATS.search(line)
            if match is None:
                self._stderr_tail = (self._stderr_tail + [line])[-20:]
                continue
            with self._cond:
                self._stats = (time.monotonic(),) + tuple(
                    int(group) for group in match.groups()
                )
                self._cond.notify_all()

    def wait_idle(self, timeout: float = 5.0) -> bool:
        """True once a stats line logged after this call shows no open
        session."""
        since = time.monotonic()
        limit = since + timeout
        with self._cond:
            while True:
                stats = self._stats
                if stats is not None and stats[0] > since and stats[2] == 0:
                    return True
                left = limit - time.monotonic()
                if left <= 0 or self.proc.poll() is not None:
                    return False
                self._cond.wait(left)

    def cpu_s(self) -> float:
        return proc_cpu_s(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self, timeout: float = 10.0) -> None:
        """SIGTERM (graceful drain), SIGKILL if it does not exit, reap."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout)
        self.proc.stdout.close()
        self.proc.stderr.close()


def start_servers(root: str) -> list:
    """Start a threaded and an ``--async`` server concurrently; stop both
    on failure."""
    servers = [ServerProcess(root, use_async) for use_async in (False, True)]
    try:
        for server in servers:
            server.wait_ready()
    except BaseException:
        for server in servers:
            server.stop()
        raise
    return servers
