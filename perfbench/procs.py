"""Program processes started by the benchmark: spawn, wait, peak RSS."""

from __future__ import annotations

import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAUNCH = Path(__file__).resolve().parent / "launch.py"


class ProcessFailed(RuntimeError):
    pass


#: Children not yet reaped, so :func:`stop_all` can end them if a
#: workload fails half-way.
_RUNNING: set["Proc"] = set()


def stop_all() -> None:
    """Kill and reap every child still running."""
    for proc in list(_RUNNING):
        proc.popen.kill()
        proc.wait(30)


class Proc:
    """One ``launch.py`` child.  ``spawned`` is the ``CLOCK_MONOTONIC``
    time just before the fork; ``peak_rss_mb`` is filled in by
    :meth:`wait` from the child's own resource usage."""

    def __init__(self, mode: str, result: Path, trace: bool, args: list,
                 log: Path, pipes: bool = False):
        self.result = Path(result)
        self.peak_rss_mb = 0.0
        self._log = open(log, "ab")
        self.spawned = time.monotonic()
        self.popen = subprocess.Popen(
            [sys.executable, str(LAUNCH), mode, str(result),
             "1" if trace else "0", *map(str, args)],
            stdin=subprocess.PIPE if pipes else subprocess.DEVNULL,
            stdout=subprocess.PIPE if pipes else subprocess.DEVNULL,
            stderr=self._log, cwd=ROOT)
        _RUNNING.add(self)

    def readline(self, timeout: float) -> str:
        """One line of the child's stdout, or ``ProcessFailed``."""
        ready, _, _ = select.select([self.popen.stdout], [], [], timeout)
        line = self.popen.stdout.readline() if ready else b""
        if not line:
            raise ProcessFailed(f"no output from {self.popen.args[2]} "
                                f"within {timeout:.0f}s")
        return line.decode()

    def send(self, line: str) -> None:
        self.popen.stdin.write(line.encode() + b"\n")
        self.popen.stdin.flush()

    def wait(self, timeout: float) -> int:
        """Reap the child (killing it after *timeout* seconds) and
        record its peak RSS; returns the exit code."""
        if self.popen.returncode is not None:
            return self.popen.returncode
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.popen.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.popen.kill()
                deadline = float("inf")
            time.sleep(0.02)
        _RUNNING.discard(self)
        self.popen.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        for pipe in (self.popen.stdin, self.popen.stdout):
            if pipe is not None:
                pipe.close()
        self._log.close()
        return self.popen.returncode

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM (the server's clean shutdown), then :meth:`wait`."""
        if self.popen.returncode is None:
            self.popen.send_signal(signal.SIGTERM)
        return self.wait(timeout)

    def outcome(self) -> dict:
        """The JSON the child wrote on exit, or ``ProcessFailed``."""
        try:
            return json.loads(self.result.read_text())
        except (OSError, ValueError) as exc:
            raise ProcessFailed(f"no result from {self.popen.args[2]}: "
                                f"{exc}") from None


_BIND = re.compile(r"http://([0-9.]+):(\d+)")


def start_server(warehouse: Path, result: Path, trace: bool, log: Path,
                 after: Path | None = None) -> tuple[Proc, int]:
    """``repro-serve`` on a free port; returns the process and port once
    it is listening.  With *after*, the launcher waits for that file
    before it opens the warehouse."""
    args = ["--after", after] if after else []
    proc = Proc("serve", result, trace,
                [*args, "--warehouse", warehouse, "--port", "0"], log,
                pipes=True)
    try:
        match = _BIND.search(proc.readline(timeout=120))
        if match is None:
            raise ProcessFailed("server did not print its address")
    except ProcessFailed:
        proc.stop()
        raise
    return proc, int(match.group(2))
