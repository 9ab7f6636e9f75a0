"""Run one child process and measure it from the outside.

Each child is reaped with ``os.wait4``, so its CPU time and peak RSS are
its own.  ``getrusage(RUSAGE_CHILDREN)`` would instead report the largest
RSS of every child reaped so far.
"""

from __future__ import annotations

import os
import select
import subprocess
import time
from dataclasses import dataclass


@dataclass
class ChildResult:
    returncode: int | None  # None when the child was killed at its deadline
    wall_s: float  # spawn to exit
    cpu_s: float  # user + system time of the child
    first_byte_s: float  # spawn to the first stdout byte (to exit if none)
    peak_rss_mb: float
    stdout: bytes

    @property
    def timed_out(self) -> bool:
        return self.returncode is None


def run_child(argv: list[str], env: dict, timeout_s: float, stderr_path) -> ChildResult:
    """Run ``argv`` to completion, reading its stdout as it arrives.

    The child is killed once ``timeout_s`` has passed since spawn.
    Its stderr goes to ``stderr_path``.
    """
    chunks = []
    first = None
    killed = False
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=err, env=env)
        try:
            fd = proc.stdout.fileno()
            deadline = start + timeout_s
            while True:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    proc.kill()
                    killed = True
                    break
                ready, _, _ = select.select([fd], [], [], remaining)
                if not ready:
                    continue
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    break
                if first is None:
                    first = time.perf_counter()
                chunks.append(chunk)
        except BaseException:
            proc.kill()
            raise
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
    return ChildResult(
        returncode=None if killed else proc.returncode,
        wall_s=end - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        first_byte_s=(first if first is not None else end) - start,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=b"".join(chunks),
    )
