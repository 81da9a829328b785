"""Process plumbing and statistics shared by the workloads and ``run.py``.

Every child process is waited for with ``os.wait4`` so its own peak resident
memory is known; a child that outlives its timeout is killed and reaped.
The yardstick is fixed work timed between operations, the measure of how fast
the shared host runs at the time (README.md, "Host speed").
"""

from __future__ import annotations

import math
import os
import selectors
import subprocess
import time
from dataclasses import dataclass

# BLAS/OpenMP pools pinned to one thread, in this process and every child
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
CHILD_TIMEOUT_S = 120.0
# The yardstick's wall time at the reference speed. Time metrics are reported
# at this speed: a run whose yardstick reads 2x this had its times halved.
YARDSTICK_REF_S = 0.004


@dataclass
class Child:
    returncode: int
    stdout: str
    stderr: str
    maxrss_kb: int


def run_child(argv, env, cwd, timeout=CHILD_TIMEOUT_S) -> Child:
    """Run ``argv`` to completion, capturing both streams and its peak RSS."""
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=cwd)
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = time.monotonic() + timeout
    try:
        with selectors.DefaultSelector() as sel:
            for stream in chunks:
                sel.register(stream, selectors.EVENT_READ)
            while sel.get_map():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    proc.kill()
                    break
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return Child(
        returncode=proc.returncode,
        stdout=b"".join(chunks[proc.stdout]).decode(),
        stderr=b"".join(chunks[proc.stderr]).decode(),
        maxrss_kb=usage.ru_maxrss,
    )


def median(values):
    vals = sorted(values)
    n = len(vals)
    mid = n // 2
    return vals[mid] if n % 2 else 0.5 * (vals[mid - 1] + vals[mid])


def tail(values, beyond=10):
    """(value, percentile, samples beyond) at the highest rank with >= ``beyond`` samples above it.

    With fewer than ``beyond + 1`` samples there is no such rank; the maximum
    is returned and the count beyond it (0) says so.
    """
    vals = sorted(values)
    n = len(vals)
    k = n - 1 - beyond if n > beyond else n - 1
    return vals[k], 100.0 * (k + 1) / n, n - 1 - k


def yardstick() -> float:
    """Run a fixed piece of work once and return its wall time in seconds.

    The work has the program's mix, interpreted float arithmetic and small
    symmetric eigenproblems, so a host that is slow for the program is slow
    for the yardstick by about the same factor.
    """
    import numpy as np   # here, so importing this module leaves THREAD_ENV time to apply

    a = np.add.outer(np.arange(10.0), np.arange(10.0)) + np.diag(np.arange(10.0))
    t0 = time.perf_counter()
    s = 0.0
    for i in range(12000):
        s += math.sqrt(i) * 0.5 - (i % 7)
    for _ in range(100):
        np.linalg.eigh(a)
    return time.perf_counter() - t0

