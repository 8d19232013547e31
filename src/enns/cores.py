"""How many cores this process can run on and how many threads its BLAS runs,
for the parallel paths (the split CSV read and write and an ENNS round's bags,
in ``forked`` workers, and the first-selection Monte Carlo), and the fork
mechanics they share: ``forked`` either yields one live child per job or
raises ``OSError``, and a child that raises exits with status 1."""

from __future__ import annotations

import math
import multiprocessing
import os
import warnings
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

# cgroup v2 CPU bandwidth limit of this process's cgroup: "<quota> <period>"
# in microseconds, or "max <period>" when there is no limit.
CPU_MAX = Path("/sys/fs/cgroup/cpu.max")


def usable_cores() -> int:
    """The cores this process may run on (its CPU affinity, or ``os.cpu_count``
    where the platform reports no affinity), capped by ceil(quota / period)
    of a cgroup v2 CPU quota. A missing, unlimited (``max``) or unreadable
    ``cpu.max`` sets no cap. At least 1."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    try:
        quota, period = (int(field) for field in CPU_MAX.read_text().split())
    except (OSError, ValueError):  # no file, "max", or not two integers
        return max(cores, 1)
    if quota > 0 and period > 0:
        cores = min(cores, math.ceil(quota / period))
    return max(cores, 1)


def blas_threads() -> int:
    """The thread count numpy's bundled OpenBLAS reads at load: the first
    positive integer among ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and
    ``OMP_NUM_THREADS``, else ``usable_cores()``."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdecimal() and int(value) > 0:  # else OpenBLAS reads the next one
            return int(value)
    return usable_cores()


@contextmanager
def forked(target: Callable[..., None], jobs: Sequence[tuple]) -> Iterator[list]:
    """Run ``target(*job, out)`` in a forked child per job, ``out`` being the
    write end (a descriptor) of a pipe to this process; yield the children in
    job order as (unbuffered binary read end, process) pairs. ``OSError``
    where the platform reports no affinity (Linux does, and can fork), where a
    fork warns, and where a pipe or fork fails. Leaving the block kills and
    joins every child, done or abandoned, and closes the pipes."""
    if not hasattr(os, "sched_getaffinity"):
        raise OSError("no CPU affinity API: not forking")
    # fork, not spawn: a spawned worker would first import numpy, scipy and
    # enns, about a second, and a forked one runs only its job
    ctx = multiprocessing.get_context("fork")
    with ExitStack() as stack:
        children = []
        for job in jobs:
            r, w = os.pipe()
            pipe = stack.enter_context(open(r, "rb", buffering=0))
            reads = [r, *(earlier.fileno() for earlier, _ in children)]
            # The parent's copy of the write end closes once forked. Python
            # 3.12 and later warn at a fork from a process with more than one
            # thread (a multi-threaded BLAS counts) that the child may
            # deadlock: recorded, so that the child is reaped, and refused.
            with open(w, "wb"), warnings.catch_warnings(record=True) as warned:
                warnings.simplefilter("always")
                proc = ctx.Process(target=_child, args=(target, job, w, reads))
                proc.start()
            stack.callback(proc.join)
            stack.callback(proc.kill)  # runs first: a child is done or abandoned
            if warned:
                raise OSError(f"fork warned: {warned[0].message}")
            children.append((pipe, proc))
        yield children


def _child(target: Callable[..., None], job: tuple, out: int, reads: list[int]) -> None:
    """Forked child: close the inherited read ends, which would keep a pipe
    open after the parent died and block its writer for good, then run. An
    exception is exit status 1 with no traceback; the parent redoes the job."""
    for fd in reads:
        os.close(fd)
    try:
        target(*job, out)
    except Exception:
        raise SystemExit(1)


def read_into(pipe, buf: np.ndarray) -> None:
    """Fill the C-contiguous array ``buf`` from ``pipe`` over short reads;
    EOFError if the writer stops first."""
    view = memoryview(buf.view(np.uint8).reshape(-1))
    while view:
        n = pipe.readinto(view)
        if not n:
            raise EOFError
        view = view[n:]
