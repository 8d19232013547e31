"""How many cores this process can run on at once, for the parallel paths
(the split CSV parse and the first-selection Monte Carlo)."""

from __future__ import annotations

import math
import os
from pathlib import Path

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
