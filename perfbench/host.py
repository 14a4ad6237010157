"""Host provenance, clocks and the statistics every workload shares.

Nothing here imports the program under test except where a function says
so, so the self-test and the steadiness command can use it cheaply.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

now = time.perf_counter


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def geomean(values) -> float:
    values = list(values)
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        v = values[0] if values else 0.0
        return (v, v, v)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


@contextlib.contextmanager
def no_gc():
    """Pause the collector inside a timed region, so no operation pays for
    garbage another left; callers collect between rounds."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@contextlib.contextmanager
def untraced(layers):
    """Keep a block's calls out of the per-layer timers (checks, not work)."""
    if layers is None:
        yield
        return
    layers.enabled = False
    try:
        yield
    finally:
        layers.enabled = True


def peak_rss_mib() -> float:
    """Lifetime peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mib(pid: int) -> float:
    """Peak resident set (VmHWM) of a live child process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_times() -> tuple[int, int]:
    """``(steal, total)`` jiffies of the aggregate CPU line of /proc/stat."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def steal_pct(start: tuple[int, int], end: tuple[int, int]) -> float:
    total = end[1] - start[1]
    return 100.0 * (end[0] - start[0]) / total if total > 0 else 0.0


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def commit() -> str:
    """The checkout's commit, or ``unknown`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(kernel_backend: str) -> dict:
    """What a reader needs to compare this run with another host's."""
    import numpy
    import scipy

    return {
        "cpus": available_cpus(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": kernel_backend,
        "commit": commit(),
        "platform": platform.platform(),
    }


def log(*parts) -> None:
    """Progress lines go to stderr; stdout ends with the one result line."""
    print(*parts, file=sys.stderr, flush=True)


def process_age() -> float:
    """Seconds since this process was created (from /proc, 10 ms ticks)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
