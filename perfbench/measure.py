"""Host-time measurement helpers: percentiles, peak memory, and the
provenance block every result carries."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from clock import wall

#: Checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parents[1]

#: Candidate tail percentiles, highest first (see :func:`tail_percentile`).
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


#: Median host seconds of one :func:`probe` on the machine the benchmark
#: was defined on (an Intel Xeon container, 2 vCPUs).  Normalized host
#: seconds equal raw ones on a machine running the probe this fast.
REFERENCE_PROBE_S = 3.0e-4

_PROBE_VALUES = np.arange(2048, dtype=float)[::-1].copy()


def probe() -> float:
    """Host seconds of a fixed, program-independent micro-loop: pure
    Python plus one numpy kernel, the two kinds of work the simulator mixes.

    Interleaved with the timed slices, it tracks how fast the host runs
    *right now*: on a shared machine that speed drifts by up to 2x over
    minutes, which no number of repeats in one run averages away.  Its
    median also calibrates results between machines (see provenance).
    """
    start = wall()
    total = 0
    table = {}
    for i in range(2000):
        table[i & 63] = total
        total += (i * i) % 7
    np.sort(_PROBE_VALUES).cumsum()
    return wall() - start


#: Each slice is normalized by the median of the probes run after it and
#: after this many slices on either side: local enough to follow the
#: host's drift, wide enough that one disturbed probe does not count.
PROBE_HALF_WIDTH = 5


def speed_factors(probes: Sequence[float]) -> List[float]:
    """Per-slice multipliers taking raw host seconds to normalized ones:
    the reference probe time over the rolling median of nearby probes."""
    values = np.asarray(probes, dtype=float)
    width = PROBE_HALF_WIDTH
    return [REFERENCE_PROBE_S / float(np.median(
                values[max(0, i - width):i + width + 1]))
            for i in range(len(values))]


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile, numpy's default linear interpolation."""
    if not len(values):
        raise ValueError("percentile of no samples")
    return float(np.percentile(np.asarray(values, dtype=float), p))


def tail_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile with at least ten of ``n`` samples
    beyond it, or None when even the median has fewer."""
    for p in TAIL_CANDIDATES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return None


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_sha256() -> str:
    """Content hash of the program and benchmark sources.

    Identifies the code under test where git is absent (a plain
    checkout), and keys the cross-run digest record.
    """
    digest = hashlib.sha256()
    for tree in ("src", "perfbench"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance() -> Dict[str, object]:
    """Which code, machine and libraries produced a result."""
    import scipy

    # Only ask git about this checkout itself, never a repository that
    # happens to enclose a plain (git-less) copy of it.
    sha = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = _git("status", "--porcelain") if sha is not None else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source_sha256(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        # Median host seconds of the speed probe: the fixed calibration
        # loop for comparing results across machines.
        "calibration_probe_s": float(np.median([probe() for _ in range(201)])),
    }
