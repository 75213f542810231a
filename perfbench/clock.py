"""The benchmark's one wall-clock read, kept free of heavy imports so the
set-up probe can start timing before ``numpy`` or ``repro`` load."""

import time


def wall() -> float:
    """Host seconds from a monotonic clock.

    Host time is what the benchmark measures; it is never fed back into a
    simulation, so it cannot perturb the seeded outputs the digest covers.
    """
    return time.perf_counter()  # replint: ignore[DET001]
