"""Zero-dependency tick-phase profiler for the sync data plane.

The span tracer answers *where a pose update's milliseconds went* across
the pipeline; it says nothing about where the **server's** compute goes
inside one tick.  This module adds that second axis: monotonic-clock
phase timers (``apply`` / ``interest`` / ``delta`` / ``serialize`` in
:class:`~repro.sync.server.SyncServer`, ``relay_encode`` once per relay
round of a source shard, then ``relay_send``) with
*self-time* accounting — a phase's recorded time excludes any nested
phases, so the hot-phase table sums to the tick instead of
double-counting parents.

The design mirrors :data:`~repro.obs.span.NOOP_TRACER`: hot paths hold a
profiler reference and guard every call with ``if prof.enabled``, and
the shared :data:`NOOP_PROFILER` singleton makes the disabled path one
attribute load and one predictable branch per phase boundary.  The C3a
bench measures that guard cost against the tick wall clock
(:func:`guard_overhead_pct`); the acceptance bar is < 3 %.

Per-phase self-times land in bounded fixed-bucket
:class:`~repro.metrics.histogram.Histogram` s (O(1) memory at any tick
count), so p50/p95 survive million-tick runs and export losslessly
through ``prometheus_text`` / ``metrics_json`` via :meth:`to_registry`.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.metrics.histogram import Histogram

__all__ = [
    "NOOP_PROFILER",
    "PROFILE_BUCKETS",
    "NoopProfiler",
    "TickProfiler",
    "guard_overhead_pct",
]

#: Self-time bucket boundaries (seconds): 1 µs resolution at the bottom
#: (a single numpy call), up through the 50 ms tick period.  +Inf is
#: implicit, as everywhere in the histogram layer.
PROFILE_BUCKETS = (
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4,
    1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1,
)


class TickProfiler:
    """Nestable phase timers with per-phase self-time histograms.

    ``begin(name)`` opens a phase; ``end()`` closes the innermost open
    one; ``switch(name)`` closes the current phase and opens the next
    with a *single* clock read, the cheap idiom for the strictly
    sequential phases inside a tick.  A closed phase records its
    **self-time** (elapsed minus time spent in nested phases) so
    ``hot_phases`` is a partition of measured time, not a double count.

    ``clock`` defaults to :func:`time.perf_counter` — real monotonic
    nanoseconds, deliberately *not* the simulation clock: the profiler
    answers what the Python data plane actually costs, which is exactly
    the number the modeled ``ServerCostModel`` constants are calibrated
    against.  Tests inject a fake clock for determinism.
    """

    enabled = True

    __slots__ = ("_clock", "_stack", "_phases", "_totals", "_first_seen")

    # DET001 suppressed: the profiler is the declared wall-clock shim —
    # it measures what the Python data plane really costs; tests inject
    # a fake clock for determinism.
    def __init__(self, clock: Callable[[], float] = time.perf_counter):  # replint: ignore[DET001]
        self._clock = clock
        #: Open phases, innermost last: [name, start, child_seconds].
        self._stack: List[list] = []
        self._phases: Dict[str, Histogram] = {}
        self._totals: Dict[str, float] = {}
        #: Phase names in first-begin order, for stable exports.
        self._first_seen: List[str] = []

    # -- timing ------------------------------------------------------------

    def begin(self, name: str) -> None:
        """Open phase ``name`` nested inside the current one (if any)."""
        self._stack.append([name, self._clock(), 0.0])

    def _close(self, now: float) -> None:
        name, start, child = self._stack.pop()
        elapsed = now - start
        if self._stack:
            self._stack[-1][2] += elapsed
        self_time = elapsed - child
        if self_time < 0.0:  # non-monotonic injected clocks
            self_time = 0.0
        histogram = self._phases.get(name)
        if histogram is None:
            histogram = Histogram(name, PROFILE_BUCKETS)
            self._phases[name] = histogram
            self._totals[name] = 0.0
            self._first_seen.append(name)
        histogram.observe(self_time)
        self._totals[name] += self_time

    def end(self) -> None:
        """Close the innermost open phase."""
        if not self._stack:
            raise RuntimeError("end() with no open phase")
        self._close(self._clock())

    def switch(self, name: str) -> None:
        """Close the current phase and open ``name`` at the same instant."""
        if not self._stack:
            raise RuntimeError("switch() with no open phase")
        now = self._clock()
        self._close(now)
        self._stack.append([name, now, 0.0])

    def phase(self, name: str):
        """``with profiler.phase("interest"):`` — convenience wrapper."""
        return _PhaseContext(self, name)

    @property
    def open_phases(self) -> int:
        return len(self._stack)

    # -- results -----------------------------------------------------------

    @property
    def phases(self) -> Dict[str, Histogram]:
        """Per-phase self-time histograms, keyed by phase name."""
        return dict(self._phases)

    def total_self_s(self, name: str) -> float:
        return self._totals.get(name, 0.0)

    def hot_phases(self, k: Optional[int] = None) -> List[Tuple[str, dict]]:
        """Top-``k`` phases by total self-time, hottest first.

        Each entry is ``(name, {"total_s", "count", "p50_s", "p95_s",
        "share"})`` where ``share`` is the fraction of all recorded
        self-time.  Ties break by first-begin order, so the table is
        deterministic under equal (e.g. injected-clock) totals.
        """
        grand = sum(self._totals.values())
        order = {name: i for i, name in enumerate(self._first_seen)}
        ranked = sorted(
            self._totals,
            key=lambda name: (-self._totals[name], order[name]))
        out = []
        for name in (ranked if k is None else ranked[:k]):
            histogram = self._phases[name]
            out.append((name, {
                "total_s": self._totals[name],
                "count": histogram.count,
                "p50_s": histogram.percentile(50.0),
                "p95_s": histogram.percentile(95.0),
                "share": self._totals[name] / grand if grand > 0.0 else 0.0,
            }))
        return out

    def table(self, k: int = 8) -> str:
        """The hot-phase table as printable text (hottest first)."""
        lines = [f"{'phase':<14} {'self ms':>9} {'share':>6} "
                 f"{'p50 us':>8} {'p95 us':>8} {'calls':>7}"]
        for name, row in self.hot_phases(k):
            lines.append(
                f"{name:<14} {row['total_s'] * 1e3:>9.2f} "
                f"{row['share'] * 100:>5.1f}% "
                f"{row['p50_s'] * 1e6:>8.1f} {row['p95_s'] * 1e6:>8.1f} "
                f"{row['count']:>7d}")
        return "\n".join(lines)

    def to_registry(self, registry, prefix: str = "profile") -> None:
        """Export per-phase gauges/counters into ``registry``.

        Gauge family ``<prefix>_phase_self_p50_s`` / ``_p95_s`` /
        ``_total_s`` and counter family ``<prefix>_phase_calls``, all
        labeled by ``phase`` — the one surface ``prometheus_text`` and
        ``metrics_json`` already understand.
        """
        p50 = registry.gauge_family(f"{prefix}_phase_self_p50_s", ("phase",))
        p95 = registry.gauge_family(f"{prefix}_phase_self_p95_s", ("phase",))
        total = registry.gauge_family(f"{prefix}_phase_self_total_s",
                                      ("phase",))
        calls = registry.counter_family(f"{prefix}_phase_calls", ("phase",))
        registry.describe(f"{prefix}_phase_self_p50_s",
                          "Per-phase self-time p50 (seconds)")
        registry.describe(f"{prefix}_phase_self_p95_s",
                          "Per-phase self-time p95 (seconds)")
        registry.describe(f"{prefix}_phase_self_total_s",
                          "Per-phase total self-time (seconds)")
        registry.describe(f"{prefix}_phase_calls",
                          "Phase invocations recorded by the tick profiler")
        for name, row in self.hot_phases():
            p50.labels(phase=name).set(row["p50_s"])
            p95.labels(phase=name).set(row["p95_s"])
            total.labels(phase=name).set(row["total_s"])
            child = calls.labels(phase=name)
            child.value = 0.0
            child.inc(row["count"])


class _PhaseContext:
    __slots__ = ("_profiler", "_name")

    def __init__(self, profiler: TickProfiler, name: str):
        self._profiler = profiler
        self._name = name

    def __enter__(self):
        self._profiler.begin(self._name)
        return self._profiler

    def __exit__(self, *exc):
        self._profiler.end()
        return False


class NoopProfiler:
    """API-compatible profiler that does nothing and allocates nothing.

    Hot paths still guard on :attr:`enabled` so the disabled cost is one
    attribute load and one branch — no method call at all.
    """

    enabled = False
    open_phases = 0

    __slots__ = ()

    def begin(self, name: str) -> None:
        pass

    def end(self) -> None:
        pass

    def switch(self, name: str) -> None:
        pass

    def phase(self, name: str):
        return _NOOP_PHASE

    @property
    def phases(self) -> Dict[str, Histogram]:
        return {}

    def total_self_s(self, name: str) -> float:
        return 0.0

    def hot_phases(self, k: Optional[int] = None) -> List[Tuple[str, dict]]:
        return []

    def table(self, k: int = 8) -> str:
        return ""

    def to_registry(self, registry, prefix: str = "profile") -> None:
        pass


class _NoopPhase:
    __slots__ = ()

    def __enter__(self):
        return NOOP_PROFILER

    def __exit__(self, *exc):
        return False


_NOOP_PHASE = _NoopPhase()

#: Shared do-nothing profiler — the default ``SyncServer.profiler``.
NOOP_PROFILER = NoopProfiler()


def guard_overhead_pct(tick_wall_s: float, guards_per_tick: int = 10,
                       iters: int = 200_000,
                       clock: Callable[[], float] = time.perf_counter) -> float:  # replint: ignore[DET001] -- wall-clock shim: measures real guard overhead
    """Measured disabled-path overhead as a percentage of one tick.

    Times the *actual* guard pattern the hot path runs when profiling is
    off (``prof = self.profiler; if prof.enabled: ...``) and scales it to
    ``guards_per_tick`` boundaries against a measured ``tick_wall_s``.
    This is the honest disabled-overhead number: the instrumented code
    differs from the uninstrumented tick by exactly these guards.
    """
    if tick_wall_s <= 0:
        raise ValueError("tick wall time must be positive")
    prof = NOOP_PROFILER
    sink = 0
    start = clock()
    for _ in range(iters):
        if prof.enabled:  # pragma: no cover - never taken, that's the point
            sink += 1
    per_guard = (clock() - start) / iters
    return 100.0 * (per_guard * guards_per_tick) / tick_wall_s
