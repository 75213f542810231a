"""Per-layer attribution measured from outside the program.

:class:`LayerTracer` replaces public functions on their classes with
timing wrappers for the duration of a traced run and puts the originals
back afterwards.  Each wrapped call is a span; a span's *self* time is its
duration minus the time its direct child spans cover, so nested layers
(a relay fire that runs an interest query that ...) are not counted twice.
Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from clock import wall

#: ``on_result(stats, args, result)``: per-call hook for counts that need
#: the call's arguments or return value (useful-work ratios).
ResultHook = Callable[["SpanStats", tuple, Any], None]


@dataclass
class SpanStats:
    """Accumulated spans of one layer name."""

    name: str
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0
    #: Per-call durations, kept only where a layer reports percentiles.
    samples: Optional[List[float]] = None
    #: Hook-maintained counters (useful calls, items, seen objects).
    counts: Dict[str, Any] = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class LayerTracer:
    """Install timing wrappers; use as a context manager so they are
    always removed, even when the traced run raises."""

    def __init__(self, clock: Callable[[], float] = wall) -> None:
        self.clock = clock
        self.stats: Dict[str, SpanStats] = {}
        #: Spans record only while active, so set-up calls are skipped.
        self.active = False
        self._stack: List[float] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    def span_stats(self, name: str, keep_samples: bool = False) -> SpanStats:
        stats = self.stats.get(name)
        if stats is None:
            stats = SpanStats(name, samples=[] if keep_samples else None)
            self.stats[name] = stats
        return stats

    def wrap(self, owner: Any, attr: str, name: str,
             on_result: Optional[ResultHook] = None,
             keep_samples: bool = False) -> None:
        """Time every call of ``owner.attr`` as a span named ``name``.

        ``owner`` is a class or module defining ``attr`` itself; several
        functions may share one name, and their spans then add up.
        """
        original = owner.__dict__[attr]
        stats = self.span_stats(name, keep_samples)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return original(*args, **kwargs)
            start = tracer._open()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(stats, start)
            if on_result is not None:
                on_result(stats, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    @contextlib.contextmanager
    def recording(self) -> Iterator[None]:
        """Record spans only inside this block, so set-up is not traced."""
        self.active = True
        try:
            yield
        finally:
            self.active = False

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        stats = self.span_stats(name)
        start = self._open()
        try:
            yield
        finally:
            self._close(stats, start)

    def _open(self) -> float:
        self._stack.append(0.0)
        return self.clock()

    def _close(self, stats: SpanStats, start: float) -> None:
        elapsed = self.clock() - start
        stack = self._stack
        stats.child_s += stack.pop()
        if stack:
            stack[-1] += elapsed
        stats.calls += 1
        stats.total_s += elapsed
        if stats.samples is not None:
            stats.samples.append(elapsed)

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.active = False


# -- the layer table ------------------------------------------------------------

def _count_useful(stats: SpanStats, _args: tuple, result: Any) -> None:
    if result is not None:
        stats.counts["useful"] = stats.counts.get("useful", 0) + 1


def _count_relay(stats: SpanStats, _args: tuple, delta: Any) -> None:
    if delta is not None:
        stats.counts["useful"] = stats.counts.get("useful", 0) + 1
        stats.counts["states"] = stats.counts.get("states", 0) + len(
            delta.states)


def _count_link(stats: SpanStats, args: tuple, accepted: Any) -> None:
    stats.counts.setdefault("links", {})[id(args[0])] = args[0]
    if accepted:
        stats.counts["accepted"] = stats.counts.get("accepted", 0) + 1


def _count_decisions(stats: SpanStats, _args: tuple, decisions: Any) -> None:
    stats.counts["decisions"] = stats.counts.get("decisions", 0) + len(
        decisions)


def install(tracer: LayerTracer) -> None:
    """Wrap every layer's public entry points (see README for the map)."""
    import scenarios
    from repro.adapt.controller import AdaptationController
    from repro.edge.aggregator import SensorAggregator
    from repro.edge.server import EdgeServer
    from repro.net.link import Link
    from repro.net.wifi import WifiNetwork
    from repro.obs.scoreboard import QoeScoreboard
    from repro.sensing.fusion import PoseFusionFilter
    from repro.sensing.headset import HeadsetTracker
    from repro.sensing.sensor import RoomSensorArray
    from repro.simkit.engine import Simulator
    from repro.sync.client import SyncClient
    from repro.sync.delta import BatchDeltaEncoder, WorldState
    from repro.sync.federation import ShardRelay
    from repro.sync.interest import InterestManager
    from repro.sync.server import SyncServer
    from repro.workload.traces import SeatedMotion

    wrap = tracer.wrap
    wrap(Simulator, "step", "simkit.step")
    wrap(ShardRelay, "fire", "sync.relay", on_result=_count_relay)
    wrap(InterestManager, "relevant_indices_batch", "sync.interest")
    wrap(BatchDeltaEncoder, "encode_batch", "sync.delta.encode")
    wrap(WorldState, "apply_many", "sync.delta.apply")
    wrap(SyncServer, "tick_once", "sync.tick", keep_samples=True)
    wrap(SyncServer, "ingest", "sync.ingest")
    wrap(SyncClient, "on_snapshot", "sync.client")
    wrap(SyncClient, "publish_once", "sync.client.publish")
    wrap(Link, "send", "net.link", on_result=_count_link)
    wrap(WifiNetwork, "send", "net.wifi")
    wrap(HeadsetTracker, "measure", "sensing.measure", on_result=_count_useful)
    wrap(RoomSensorArray, "measure", "sensing.measure",
         on_result=_count_useful)
    wrap(PoseFusionFilter, "update", "sensing.fusion")
    wrap(EdgeServer, "receive_remote_state", "edge.receive")
    wrap(SensorAggregator, "generate_all", "edge.generate")
    wrap(SeatedMotion, "__call__", "workload.motion")
    wrap(QoeScoreboard, "poll", "obs.scoreboard")
    wrap(AdaptationController, "poll", "adapt", on_result=_count_decisions)
    wrap(scenarios, "feed_tick", "bench.driver")
