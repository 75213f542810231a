"""The repository benchmark: host-time speed of four seeded classroom
scenarios, with per-layer attribution measured from outside the program.

    python3 perfbench/run.py --workload federation --seed 1 --seconds 10 --trace 0

``--trace 0`` times untraced 50 ms simulated slices and reports the
end-to-end metrics; ``--trace 1`` adds a run with every layer's public
entry points wrapped and reports the per-layer metrics.  Every metric is
printed by name with its unit, followed by the provenance block, the
simulation digest and, as the last line, one JSON result object.  See
``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import measure  # noqa: E402
import scenarios  # noqa: E402
from clock import wall  # noqa: E402

#: End-to-end metrics (``--trace 0``), name -> unit.
END_TO_END = {
    "sim_s_per_wall_s": "sim_s/s",
    "slice_wall_ms_p50": "ms",
    "slice_wall_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Spans whose call count and self time are reported per episode.
SPANS = (
    "sync.relay", "sync.interest", "sync.delta.encode", "sync.delta.apply",
    "sync.tick", "sync.ingest", "sync.client", "net.link", "net.wifi",
    "sensing.measure", "sensing.fusion", "edge.receive", "edge.generate",
    "workload.motion", "obs.scoreboard", "adapt",
)

#: Per-layer metrics (``--trace 1``), name -> unit.
PER_LAYER = {
    "simkit.events": "count",
    "simkit.us_per_event": "us",
    "simkit.step.self_s": "s",
    **{f"{span}.{kind}": unit for span in SPANS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "sync.relay.useful_ratio": "ratio",
    "sync.relay.states_per_delta": "count",
    "sync.tick.ms_p50": "ms",
    "sync.tick.ms_p95": "ms",
    "sync.client.publish.self_s": "s",
    "sync.client.staleness_ms_p95": "sim_ms",
    "sync.handoff.failovers": "count",
    "sync.handoff.blackout_ms_max": "sim_ms",
    "net.link.drop_ratio": "ratio",
    "net.link.queue_ms_mean": "sim_ms",
    "sensing.measure.useful_ratio": "ratio",
    "adapt.decisions": "count",
    "setup.import_s": "s",
    "setup.build_s": "s",
    "bench.driver.self_s": "s",
    "bench.traced_wall_s": "s",
    "bench.trace_overhead": "ratio",
    "bench.failed_run_ratio": "ratio",
}

#: The untraced run keeps stepping whole episodes until it has this many
#: slices, so ``slice_wall_ms_p95`` has at least ten slices beyond it.
MIN_SLICES = 200
#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_REPEATS = 3
#: Host seconds of a throwaway episode run before timing starts.
WARMUP_WALL_S = 0.5
#: Layers whose traced self time should dominate each workload: the
#: reason the workload is in the benchmark.
PURPOSE = {
    "federation": ("sync.relay", "sync.interest"),
    "dense_shard": ("sync.tick", "sync.interest", "sync.delta.encode",
                    "sync.delta.apply", "sync.ingest"),
    "unit_case": ("sensing.measure", "sensing.fusion", "simkit.step"),
}
#: Where the cross-run digest record lives (inside the checkout).
DIGEST_RECORD = measure.ROOT / ".perfbench" / "digests.json"


@dataclass
class Window:
    """Episodes stepped back to back for one measurement window."""

    #: Normalized host seconds per slice (see :func:`measure.speed_factors`).
    slices: List[float] = field(default_factory=list)
    raw_wall_s: float = 0.0
    #: The speed factor each slice was normalized by.
    factors: List[float] = field(default_factory=list)
    sim_s: float = 0.0
    episodes: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digest: Optional[str] = None
    #: The first episode and its outputs (identical in every episode).
    first: Optional[scenarios.Episode] = None
    first_outputs: Optional[dict] = None

    @property
    def wall_s(self) -> float:
        return sum(self.slices)

    @property
    def sim_per_wall(self) -> float:
        return self.sim_s / self.wall_s


def advance(episode: scenarios.Episode,
            tracer: Optional[layers.LayerTracer] = None):
    """Step ``episode`` to its horizon in 50 ms slices.

    Returns the raw host seconds of each slice and of the speed probe run
    right after it.  With a tracer, each slice is a ``bench.driver`` span.
    """
    sim = episode.sim
    times, probes = [], []
    with tracer.recording() if tracer else contextlib.nullcontext():
        for k in range(1, episode.n_slices + 1):
            until = episode.slice_end(k)
            begin = wall()
            if tracer is None:
                sim.run(until=until)
            else:
                with tracer.span("bench.driver"):
                    sim.run(until=until)
            times.append(wall() - begin)
            probes.append(measure.probe())
            episode.mark_warmup(sim.now)
    return times, probes


def warm_up(workload: str, seed: int) -> None:
    """Fill caches and finish lazy set-up on a throwaway episode."""
    episode = scenarios.BUILDERS[workload](seed)
    start = wall()
    for k in range(1, episode.n_slices + 1):
        episode.sim.run(until=episode.slice_end(k))
        if wall() - start >= WARMUP_WALL_S:
            break


def run_window(workload: str, seed: int, seconds: float, min_slices: int,
               reference: Optional[str],
               tracer: Optional[layers.LayerTracer] = None) -> Window:
    """Run whole episodes until ``seconds`` of host time and
    ``min_slices`` slices are spent; check each episode's digest against
    ``reference`` (or the window's first) and its invariants."""
    window = Window()
    start = wall()
    while wall() - start < seconds or len(window.slices) < min_slices:
        window.attempted += 1
        try:
            episode = scenarios.BUILDERS[workload](seed)
            times, probes = advance(episode, tracer)
            outputs = episode.outputs()
        except Exception:  # a failing program is a result, not a crash
            traceback.print_exc(file=sys.stderr)
            window.failed += 1
            window.problems.append("episode raised")
            break
        digest = scenarios.sim_digest(episode, outputs)
        problems = episode.violations(outputs)
        expected = reference or window.digest
        if expected is not None and digest != expected:
            problems.append(f"digest {digest[:12]} != {expected[:12]}")
        if problems:
            window.failed += 1
            window.problems.extend(problems)
        if window.digest is None:
            window.digest, window.first = digest, episode
            window.first_outputs = outputs
        factors = measure.speed_factors(probes)
        window.episodes += 1
        window.factors.extend(factors)
        window.slices.extend(t * f for t, f in zip(times, factors))
        window.raw_wall_s += sum(times)
        window.sim_s += episode.horizon
    return window


def unsliced_digest(workload: str, seed: int) -> Optional[str]:
    """Digest of one episode advanced in a single ``run()`` call."""
    try:
        episode = scenarios.BUILDERS[workload](seed)
        episode.sim.run(until=episode.horizon)
        return scenarios.sim_digest(episode, episode.outputs())
    except Exception:  # counted as a failed run by the caller
        traceback.print_exc(file=sys.stderr)
        return None


def check_recorded(workload: str, seed: int, source: str,
                   digest: str) -> bool:
    """Compare with the digest the first run of this seed recorded for
    this exact source tree (recording it if this run is the first)."""
    key = f"{source}/{workload}/{seed}"
    try:
        record = json.loads(DIGEST_RECORD.read_text())
    except (OSError, ValueError):
        record = {}
    if key in record:
        return record[key] == digest
    record[key] = digest
    DIGEST_RECORD.parent.mkdir(parents=True, exist_ok=True)
    scratch = DIGEST_RECORD.with_suffix(".tmp")
    scratch.write_text(json.dumps(record, indent=1, sort_keys=True))
    os.replace(scratch, DIGEST_RECORD)
    return True


def measure_setup(workload: str, seed: int) -> Dict[str, float]:
    """Median normalized import and build seconds over fresh processes."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        factor = measure.REFERENCE_PROBE_S / sample["probe_s"]
        samples.append({key: sample[key] * factor
                        for key in ("import_s", "build_s")})
    return {
        "setup_s": statistics.median(s["import_s"] + s["build_s"]
                                     for s in samples),
        "import_s": statistics.median(s["import_s"] for s in samples),
        "build_s": statistics.median(s["build_s"] for s in samples),
    }


def end_to_end(window: Window, setup: Dict[str, float]) -> Dict[str, float]:
    ms = [t * 1e3 for t in window.slices]
    return {
        "sim_s_per_wall_s": window.sim_per_wall,
        "slice_wall_ms_p50": measure.percentile(ms, 50.0),
        "slice_wall_ms_p95": measure.percentile(ms, 95.0),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": measure.peak_rss_mb(),
    }


def staleness_ms_p95(episode: scenarios.Episode) -> float:
    """p95 snapshot age at client delivery after warm-up (sim ms); 0 on a
    workload without network clients."""
    ages = episode.staleness_samples()
    return measure.percentile(ages, 95.0) * 1e3 if ages else 0.0


def per_layer(tracer: layers.LayerTracer, traced: Window, untraced: Window,
              setup: Dict[str, float], failed_ratio: float
              ) -> Dict[str, float]:
    """Per-episode layer numbers from the traced window; host seconds are
    normalized by the window's median speed factor (spans are not timed
    against a probe of their own)."""
    episodes = traced.episodes
    stats = tracer.stats
    scale = statistics.median(traced.factors)

    def span(name: str) -> layers.SpanStats:
        return stats.get(name) or layers.SpanStats(name)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: Dict[str, float] = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = span(name).calls / episodes
        metrics[f"{name}.self_s"] = span(name).self_s * scale / episodes
    step = span("simkit.step")
    events = step.calls / episodes
    metrics["simkit.events"] = events
    metrics["simkit.us_per_event"] = ratio(
        untraced.wall_s * 1e6, events * untraced.episodes)
    metrics["simkit.step.self_s"] = step.self_s * scale / episodes

    relay = span("sync.relay")
    metrics["sync.relay.useful_ratio"] = ratio(
        relay.counts.get("useful", 0), relay.calls)
    metrics["sync.relay.states_per_delta"] = ratio(
        relay.counts.get("states", 0), relay.counts.get("useful", 0))
    tick_ms = [t * scale * 1e3 for t in span("sync.tick").samples or []]
    metrics["sync.tick.ms_p50"] = (
        measure.percentile(tick_ms, 50.0) if tick_ms else 0.0)
    metrics["sync.tick.ms_p95"] = (
        measure.percentile(tick_ms, 95.0) if tick_ms else 0.0)
    metrics["sync.client.publish.self_s"] = (
        span("sync.client.publish").self_s * scale / episodes)
    metrics["sync.client.staleness_ms_p95"] = staleness_ms_p95(traced.first)

    blackouts = [b for _user, b in traced.first_outputs.get("blackouts", [])
                 if b is not None]
    metrics["sync.handoff.failovers"] = float(len(blackouts))
    metrics["sync.handoff.blackout_ms_max"] = (
        max(blackouts) * 1e3 if blackouts else 0.0)

    links = list(span("net.link").counts.get("links", {}).values())
    offered = sum(link.stats.offered for link in links)
    dropped = sum(link.stats.dropped_queue + link.stats.dropped_loss
                  + link.stats.dropped_down for link in links)
    metrics["net.link.drop_ratio"] = ratio(dropped, offered)
    metrics["net.link.queue_ms_mean"] = ratio(
        sum(link.stats.queue_delay_total for link in links) * 1e3,
        span("net.link").counts.get("accepted", 0))

    measured = span("sensing.measure")
    metrics["sensing.measure.useful_ratio"] = ratio(
        measured.counts.get("useful", 0), measured.calls)
    metrics["adapt.decisions"] = (
        span("adapt").counts.get("decisions", 0) / episodes)
    metrics["setup.import_s"] = setup["import_s"]
    metrics["setup.build_s"] = setup["build_s"]
    metrics["bench.driver.self_s"] = (
        span("bench.driver").self_s * scale / episodes)
    metrics["bench.traced_wall_s"] = traced.wall_s / episodes
    metrics["bench.trace_overhead"] = (
        untraced.sim_per_wall / traced.sim_per_wall)
    metrics["bench.failed_run_ratio"] = failed_ratio
    return metrics


def purpose_line(workload: str, metrics: Dict[str, float]) -> str:
    """Does the traced run show the workload doing its chosen work?"""
    base = metrics["bench.traced_wall_s"]
    if workload == "adapt_faults":
        ok = metrics["adapt.calls"] > 0 and metrics["sync.handoff.failovers"] > 0
        return (f"purpose {'PASS' if ok else 'FAIL'}: adapt.calls="
                f"{metrics['adapt.calls']:g} sync.handoff.failovers="
                f"{metrics['sync.handoff.failovers']:g}")
    claimed = PURPOSE[workload]
    self_times = {name: metrics[f"{name}.self_s"]
                  for name in (*SPANS, "simkit.step", "bench.driver")}
    share = sum(self_times[name] for name in claimed)
    rival, rival_s = max(((n, s) for n, s in self_times.items()
                          if n not in claimed), key=lambda item: item[1])
    return (f"purpose {'PASS' if share > rival_s else 'FAIL'}: "
            f"{'+'.join(claimed)} self {share:.4f} s = {share / base:.1%} "
            f"of {base:.4f} traced wall s per episode; largest other "
            f"{rival} {rival_s / base:.1%}")


def emit(metrics: Dict[str, float], units: Dict[str, str]) -> None:
    for name, unit in units.items():
        print(f"  {name:<32} {metrics[name]:>16.6f} {unit}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(scenarios.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload, seed = args.workload, args.seed

    info = measure.provenance()
    setup = measure_setup(workload, seed)
    warm_up(workload, seed)
    if args.trace:
        untraced = run_window(workload, seed, args.seconds / 2, 0, None)
        with layers.LayerTracer() as tracer:
            layers.install(tracer)
            traced = run_window(workload, seed, args.seconds / 2, 0,
                                untraced.digest, tracer)
        windows = [untraced, traced]
        attempted = untraced.attempted + traced.attempted + 1
        failed = untraced.failed + traced.failed
        if unsliced_digest(workload, seed) != untraced.digest:
            failed += 1
            untraced.problems.append("unsliced episode differs or raised")
    else:
        untraced = run_window(workload, seed, args.seconds, MIN_SLICES, None)
        windows = [untraced]
        attempted, failed = untraced.attempted, untraced.failed
    if untraced.digest is None or (args.trace and traced.digest is None):
        print("no episode completed", file=sys.stderr)
        return 1
    if not check_recorded(workload, seed, info["source_sha256"],
                          untraced.digest):
        failed += 1
        untraced.problems.append("digest differs from this seed's first run")

    print(f"perfbench {workload} seed={seed} trace={args.trace}")
    print(f"  sim_digest {untraced.digest}")
    for window in windows:
        print(f"  window: {window.episodes} episodes x "
              f"{window.first.horizon:g} sim s, {len(window.slices)} slices, "
              f"{window.raw_wall_s:.3f} raw host s = {window.wall_s:.3f} "
              f"normalized (speed factor median "
              f"{statistics.median(window.factors):.3f}, raw "
              f"{window.sim_s / window.raw_wall_s:.4f} sim_s/s)")
    for problem in sorted(set(p for w in windows for p in w.problems)):
        print(f"  FAILED: {problem}")
    failed_ratio = failed / attempted
    print(f"  failed_run_ratio {failed_ratio:.6f} ratio "
          f"({failed} of {attempted} runs)")
    if args.trace:
        metrics = per_layer(tracer, traced, untraced, setup, failed_ratio)
        units = PER_LAYER
        print(f"  {purpose_line(workload, metrics)}")
    else:
        metrics = end_to_end(untraced, setup)
        units = END_TO_END
        tail = measure.tail_percentile(len(untraced.slices))
        print(f"  slice tail: p{tail:g} over {len(untraced.slices)} slices = "
              f"{measure.percentile(untraced.slices, tail) * 1e3:.3f} ms")
        print(f"  sim_staleness_ms_p95 {staleness_ms_p95(untraced.first):.6f}"
              f" sim_ms")
    emit(metrics, units)
    print("  provenance " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
