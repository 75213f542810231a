"""Experiment C3f (Section 3.3): federated regional sync shards.

C3b showed regional *placement* collapses the WAN RTT tail; this bench
closes the loop by actually *serving* a worldwide population from the
planned shards (`repro.sync.federation.ShardedSyncService`) and
measuring what federation buys end to end:

* **snapshot staleness** — how old the authoritative snapshot is when a
  client receives it.  With one shard a far user's every snapshot
  crosses the WAN; with k shards their authority sits nearby and the
  age collapses to the access link.  (Cross-user *replica* staleness is
  reported too, as a bounded-overhead check: state still has to cross
  the planet, so no topology can shrink it much — federation just must
  not bloat it.)
* **per-shard tick cost** — the modeled server compute per tick, which
  sharding divides across sites;
* **handoff blackout** — a shard crash mid-session, re-homed by
  `ShardHandoffController`; every affected client's blackout must stay
  bounded (detection + handover + first keyframe) and the whole run
  must replay byte-identically from the seed.

Standalone usage::

    PYTHONPATH=src python benchmarks/bench_c3_sharded_sync.py [--quick]
"""

import sys
from pathlib import Path

if __package__ in (None, ""):  # direct `python benchmarks/bench_*.py` run
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import numpy as np

from benchmarks._emit import wall_phase
from benchmarks.conftest import emit, header
from repro.cloud.regions import plan_regions
from repro.metrics.stats import percentile
from repro.net.faults import FaultInjector, ServerCrashSchedule
from repro.simkit import Simulator
from repro.sync.federation import ShardedSyncService, ShardHandoffController
from repro.sync.interest import InterestConfig
from repro.workload.population import sample_worldwide
from repro.workload.traces import SeatedMotion

SEED = 42
POPULATION = 24
QUICK_POPULATION = 12
DURATION = 10.0
QUICK_DURATION = 5.0
KS = (1, 2, 4)
SAMPLE_PERIOD = 0.1     # staleness probe cadence (seconds)
WARMUP_FRACTION = 0.4   # skip the join/keyframe transient
FAR_RTT_S = 0.100       # a "far" user: >100 ms RTT under the k=1 plan
DETECTION_TIMEOUT = 0.3
# Radius chosen clear of every grid pair distance (4.47 and 5.66 are the
# nearest) so seated sway never flickers relevance at the boundary —
# staleness then measures the sync pipeline, not interest churn.
INTEREST = InterestConfig(radius_m=5.0, max_entities=32)


def _build_service(sim, population, k):
    plan = plan_regions(population, k=k)
    # Relays fire well above the tick rate: forwarding is a cheap batch
    # interest query, and a lazy relay cadence would stack a second
    # full tick-period wait onto every cross-shard state.
    return ShardedSyncService(sim, plan, population,
                              interest_config=INTEREST,
                              relay_rate_hz=100.0)


def _attach_clients(sim, service, population, duration, trace_roots=False):
    """One federated client per user, seated on a shared virtual grid.

    The grid spacing vs. the interest radius makes every client relevant
    to a handful of neighbours — neighbours that geography (the plan's
    assignment) may well home on *other* shards, which is exactly what
    exercises the relays.
    """
    clients = {}
    for index, user in enumerate(sorted(population.users,
                                        key=lambda u: u.user_id)):
        federated = service.add_client(user.user_id)
        anchor = ((index % 6) * 2.0, (index // 6) * 2.0, 1.2)
        federated.client.local_pose = SeatedMotion(
            anchor, sim.rng.stream(f"motion-{user.user_id}"))
        if trace_roots:
            _trace_transmit(sim, federated.client)
        federated.client.run(duration)
        clients[user.user_id] = federated
    return clients


def _trace_transmit(sim, client):
    """Open a root span per published update so link/shard stages record."""
    inner = client.transmit

    def traced(update):
        root = sim.obs.start_trace("update", entity=update.client_id)
        update.ctx = root.context
        inner(update)

    client.transmit = traced


def _staleness_probe(sim, clients, duration, samples):
    """Collect per-user staleness of every known remote entity."""
    warmup = sim.now + duration * WARMUP_FRACTION

    def probe():
        if sim.now >= warmup - 1e-12:
            for user_id, federated in clients.items():
                bucket = samples.setdefault(user_id, [])
                for entity_id in federated.client.known_entities:
                    age = federated.client.staleness(entity_id)
                    if np.isfinite(age):
                        bucket.append(age)
        return SAMPLE_PERIOD

    sim.process(sim.repeat(duration, probe))


def _far_users(population):
    """Users >100 ms from the best single site — the k=1 plan's victims."""
    plan1 = plan_regions(population, k=1)
    return sorted(u for u, rtt in plan1.rtts.items() if rtt > FAR_RTT_S)


def run_sharded(seed: int, population_size: int, k: int,
                duration: float, obs: bool = False):
    """One steady-state federation run; returns (summary, sim)."""
    population = sample_worldwide(population_size,
                                  np.random.default_rng(seed))
    far = _far_users(population)
    sim = Simulator(seed=seed, obs=obs)
    service = _build_service(sim, population, k)
    clients = _attach_clients(sim, service, population, duration,
                              trace_roots=obs)
    service.start(duration)
    samples = {}
    _staleness_probe(sim, clients, duration, samples)
    sim.run()

    # Snapshot staleness: how old the authoritative snapshot is when it
    # reaches the client (``now - snapshot.server_time``) — the age of
    # the world the user actually renders.  Sharding collapses it for
    # far users because their downlink no longer crosses the WAN.
    snap = {user_id: federated.client.snapshot_latency.samples
            for user_id, federated in clients.items()}
    snap_all = np.array([age for ages in snap.values() for age in ages])
    snap_far = np.array([age for user in far for age in snap.get(user, [])])
    # Replica staleness: capture-to-render age of *other* participants'
    # states.  Bounded below by geography on any topology (the state
    # still has to cross the planet), so federation only has to keep the
    # relay detour's overhead small, not win.
    replica = np.array([age for ages in samples.values() for age in ages])
    tick_costs = service.shard_tick_costs()
    relay = service.relay_stats()
    summary = {
        "k": k,
        "sites": sorted(service.sites),
        "far_users": len(far),
        "p95_snapshot_staleness_ms": round(
            float(percentile(snap_all, 95.0)) * 1e3, 6),
        "p95_far_snapshot_staleness_ms": round(
            float(percentile(snap_far, 95.0)) * 1e3, 6)
        if snap_far.size else None,
        "mean_snapshot_staleness_ms": round(
            float(snap_all.mean()) * 1e3, 6),
        "mean_replica_staleness_ms": round(float(replica.mean()) * 1e3, 6),
        "max_shard_tick_cost_ms": round(max(tick_costs.values()) * 1e3, 6),
        "mean_shard_tick_cost_ms": round(
            sum(tick_costs.values()) / len(tick_costs) * 1e3, 6),
        "relay_deltas": sum(r["deltas_sent"] for r in relay.values()),
        "relay_kbytes": round(
            sum(r["bytes_sent"] for r in relay.values()) / 1e3, 6),
        "snapshots": int(snap_all.size),
    }
    return summary, sim


def run_handoff(seed: int, population_size: int, k: int, duration: float):
    """Crash the busiest shard mid-run; measure every client's blackout."""
    population = sample_worldwide(population_size,
                                  np.random.default_rng(seed))
    sim = Simulator(seed=seed)
    service = _build_service(sim, population, k)
    clients = _attach_clients(sim, service, population, duration)
    service.start(duration)
    handoff = ShardHandoffController(
        sim, service,
        detection_timeout=DETECTION_TIMEOUT, check_period=0.05)
    handoff.run(duration)

    load = {site: 0 for site in service.sites}
    for federated in clients.values():
        load[federated.home] += 1
    victim = max(sorted(load), key=lambda site: load[site])
    crash_at = round(duration * 0.4, 6)
    injector = FaultInjector(sim)
    injector.server_crash(service.shards[victim],
                          ServerCrashSchedule([(crash_at, None)]))
    sim.run()

    blackouts = {user: round(value, 9)
                 for user, value in sorted(handoff.blackouts().items())
                 if value is not None}
    return {
        "k": k,
        "victim": victim,
        "victim_load": load[victim],
        "crash_at": crash_at,
        "failed_over": len(blackouts),
        "blackouts_ms": {user: round(value * 1e3, 6)
                         for user, value in blackouts.items()},
        "max_blackout_ms": round(max(blackouts.values()) * 1e3, 6)
        if blackouts else None,
        "rehomed_at": round(handoff.events[0][0], 9)
        if handoff.events else None,
        "fault_log": injector.fingerprint(),
    }


def run_c3f(duration: float = DURATION, population_size: int = POPULATION,
            seed: int = SEED, tracer=None) -> dict:
    sweeps = {}
    for k in KS:
        with wall_phase(tracer, f"k={k}"):
            sweeps[k], _sim = run_sharded(seed, population_size, k, duration)
    with wall_phase(tracer, "handoff"):
        handoff = run_handoff(seed, population_size, max(KS), duration)
    with wall_phase(tracer, "replay"):
        replay_sweep, _sim = run_sharded(seed, population_size, max(KS),
                                         duration)
        replay_handoff = run_handoff(seed, population_size, max(KS), duration)
    return {
        "sweeps": sweeps,
        "handoff": handoff,
        "replay_identical": (
            repr(sweeps[max(KS)]) == repr(replay_sweep)
            and repr(handoff) == repr(replay_handoff)
        ),
    }


def shard_relay_stage_breakdown(seed: int, population_size: int,
                                duration: float) -> dict:
    """Mean per-stage latency (ms) of a traced k=max run, incl. shard_relay."""
    _summary, sim = run_sharded(seed, population_size, max(KS), duration,
                                obs=True)
    totals, counts = {}, {}
    for span in sim.obs.spans():
        totals[span.stage] = totals.get(span.stage, 0.0) + span.duration
        counts[span.stage] = counts.get(span.stage, 0) + 1
    return {stage: totals[stage] / counts[stage] * 1e3
            for stage in sorted(totals) if stage != "trace"}


def report(results: dict, duration: float, population_size: int):
    header(f"C3f — Federated sync shards for {population_size} worldwide "
           f"users ({duration:.0f} s horizon)")
    emit(f"{'shards':<7} {'p95 snap':>10} {'p95 far':>10} {'replica':>9} "
         f"{'max tick':>9} {'relay kB':>9}  sites")
    for k, sweep in results["sweeps"].items():
        far = (f"{sweep['p95_far_snapshot_staleness_ms']:>8.1f}ms"
               if sweep["p95_far_snapshot_staleness_ms"] is not None
               else f"{'—':>10}")
        emit(f"k={k:<5} {sweep['p95_snapshot_staleness_ms']:>8.1f}ms {far} "
             f"{sweep['mean_replica_staleness_ms']:>7.1f}ms "
             f"{sweep['max_shard_tick_cost_ms']:>7.3f}ms "
             f"{sweep['relay_kbytes']:>9.1f}  {sweep['sites']}")
    handoff = results["handoff"]
    emit(f"shard crash ({handoff['victim']}, {handoff['victim_load']} clients "
         f"homed) at {handoff['crash_at']:.2f} s:")
    emit(f"  clients failed over  {handoff['failed_over']}")
    emit(f"  max blackout         {handoff['max_blackout_ms']:.1f} ms "
         f"(detection {DETECTION_TIMEOUT * 1e3:.0f} ms + handover + keyframe)"
         if handoff["max_blackout_ms"] is not None
         else "  max blackout         NONE RECORDED")
    emit(f"  plan re-homed at     {handoff['rehomed_at']:.3f} s"
         if handoff["rehomed_at"] is not None
         else "  plan re-homed at     NEVER")
    emit(f"seeded replay byte-identical: {results['replay_identical']}")


def test_c3f_sharded_sync(benchmark):
    results = benchmark.pedantic(run_c3f, rounds=1, iterations=1)
    report(results, DURATION, POPULATION)
    sweeps = results["sweeps"]

    # Federation's headline: the snapshots far users render are fresh —
    # their downlink no longer crosses the WAN.
    assert sweeps[4]["p95_far_snapshot_staleness_ms"] \
        < sweeps[1]["p95_far_snapshot_staleness_ms"] * 0.7
    assert sweeps[4]["p95_snapshot_staleness_ms"] \
        < sweeps[1]["p95_snapshot_staleness_ms"]
    # The relay detour's overhead on cross-user replica staleness stays
    # bounded (it cannot *improve* in general: state still crosses the
    # planet, and the k=1 medoid is already a near-optimal waypoint).
    assert sweeps[4]["mean_replica_staleness_ms"] \
        < sweeps[1]["mean_replica_staleness_ms"] * 1.35
    # Sharding divides the per-server tick compute.
    assert sweeps[4]["max_shard_tick_cost_ms"] \
        < sweeps[1]["max_shard_tick_cost_ms"]
    # k=1 runs no relays; k>1 must actually federate state across sites.
    assert sweeps[1]["relay_deltas"] == 0
    assert sweeps[4]["relay_deltas"] > 0
    assert sweeps[4]["snapshots"] > 0

    handoff = results["handoff"]
    # Every client homed on the crashed shard re-attached with a bounded
    # blackout, and the service rewrote the plan around the dead site.
    assert handoff["failed_over"] == handoff["victim_load"] > 0
    assert handoff["max_blackout_ms"] is not None
    assert DETECTION_TIMEOUT * 1e3 < handoff["max_blackout_ms"] < 1500.0
    assert handoff["rehomed_at"] is not None

    assert results["replay_identical"] is True


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: smaller population, shorter horizon",
    )
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument(
        "--trace", action="store_true",
        help="wall-clock phase spans plus a span-traced k=4 run whose "
             "per-stage breakdown (incl. shard_relay) lands in the JSON",
    )
    args = parser.parse_args(argv)
    from benchmarks._emit import (
        export_trace,
        phase_breakdown_ms,
        wall_tracer,
        write_bench_json,
    )
    duration = QUICK_DURATION if args.quick else DURATION
    population_size = QUICK_POPULATION if args.quick else POPULATION
    tracer = wall_tracer() if args.trace else None
    results = run_c3f(duration, population_size, args.seed, tracer=tracer)
    report(results, duration, population_size)
    if not results["replay_identical"]:
        raise SystemExit("seeded replay of the federation diverged")

    stages = None
    extra_params = {}
    if args.trace:
        stages = shard_relay_stage_breakdown(args.seed, population_size,
                                             duration)
        header("C3f --trace — mean per-stage latency of traced updates")
        for stage, value in stages.items():
            emit(f"  {stage:<16} {value:8.2f} ms")
        extra_params["wall_phases_ms"] = {
            name: round(value, 3)
            for name, value in phase_breakdown_ms(tracer).items()
        }
        emit(f"wrote {export_trace(tracer.spans(), 'c3f')}")

    sweeps = results["sweeps"]
    path = write_bench_json(
        "c3f", "p95_far_snapshot_staleness_ms",
        sweeps[max(KS)]["p95_far_snapshot_staleness_ms"], "ms",
        params={"population": population_size, "duration_s": duration,
                "seed": args.seed, "k": max(KS),
                "k1_p95_far_snapshot_staleness_ms":
                    sweeps[1]["p95_far_snapshot_staleness_ms"],
                "mean_replica_staleness_ms":
                    sweeps[max(KS)]["mean_replica_staleness_ms"],
                "max_blackout_ms": results["handoff"]["max_blackout_ms"],
                "failed_over": results["handoff"]["failed_over"],
                "replay_identical": str(results["replay_identical"]),
                **extra_params},
        stages=stages)
    emit(f"wrote {path}")
    return results


if __name__ == "__main__":
    main()
