"""The four seeded benchmark scenarios, built only from ``repro``'s public API.

Each builder returns an :class:`Episode`: a wired simulator whose processes
are started but whose clock still reads 0, plus the horizon to advance it
to and two post-run hooks — ``outputs()`` (the simulated results the
correctness digest covers) and ``violations(outputs)`` (the workload's
invariants).  Nothing here reads the wall clock; the driver in ``run.py``
times the episode from outside.

The scenarios are defined here, not imported from ``benchmarks/bench_*``,
so rewriting those experiment scripts cannot silently change what this
benchmark measures.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

import numpy as np

from repro import Simulator, build_unit_case
from repro.adapt import AdaptConfig, AdaptationController, federation_knobs
from repro.avatar.state import AvatarState
from repro.cloud.regions import RegionalPlan, plan_regions
from repro.net.faults import (
    FaultInjector,
    GilbertElliottLoss,
    ServerCrashSchedule,
)
from repro.obs.scoreboard import QoeScoreboard
from repro.sensing.pose import Pose
from repro.sync.federation import ShardedSyncService, ShardHandoffController
from repro.sync.interest import InterestConfig, InterestManager
from repro.sync.protocol import ClientUpdate
from repro.sync.server import ServerCostModel, SyncServer
from repro.workload.population import sample_worldwide
from repro.workload.traces import SeatedMotion

#: One 20 Hz tick period: the unit of simulated time the driver advances
#: per timed slice.
SLICE_S = 0.05
#: Slice ends sit this far past each tick time, so a tick whose time
#: accumulated an ulp of float error still falls in its own slice.
SLICE_EPS = 1e-6


@dataclass
class Episode:
    """One built scenario, ready to advance from t=0 to ``horizon``."""

    sim: Simulator
    horizon: float
    #: Simulated time after which staleness samples count (join and
    #: keyframe transient excluded).
    warmup_s: float
    #: Per-client snapshot-age sample lists (seconds), read after the run.
    staleness_sources: Dict[str, List[float]]
    outputs: Callable[[], Dict[str, Any]]
    violations: Callable[[Dict[str, Any]], List[str]]
    #: Sample-list lengths at warm-up end, set by :meth:`mark_warmup`.
    warm_marks: Dict[str, int] = field(default_factory=dict)

    @property
    def n_slices(self) -> int:
        return int(round(self.horizon / SLICE_S))

    def slice_end(self, k: int) -> float:
        """End time of slice ``k`` (1-based); the last one is the horizon."""
        return self.horizon if k >= self.n_slices else k * SLICE_S + SLICE_EPS

    def mark_warmup(self, now: float) -> None:
        """Called after each slice: remember where warm-up ended."""
        if not self.warm_marks and now >= self.warmup_s - 1e-12:
            self.warm_marks = {
                name: len(samples)
                for name, samples in self.staleness_sources.items()}

    def staleness_samples(self) -> List[float]:
        """Post-warm-up snapshot ages, in sorted client order."""
        return [age for name in sorted(self.staleness_sources)
                for age in self.staleness_sources[name][
                    self.warm_marks.get(name, 0):]]


def sim_digest(episode: Episode, outputs: Dict[str, Any]) -> str:
    """sha256 over the simulated outputs and every snapshot age; floats
    enter by exact ``repr``."""
    ages = [episode.staleness_sources[name]
            for name in sorted(episode.staleness_sources)]
    payload = repr((sorted(outputs.items()), ages))
    return hashlib.sha256(payload.encode()).hexdigest()


# -- federation ---------------------------------------------------------------

#: Radius clear of every seat-grid pair distance (4.47 and 5.66 m are the
#: nearest) so seated sway never flickers relevance at the boundary.
FEDERATION_INTEREST = InterestConfig(radius_m=5.0, max_entities=32)
FEDERATION_USERS = 24
FEDERATION_SHARDS = 4
#: The population's geography (and so the k=4 plan and which users share
#: a shard) is fixed, C3f's seed-42 draw: it defines the workload.  The
#: run seed drives motion, WAN jitter and every other simulator stream,
#: so every seed exercises the same relay topology.
FEDERATION_GEOGRAPHY_SEED = 42


def build_federation(seed: int, horizon: float = 4.0) -> Episode:
    """C3f steady state: 24 worldwide users served by k=4 regional shards
    with 100 Hz relays; users sit on a shared virtual grid so each is
    relevant to neighbours homed on other shards."""
    population = sample_worldwide(
        FEDERATION_USERS, np.random.default_rng(FEDERATION_GEOGRAPHY_SEED))
    sim = Simulator(seed=seed)
    service = ShardedSyncService(
        sim, plan_regions(population, k=FEDERATION_SHARDS), population,
        interest_config=FEDERATION_INTEREST, relay_rate_hz=100.0)
    users = sorted(user.user_id for user in population.users)
    for index, user_id in enumerate(users):
        client = service.add_client(user_id).client
        client.local_pose = SeatedMotion(
            ((index % 6) * 2.0, (index // 6) * 2.0, 1.2),
            sim.rng.stream(f"motion-{user_id}"))
        client.run(horizon)
    service.start(horizon)

    def outputs() -> Dict[str, Any]:
        clients = {user_id: service.clients[user_id].client
                   for user_id in users}
        return {
            "sites": sorted(service.sites),
            "snapshots": {u: c.snapshots_received for u, c in clients.items()},
            "bytes": {u: c.bytes_received for u, c in clients.items()},
            "relays": service.relay_stats(),
        }

    def violations(out: Dict[str, Any]) -> List[str]:
        found = []
        if sum(r["deltas_sent"] for r in out["relays"].values()) <= 0:
            found.append("relays sent no deltas")
        if sum(out["snapshots"].values()) <= 0:
            found.append("clients received no snapshots")
        return found

    return Episode(
        sim, horizon, warmup_s=0.4 * horizon,
        staleness_sources={
            u: service.clients[u].client.snapshot_latency.samples
            for u in users},
        outputs=outputs, violations=violations)


# -- dense_shard ---------------------------------------------------------------

DENSE_ENTITIES = 2000
DENSE_INTEREST = InterestConfig(radius_m=8.0, max_entities=30)


def build_dense_shard(seed: int, horizon: float = 3.0,
                      n: int = DENSE_ENTITIES) -> Episode:
    """One shard, ``n`` subscribed avatars at full churn, 20 Hz, no network.

    Poses are generated up front from the seed; a simkit process feeds
    every entity's next pose each tick and calls the public
    ``SyncServer.tick_once``, so nearly all host time is the sync data
    plane (apply / interest / delta / snapshot build).
    """
    sim = Simulator(seed=seed)
    server = SyncServer(sim, tick_rate_hz=20.0,
                        interest=InterestManager(DENSE_INTEREST),
                        cost_model=ServerCostModel.vectorized())
    ids = [f"u{i:05d}" for i in range(n)]
    for entity_id in ids:
        server.subscribe(entity_id, _discard)
    ticks = int(round(horizon / SLICE_S))
    rng = np.random.default_rng(seed)
    anchors = np.stack([np.arange(n) % 100 * 1.2,
                        np.arange(n) // 100 * 1.5,
                        np.full(n, 1.2)], axis=1)
    sway = np.cumsum(rng.normal(0.0, 0.01, size=(ticks, n, 3)), axis=0)
    positions = anchors[None, :, :] + sway
    tick_costs: List[float] = []
    sim.process(_dense_feeder(sim, server, ids, positions, tick_costs))

    def outputs() -> Dict[str, Any]:
        compact_ids, _slots, points = server.world.compact()
        return {
            "ticks": server.tick_count,
            "snapshots_sent": server.metrics.counter("snapshots_sent"),
            "snapshot_bytes": server.metrics.counter("snapshot_bytes"),
            "updates": server.metrics.counter("updates_ingested"),
            "pairs": server.metrics.counter("interest_pairs_scanned"),
            "tick_costs": tick_costs,
            "world": hashlib.sha256(
                repr(list(compact_ids)).encode()
                + np.ascontiguousarray(points).tobytes()).hexdigest(),
        }

    def violations(out: Dict[str, Any]) -> List[str]:
        if out["ticks"] != ticks:
            return [f"ran {out['ticks']} of {ticks} ticks"]
        return []

    return Episode(sim, horizon, warmup_s=0.0, staleness_sources={},
                   outputs=outputs, violations=violations)


def _discard(_snapshot) -> None:
    """Subscriber sink: the shard has no network, delivery is the call."""


def _dense_feeder(sim, server, ids, positions, tick_costs):
    for seq, row in enumerate(positions):
        feed_tick(server, ids, row, seq, sim.now)
        tick_costs.append(server.tick_once())
        yield sim.timeout(SLICE_S)


#: Every dense-shard avatar faces forward; poses are copies of this one
#: with the pre-generated position swapped in, which skips re-validating
#: an identity quaternion per entity per tick.
_UPRIGHT = Pose()


def feed_tick(server: SyncServer, ids: List[str], row: np.ndarray,
              seq: int, now: float) -> None:
    """Ingest one pre-generated pose per entity (the benchmark's own
    driver work inside the timed path)."""
    for entity_id, position in zip(ids, row):
        pose = _UPRIGHT.copy()
        pose.position = position
        server.ingest(ClientUpdate(
            entity_id, AvatarState(entity_id, now, pose, seq=seq), seq))


# -- unit_case -----------------------------------------------------------------

def build_unit_case_episode(seed: int, horizon: float = 3.0) -> Episode:
    """Figure 2/3: two MR campuses (8 students each, headset and room
    sensing, Kalman fusion, WiFi uplinks, edge avatar ticks) plus the
    cloud VR classroom with 2 remote users per city."""
    sim = Simulator(seed=seed)
    deployment = build_unit_case(sim, students_per_campus=8,
                                 remote_per_city=2)
    # The steps of MetaverseClassroom.run() before it advances the clock,
    # so the driver can advance it slice by slice.
    for campus in deployment.campuses.values():
        campus.start(horizon)
    deployment.cloud.run(horizon)
    for client in deployment.remote_clients.values():
        client.run(horizon)

    def outputs() -> Dict[str, Any]:
        report = deployment.report()
        return {
            "cross_campus_visibility": report.cross_campus_visibility(),
            "remote_visibility": report.remote_visibility_at_campuses(),
            "cloud_visibility": report.cloud_visibility(),
            "staleness_cross_campus_ms": report.staleness_cross_campus_ms(),
            "snapshots": {pid: c.snapshots_received for pid, c in
                          sorted(deployment.remote_clients.items())},
        }

    def violations(out: Dict[str, Any]) -> List[str]:
        if out["cloud_visibility"] != 1.0:
            return [f"cloud visibility {out['cloud_visibility']}"]
        return []

    return Episode(
        sim, horizon, warmup_s=1.0,
        staleness_sources={
            pid: client.snapshot_latency.samples
            for pid, client in deployment.remote_clients.items()},
        outputs=outputs, violations=violations)


# -- adapt_faults ----------------------------------------------------------------

ADAPT_USERS = 6
#: Slow enough that full-rate 20 Hz snapshots oversubscribe every downlink.
ADAPT_ACCESS_BPS = 16_000.0
ADAPT_POLL_S = 0.25
ADAPT_LOSSY = ("u00", "u03")
ADAPT_CRASH_SITE = "s1"
ADAPT_CONFIG = AdaptConfig(degrade_polls=2, restore_polls=4, hold_time_s=2.0)
#: A failover blackout beyond this is unbounded for the invariant
#: (detection 0.3 s + handover + first keyframe stays well below it).
MAX_BLACKOUT_S = 1.5


def build_adapt_faults(seed: int, horizon: float = 24.0) -> Episode:
    """C3h adapted arm: 6 users on 16 kbit/s downlinks across 2 shards,
    Gilbert–Elliott burst loss on two downlinks, a crash of shard s1 with
    crash handoff, and the QoE scoreboard plus adaptation controller
    polling at 4 Hz."""
    sim = Simulator(seed=seed)
    sites = ["s0", "s1"]
    users = [f"u{i:02d}" for i in range(ADAPT_USERS)]
    plan = RegionalPlan(
        sites=sites,
        assignment={user: sites[i % 2] for i, user in enumerate(users)},
        rtts={user: 0.02 for user in users})
    service = ShardedSyncService(sim, plan, access_rate_bps=ADAPT_ACCESS_BPS)
    scoreboard = QoeScoreboard(window_s=2.0)
    controller = AdaptationController(scoreboard, config=ADAPT_CONFIG)
    for i, user in enumerate(users):
        client = service.add_client(user).client
        client.local_pose = SeatedMotion((i * 1.0, 0.0, 1.2),
                                         sim.rng.stream(f"t{user}"))
        client.run(duration=horizon)
        scoreboard.add_client(
            user, (lambda samples=client.snapshot_latency.samples: samples),
            susceptibility=1.0)
    for user in users:
        controller.add_client(
            user, knobs=federation_knobs(service, user),
            loss_probe=lambda u=user: service.downlink(u).stats.loss_fraction)
    crashed_homes = [u for u in users if plan.assignment[u] == ADAPT_CRASH_SITE]

    handoff = ShardHandoffController(sim, service, detection_timeout=0.3,
                                     check_period=0.05)
    handoff.run(horizon)
    injector = FaultInjector(sim)
    for user in ADAPT_LOSSY:
        injector.burst_loss(
            service.downlink(user, site=plan.assignment[user]),
            GilbertElliottLoss(p_good_bad=0.02, p_bad_good=0.25))
    injector.server_crash(service.shards[ADAPT_CRASH_SITE],
                          ServerCrashSchedule([(round(0.45 * horizon, 6),
                                                None)]))

    def control_tick() -> None:
        scoreboard.poll(sim.now, dt_s=ADAPT_POLL_S)
        controller.poll(sim.now)
        if sim.now + ADAPT_POLL_S < horizon:
            sim.call_later(ADAPT_POLL_S, control_tick)

    sim.call_later(ADAPT_POLL_S, control_tick)
    service.start(horizon)

    def outputs() -> Dict[str, Any]:
        return {
            "faults": injector.fingerprint(),
            "scoreboard": scoreboard.fingerprint(),
            "decisions": controller.fingerprint(),
            "blackouts": sorted(handoff.blackouts().items()),
            "snapshots": {u: service.clients[u].client.snapshots_received
                          for u in users},
        }

    def violations(out: Dict[str, Any]) -> List[str]:
        blackouts = dict(out["blackouts"])
        found = [f"{u} did not fail over" for u in crashed_homes
                 if blackouts.get(u) is None]
        found += [f"{u} blackout {b!r} s unbounded"
                  for u, b in sorted(blackouts.items())
                  if b is not None and not 0.0 < b < MAX_BLACKOUT_S]
        return found

    return Episode(
        sim, horizon, warmup_s=5.0,
        staleness_sources={u: service.clients[u].client.snapshot_latency
                           .samples for u in users},
        outputs=outputs, violations=violations)


BUILDERS: Dict[str, Callable[..., Episode]] = {
    "federation": build_federation,
    "dense_shard": build_dense_shard,
    "unit_case": build_unit_case_episode,
    "adapt_faults": build_adapt_faults,
}
