"""Closed loop on a 2-shard federation: scoreboard -> controller -> knobs.

The end-to-end claim of the adaptation loop: on access links too slow
for the full snapshot rate, queues build without bound and tail latency
explodes; the controller sees the latency through the QoE scoreboard,
walks the degraded clients down the ladder (snapshot decimation being
the knob that matters on a sync-only link), and the decimated rate fits
the link again — so adapted tail latency stays bounded where the
baseline's diverges.  Same seed, same faults, byte-identical decisions.
"""

import numpy as np
import pytest

from repro.adapt import AdaptConfig, AdaptationController, federation_knobs
from repro.cloud.regions import RegionalPlan
from repro.metrics.stats import percentile
from repro.obs.scoreboard import QoeScoreboard
from repro.simkit import Simulator
from repro.sync.federation import ShardedSyncService
from repro.workload.traces import SeatedMotion

pytestmark = pytest.mark.adapt

N_USERS = 6
RUN_S = 20.0
POLL_S = 0.5
#: Slow enough that 20 Hz snapshots oversubscribe the downlink (queueing
#: diverges), fast enough that the lean/survival decimated rate fits.
ACCESS_BPS = 16_000.0

CFG = AdaptConfig(degrade_polls=2, restore_polls=4, hold_time_s=2.0)


def run_world(seed, adapt):
    """One federated classroom on congested downlinks; returns results."""
    sim = Simulator(seed=seed)
    sites = ["s0", "s1"]
    users = [f"u{i:02d}" for i in range(N_USERS)]
    plan = RegionalPlan(
        sites=sites,
        assignment={user: sites[i % 2] for i, user in enumerate(users)},
        rtts={user: 0.02 for user in users},
    )
    service = ShardedSyncService(sim, plan, access_rate_bps=ACCESS_BPS)
    scoreboard = QoeScoreboard(window_s=2.0)
    samples = {}
    for i, user in enumerate(users):
        federated = service.add_client(user)
        federated.client.local_pose = SeatedMotion(
            (i * 1.0, 0.0, 1.2), sim.rng.stream(f"t{user}"))
        federated.client.run(duration=RUN_S)
        latencies = []
        samples[user] = latencies
        original = federated.client.on_snapshot

        def on_snapshot(snapshot, latencies=latencies, original=original):
            latencies.append(sim.now - snapshot.server_time)
            original(snapshot)

        federated.client.on_snapshot = on_snapshot
        scoreboard.add_client(
            user, (lambda s=latencies: s), susceptibility=1.0)

    controller = None
    if adapt:
        controller = AdaptationController(scoreboard, config=CFG)
        for user in users:
            controller.add_client(
                user, knobs=federation_knobs(service, user))

    def control_tick():
        scoreboard.poll(sim.now, dt_s=POLL_S)
        if controller is not None:
            controller.poll(sim.now)
        if sim.now + POLL_S < RUN_S:
            sim.call_later(POLL_S, control_tick)

    sim.call_later(POLL_S, control_tick)
    service.start(RUN_S)
    sim.run()
    return service, controller, samples


def tail_latency(samples, skip_s=5.0):
    """p95 over every client's samples after the warm-up window."""
    late = [
        value
        for latencies in samples.values()
        for value in latencies[int(skip_s * 4):]
    ]
    return percentile(late, 95.0)


def test_adaptation_bounds_tail_latency_where_baseline_diverges():
    _service, _none, baseline = run_world(seed=42, adapt=False)
    service, controller, adapted = run_world(seed=42, adapt=True)
    baseline_p95 = tail_latency(baseline)
    adapted_p95 = tail_latency(adapted)
    # The baseline queue diverges (seconds of delay by the end of the
    # run); adaptation must hold the tail well under half of that.
    assert baseline_p95 > 0.5
    assert adapted_p95 < 0.5 * baseline_p95
    # The controller actually walked the ladder to a decimating rung.
    degrades = [d for d in controller.decisions if d.action == "degrade"]
    assert degrades
    assert max(controller.rung(u) for u in controller.clients) >= 2
    # Actuation is live on the serving shards, not just recorded.
    for user in controller.clients:
        factor = service.snapshot_decimation(user)
        for shard in service.shards.values():
            assert shard.snapshot_decimation(user) == factor


def test_decisions_replay_byte_identical_across_seeded_runs():
    fingerprints = []
    for _ in range(2):
        _service, controller, _samples = run_world(seed=7, adapt=True)
        fingerprints.append(controller.fingerprint())
    assert fingerprints[0] == fingerprints[1]
    assert fingerprints[0]


def test_adapted_clients_still_see_the_world():
    service, controller, _samples = run_world(seed=42, adapt=True)
    for user, federated in service.clients.items():
        known = set(federated.client.known_entities)
        # Decimated, coarser — but every peer is still replicated.
        assert len(known - {user}) == N_USERS - 1
