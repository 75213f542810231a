"""Relay rounds: pinned wire traces and round-vs-single-fire twins.

Every ``Link.send`` of three seeded federation scenarios is folded into
one sha256: send time, link name, packet kind and size, and for shard
deltas the full message — src/dst/seq/keyframe flag, each forwarded
state's id/epoch/seq/position, the removed ids, the subscriber digest
and the wire size.  A relay refactor that changes which bytes cross
the WAN, when, or in which order moves a hash.  (The benchmark's
end-of-run digest covers counters only, so it cannot see a relay
sending different content of the same size.)
"""

import hashlib
from contextlib import contextmanager

import numpy as np
import pytest

from repro.cloud.regions import RegionalPlan, plan_regions
from repro.net.faults import FaultInjector, ServerCrashSchedule
from repro.avatar.state import AvatarState
from repro.net.link import Link
from repro.sensing.pose import Pose
from repro.simkit import Simulator
from repro.sync.federation import (
    ShardDelta,
    ShardedSyncService,
    ShardHandoffController,
)
from repro.sync.interest import InterestConfig
from repro.workload.population import sample_worldwide
from repro.workload.traces import SeatedMotion

pytestmark = pytest.mark.federation

#: Seat-grid interest (the C3f benchmark's): radius clear of every
#: seat-pair distance, cap above the population.
SEATED = InterestConfig(radius_m=5.0, max_entities=32)


def _delta_record(delta):
    return (
        delta.src_site, delta.dst_site, delta.seq, delta.full,
        [(state.participant_id, getattr(state, "epoch", 0), state.seq,
          repr(state.pose.position.tolist()))
         for state in delta.states],
        list(delta.removed),
        [(user_id, repr(np.asarray(position).tolist()))
         for user_id, position in delta.subscribers.items()],
        delta.size_bytes,
    )


def _send_record(link, packet):
    record = (repr(link.sim.now), link.name, packet.kind, packet.size_bytes)
    if isinstance(packet.payload, ShardDelta):
        record += _delta_record(packet.payload)
    return record


@contextmanager
def _recording():
    """Fold every ``Link.send`` into a sha256 (restored on exit)."""
    digest = hashlib.sha256()
    counts = {"sends": 0, "shard_deltas": 0}
    original = Link.send

    def send(link, packet, deliver):
        digest.update(repr(_send_record(link, packet)).encode())
        counts["sends"] += 1
        counts["shard_deltas"] += packet.kind == "shard_delta"
        return original(link, packet, deliver)

    Link.send = send
    try:
        yield digest, counts
    finally:
        Link.send = original


def _seat(sim, service, user_ids, duration):
    for index, user_id in enumerate(user_ids):
        client = service.add_client(user_id).client
        client.local_pose = SeatedMotion(
            ((index % 6) * 2.0, (index // 6) * 2.0, 1.2),
            sim.rng.stream(f"motion-{user_id}"))
        client.run(duration)


def scenario_c3f(seed=11, duration=1.5):
    """24 worldwide users on k=4 regional shards with 100 Hz relays."""
    population = sample_worldwide(24, np.random.default_rng(42))
    sim = Simulator(seed=seed)
    service = ShardedSyncService(
        sim, plan_regions(population, k=4), population,
        interest_config=SEATED, relay_rate_hz=100.0)
    _seat(sim, service, sorted(u.user_id for u in population.users),
          duration)
    service.start(duration)
    return sim, service


def scenario_crash(seed=12, duration=2.5):
    """The busiest of four shards crashes; clients fail over."""
    population = sample_worldwide(12, np.random.default_rng(7))
    sim = Simulator(seed=seed)
    service = ShardedSyncService(
        sim, plan_regions(population, k=4), population,
        interest_config=SEATED, relay_rate_hz=100.0)
    _seat(sim, service, sorted(u.user_id for u in population.users),
          duration)
    service.start(duration)
    ShardHandoffController(
        sim, service, detection_timeout=0.3, check_period=0.05,
    ).run(duration)
    load = {}
    for federated in service.clients.values():
        load[federated.home] = load.get(federated.home, 0) + 1
    victim = max(sorted(load), key=lambda site: load[site])
    FaultInjector(sim).server_crash(
        service.shards[victim], ServerCrashSchedule([(0.8, None)]))
    return sim, service


def scenario_elastic(seed=13, duration=2.0):
    """Three virtual shards; one is added and another drained mid-run."""
    users = [f"u{i:02d}" for i in range(9)]
    sites = ["s0", "s1", "s2"]
    plan = RegionalPlan(
        sites=list(sites),
        assignment={user: sites[i % 3] for i, user in enumerate(users)},
        rtts={user: 0.02 + 0.01 * (i % 4) for i, user in enumerate(users)},
    )
    sim = Simulator(seed=seed)
    service = ShardedSyncService(
        sim, plan, interest_config=SEATED, relay_rate_hz=100.0)
    _seat(sim, service, users, duration)
    service.start(duration)

    def elastic():
        yield sim.timeout(0.5)
        service.add_site("s3")
        service.move_user("u00", "s3")
        service.move_user("u04", "s3")
        yield sim.timeout(0.6)
        service.drain_site("s1")

    sim.process(elastic())
    return sim, service


def wire_trace(build):
    """``(sha256 hex, sends, shard deltas)`` of one scenario's run."""
    with _recording() as (digest, counts):
        sim, _service = build()
        sim.run()
    return digest.hexdigest(), counts["sends"], counts["shard_deltas"]


#: Recorded with one relay process per directed shard pair; relay rounds
#: must reproduce every send byte for byte.
PINNED = {
    "c3f": ("6fb8c65d3e551bea805d1bd705cc223998a67ad4ba527f856aed361f06b8e5c8",
            3208, 1800),
    "crash": ("d243540f35a150a82b8ea81f490b85c2faa92454e8abca1219824ab7a9853e57",
              3621, 2490),
    "elastic": ("2f959108245d8887f1a07afd63a873fe35ae9ba2cadb274657156287ffb1e011",
                2265, 1560),
}

SCENARIOS = {
    "c3f": scenario_c3f,
    "crash": scenario_crash,
    "elastic": scenario_elastic,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_relay_wire_trace_is_pinned(name):
    assert wire_trace(SCENARIOS[name]) == PINNED[name]


def _twin_deltas(use_round, seed=21, duration=1.2):
    """Drive every relay by hand at 100 Hz: each source's relays either
    as one :meth:`relay_round` or one :meth:`ShardRelay.fire` at a time.
    A voluntary move mid-run makes relevance (and removals) change."""
    population = sample_worldwide(12, np.random.default_rng(7))
    sim = Simulator(seed=seed)
    service = ShardedSyncService(
        sim, plan_regions(population, k=4), population,
        interest_config=SEATED, relay_rate_hz=100.0)
    users = sorted(u.user_id for u in population.users)
    _seat(sim, service, users, duration)
    for shard in service.shards.values():
        shard.run(duration=duration)
    records = []

    def driver():
        moved = False
        while sim.now < duration - 1e-12:
            if not moved and sim.now >= 0.6:
                moved = True
                home = service.clients[users[0]].home
                service.move_user(
                    users[0], min(s for s in service.shards if s != home))
            for src in sorted(service.shards):
                relays = [service.relays[key]
                          for key in sorted(service.relays) if key[0] == src]
                if use_round:
                    deltas = service.relay_round(relays)
                else:
                    deltas = [relay.fire() for relay in relays]
                records.extend(None if delta is None else _delta_record(delta)
                               for delta in deltas)
            yield sim.timeout(0.01)

    sim.process(driver())
    sim.run()
    return records


def test_relay_round_equals_firing_each_relay_alone():
    rounds = _twin_deltas(use_round=True)
    singles = _twin_deltas(use_round=False)
    assert rounds == singles
    sent = [record for record in rounds if record is not None]
    # The comparison covered real traffic: states, keyframes, removals.
    assert sum(len(record[4]) for record in sent) > 100
    assert any(record[3] for record in sent)
    assert any(record[5] for record in sent)


def test_start_arms_one_relay_process_per_source():
    sim = Simulator(seed=1)
    population = sample_worldwide(8, np.random.default_rng(3))
    service = ShardedSyncService(
        sim, plan_regions(population, k=4), population)
    processes = service.start(1.0)
    assert len(service.relays) == 12
    assert len(processes) == 4 + 4  # shard ticks + one round per source


def test_every_relay_round_carries_one_delta_per_peer(monkeypatch):
    rounds = []
    relay_round = ShardedSyncService.relay_round

    def counted(self, relays):
        sent = relay_round(self, relays)
        rounds.append((len(relays), sum(d is not None for d in sent)))
        return sent

    monkeypatch.setattr(ShardedSyncService, "relay_round", counted)
    population = sample_worldwide(12, np.random.default_rng(7))
    sim = Simulator(seed=2)
    service = ShardedSyncService(
        sim, plan_regions(population, k=4), population,
        interest_config=SEATED, relay_rate_hz=100.0)
    _seat(sim, service, sorted(u.user_id for u in population.users), 0.3)
    service.start(0.3)
    sim.run()
    deltas = sum(relay.deltas_sent for relay in service.relays.values())
    # Every shard has homed clients, so each round sends k-1 deltas.
    assert rounds and all(round_ == (3, 3) for round_ in rounds)
    assert deltas == 3 * len(rounds) > 0


def test_relay_round_rejects_relays_of_different_encoders():
    sim = Simulator(seed=1)
    population = sample_worldwide(8, np.random.default_rng(3))
    service = ShardedSyncService(
        sim, plan_regions(population, k=3), population)
    src_a, src_b = sorted(service.shards)[:2]
    mixed = [relay for (src, _dst), relay in sorted(service.relays.items())
             if src in (src_a, src_b)]
    with pytest.raises(ValueError, match="sharing an encoder"):
        service.relay_round(mixed)


def test_decommission_forgets_the_destination_row():
    sim, service = scenario_elastic()
    sim.run(until=1.0)
    relay = service.relays[("s0", "s1")]
    world = service.shards["s0"].world
    seen = [entity for entity in sorted(world.entities)
            if relay.encoder.acked_seq("s1", entity, world) is not None]
    assert seen
    service.drain_site("s1")
    assert all(relay.encoder.acked_seq("s1", entity, world) is None
               for entity in seen)


def test_sent_digest_does_not_track_the_source_world():
    """A digest is the home subscribers' positions at send time: if it
    aliased the source world's position block, a delivered digest would
    keep following the source after the send."""
    sim, service = scenario_elastic()
    sim.run(until=0.3)
    delta = service.relays[("s0", "s2")].fire()
    sent = {user: np.array(position)
            for user, position in delta.subscribers.items()}
    world = service.shards["s0"].world
    assert sent and all(user in world for user in sent)
    for user in sent:
        world.apply(AvatarState(user, sim.now, Pose(
            position=np.array([40.0, 40.0, 1.2])), seq=10**6))
    assert all(np.array_equal(delta.subscribers[user], position)
               for user, position in sent.items())
