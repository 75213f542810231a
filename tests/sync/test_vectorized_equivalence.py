"""Vectorized-vs-scalar data-plane equivalence and regression tests.

`SyncServer`'s batched SoA tick must be *indistinguishable on the wire*
from the scalar per-subscriber path it replaced: same snapshots, same
sizes, same keyframe cadence, same removals — under entity churn,
subscriber churn, slot reuse, crash and failover, with grid interest and
with broadcast.  The scalar path lives in `tests/oracles/scalar_sync.py`
(`ScalarSyncServer`, `DeltaEncoder`) as the oracle these properties
check against, exactly as `naive_relevant` is for the interest grid.

Also here: regression tests for the three bugs fixed underneath the
refactor (keyframe cadence off-by-one, instantaneous-count egress
division, and the stale-seq freeze of crash/rejoin clients).
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.avatar.state import AvatarState
from repro.net.faults import FaultInjector, ServerCrashSchedule
from repro.sensing.pose import Pose
from repro.sensing.quantize import PoseQuantizer, QuantizationConfig
from repro.simkit import Simulator
from repro.sync.client import SyncClient
from repro.sync.delta import BatchDeltaEncoder, WorldState
from repro.sync.federation import ShardedSyncService
from repro.sync.interest import (
    BroadcastInterest,
    InterestConfig,
    InterestManager,
    naive_relevant,
)
from repro.sync.migration import FailoverController, MigratableClient
from repro.sync.protocol import ClientUpdate
from repro.sync.server import ServerCostModel, SyncServer
from tests.oracles.scalar_sync import DeltaEncoder, ScalarSyncServer
from tests.sync.test_federation import _virtual_plan

pytestmark = pytest.mark.vectorized


def _random_state(rng, pid, t, seq, epoch=0, joints=False):
    pose = Pose(position=rng.uniform(-8.0, 8.0, size=3),
                orientation=rng.normal(size=4))
    joint_rotations = rng.normal(size=(5, 4)) if joints else None
    return AvatarState(pid, t, pose, joint_rotations=joint_rotations,
                       seq=seq, epoch=epoch)


def _canon_state(state):
    return (
        state.participant_id, state.epoch, state.seq,
        tuple(state.pose.position.tolist()),
        tuple(state.pose.orientation.tolist()),
    )


def _canon_snapshot(snapshot):
    return (
        snapshot.tick,
        round(snapshot.server_time, 12),
        snapshot.full,
        snapshot.size_bytes,
        tuple(sorted(snapshot.removed)),
        tuple(sorted(_canon_state(state) for state in snapshot.states)),
    )


# -- encoder equivalence ------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    keyframe_interval=st.integers(min_value=1, max_value=4),
)
def test_batch_encoder_matches_scalar_oracle(seed, keyframe_interval):
    """Property: both encoders agree on every (sent, removed, full) set
    over randomized entity churn (apply/remove/re-add with slot reuse,
    epoch bumps) and randomized per-subscriber relevance."""
    rng = np.random.default_rng(seed)
    world = WorldState()
    scalar = DeltaEncoder(keyframe_interval=keyframe_interval)
    batch = BatchDeltaEncoder(keyframe_interval=keyframe_interval)
    entity_ids = [f"e{i}" for i in range(8)]
    subscriber_ids = ["s0", "s1", "s2"]
    seqs = {pid: -1 for pid in entity_ids}
    epochs = {pid: 0 for pid in entity_ids}
    for step in range(14):
        for pid in entity_ids:
            roll = rng.random()
            if roll < 0.55:
                seqs[pid] += 1
                world.apply(_random_state(
                    rng, pid, float(step), seqs[pid], epochs[pid],
                    joints=rng.random() < 0.3))
            elif roll < 0.70 and pid in world:
                world.remove(pid)
                if rng.random() < 0.5:  # crash/rejoin: reset seq, bump epoch
                    epochs[pid] += 1
                    seqs[pid] = -1
        if rng.random() < 0.2 and len(world):
            # Subscriber churn hits both encoders' forget paths.
            victim = subscriber_ids[int(rng.integers(len(subscriber_ids)))]
            scalar.forget(victim)
            batch.forget(victim)
        live = sorted(world.entities)
        relevant_sets = [
            {pid for pid in live if rng.random() < 0.6}
            for _ in subscriber_ids
        ]
        # Scalar pass.
        oracle = [
            scalar.encode(sub, world, relevant)
            for sub, relevant in zip(subscriber_ids, relevant_sets)
        ]
        # Batched pass over the same relevance as a slot CSR.
        slot_lists = [
            sorted(world.slot_of(pid) for pid in relevant)
            for relevant in relevant_sets
        ]
        offsets = np.concatenate(
            ([0], np.cumsum([len(s) for s in slot_lists]))).astype(np.int64)
        flat_slots = np.asarray(
            [slot for slots in slot_lists for slot in slots], dtype=np.int64)
        send_mask, full_flags, removed_lists = batch.encode_batch(
            world, subscriber_ids, offsets, flat_slots)
        for i, (states, removed, full) in enumerate(oracle):
            sent_slots = flat_slots[offsets[i]:offsets[i + 1]][
                send_mask[offsets[i]:offsets[i + 1]]]
            assert {_canon_state(world.state_at(s)) for s in sent_slots} == \
                {_canon_state(state) for state in states}, (seed, step, i)
            assert set(removed_lists[i]) == set(removed), (seed, step, i)
            assert bool(full_flags[i]) == full, (seed, step, i)


# -- interest CSR vs the naive oracle ----------------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_interest_csr_matches_naive_oracle(seed):
    """The CSR core, fed straight from ``WorldState.compact`` (including
    reused slots), reproduces ``naive_relevant`` for every subject —
    distance ties included (integer-grid positions make them common)."""
    rng = np.random.default_rng(seed)
    config = InterestConfig(
        radius_m=float(rng.integers(2, 7)),
        max_entities=int(rng.integers(1, 5)),
        always_relevant=frozenset({"e0"} if rng.random() < 0.5 else ()),
    )
    manager = InterestManager(config)
    world = WorldState()
    n = int(rng.integers(2, 14))
    for i in range(n):
        pose = Pose(position=rng.integers(0, 5, size=3).astype(float))
        world.apply(AvatarState(f"e{i}", 0.0, pose, seq=0))
    # Slot-reuse churn: remove a few, re-add with moved positions.
    for i in range(n):
        if rng.random() < 0.3:
            world.remove(f"e{i}")
    for i in range(n):
        if f"e{i}" not in world and rng.random() < 0.7:
            pose = Pose(position=rng.integers(0, 5, size=3).astype(float))
            world.apply(AvatarState(f"e{i}", 1.0, pose, seq=1))
    if not len(world):
        world.apply(AvatarState("e0", 2.0, Pose(), seq=2))
    ids, slots, points = world.compact()
    subject_self = np.arange(len(ids), dtype=np.int64)
    always_rows = np.asarray(sorted(
        i for i, entity_id in enumerate(ids)
        if entity_id in config.always_relevant), dtype=np.int64)
    offsets, flat = manager.relevant_indices_batch(
        points, points, subject_self, always_rows,
        world.lexicographic_ranks())
    positions = world.positions()
    for i, subject_id in enumerate(ids):
        got = {ids[j] for j in flat[offsets[i]:offsets[i + 1]]}
        expected = naive_relevant(config, subject_id, points[i], positions)
        assert got == expected, (seed, subject_id)


# -- server path equivalence --------------------------------------------------


def _make_interest(kind):
    if kind == "broadcast":
        return BroadcastInterest()
    return InterestManager(InterestConfig(
        radius_m=6.0, max_entities=4, always_relevant=frozenset({"e0"})))


def _run_server_scenario(server_cls, seed, keyframe_interval,
                         interest="grid"):
    """One seeded server run with entity + subscriber churn; returns the
    canonical per-client snapshot streams and the server."""
    sim = Simulator(seed=seed)
    rng = np.random.default_rng(seed)
    server = server_cls(
        sim, tick_rate_hz=20.0, interest=_make_interest(interest),
        keyframe_interval=keyframe_interval)
    client_ids = [f"c{i}" for i in range(4)]
    received = {cid: [] for cid in client_ids}

    def capture(cid):
        return lambda snapshot: received[cid].append(_canon_snapshot(snapshot))

    for cid in client_ids[:3]:
        server.subscribe(cid, capture(cid))
    entity_ids = client_ids + [f"e{i}" for i in range(8)]
    seqs = {pid: -1 for pid in entity_ids}
    epochs = {pid: 0 for pid in entity_ids}

    def driver():
        step = 0
        while sim.now < 1.95:
            for pid in entity_ids:
                if rng.random() < 0.7:
                    seqs[pid] += 1
                    server.ingest(ClientUpdate(
                        pid,
                        _random_state(rng, pid, sim.now, seqs[pid],
                                      epochs[pid],
                                      joints=rng.random() < 0.25),
                        seqs[pid]))
            if step == 12:
                server.unsubscribe("c1")       # subscriber churn ...
            if step == 20:
                server.subscribe("c1", capture("c1"))  # ... and return
                server.subscribe("c3", capture("c3"))  # late joiner
            if step == 16:
                server.world.remove("e3")      # entity drop + rejoin with
                epochs["e3"] += 1              # reset seq and bumped epoch
                seqs["e3"] = -1
            step += 1
            yield sim.timeout(0.05)

    sim.process(driver())
    server.run(duration=2.0)
    sim.run()
    return received, server


@pytest.mark.parametrize("keyframe_interval", [1, 3, 30])
@pytest.mark.parametrize("seed", [11, 29])
def test_server_snapshot_streams_byte_identical(seed, keyframe_interval):
    """The vectorized server's per-client snapshot stream equals the
    scalar oracle's byte for byte (tick, time, full flag, wire size,
    removals, state contents) under entity and subscriber churn, with
    grid interest and with broadcast."""
    for interest in ("grid", "broadcast"):
        vector, _ = _run_server_scenario(
            SyncServer, seed, keyframe_interval, interest)
        scalar, _ = _run_server_scenario(
            ScalarSyncServer, seed, keyframe_interval, interest)
        assert vector == scalar, interest
        assert sum(len(stream) for stream in vector.values()) > 0


#: Recorded with broadcast on the scalar per-subscriber tick; the batched
#: tick must reproduce every snapshot and every modeled-cost input.
BROADCAST_PIN = (
    "c030b0b0121f8f810d5eb8518163599fb331e5d52f0d8f0bcbeed9a5ae7924f9")


def test_broadcast_server_run_is_pinned():
    """A broadcast server's canonical snapshot streams plus its egress,
    pairs-scanned and modeled tick-cost totals hash to a pinned value."""
    received, server = _run_server_scenario(SyncServer, 11, 3, "broadcast")
    metrics = server.metrics
    fingerprint = (
        sorted(received.items()),
        repr(metrics.counter("snapshot_bytes")),
        repr(metrics.counter("interest_pairs_scanned")),
        repr(sum(metrics.tracker("tick_cost").samples)),
    )
    digest = hashlib.sha256(repr(fingerprint).encode()).hexdigest()
    assert digest == BROADCAST_PIN


def _run_failover_scenario(server_cls, seed=7, duration=4.0):
    """The C3f scenario in miniature: primary crash, failure detection,
    re-attach to a standby; canonical snapshot stream at the client."""
    sim = Simulator(seed=seed)
    received = []
    servers = {}
    for name in ("primary", "standby"):
        server = server_cls(sim, name=name, tick_rate_hz=20.0)
        rng = np.random.default_rng(seed + (name == "standby"))
        seqs = {}

        def driver(server=server, rng=rng, seqs=seqs):
            while sim.now < duration - 1e-9:
                for i in range(4):
                    pid = f"{server.name}-bg{i}"
                    seqs[pid] = seqs.get(pid, -1) + 1
                    server.ingest(ClientUpdate(
                        pid, _random_state(rng, pid, sim.now, seqs[pid]),
                        seqs[pid]))
                yield sim.timeout(0.05)

        sim.process(driver())
        server.run(duration=duration)
        servers[name] = server

    holder = {}

    def path(server):
        def send(snapshot):
            received.append((server.name, _canon_snapshot(snapshot)))
            holder["m"].note_snapshot(snapshot, origin=server.name)
        return send

    client = SyncClient(sim, "student", transmit=lambda update: None)
    migratable = MigratableClient(
        sim, client, servers["primary"], path(servers["primary"]))
    holder["m"] = migratable
    controller = FailoverController(
        sim, migratable, detection_timeout=0.3, check_period=0.05)
    controller.add_standby(servers["standby"], path(servers["standby"]))
    controller.run(duration=duration)
    injector = FaultInjector(sim)
    injector.server_crash(
        servers["primary"], ServerCrashSchedule([(duration * 0.4, None)]))
    sim.run()
    return received, migratable.failovers, migratable.blackout_s


def test_failover_replay_byte_identical_across_paths():
    """Crash + handoff (the C3f scenario) replays byte-identically on the
    vectorized and scalar paths: same snapshots before the crash, same
    detection, same keyframe re-attach on the standby."""
    vector, failovers_v, blackout_v = _run_failover_scenario(SyncServer)
    scalar, failovers_s, blackout_s = _run_failover_scenario(
        ScalarSyncServer)
    assert failovers_v == failovers_s == 1  # the scenario really failed over
    assert blackout_v == blackout_s
    assert vector == scalar
    assert any(name == "standby" for name, _ in vector)


# -- batch quantizer ----------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    position_bits=st.integers(min_value=4, max_value=32),
    quat_bits=st.integers(min_value=2, max_value=16),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_quantizer_batch_bit_identical(position_bits, quat_bits, seed):
    """``roundtrip_batch`` is bit-for-bit the scalar ``roundtrip`` across
    quantization configs (same IEEE ops in the same order)."""
    quantizer = PoseQuantizer(QuantizationConfig(
        position_bits=position_bits, quat_bits=quat_bits))
    rng = np.random.default_rng(seed)
    poses = [
        Pose(position=rng.uniform(-25, 25, size=3),
             orientation=rng.normal(size=4))
        for _ in range(16)
    ]
    batch_pos, batch_quat = quantizer.roundtrip_batch(
        np.stack([pose.position for pose in poses]),
        np.stack([pose.orientation for pose in poses]))
    for i, pose in enumerate(poses):
        scalar = quantizer.roundtrip(pose)
        assert np.array_equal(scalar.position, batch_pos[i])
        assert np.array_equal(scalar.orientation, batch_quat[i])


# -- regression: keyframe cadence --------------------------------------------


@pytest.mark.parametrize("encoder_cls", [DeltaEncoder, BatchDeltaEncoder])
@pytest.mark.parametrize("interval", [1, 2, 3])
def test_keyframe_cadence_has_exact_period(encoder_cls, interval):
    """``keyframe_interval=k`` keyframes every k-th delivered snapshot —
    in particular ``k=1`` keyframes *every* tick (the off-by-one made it
    every other tick)."""
    world = WorldState()
    encoder = encoder_cls(keyframe_interval=interval)
    fulls = []
    for tick in range(9):
        world.apply(AvatarState("a", float(tick), Pose(), seq=tick))
        if encoder_cls is DeltaEncoder:
            _states, _removed, full = encoder.encode("sub", world, {"a"})
        else:
            slot = world.slot_of("a")
            _mask, full_flags, _removed = encoder.encode_batch(
                world, ["sub"], np.array([0, 1], dtype=np.int64),
                np.array([slot], dtype=np.int64))
            full = bool(full_flags[0])
        fulls.append(full)
    assert fulls == [(tick % interval) == 0 for tick in range(9)]


@pytest.mark.parametrize("encoder_cls", [DeltaEncoder, BatchDeltaEncoder])
def test_keyframe_counter_holds_until_actually_sent(encoder_cls):
    """A forced keyframe that carries nothing (the server drops empty
    snapshots) must stay pending until there is content to recover from."""
    world = WorldState()
    encoder = encoder_cls(keyframe_interval=2)

    def encode(relevant_slots):
        if encoder_cls is DeltaEncoder:
            relevant = {world.id_at(s) for s in relevant_slots}
            states, removed, full = encoder.encode("sub", world, relevant)
            return len(states), removed, full
        offsets = np.array([0, len(relevant_slots)], dtype=np.int64)
        mask, full_flags, removed = encoder.encode_batch(
            world, ["sub"], offsets,
            np.asarray(relevant_slots, dtype=np.int64))
        return int(mask.sum()), removed[0], bool(full_flags[0])

    world.apply(AvatarState("a", 0.0, Pose(), seq=0))
    slot = world.slot_of("a")
    sent, _removed, full = encode([slot])       # first contact: keyframe
    assert full and sent == 1
    sent, _removed, full = encode([slot])       # delta tick, nothing new
    assert not full and sent == 0
    # The interval has elapsed but relevance is empty... except for the
    # removal, so this keyframe does deliver — counter resets.
    sent, removed, full = encode([])
    assert full and list(removed) == ["a"]
    # Fresh subscriber state: nothing seen, next non-empty tick keyframes.
    world.apply(AvatarState("a", 1.0, Pose(), seq=1))
    sent, _removed, full = encode([world.slot_of("a")])
    assert full and sent == 1


# -- regression: egress divides by time-averaged subscriber count -------------


def test_egress_per_client_uses_time_averaged_subscribers():
    """Subscribers that leave mid-window keep their weight in the
    per-client egress mean: 4 clients for the first half and 1 for the
    second divides by 2.5, not by the 1 left at read time."""
    sim = Simulator(seed=5)
    server = SyncServer(sim, tick_rate_hz=20.0)
    client_ids = [f"c{i}" for i in range(4)]
    rng = np.random.default_rng(5)
    for cid in client_ids:
        server.subscribe(cid, lambda snapshot: None)

    def driver():
        seqs = {cid: -1 for cid in client_ids}
        while sim.now < 3.95:
            for cid in client_ids:
                seqs[cid] += 1
                server.ingest(ClientUpdate(
                    cid, _random_state(rng, cid, sim.now, seqs[cid]),
                    seqs[cid]))
            yield sim.timeout(0.05)

    def churn():
        yield sim.timeout(2.0)
        for cid in client_ids[1:]:
            server.unsubscribe(cid)

    sim.process(driver())
    sim.process(churn())
    server.run(duration=4.0)
    sim.run()
    sent = server.metrics.counter("snapshot_bytes")
    assert sent > 0
    mean_subscribers = (4 * 2.0 + 1 * 2.0) / 4.0
    expected = sent / mean_subscribers / 4.0
    assert server.egress_bytes_per_client_s() == pytest.approx(expected)
    # The pre-fix computation (instantaneous count at read time).
    buggy = sent / len(server._subscribers) / 4.0
    assert server.egress_bytes_per_client_s() < 0.5 * buggy


# -- regression: epoch thaws crash/rejoin clients -----------------------------


def test_world_state_epoch_unfreezes_reset_seq():
    """A rejoining publisher with a reset seq is stale at epoch parity
    (the frozen-client bug) and accepted after an epoch bump; epochs
    never regress."""
    world = WorldState()
    assert world.apply(AvatarState("u", 0.0, Pose(), seq=9))
    stale_rejoin = AvatarState("u", 1.0, Pose(position=[1, 0, 0]), seq=0)
    assert not world.apply(stale_rejoin)         # frozen without an epoch
    assert world.entities["u"].seq == 9
    fresh = AvatarState("u", 1.0, Pose(position=[1, 0, 0]), seq=0, epoch=1)
    assert world.apply(fresh)                    # the fix: epoch wins
    assert world.entities["u"].epoch == 1 and world.entities["u"].seq == 0
    old_epoch = AvatarState("u", 2.0, Pose(), seq=99, epoch=0)
    assert not world.apply(old_epoch)            # pre-crash stragglers lose


def test_epoch_rejoin_through_cross_shard_ghosts():
    """The federated shape of the freeze: a user's pre-crash ghost (high
    seq) lives in another shard's world; after the home shard dies the
    user re-homes there and publishes with a reset seq.  The bumped
    epoch must thaw the ghost."""
    sim = Simulator(seed=3)
    plan, _users = _virtual_plan(2, 2)           # u00 -> s0, u01 -> s1
    service = ShardedSyncService(sim, plan, interest_config=InterestConfig(
        radius_m=10.0, max_entities=8))
    service.add_client("u01")                    # s1 subscriber => digests

    def publish(epoch, start, count):
        def body():
            for seq in range(count):
                state = AvatarState(
                    "u00", sim.now,
                    Pose(position=[1.0 + 0.1 * seq + epoch, 0.0, 1.2]),
                    seq=seq, epoch=epoch)
                service.route_update("u00", ClientUpdate("u00", state, seq))
                yield sim.timeout(0.05)

        def arm():
            yield sim.timeout(start)
            yield from body()

        sim.process(arm())

    publish(epoch=0, start=0.0, count=20)        # first session, homed s0
    service.start(6.0)

    def crash_and_rehome():
        yield sim.timeout(2.5)
        service.shards["s0"].crash()
        service.home["u00"] = "s1"               # rejoin lands on s1

    sim.process(crash_and_rehome())
    publish(epoch=1, start=3.0, count=10)        # reset seq, bumped epoch
    sim.run()
    ghost = service.shards["s1"].world.entities["u00"]
    assert ghost.epoch == 1 and ghost.seq == 9   # thawed, not frozen at 19
    assert ghost.pose.position[0] == pytest.approx(1.0 + 0.9 + 1)


# -- the vectorized cost model ------------------------------------------------


def test_vectorized_cost_model_holds_20hz_at_10k():
    """The calibrated batched-tick constants keep a 10k-entity shard's
    modeled tick inside a 20 Hz period at C3a-like interest density."""
    model = ServerCostModel.vectorized()
    cost = model.tick_cost(
        n_updates=10_000, n_subscribers=10_000, n_entities=10_000,
        n_states_sent=10_000 * 50, pairs_scanned=10_000 * 500)
    assert cost < 0.05
    assert model.base == ServerCostModel().base
