"""The scalar per-subscriber sync data plane, kept as a test oracle.

This is the pre-vectorization pipeline, moved here verbatim from
``repro.sync``: a per-subject interest loop (:func:`relevant_sets_scalar`),
a per-entity delta encoder (:class:`DeltaEncoder`) and a tick that
encodes one subscriber at a time (:class:`ScalarSyncServer`).  The
production :class:`~repro.sync.server.SyncServer` runs only the batched
SoA tick; the ``vectorized`` equivalence suite byte-compares it against
this code, and the C3a wall-clock sweep times this class as its scalar
baseline, so the speedup gate measures the code that was replaced.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set

import numpy as np

from repro.avatar.state import AvatarState
from repro.sync.delta import WorldState
from repro.sync.interest import InterestConfig, InterestManager, SpatialHashGrid
from repro.sync.protocol import ServerSnapshot
from repro.sync.server import SyncServer

_ORIGIN = np.zeros(3)


def _version_key(state: AvatarState) -> tuple:
    return (getattr(state, "epoch", 0), state.seq)


class DeltaEncoder:
    """Tracks what each subscriber has seen and encodes the difference.

    For every subscriber the encoder remembers the last ``(epoch, seq)``
    sent per entity; a delta contains only entities whose version moved,
    entities that entered the relevant set, and a removal list for entities
    that left it.  ``keyframe_interval`` forces periodic full snapshots so
    joiners and loss recover.

    This is the scalar per-entity reference path, the oracle the
    ``vectorized`` property suite checks
    :class:`~repro.sync.delta.BatchDeltaEncoder` against byte-for-byte.

    Keyframe cadence: ``keyframe_interval=k`` emits a keyframe every k-th
    *sent* snapshot tick — the counter increments before the threshold
    check (``interval=1`` keyframes every tick) and only resets when the
    keyframe actually carries content, because the server skips empty
    snapshots and a client cannot recover from a keyframe it never got.
    """

    def __init__(self, keyframe_interval: int = 30):
        if keyframe_interval < 1:
            raise ValueError("keyframe interval must be >= 1")
        self.keyframe_interval = keyframe_interval
        self._seen: Dict[str, Dict[str, tuple]] = {}
        self._ticks_since_keyframe: Dict[str, int] = {}

    def encode(
        self,
        subscriber_id: str,
        world: WorldState,
        relevant: Set[str],
    ) -> tuple:
        """(states to send, removed ids, is_full) for this subscriber."""
        seen = self._seen.setdefault(subscriber_id, {})
        ticks = self._ticks_since_keyframe.get(subscriber_id, 0) + 1
        force_full = ticks >= self.keyframe_interval or not seen
        states: List[AvatarState] = []
        for entity_id in relevant:
            state = world.entities.get(entity_id)
            if state is None:
                # Deleted from the world while still in the relevant set:
                # handled below as a removal so the subscriber's replica
                # does not keep a ghost of it.
                continue
            if force_full or seen.get(entity_id, (-1, -1)) < _version_key(state):
                states.append(state)
        removed = [
            entity_id
            for entity_id in seen
            if entity_id not in relevant or entity_id not in world.entities
        ]
        # Update bookkeeping.
        for state in states:
            seen[state.participant_id] = _version_key(state)
        for entity_id in removed:
            del seen[entity_id]
        # The counter resets only when the keyframe is actually sent: the
        # server drops empty snapshots, so an empty forced keyframe must
        # stay pending until there is content to recover from.
        if force_full and (states or removed):
            ticks = 0
        self._ticks_since_keyframe[subscriber_id] = ticks
        return states, removed, force_full

    def forget(self, subscriber_id: str) -> None:
        """Drop a disconnected subscriber's bookkeeping."""
        self._seen.pop(subscriber_id, None)
        self._ticks_since_keyframe.pop(subscriber_id, None)

    def acked_seq(self, subscriber_id: str, entity_id: str) -> Optional[int]:
        version = self._seen.get(subscriber_id, {}).get(entity_id)
        return None if version is None else version[1]


def relevant_sets_scalar(
    config: InterestConfig,
    positions: Mapping[str, np.ndarray],
    subjects: Optional[Mapping[str, np.ndarray]] = None,
) -> tuple:
    """The pre-vectorization per-subject interest loop.

    One grid build, then a Python ranking pass per subject.  Returns
    ``(relevant sets, pairs scanned)``.
    """
    if subjects is None:
        subjects = positions
    grid = SpatialHashGrid.from_positions(positions, config.radius_m)
    always_pool = [
        entity_id
        for entity_id in config.always_relevant
        if entity_id in positions
    ]
    pairs_scanned = 0
    results: Dict[str, Set[str]] = {}
    for subject_id, point in subjects.items():
        point = np.asarray(point, dtype=float)
        always = {e for e in always_pool if e != subject_id}
        candidates = grid.candidate_indices(point)
        pairs_scanned += len(candidates)
        if len(candidates) == 0:
            results[subject_id] = always
            continue
        distances = np.linalg.norm(grid.points[candidates] - point, axis=1)
        within = distances <= config.radius_m
        ranked: List[tuple] = []
        for distance, index in zip(
            distances[within].tolist(), candidates[within].tolist()
        ):
            entity_id = grid.ids[index]
            if entity_id == subject_id or entity_id in always:
                continue
            ranked.append((distance, entity_id))
        ranked.sort()
        nearest = {e for _d, e in ranked[: config.max_entities]}
        results[subject_id] = always | nearest
    return results, pairs_scanned


class ScalarSyncServer(SyncServer):
    """:class:`SyncServer` on the scalar per-subscriber tick.

    Everything but the tick and the delta encoder is inherited, so
    membership, decimation, crash/restart and the measurement window are
    the production code paths.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.encoder = DeltaEncoder(keyframe_interval=self._keyframe_interval)

    def restart(self) -> None:
        super().restart()
        self.encoder = DeltaEncoder(keyframe_interval=self._keyframe_interval)

    def _relevant_sets(self, positions: Dict[str, np.ndarray]) -> tuple:
        """All subscribers' relevant sets plus the pairs-scanned count.

        Grid interest runs the per-subject loop; broadcast (anything
        else) asks each subject separately and counts the dense scan.
        """
        subjects = {
            client_id: positions.get(client_id, _ORIGIN)
            for client_id in self._subscribers
        }
        if isinstance(self.interest, InterestManager):
            return relevant_sets_scalar(
                self.interest.config, positions, subjects)
        relevant_sets = {
            client_id: self.interest.relevant(client_id, point, positions)
            for client_id, point in subjects.items()
        }
        return relevant_sets, len(subjects) * len(positions)

    def _do_tick(self) -> float:
        """The scalar per-subscriber tick."""
        obs = self.sim.obs
        prof = self.profiler
        if prof.enabled:
            prof.begin("apply")
        updates, self._pending = self._pending, []
        for update in updates:
            self.world.apply(update.state)
        positions = self.world.positions()
        if prof.enabled:
            prof.switch("interest")
        relevant_sets, pairs_scanned = self._relevant_sets(positions)

        # Attribute the wait between ingest and this tick to each traced
        # update, and precompute the per-subscriber compute share so the
        # interest/delta stage can be budgeted against those traces too.
        traced: Dict[str, tuple] = {}
        compute_share = 0.0
        if obs.enabled:
            now = self.sim.now
            if self._traced:
                traced, self._traced = self._traced, {}
                for entity_id, (ctx, ingested_at) in traced.items():
                    obs.record_span(
                        "tick_wait", "tick_wait", ingested_at, now,
                        parent=ctx, entity=entity_id, tick=self.tick_count)
            n_subs = max(1, len(self._subscribers))
            compute_share = (
                self.cost_model.base
                + self.cost_model.per_update * len(updates)
                + self.cost_model.per_entity_scan * pairs_scanned
            ) / n_subs
        spanned: set = set()

        if prof.enabled:
            prof.switch("serialize")
        states_sent = 0
        for client_id, send in self._subscribers.items():
            if self._decimation and not self._sends_this_tick(client_id):
                # Skipped before the delta encode, so this client's
                # encoder state stays at its last served tick and the
                # next served snapshot carries the cumulative delta.
                self.metrics.incr("snapshots_decimated")
                continue
            relevant = relevant_sets[client_id]
            if prof.enabled:
                # Nested: delta self-time is carved out of serialize.
                prof.begin("delta")
                states, removed, full = self.encoder.encode(
                    client_id, self.world, relevant)
                prof.end()
            else:
                states, removed, full = self.encoder.encode(
                    client_id, self.world, relevant)
            if not states and not removed:
                continue
            snapshot = ServerSnapshot(
                tick=self.tick_count,
                server_time=self.sim.now,
                states=[state.copy() for state in states],
                removed=removed,
                full=full,
            )
            if traced:
                included = {
                    state.participant_id for state in states
                    if state.participant_id in traced
                }
                if included:
                    now = self.sim.now
                    ready_at = now + compute_share + \
                        self.cost_model.per_state_sent * len(states)
                    snapshot.trace = {}
                    # sorted(): `included` is a set; span/trace-map
                    # order must be stable for byte-identical trace
                    # replay across interpreter runs.
                    for entity_id in sorted(included):
                        ctx, _ingested_at = traced[entity_id]
                        snapshot.trace[entity_id] = (ctx, ready_at)
                        if entity_id not in spanned:
                            spanned.add(entity_id)
                            obs.record_span(
                                "interest_delta", "interest_delta",
                                now, ready_at, parent=ctx,
                                entity=entity_id, tick=self.tick_count,
                                states=len(states))
            states_sent += len(states)
            self.metrics.incr("snapshot_bytes", snapshot.size_bytes)
            self.metrics.incr("snapshots_sent")
            send(snapshot)
        if prof.enabled:
            prof.end()
        cost = self.cost_model.tick_cost(
            len(updates), len(self._subscribers), len(self.world), states_sent,
            pairs_scanned=pairs_scanned,
        )
        if obs.enabled:
            now = self.sim.now
            obs.record_span(
                "tick", "tick", now, now + cost,
                server=self.name, tick=self.tick_count,
                updates=len(updates), states_sent=states_sent,
                subscribers=len(self._subscribers),
                pairs_scanned=pairs_scanned)
        self.metrics.tracker("tick_cost").record(cost)
        self.metrics.incr("updates_ingested", len(updates))
        self.metrics.incr("interest_pairs_scanned", pairs_scanned)
        self.tick_count += 1
        return cost
