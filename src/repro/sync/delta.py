"""World state and per-client delta encoding.

The world is stored **structure-of-arrays**: positions, orientations,
per-entity ``(epoch, seq)`` versions and wire sizes live in contiguous
numpy arrays indexed by *slot*, with a stable ``id -> slot`` mapping for
the lifetime of each entity (`` WorldState`` keeps the familiar
``entities`` dict view in lock-step, so object-oriented callers are
unaffected).  The SoA arrays are the canonical representation the
vectorized tick path consumes directly — interest management and the
batched delta encoder read them without rebuilding per-id dictionaries.

:class:`BatchDeltaEncoder` is the one delta encoder: it computes every
subscriber's changed/removed sets in one vectorized pass over a sparse
subscribers x entities seen-version structure (sorted
``row << 32 | slot`` key arrays) compared against the world's
``(epoch, seq)`` arrays.  The original scalar per-entity encoder lives
on as a test oracle (``DeltaEncoder`` in ``tests/oracles/scalar_sync.py``),
which the ``vectorized`` property suite checks it against.

Versioning is ``(epoch, seq)``: a client that crashes and rejoins with a
reset sequence counter bumps its *epoch*, so its fresh updates are never
mistaken for stale duplicates of the pre-crash stream (previously such a
client was silently frozen until its new seq overtook its old one).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.avatar.state import AvatarState
from repro.sensing.quantize import QuantizationConfig

#: Owner code of locally-authoritative entities (see ``WorldState.apply``);
#: federation ghosts carry the code of their home shard.
OWNER_LOCAL = 0

#: Wire size of a root-pose-only state under the default quantization
#: config; ``WorldState.apply`` sits on the ingest hot path, and for the
#: overwhelmingly common joints/expression-free update the size is this
#: constant rather than a per-call recomputation (16-byte header plus
#: the quantized root pose — mirrors ``AvatarState.wire_bytes``).
_BASE_WIRE_BYTES = 16 + QuantizationConfig().pose_bytes

_INITIAL_CAPACITY = 64


class WorldState:
    """The authoritative set of entity states, versioned by (epoch, seq).

    Structure-of-arrays backing: each live entity occupies one *slot*;
    ``positions[slot]``, ``orientations[slot]``, ``epochs[slot]``,
    ``seqs[slot]`` and ``wire_sizes[slot]`` are the canonical copies the
    vectorized sync path reads.  Slots are stable while an entity lives;
    removal frees the slot for reuse and appends to a removal log that
    batch encoders drain (so a reused slot can never be mistaken for the
    entity that used to live there).

    The ``entities`` dict (id -> :class:`AvatarState`) is maintained in
    lock-step for object-oriented callers and the scalar oracle path.
    """

    def __init__(self):
        self.entities: Dict[str, AvatarState] = {}
        self.version = 0
        capacity = _INITIAL_CAPACITY
        self.positions_arr = np.zeros((capacity, 3))
        self.orientations_arr = np.zeros((capacity, 4))
        self.seqs = np.full(capacity, -1, dtype=np.int64)
        self.epochs = np.full(capacity, -1, dtype=np.int64)
        self.wire_sizes = np.zeros(capacity, dtype=np.int64)
        self.owners = np.full(capacity, OWNER_LOCAL, dtype=np.int32)
        self._alive = np.zeros(capacity, dtype=bool)
        self._slot_ids: List[Optional[str]] = [None] * capacity
        self._slot_states: List[Optional[AvatarState]] = [None] * capacity
        self._index: Dict[str, int] = {}
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        #: (entity_id, slot) pairs removed since the beginning of time;
        #: batch encoders remember how far they have drained.
        self.removal_log: List[Tuple[str, int]] = []
        #: Bumped whenever the live slot set changes (add/remove), which
        #: invalidates caches derived from membership (compaction, ranks).
        self.membership_version = 0
        self._compact_cache: Optional[tuple] = None
        self._rank_cache: Optional[np.ndarray] = None

    # -- capacity ----------------------------------------------------------

    @property
    def capacity(self) -> int:
        return len(self._slot_ids)

    def _grow(self) -> None:
        old = self.capacity
        new = old * 2
        self.positions_arr = np.vstack(
            [self.positions_arr, np.zeros((old, 3))])
        self.orientations_arr = np.vstack(
            [self.orientations_arr, np.zeros((old, 4))])
        self.seqs = np.concatenate(
            [self.seqs, np.full(old, -1, dtype=np.int64)])
        self.epochs = np.concatenate(
            [self.epochs, np.full(old, -1, dtype=np.int64)])
        self.wire_sizes = np.concatenate(
            [self.wire_sizes, np.zeros(old, dtype=np.int64)])
        self.owners = np.concatenate(
            [self.owners, np.full(old, OWNER_LOCAL, dtype=np.int32)])
        self._alive = np.concatenate([self._alive, np.zeros(old, dtype=bool)])
        self._slot_ids.extend([None] * old)
        self._slot_states.extend([None] * old)
        self._free.extend(range(new - 1, old - 1, -1))

    # -- mutation ----------------------------------------------------------

    def apply(self, state: AvatarState, owner: int = OWNER_LOCAL) -> bool:
        """Insert/overwrite an entity if the update is not stale.

        Staleness is ``(epoch, seq)`` lexicographic: a higher epoch always
        wins (the crash/rejoin path), equal epochs compare sequence
        numbers.  ``owner`` tags the slot for federation (ghost copies
        carry their home shard's code).  Returns True when applied.
        """
        entity_id = state.participant_id
        slot = self._index.get(entity_id)
        if slot is not None:
            epoch = getattr(state, "epoch", 0)
            if (epoch, state.seq) <= (
                    int(self.epochs[slot]), int(self.seqs[slot])):
                return False  # stale or duplicate update
        else:
            if not self._free:
                self._grow()
            slot = self._free.pop()
            self._slot_ids[slot] = entity_id
            self._alive[slot] = True
            self._index[entity_id] = slot
            self.membership_version += 1
            self._compact_cache = None
            self._rank_cache = None
        self.positions_arr[slot] = state.pose.position
        self.orientations_arr[slot] = state.pose.orientation
        self.seqs[slot] = state.seq
        self.epochs[slot] = getattr(state, "epoch", 0)
        if state.joint_rotations is None and state.expression is None:
            self.wire_sizes[slot] = _BASE_WIRE_BYTES
        else:
            self.wire_sizes[slot] = state.wire_bytes()
        self.owners[slot] = owner
        self._slot_states[slot] = state
        self.entities[entity_id] = state
        self.version += 1
        return True

    def apply_many(self, states: List[AvatarState],
                   owner: int = OWNER_LOCAL) -> int:
        """Batch :meth:`apply`; returns how many updates were applied.

        Semantically identical to applying each state in order.  The fast
        path vectorizes the staleness test and the array scatters for the
        steady-state tick — every id already live, at most one update per
        id, root-pose-only payloads, nothing stale.  Any other shape
        (joins, joint/expression payloads, in-batch duplicates, stale
        updates) falls back to the per-state loop, whose semantics are
        the reference.
        """
        m = len(states)
        if m < 2:
            return sum(1 for st in states if self.apply(st, owner))
        index = self._index
        slots = np.empty(m, dtype=np.int64)
        simple = True
        for j, st in enumerate(states):
            slot = index.get(st.participant_id)
            if slot is None or st.joint_rotations is not None \
                    or st.expression is not None:
                simple = False
                break
            slots[j] = slot
        if not simple or len(np.unique(slots)) != m:
            return sum(1 for st in states if self.apply(st, owner))
        new_epochs = np.fromiter(
            (getattr(st, "epoch", 0) for st in states),
            dtype=np.int64, count=m)
        new_seqs = np.fromiter(
            (st.seq for st in states), dtype=np.int64, count=m)
        cur_e, cur_s = self.epochs[slots], self.seqs[slots]
        fresh = (new_epochs > cur_e) \
            | ((new_epochs == cur_e) & (new_seqs > cur_s))
        if not fresh.all():
            return sum(1 for st in states if self.apply(st, owner))
        self.positions_arr[slots] = np.concatenate(
            [st.pose.position for st in states]).reshape(m, 3)
        self.orientations_arr[slots] = np.concatenate(
            [st.pose.orientation for st in states]).reshape(m, 4)
        self.seqs[slots] = new_seqs
        self.epochs[slots] = new_epochs
        self.wire_sizes[slots] = _BASE_WIRE_BYTES
        self.owners[slots] = owner
        slot_states = self._slot_states
        entities = self.entities
        for slot, st in zip(slots.tolist(), states):
            slot_states[slot] = st
            entities[st.participant_id] = st
        self.version += m
        return m

    def remove(self, participant_id: str) -> None:
        slot = self._index.pop(participant_id, None)
        if slot is None:
            return
        del self.entities[participant_id]
        self._alive[slot] = False
        self._slot_ids[slot] = None
        self._slot_states[slot] = None
        self.seqs[slot] = -1
        self.epochs[slot] = -1
        self._free.append(slot)
        self.removal_log.append((participant_id, slot))
        self.membership_version += 1
        self._compact_cache = None
        self._rank_cache = None
        self.version += 1

    # -- queries -----------------------------------------------------------

    def slot_of(self, participant_id: str) -> Optional[int]:
        """The entity's slot (stable while it lives), or None."""
        return self._index.get(participant_id)

    def id_at(self, slot: int) -> Optional[str]:
        return self._slot_ids[slot]

    def state_at(self, slot: int) -> Optional[AvatarState]:
        return self._slot_states[slot]

    def states_at(self, slots) -> List[AvatarState]:
        """Gather the live state objects at ``slots`` (no copies)."""
        slot_states = self._slot_states
        return [slot_states[s] for s in slots]

    def compact(self) -> tuple:
        """``(ids, slots, points)`` of the live entities, cached.

        ``slots`` is an int64 array mapping compact row -> slot; ``points``
        is the (n, 3) gathered position block.  The cache key is the
        world ``version`` (positions move every tick) — membership changes
        also bump it, so both invalidate correctly.
        """
        cache = self._compact_cache
        if cache is not None and cache[0] == self.version:
            return cache[1]
        slots = np.flatnonzero(self._alive)
        ids = [self._slot_ids[s] for s in slots]
        points = self.positions_arr[slots]
        result = (ids, slots, points)
        self._compact_cache = (self.version, result)
        return result

    def lexicographic_ranks(self) -> np.ndarray:
        """Rank of each live entity (compact order) under id string sort.

        Cached per membership change: distance ties in interest queries
        break lexicographically by id, and recomputing the string sort
        every tick would put per-id Python work back on the hot path.
        """
        if self._rank_cache is not None and \
                self._rank_cache[0] == self.membership_version:
            return self._rank_cache[1]
        ids, _slots, _points = self.compact()
        order = sorted(range(len(ids)), key=ids.__getitem__)
        ranks = np.empty(len(ids), dtype=np.int64)
        ranks[np.asarray(order, dtype=np.int64)] = np.arange(
            len(ids), dtype=np.int64)
        self._rank_cache = (self.membership_version, ranks)
        return ranks

    def positions(self) -> Dict[str, np.ndarray]:
        """Id -> position mapping (object-oriented compatibility view).

        The server tick never calls this: it reads :meth:`compact`
        directly.  Rows are views into the SoA block, not copies.
        """
        return {
            entity_id: self.positions_arr[slot]
            for entity_id, slot in self._index.items()
        }

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, participant_id: str) -> bool:
        return participant_id in self._index


class BatchDeltaEncoder:
    """All subscribers' deltas for one world in a single vectorized pass.

    Seen state is a sparse subscribers x entities structure: one sorted
    int64 key array (``row << 32 | slot``) with parallel ``(epoch, seq)``
    arrays.  Each :meth:`encode_batch` call

    1. drains the world's removal log — entries whose slot died become
       pending removals for every row that had seen them (and are purged,
       so slot reuse can never alias a dead entity);
    2. builds the current relevance CSR's key array and joins it against
       the seen keys with one ``searchsorted``: an entry is *sent* when
       its row is keyframing, it was never seen, or its world
       ``(epoch, seq)`` moved;
    3. emits per-row removals for seen entries that left relevance;
    4. replaces the rows' seen entries with the relevance CSR stamped at
       the current world versions (every relevant live entity is seen
       after an encode — unsent entries were already at the world
       version, which is what made them unsent).

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
        self._row_of: Dict[str, int] = {}
        self._next_row = 0
        self._ticks = np.zeros(0, dtype=np.int64)     # indexed by row
        self._row_counts = np.zeros(0, dtype=np.int64)
        self._keys = np.zeros(0, dtype=np.int64)      # sorted row<<32|slot
        self._epochs = np.zeros(0, dtype=np.int64)
        self._seqs = np.zeros(0, dtype=np.int64)
        #: row -> [(entity_id, seen_epoch, seen_seq)] whose slot died since
        #: the row's last encode.  If the id is alive and relevant again at
        #: encode time the entry restores stale-suppression (the scalar
        #: oracle's seen dict survives a remove + re-add of the same id);
        #: otherwise it becomes a removal.
        self._pending: Dict[int, List[Tuple[str, int, int]]] = {}
        self._log_drained = 0

    # -- row bookkeeping ---------------------------------------------------

    def _row(self, subscriber_id: str) -> int:
        row = self._row_of.get(subscriber_id)
        if row is None:
            row = self._next_row
            self._row_of[subscriber_id] = row
            self._next_row += 1
            if row >= len(self._ticks):
                grow = max(64, len(self._ticks))
                self._ticks = np.concatenate(
                    [self._ticks, np.zeros(grow, dtype=np.int64)])
                self._row_counts = np.concatenate(
                    [self._row_counts, np.zeros(grow, dtype=np.int64)])
        return row

    def forget(self, subscriber_id: str) -> None:
        """Drop a disconnected subscriber's bookkeeping."""
        row = self._row_of.pop(subscriber_id, None)
        if row is None:
            return
        keep = (self._keys >> np.int64(32)) != row
        if not keep.all():
            self._keys = self._keys[keep]
            self._epochs = self._epochs[keep]
            self._seqs = self._seqs[keep]
        self._row_counts[row] = 0
        self._ticks[row] = 0
        self._pending.pop(row, None)

    def acked_seq(self, subscriber_id: str, entity_id: str,
                  world: WorldState) -> Optional[int]:
        """Last seq sent to ``subscriber_id`` for ``entity_id`` (or None)."""
        row = self._row_of.get(subscriber_id)
        slot = world.slot_of(entity_id)
        if row is None or slot is None:
            return None
        key = np.int64((row << 32) | slot)
        pos = int(np.searchsorted(self._keys, key))
        if pos < len(self._keys) and self._keys[pos] == key:
            return int(self._seqs[pos])
        return None

    # -- the vectorized pass ----------------------------------------------

    def _drain_removal_log(self, world: WorldState) -> None:
        log = world.removal_log
        if self._log_drained >= len(log):
            return
        if len(self._keys):
            # Which id died at each slot?  The *first* removal of a slot
            # since the last drain is the entity the seen entries refer to
            # (later removals of a reused slot cannot be in seen: this
            # purge removed the slot's entries).
            dead_id_at: Dict[int, str] = {}
            for entity_id, slot in log[self._log_drained:]:
                dead_id_at.setdefault(slot, entity_id)
            dead_slots = np.asarray(sorted(dead_id_at), dtype=np.int64)
            slots = self._keys & np.int64(0xFFFFFFFF)
            dead_mask = np.isin(slots, dead_slots)
            if dead_mask.any():
                for key, epoch, seq in zip(
                        self._keys[dead_mask].tolist(),
                        self._epochs[dead_mask].tolist(),
                        self._seqs[dead_mask].tolist()):
                    self._pending.setdefault(key >> 32, []).append(
                        (dead_id_at[key & 0xFFFFFFFF], epoch, seq))
                keep = ~dead_mask
                self._keys = self._keys[keep]
                self._epochs = self._epochs[keep]
                self._seqs = self._seqs[keep]
                counts = np.bincount(
                    (self._keys >> np.int64(32)).astype(np.int64),
                    minlength=len(self._row_counts))
                self._row_counts[:len(counts)] = counts
                self._row_counts[len(counts):] = 0
        self._log_drained = len(log)

    def encode_batch(
        self,
        world: WorldState,
        subscriber_ids: List[str],
        offsets: np.ndarray,
        flat_slots: np.ndarray,
    ) -> tuple:
        """Encode every subscriber against its relevance CSR.

        ``offsets`` (len S+1) and ``flat_slots`` describe each
        subscriber's relevant entities as world slots (all alive).
        Returns ``(send_mask, full_flags, removed_lists)`` where
        ``send_mask`` selects the entries of ``flat_slots`` to ship,
        ``full_flags`` is the per-subscriber keyframe flag array and
        ``removed_lists`` the per-subscriber removed-id lists.
        """
        self._drain_removal_log(world)
        n_subs = len(subscriber_ids)
        rows = np.fromiter(
            (self._row(sub) for sub in subscriber_ids),
            dtype=np.int64, count=n_subs)
        offsets = np.asarray(offsets, dtype=np.int64)
        counts = np.diff(offsets)
        row_repeat = np.repeat(rows, counts)
        local_repeat = np.repeat(np.arange(n_subs, dtype=np.int64), counts)
        flat_slots = np.asarray(flat_slots, dtype=np.int64)
        cur_keys = (row_repeat << np.int64(32)) | flat_slots
        cur_epochs = world.epochs[flat_slots]
        cur_seqs = world.seqs[flat_slots]

        # Keyframe decision: counter increments first; "never seen
        # anything" rows also keyframe (the joiner path).  Pending entries
        # count as seen — the scalar oracle's seen dict still holds dead
        # entities at this point of its encode.
        has_pending = np.fromiter(
            (int(row) in self._pending for row in rows),
            dtype=bool, count=n_subs)
        ticks = self._ticks[rows] + 1
        full_flags = (ticks >= self.keyframe_interval) | \
            ((self._row_counts[rows] == 0) & ~has_pending)

        # Join current relevance against the seen structure.
        if len(self._keys):
            pos = np.searchsorted(self._keys, cur_keys)
            pos_clipped = np.minimum(pos, len(self._keys) - 1)
            matched = self._keys[pos_clipped] == cur_keys
            seen_ep = np.where(matched, self._epochs[pos_clipped], -1)
            seen_seq = np.where(matched, self._seqs[pos_clipped], -1)
            changed = (~matched) | (seen_ep < cur_epochs) | \
                ((seen_ep == cur_epochs) & (seen_seq < cur_seqs))
        else:
            changed = np.ones(len(cur_keys), dtype=bool)
        send_mask = np.repeat(full_flags, counts) | changed

        # Removals: seen entries of these rows that left relevance, plus
        # pending entries from world removals.  A pending id that is alive
        # and relevant again restores stale-suppression instead (matching
        # the scalar oracle, whose seen dict survives remove + re-add).
        order = np.argsort(cur_keys, kind="stable")
        sorted_cur_keys = cur_keys[order]
        removed_lists: List[List[str]] = [[] for _ in range(n_subs)]
        row_index = {int(row): i for i, row in enumerate(rows)}
        for row, pending in list(self._pending.items()):
            i = row_index.get(row)
            if i is None:
                continue
            del self._pending[row]
            lo, hi = int(offsets[i]), int(offsets[i + 1])
            for entity_id, seen_epoch, seen_seq_v in pending:
                slot = world.slot_of(entity_id)
                if slot is not None:
                    at = np.flatnonzero(flat_slots[lo:hi] == slot)
                    if len(at):
                        if not full_flags[i] and (seen_epoch, seen_seq_v) >= (
                                int(cur_epochs[lo + at[0]]),
                                int(cur_seqs[lo + at[0]])):
                            send_mask[lo + at[0]] = False
                        continue
                removed_lists[i].append(entity_id)
        if len(self._keys):
            in_batch = np.zeros(len(self._row_counts), dtype=bool)
            in_batch[rows] = True
            batch_rows = in_batch[self._keys >> np.int64(32)]
            stale = batch_rows.copy()
            stale_at = np.flatnonzero(stale)
            if len(stale_at) and len(sorted_cur_keys):
                stale_keys = self._keys[stale_at]
                pos = np.minimum(np.searchsorted(sorted_cur_keys, stale_keys),
                                 len(sorted_cur_keys) - 1)
                in_cur = sorted_cur_keys[pos] == stale_keys
                stale[stale_at[in_cur]] = False
            for key in self._keys[stale].tolist():
                removed_lists[row_index[key >> 32]].append(
                    world.id_at(key & 0xFFFFFFFF))
            # These rows' entries are replaced by the current relevance.
            keep = ~batch_rows
            kept_keys = self._keys[keep]
            kept_epochs = self._epochs[keep]
            kept_seqs = self._seqs[keep]
        else:
            kept_keys = self._keys
            kept_epochs = self._epochs
            kept_seqs = self._seqs

        # New seen state: the relevance CSR stamped at the current world
        # versions (unsent entries were already at the world version).
        new_keys = sorted_cur_keys
        new_epochs = cur_epochs[order]
        new_seqs = cur_seqs[order]
        if len(kept_keys):
            merged = np.concatenate([kept_keys, new_keys])
            merge_order = np.argsort(merged, kind="stable")
            self._keys = merged[merge_order]
            self._epochs = np.concatenate(
                [kept_epochs, new_epochs])[merge_order]
            self._seqs = np.concatenate([kept_seqs, new_seqs])[merge_order]
        else:
            self._keys = new_keys
            self._epochs = new_epochs
            self._seqs = new_seqs
        self._row_counts[rows] = counts

        # Cadence bookkeeping: reset only for keyframes that actually
        # carry content (the server drops empty snapshots).
        sent_counts = np.bincount(
            local_repeat[send_mask], minlength=n_subs)
        removed_counts = np.fromiter(
            (len(r) for r in removed_lists), dtype=np.int64, count=n_subs)
        delivered = (sent_counts > 0) | (removed_counts > 0)
        ticks = np.where(full_flags & delivered, 0, ticks)
        self._ticks[rows] = ticks
        return send_mask, full_flags, removed_lists
