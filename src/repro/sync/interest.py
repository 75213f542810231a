"""Interest management: which entities does each client need?

With thousands of participants, broadcasting everyone to everyone is
quadratic in bandwidth.  Relevance here combines the classic area-of-
interest radius with a nearest-k cap and an always-relevant set (the
instructor, active speakers) — the scheme the C3a experiment ablates
against full broadcast.

The query side is backed by a uniform spatial hash grid
(:class:`SpatialHashGrid`) with cell size equal to the interest radius,
so a radius query only examines the 3x3x3 block of cells around the
subject instead of every entity in the world.  The grid is a sorted
array of packed int64 cell keys, one per entity; a batch of query cells
finds its candidate blocks by binary search.  The server tick calls
:meth:`InterestManager.relevant_indices_batch`, which builds the grid
once per tick from the stacked entity positions and answers every
subscriber as one CSR of entity rows, expanding (subject, candidate)
pairs in fixed-size chunks with no Python loop over cells or subjects;
:meth:`InterestManager.relevant_batch` and
:meth:`InterestManager.relevant` are id-mapping wrappers over it.
:class:`BroadcastInterest` (the no-filtering baseline) speaks the same
CSR API, so both run through the one batched tick.
:func:`naive_relevant` keeps the original O(N) linear scan as the
reference oracle the equivalence tests check the grid against.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

_EMPTY_INDICES = np.empty(0, dtype=np.int64)

#: Offsets of the 3x3x3 neighbourhood; with ``cell_size >= radius`` every
#: entity within the radius of a query point lives in one of these cells.
_NEIGHBOUR_OFFSETS = tuple(product((-1, 0, 1), repeat=3))

#: Cell coordinates pack into one int64 as three 21-bit fields, each
#: biased by ``_CELL_BIAS``; a coordinate must satisfy
#: ``|c| < _CELL_BIAS`` so that neither it nor its neighbours' keys
#: spill into the next field.
_CELL_BITS = 21
_CELL_BIAS = 1 << (_CELL_BITS - 1)

#: Packed-key offsets of ``_NEIGHBOUR_OFFSETS``: adding one to a key
#: gives the key of the cell it names (fields never carry for in-bound
#: cells).
_NEIGHBOUR_KEYS = np.array(
    [(dx << (2 * _CELL_BITS)) + (dy << _CELL_BITS) + dz
     for dx, dy, dz in _NEIGHBOUR_OFFSETS], dtype=np.int64)

#: (subject, candidate) pairs expanded at once by the batch query; bounds
#: the pair arrays' memory on dense worlds.
_PAIR_CHUNK = 1 << 16


@functools.lru_cache(maxsize=64)
def _squared_radius_limit(radius: float) -> float:
    """Largest squared distance whose correctly-rounded sqrt still passes
    ``dist <= radius``.

    sqrt is monotone, so testing ``sq <= limit`` keeps exactly the pairs
    ``dist <= radius`` would, and the sqrt itself can be deferred to the
    much smaller kept set without changing a single bit.  An infinite
    radius keeps every finite distance.
    """
    if not math.isfinite(radius):
        return math.inf
    sq_limit = np.float64(radius) * np.float64(radius)
    while np.sqrt(sq_limit) > radius:
        sq_limit = np.nextafter(sq_limit, 0.0)
    while np.sqrt(np.nextafter(sq_limit, np.inf)) <= radius:
        sq_limit = np.nextafter(sq_limit, np.inf)
    return float(sq_limit)


@dataclass(frozen=True)
class InterestConfig:
    """Relevance policy parameters."""

    radius_m: float = 10.0
    max_entities: int = 50
    always_relevant: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if not self.radius_m > 0:
            raise ValueError("radius must be positive")
        if self.max_entities < 1:
            raise ValueError("max_entities must be >= 1")


def naive_relevant(
    config: InterestConfig,
    subject_id: str,
    subject_position: np.ndarray,
    positions: Mapping[str, np.ndarray],
) -> Set[str]:
    """Reference O(N) linear scan over every entity.

    This is the original (pre-grid) relevance computation, kept as the
    oracle for the grid/naive equivalence property tests and for
    documentation of the policy: always-relevant ids are unconditionally
    included and do not count against the nearest-k cap; the subject
    itself is excluded; ties at equal distance break lexicographically
    by entity id.
    """
    subject_position = np.asarray(subject_position, dtype=float)
    always = {
        entity_id
        for entity_id in config.always_relevant
        if entity_id in positions and entity_id != subject_id
    }
    candidates: List[tuple] = []
    for entity_id, position in positions.items():
        if entity_id == subject_id or entity_id in always:
            continue
        distance = float(np.linalg.norm(np.asarray(position, dtype=float)
                                        - subject_position))
        if distance <= config.radius_m:
            candidates.append((distance, entity_id))
    candidates.sort()
    nearest = {entity_id for _d, entity_id in candidates[: config.max_entities]}
    return always | nearest


class SpatialHashGrid:
    """Uniform spatial hash over a fixed set of entity positions.

    Entities are bucketed into cubic cells of ``cell_size`` metres keyed
    by their floored integer coordinates, packed into one int64 per cell
    (:meth:`cell_keys`).  Built once per query from the stacked (N, 3)
    position array: the entity keys are sorted with a stable argsort, so
    one cell's entities sit contiguously in ascending index order.  A
    lookup (:meth:`blocks`) finds the 27 cells around each query cell by
    binary search, which is exhaustive for any radius <= ``cell_size``.
    """

    def __init__(self, ids: List[str], points: np.ndarray, cell_size: float):
        if cell_size <= 0:
            raise ValueError("cell size must be positive")
        self.ids = ids
        self.points = points
        self.cell_size = cell_size
        keys = self.cell_keys(points) if len(ids) else _EMPTY_INDICES
        #: Entity rows in cell-key order; ``_keys`` holds their keys.
        self._order = np.argsort(keys, kind="stable")
        self._keys = keys[self._order]

    @classmethod
    def from_positions(
        cls, positions: Mapping[str, np.ndarray], cell_size: float
    ) -> "SpatialHashGrid":
        """Stack a ``{id: (3,) position}`` mapping into a grid."""
        ids = list(positions)
        if ids:
            points = np.array([positions[i] for i in ids], dtype=float)
        else:
            points = np.empty((0, 3), dtype=float)
        return cls(ids, points, cell_size)

    @property
    def n_cells(self) -> int:
        return len(np.unique(self._keys))

    def __len__(self) -> int:
        return len(self.ids)

    def cell_keys(self, points: np.ndarray) -> np.ndarray:
        """Packed int64 cell key of each (m, 3) point.

        Raises ``ValueError`` when a cell coordinate is outside
        ``(-2**20, 2**20)``: its key would alias a cell in the next field.
        """
        cells = np.floor(points / self.cell_size)
        if not (np.abs(cells) < _CELL_BIAS).all():
            raise ValueError(
                f"cell coordinate out of range: |floor(position / cell_size)| "
                f"must be < 2**{_CELL_BITS - 1} (cell size {self.cell_size} m)")
        biased = cells.astype(np.int64) + _CELL_BIAS
        return ((biased[:, 0] << (2 * _CELL_BITS))
                + (biased[:, 1] << _CELL_BITS) + biased[:, 2])

    def blocks(self, cell_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate rows of the 3x3x3 block around each query cell.

        ``cell_keys`` are packed cell keys.  Returns a CSR ``(offsets,
        flat)``: cell i's candidates are ``flat[offsets[i]:offsets[i + 1]]``,
        neighbour cells in ``_NEIGHBOUR_OFFSETS`` order and ascending row
        order within a cell.
        """
        near = (np.asarray(cell_keys, dtype=np.int64)[:, None]
                + _NEIGHBOUR_KEYS).ravel()
        lo = np.searchsorted(self._keys, near, side="left")
        lengths = np.searchsorted(self._keys, near, side="right") - lo
        ends = np.cumsum(lengths)
        offsets = np.zeros(len(cell_keys) + 1, dtype=np.int64)
        offsets[1:] = ends[len(_NEIGHBOUR_KEYS) - 1::len(_NEIGHBOUR_KEYS)]
        total = int(ends[-1]) if len(ends) else 0
        # Run r covers ``_order[lo[r]:lo[r] + lengths[r]]``; shift each
        # output position back by the run's output start to land there.
        flat = self._order[np.repeat(lo - (ends - lengths), lengths)
                           + np.arange(total)]
        return offsets, flat

    def candidate_indices(self, point: np.ndarray) -> np.ndarray:
        """Indices of entities in the 3x3x3 cell block around ``point``."""
        if not len(self._keys):
            return _EMPTY_INDICES
        return self.blocks(
            self.cell_keys(np.asarray(point, dtype=float).reshape(1, 3)))[1]


class InterestManager:
    """Computes each subscriber's relevant entity set via a spatial grid."""

    def __init__(self, config: InterestConfig = InterestConfig()):
        self.config = config
        #: Candidate (subscriber, entity) pairs examined by the most recent
        #: query; the server's cost model charges ``per_entity_scan`` for
        #: each, so modeled tick cost tracks actual grid work, not N x N.
        self.last_pairs_scanned = 0

    # -- queries -----------------------------------------------------------

    def relevant(
        self,
        subject_id: str,
        subject_position: np.ndarray,
        positions: Mapping[str, np.ndarray],
    ) -> Set[str]:
        """Entity ids relevant to ``subject_id``.

        Always-relevant ids are unconditionally included and do not count
        against the nearest-k cap; the subject itself is excluded.  Thin
        single-subject wrapper over :meth:`relevant_batch`.
        """
        batch = self.relevant_batch(
            positions, {subject_id: np.asarray(subject_position, dtype=float)}
        )
        return batch[subject_id]

    def relevant_indices_batch(
        self,
        points: np.ndarray,
        subject_points: np.ndarray,
        subject_self: np.ndarray,
        always_indices: np.ndarray,
        id_ranks: np.ndarray,
    ) -> tuple:
        """Relevance as a CSR over entity *indices* — the vectorized core.

        ``points`` is the (n, 3) stacked entity block (e.g. straight from
        ``WorldState.compact``); ``subject_points`` the (s, 3) query
        points; ``subject_self[i]`` the row of subject i in ``points`` (-1
        when the subject is not an entity, e.g. a disembodied spectator);
        ``always_indices`` the rows of the always-relevant entities
        present; ``id_ranks[j]`` the rank of entity j under lexicographic
        id order (distance ties break by id, exactly as
        :func:`naive_relevant`).

        Returns ``(offsets, flat)``: subject i's relevant entity rows are
        ``flat[offsets[i]:offsets[i + 1]]``, in candidate-block order.
        One grid build and one batched block lookup per distinct subject
        cell; (subject, candidate) pairs are then expanded subject-major in
        chunks of about ``_PAIR_CHUNK`` pairs, so the output is grouped by
        subject as it is produced.
        """
        n = len(points)
        s = len(subject_points)
        subject_self = np.asarray(subject_self, dtype=np.int64)
        always_indices = np.asarray(always_indices, dtype=np.int64)
        cand = subj = _EMPTY_INDICES
        self.last_pairs_scanned = 0
        if n and s:
            grid = SpatialHashGrid([None] * n, points, self.config.radius_m)
            subject_points = np.asarray(subject_points, dtype=float)
            # Subjects sharing a grid cell share its candidate block: look
            # each distinct cell up once.
            uniq, cell_of = np.unique(
                grid.cell_keys(subject_points), return_inverse=True)
            cell_of = cell_of.reshape(-1)
            block_offsets, block = grid.blocks(uniq)
            # Coordinate columns in block order, so a pair gathers from
            # one contiguous array per axis.
            bx, by, bz = (points[block, a] for a in range(3))
            # Always-relevant rows are unioned in below whatever their
            # distance; a NaN coordinate fails every radius test, so the
            # pair pass drops them without a per-pair lookup.
            is_always = np.zeros(n, dtype=bool)
            is_always[always_indices] = True
            bx[is_always[block]] = np.nan
            qx, qy, qz = (subject_points[:, a] for a in range(3))
            sizes = np.diff(block_offsets)[cell_of]
            ends = np.cumsum(sizes)
            total = int(ends[-1])
            self.last_pairs_scanned = total
            sq_limit = _squared_radius_limit(self.config.radius_m)
            # Subject ranges of about _PAIR_CHUNK pairs each; a subject's
            # block is never split across chunks.
            cuts = np.searchsorted(
                ends, np.arange(0, total, _PAIR_CHUNK), side="right")
            bounds = cuts.tolist() + [s]
            cand_parts: List[np.ndarray] = []
            subj_parts: List[np.ndarray] = []
            sq_parts: List[np.ndarray] = []
            for a, c in zip(bounds, bounds[1:]):
                if a == c:
                    continue
                sz = sizes[a:c]
                first = ends[a] - sizes[a]
                # Pair p of subject i reads block position
                # block_offsets[cell_of[i]] + (p - start of subject i).
                pos = np.repeat(
                    block_offsets[cell_of[a:c]] - (ends[a:c] - sz - first),
                    sz) + np.arange(ends[c - 1] - first)
                # Entity minus subject, then (dx*dx + dy*dy) + dz*dz: the
                # per-cell loop's float expression, bit for bit, computed
                # in place on the gathered columns.
                sq = bx[pos]
                sq -= np.repeat(qx[a:c], sz)
                sq *= sq
                dy = by[pos]
                dy -= np.repeat(qy[a:c], sz)
                dy *= dy
                sq += dy
                dz = bz[pos]
                dz -= np.repeat(qz[a:c], sz)
                dz *= dz
                sq += dz
                near = np.flatnonzero(sq <= sq_limit)
                rows = block[pos[near]]
                owner = np.repeat(np.arange(a, c, dtype=np.int64), sz)[near]
                other = rows != subject_self[owner]
                cand_parts.append(rows[other])
                subj_parts.append(owner[other])
                sq_parts.append(sq[near[other]])
            if cand_parts:
                cand, subj = self._select_nearest(
                    np.concatenate(cand_parts), np.concatenate(subj_parts),
                    np.sqrt(np.concatenate(sq_parts)), s, id_ranks)
        # Union in the always-relevant entities (minus the subject itself).
        if len(always_indices) and s:
            a_cand = np.tile(always_indices, s)
            a_subj = np.repeat(np.arange(s, dtype=np.int64),
                               len(always_indices))
            a_keep = a_cand != subject_self[a_subj]
            merged_subj = np.concatenate([subj, a_subj[a_keep]])
            merged_cand = np.concatenate([cand, a_cand[a_keep]])
            order = np.argsort(merged_subj, kind="stable")
            cand, subj = merged_cand[order], merged_subj[order]
        counts = np.bincount(subj, minlength=s)
        offsets = np.concatenate(
            ([0], np.cumsum(counts))).astype(np.int64)
        return offsets, cand

    def _select_nearest(
        self,
        cand: np.ndarray,
        subj: np.ndarray,
        dist: np.ndarray,
        s: int,
        id_ranks: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact per-subject top-``max_entities`` by ``(distance, id rank)``.

        A global three-key lexsort dominates the batch pass at scale, so the
        selection is done with a distance histogram instead: pairs are
        bucketed by ``floor(dist / radius * B)`` (monotone in distance, so
        equal distances share a bucket), every pair strictly below a
        subject's threshold bucket is kept outright, and only the boundary
        bucket — a tiny fraction of the pairs — is sorted by
        ``(distance, id rank)`` to break ties exactly as the scalar oracle
        does.  Within-subject output order is selection order, not distance
        order; consumers treat each subject's slice as a set.
        """
        limit = self.config.max_entities
        counts = np.bincount(subj, minlength=s)
        over = counts > limit
        if not over.any():
            return cand, subj
        n_bins = 64
        inv = n_bins / self.config.radius_m
        bins = np.minimum((dist * inv).astype(np.int64), n_bins - 1)
        hist = np.bincount(subj * n_bins + bins,
                           minlength=s * n_bins).reshape(s, n_bins)
        cum = np.cumsum(hist, axis=1)
        # First bucket at which a subject reaches its cap; pairs in earlier
        # buckets are all closer than any pair in or past it.
        tbin = np.argmax(cum >= limit, axis=1)
        before = np.where(
            tbin > 0,
            np.take_along_axis(
                cum, np.maximum(tbin - 1, 0)[:, None], axis=1)[:, 0],
            0)
        need = limit - before
        over_pair = over[subj]
        sel = ~over_pair | (over_pair & (bins < tbin[subj]))
        boundary = np.flatnonzero(over_pair & (bins == tbin[subj]))
        if len(boundary):
            b_subj = subj[boundary]
            order = np.lexsort(
                (id_ranks[cand[boundary]], dist[boundary], b_subj))
            b_sorted = boundary[order]
            bs = subj[b_sorted]
            seg_counts = np.bincount(bs, minlength=s)
            seg_starts = np.concatenate(([0], np.cumsum(seg_counts)[:-1]))
            within = np.arange(len(bs)) - seg_starts[bs]
            sel[b_sorted[within < need[bs]]] = True
        return cand[sel], subj[sel]

    def relevant_batch(
        self,
        positions: Mapping[str, np.ndarray],
        subjects: Optional[Mapping[str, np.ndarray]] = None,
    ) -> Dict[str, Set[str]]:
        """Relevant sets for many subjects against one grid build.

        ``positions`` maps entity id to (3,) position; ``subjects`` maps
        each query subject to its query point (defaulting to ``positions``
        itself, i.e. every entity queries from where it stands — subjects
        need not be entities, e.g. disembodied spectators).  Thin mapping
        wrapper over :meth:`relevant_indices_batch`; results are identical
        to :func:`naive_relevant`.
        """
        if subjects is None:
            subjects = positions
        ids = list(positions)
        index = {entity_id: i for i, entity_id in enumerate(ids)}
        if ids:
            points = np.stack([
                np.asarray(positions[i], dtype=float) for i in ids
            ])
        else:
            points = np.empty((0, 3), dtype=float)
        subject_ids = list(subjects)
        if subject_ids:
            subject_points = np.stack([
                np.asarray(subjects[i], dtype=float) for i in subject_ids
            ])
        else:
            subject_points = np.empty((0, 3), dtype=float)
        subject_self = np.fromiter(
            (index.get(subject_id, -1) for subject_id in subject_ids),
            dtype=np.int64, count=len(subject_ids))
        always_indices = np.asarray(sorted(
            index[e] for e in self.config.always_relevant if e in index
        ), dtype=np.int64)
        order = sorted(range(len(ids)), key=ids.__getitem__)
        id_ranks = np.empty(len(ids), dtype=np.int64)
        id_ranks[np.asarray(order, dtype=np.int64)] = np.arange(
            len(ids), dtype=np.int64)
        offsets, flat = self.relevant_indices_batch(
            points, subject_points, subject_self, always_indices, id_ranks)
        return {
            subject_id: {ids[j] for j in flat[offsets[i]:offsets[i + 1]]}
            for i, subject_id in enumerate(subject_ids)
        }

    def relevance_matrix(
        self, positions: Mapping[str, np.ndarray]
    ) -> Dict[str, Set[str]]:
        """Relevant sets for every entity at once (one grid build)."""
        return self.relevant_batch(positions)


class BroadcastInterest:
    """The no-filtering baseline: everyone is relevant to everyone."""

    def __init__(self):
        #: Broadcast as a relevance policy: unbounded radius and cap, and
        #: no always-relevant set (everyone already is).
        self.config = InterestConfig(radius_m=math.inf,
                                     max_entities=sys.maxsize)
        self.last_pairs_scanned = 0

    def relevant(self, subject_id, subject_position, positions) -> Set[str]:
        """All entity ids except the subject itself."""
        return {entity_id for entity_id in positions if entity_id != subject_id}

    def relevant_indices_batch(
        self,
        points: np.ndarray,
        subject_points: np.ndarray,
        subject_self: np.ndarray,
        always_indices: np.ndarray,
        id_ranks: np.ndarray,
    ) -> tuple:
        """Every entity row except the subject's own, as a CSR.

        Same signature and ``(offsets, flat)`` result as
        :meth:`InterestManager.relevant_indices_batch`; scans all
        ``s x n`` (subject, entity) pairs.
        """
        n = len(points)
        s = len(subject_points)
        subject_self = np.asarray(subject_self, dtype=np.int64)
        flat = np.tile(np.arange(n, dtype=np.int64), s)
        keep = flat != np.repeat(subject_self, n)
        counts = n - (subject_self >= 0)
        offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        self.last_pairs_scanned = s * n
        return offsets, flat[keep]
