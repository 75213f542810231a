"""The per-cell interest query, kept as a byte-identity oracle.

This is the dict-of-cells :class:`SpatialHashGrid` and the per-cell
``relevant_indices_batch`` loop that ``repro.sync.interest`` ran before
its sorted-key grid, moved here verbatim.  The ``interest_equivalence``
suite checks that the production query returns byte-equal ``offsets``,
``flat`` and ``last_pairs_scanned``.  Nearest-k selection
(``_select_nearest``) is inherited unchanged from the production
:class:`~repro.sync.interest.InterestManager`.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Mapping

import numpy as np

from repro.sync.interest import InterestManager

_EMPTY_INDICES = np.empty(0, dtype=np.int64)

#: Offsets of the 3x3x3 neighbourhood; with ``cell_size >= radius`` every
#: entity within the radius of a query point lives in one of these cells.
_NEIGHBOUR_OFFSETS = tuple(product((-1, 0, 1), repeat=3))


class SpatialHashGrid:
    """Uniform spatial hash over a fixed set of entity positions.

    Entities are bucketed into cubic cells of ``cell_size`` metres keyed
    by their floored integer coordinates.  Built once per tick from the
    stacked (N, 3) position array; a query gathers the candidate index
    arrays of the 27 cells around a point, which is exhaustive for any
    radius <= ``cell_size``.
    """

    def __init__(self, ids: List[str], points: np.ndarray, cell_size: float):
        if cell_size <= 0:
            raise ValueError("cell size must be positive")
        self.ids = ids
        self.points = points
        self.cell_size = cell_size
        self._cells: Dict[tuple, np.ndarray] = {}
        if len(ids):
            cells = np.floor(points / cell_size).astype(np.int64)
            order = np.lexsort((cells[:, 2], cells[:, 1], cells[:, 0]))
            sorted_cells = cells[order]
            change = np.nonzero(
                np.any(sorted_cells[1:] != sorted_cells[:-1], axis=1)
            )[0] + 1
            starts = np.concatenate(([0], change))
            ends = np.concatenate((change, [len(order)]))
            keys = sorted_cells[starts].tolist()
            self._cells = {
                tuple(key): order[s:e]
                for key, s, e in zip(keys, starts, ends)
            }

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
        return len(self._cells)

    def __len__(self) -> int:
        return len(self.ids)

    def candidate_indices(self, point: np.ndarray) -> np.ndarray:
        """Indices of entities in the 3x3x3 cell block around ``point``."""
        if not self._cells:
            return _EMPTY_INDICES
        base = np.floor(np.asarray(point, dtype=float) / self.cell_size)
        cx, cy, cz = int(base[0]), int(base[1]), int(base[2])
        chunks = []
        for dx, dy, dz in _NEIGHBOUR_OFFSETS:
            bucket = self._cells.get((cx + dx, cy + dy, cz + dz))
            if bucket is not None:
                chunks.append(bucket)
        if not chunks:
            return _EMPTY_INDICES
        if len(chunks) == 1:
            return chunks[0]
        return np.concatenate(chunks)


class PerCellInterestManager(InterestManager):
    """:class:`InterestManager` on the per-cell query loop."""

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
        ``flat[offsets[i]:offsets[i + 1]]``.  One grid build, one fused
        distance computation over every (subject, candidate) pair, and one
        global lexsort replace the per-subject Python ranking loop.
        """
        n = len(points)
        s = len(subject_points)
        subject_self = np.asarray(subject_self, dtype=np.int64)
        always_indices = np.asarray(always_indices, dtype=np.int64)
        if n == 0 or s == 0:
            counts = np.zeros(s, dtype=np.int64)
            self.last_pairs_scanned = 0
        else:
            grid = SpatialHashGrid([None] * n, points, self.config.radius_m)
            subject_points = np.asarray(subject_points, dtype=float)
            # Subjects sharing a grid cell share their candidate block:
            # gather once per distinct cell, not once per subject.  Pack
            # (cx, cy, cz) into one int64 so the distinct-cell pass is a
            # 1-D sort instead of the much slower row-wise unique; 21
            # bits per biased coordinate covers |coordinate| < 2^20.
            cells = np.floor(subject_points / grid.cell_size).astype(np.int64)
            bias = np.int64(1 << 20)
            packed = (((cells[:, 0] + bias) << np.int64(42))
                      | ((cells[:, 1] + bias) << np.int64(21))
                      | (cells[:, 2] + bias))
            uniq, group = np.unique(packed, return_inverse=True)
            group = group.reshape(-1)
            order = np.argsort(group, kind="stable")
            bounds = np.searchsorted(
                group[order], np.arange(len(uniq) + 1))
            px, py, pz = (np.ascontiguousarray(points[:, a])
                          for a in range(3))
            qx, qy, qz = (np.ascontiguousarray(subject_points[:, a])
                          for a in range(3))
            is_always = np.zeros(n, dtype=bool)
            is_always[always_indices] = True
            radius = self.config.radius_m
            # Largest squared distance whose correctly-rounded sqrt still
            # passes ``dist <= radius``: sqrt is monotone, so testing
            # ``sq <= sq_limit`` keeps exactly the pairs ``dist <= radius``
            # would, and the sqrt itself can be deferred to the much
            # smaller kept set without changing a single bit.
            sq_limit = radius * radius
            while np.sqrt(sq_limit) > radius:
                sq_limit = np.nextafter(sq_limit, 0.0)
            while np.sqrt(np.nextafter(sq_limit, np.inf)) <= radius:
                sq_limit = np.nextafter(sq_limit, np.inf)
            cand_parts: List[np.ndarray] = []
            subj_parts: List[np.ndarray] = []
            dist_parts: List[np.ndarray] = []
            total = 0
            for g in range(len(uniq)):
                sg = order[bounds[g]:bounds[g + 1]]
                block = grid.candidate_indices(
                    cells[sg[0]] * grid.cell_size + 0.5 * grid.cell_size)
                if not len(block):
                    continue
                total += len(sg) * len(block)
                # Dense (subjects-in-cell, block) broadcast: identical
                # differences and float evaluation order to the pairwise
                # form, with no million-element index gathers.
                dx = px[block][None, :] - qx[sg][:, None]
                dy = py[block][None, :] - qy[sg][:, None]
                dz = pz[block][None, :] - qz[sg][:, None]
                sq = (dx * dx + dy * dy) + dz * dz
                keep = (sq <= sq_limit) \
                    & (block[None, :] != subject_self[sg][:, None]) \
                    & ~is_always[block][None, :]
                si, ci = np.nonzero(keep)
                cand_parts.append(block[ci])
                subj_parts.append(sg[si])
                dist_parts.append(sq[si, ci])
            self.last_pairs_scanned = total
            if cand_parts:
                cand = np.concatenate(cand_parts)
                subj = np.concatenate(subj_parts)
                dist = np.sqrt(np.concatenate(dist_parts))
                cand, subj = self._select_nearest(
                    cand, subj, dist, s, id_ranks)
                # Regroup by subject for the CSR — the per-cell pass
                # enumerates subjects out of order.
                regroup = np.argsort(subj, kind="stable")
                cand, subj = cand[regroup], subj[regroup]
                counts = np.bincount(subj, minlength=s)
            else:
                cand = _EMPTY_INDICES
                counts = np.zeros(s, dtype=np.int64)
        # Union in the always-relevant entities (minus the subject itself).
        if len(always_indices) and s:
            a_cand = np.tile(always_indices, s)
            a_subj = np.repeat(np.arange(s, dtype=np.int64),
                               len(always_indices))
            a_keep = a_cand != subject_self[a_subj]
            a_cand, a_subj = a_cand[a_keep], a_subj[a_keep]
            if n == 0 or not counts.sum():
                base_cand = np.empty(0, dtype=np.int64)
                base_subj = np.empty(0, dtype=np.int64)
            else:
                base_cand, base_subj = cand, subj
            merged_subj = np.concatenate([base_subj, a_subj])
            merged_cand = np.concatenate([base_cand, a_cand])
            order = np.argsort(merged_subj, kind="stable")
            cand, subj = merged_cand[order], merged_subj[order]
            counts = np.bincount(subj, minlength=s)
        elif n == 0 or not counts.sum():
            cand = np.empty(0, dtype=np.int64)
        offsets = np.concatenate(
            ([0], np.cumsum(counts))).astype(np.int64)
        return offsets, cand
