"""Spatial-hash-grid interest management: unit and equivalence tests.

The grid must be an invisible optimization: for every configuration it
returns exactly the sets the original O(N) linear scan
(:func:`repro.sync.interest.naive_relevant`) returned, and the batch
query returns byte-for-byte the CSR of the per-cell query loop it
replaced (``tests/oracles/percell_interest.py``).  The equivalence
tests are marked ``interest_equivalence`` so CI can run just them
(``pytest -m interest_equivalence``) without the benchmark sweep; they
are part of tier-1 by default.
"""

import math
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.sync.interest import (
    _PAIR_CHUNK,
    BroadcastInterest,
    InterestConfig,
    InterestManager,
    SpatialHashGrid,
    naive_relevant,
)
from tests.oracles.percell_interest import (
    PerCellInterestManager,
    SpatialHashGrid as DictSpatialHashGrid,
)


# -- grid structure ----------------------------------------------------------


def test_grid_buckets_points_by_cell():
    positions = {
        "a": np.array([0.1, 0.1, 0.1]),
        "b": np.array([0.2, 0.2, 0.2]),   # same cell as a
        "c": np.array([5.0, 0.0, 0.0]),   # different cell
    }
    grid = SpatialHashGrid.from_positions(positions, cell_size=1.0)
    assert len(grid) == 3
    assert grid.n_cells == 2


def test_grid_candidates_cover_radius():
    rng = np.random.default_rng(7)
    positions = {f"p{i}": rng.uniform(-30, 30, size=3) for i in range(200)}
    radius = 4.0
    grid = SpatialHashGrid.from_positions(positions, cell_size=radius)
    ids = grid.ids
    for query in rng.uniform(-30, 30, size=(20, 3)):
        candidates = {ids[i] for i in grid.candidate_indices(query)}
        for pid, pos in positions.items():
            if np.linalg.norm(pos - query) <= radius:
                assert pid in candidates
    # ...and the candidate block is far smaller than the full world.
    assert len(grid.candidate_indices(np.zeros(3))) < len(positions)


def test_grid_empty_world():
    grid = SpatialHashGrid.from_positions({}, cell_size=2.0)
    assert len(grid) == 0
    assert grid.candidate_indices(np.zeros(3)).size == 0


def test_grid_rejects_bad_cell_size():
    with pytest.raises(ValueError):
        SpatialHashGrid.from_positions({}, cell_size=0.0)


def test_grid_blocks_match_single_cell_lookups():
    """A batched lookup returns, per cell, what the dict-of-cells grid did."""
    rng = np.random.default_rng(3)
    positions = {f"p{i}": rng.uniform(-6, 6, size=3) for i in range(80)}
    grid = SpatialHashGrid.from_positions(positions, cell_size=2.0)
    dict_grid = DictSpatialHashGrid.from_positions(positions, cell_size=2.0)
    queries = rng.uniform(-8, 8, size=(12, 3))
    offsets, flat = grid.blocks(grid.cell_keys(queries))
    for i, query in enumerate(queries):
        expected = dict_grid.candidate_indices(query)
        assert np.array_equal(flat[offsets[i]:offsets[i + 1]], expected)
        assert np.array_equal(grid.candidate_indices(query), expected)


# -- cell-key packing bound --------------------------------------------------

#: Cell coordinates pack into 21-bit fields, so |cell| must stay < 2**20.
_BOUND = 2 ** 20


def _query(manager, points, subject_points):
    return manager.relevant_indices_batch(
        np.asarray(points, dtype=float), np.asarray(subject_points, dtype=float),
        np.full(len(subject_points), -1, dtype=np.int64),
        np.empty(0, dtype=np.int64), np.arange(len(points), dtype=np.int64))


def test_cells_past_the_packing_bound_are_rejected():
    manager = InterestManager(InterestConfig(radius_m=1.0, max_entities=5))
    far = _BOUND + 0.5
    with pytest.raises(ValueError, match=r"2\*\*20"):
        _query(manager, [[0.0, 0.0, 0.0], [far, 0.0, 0.0]], [[0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match=r"2\*\*20"):
        _query(manager, [[0.0, 0.0, 0.0]], [[0.0, -far, 0.0]])
    with pytest.raises(ValueError, match=r"2\*\*20"):
        SpatialHashGrid.from_positions(
            {"a": np.array([0.0, 0.0, _BOUND])}, cell_size=1.0)
    with pytest.raises(ValueError, match=r"2\*\*20"):
        SpatialHashGrid.from_positions(
            {"a": np.zeros(3)}, cell_size=1.0).candidate_indices(
                np.array([0.0, 0.0, -_BOUND]))


def test_cells_at_the_packing_bound_still_find_neighbours():
    manager = InterestManager(InterestConfig(radius_m=1.0, max_entities=5))
    top = _BOUND - 0.5      # cell 2**20 - 1, the highest in range
    bottom = 1.5 - _BOUND   # cell -(2**20) + 1, the lowest in range
    for axis in range(3):
        points = np.zeros((4, 3))
        points[:, axis] = [top, top - 0.7, bottom, bottom + 0.7]
        offsets, flat = _query(manager, points, points)
        assert [set(flat[offsets[i]:offsets[i + 1]].tolist())
                for i in range(4)] == [{0, 1}, {0, 1}, {2, 3}, {2, 3}]


# -- unbounded and invalid radii ---------------------------------------------


def test_nan_radius_is_rejected():
    with pytest.raises(ValueError):
        InterestConfig(radius_m=math.nan)
    assert BroadcastInterest().config.radius_m == math.inf


def test_infinite_radius_matches_naive():
    """Nearest-k with an unbounded radius is the global nearest k.

    Runs in a child process under a timeout: a non-terminating radius
    search fails this test instead of stalling the suite.
    """
    code = textwrap.dedent("""
        import math
        import numpy as np
        from repro.sync.interest import (
            InterestConfig, InterestManager, naive_relevant)
        rng = np.random.default_rng(11)
        positions = {f"p{i}": rng.uniform(-50, 50, size=3) for i in range(30)}
        positions["p29"] = positions["p0"].copy()
        config = InterestConfig(radius_m=math.inf, max_entities=7,
                                always_relevant=frozenset({"p3"}))
        subjects = dict(positions, spectator=np.array([-80.0, 5.0, 0.0]))
        batch = InterestManager(config).relevant_batch(positions, subjects)
        for subject_id, point in subjects.items():
            expected = naive_relevant(config, subject_id, point, positions)
            assert batch[subject_id] == expected, subject_id
            assert len(expected) == 7 + (subject_id != "p3")
    """)
    src = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": src},
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


# -- batch API ---------------------------------------------------------------


def test_relevant_batch_defaults_to_all_entities():
    manager = InterestManager(InterestConfig(radius_m=2.5, max_entities=100))
    positions = {f"p{i}": np.array([i * 1.0, 0.0, 0.0]) for i in range(5)}
    batch = manager.relevant_batch(positions)
    assert set(batch) == set(positions)
    assert batch["p0"] == {"p1", "p2"}


def test_relevant_batch_supports_disembodied_subjects():
    manager = InterestManager(InterestConfig(radius_m=1.5, max_entities=10))
    positions = {f"p{i}": np.array([i * 1.0, 0.0, 0.0]) for i in range(4)}
    batch = manager.relevant_batch(
        positions, {"spectator": np.array([0.5, 0.0, 0.0])}
    )
    assert batch == {"spectator": {"p0", "p1", "p2"}}


def test_relevant_batch_tracks_pairs_scanned():
    manager = InterestManager(InterestConfig(radius_m=1.0, max_entities=5))
    # Two clusters 100 m apart: each subject only scans its own cluster.
    positions = {}
    for i in range(10):
        positions[f"a{i}"] = np.array([i * 0.1, 0.0, 0.0])
        positions[f"b{i}"] = np.array([100.0 + i * 0.1, 0.0, 0.0])
    manager.relevant_batch(positions)
    n = len(positions)
    assert 0 < manager.last_pairs_scanned < n * n


def test_broadcast_batch_matches_single_subject():
    baseline = BroadcastInterest()
    positions = {f"p{i}": np.zeros(3) for i in range(6)}
    ids = list(positions)
    points = np.stack([positions[pid] for pid in ids])
    # Six embodied subjects plus one spectator that is no entity (-1).
    subject_self = np.array([0, 1, 2, 3, 4, 5, -1], dtype=np.int64)
    offsets, flat = baseline.relevant_indices_batch(
        points, np.zeros((7, 3)), subject_self,
        np.empty(0, dtype=np.int64), np.arange(6, dtype=np.int64))
    for i, pid in enumerate(ids):
        batch = {ids[j] for j in flat[offsets[i]:offsets[i + 1]]}
        assert batch == baseline.relevant(pid, positions[pid], positions)
    assert {ids[j] for j in flat[offsets[6]:offsets[7]]} == set(ids)
    assert baseline.last_pairs_scanned == 42
    assert not baseline.config.always_relevant


# -- grid/naive equivalence --------------------------------------------------


def _random_scenario(rng):
    n = int(rng.integers(0, 60))
    radius = float(rng.uniform(0.5, 30.0))
    cap = int(rng.integers(1, 12))
    scale = float(rng.choice([2.0, 10.0, 40.0]))
    positions = {f"p{i}": rng.uniform(-scale, scale, size=3) for i in range(n)}
    if n >= 2 and rng.random() < 0.3:
        # Coincident entities exercise distance-tie breaking by id.
        positions[f"p{n - 1}"] = positions["p0"].copy()
    always = frozenset(
        f"p{i}" for i in range(n) if rng.random() < 0.1
    )
    if rng.random() < 0.2:
        always = always | frozenset({"ghost-not-in-world"})
    config = InterestConfig(radius, cap, always)
    subjects = dict(positions)
    if rng.random() < 0.5:
        subjects["spectator"] = rng.uniform(-scale, scale, size=3)
    return config, positions, subjects


@pytest.mark.interest_equivalence
def test_grid_matches_naive_across_randomized_scenarios():
    """120 randomized scenarios; every subject's set must be identical."""
    rng = np.random.default_rng(20220707)
    for scenario in range(120):
        config, positions, subjects = _random_scenario(rng)
        manager = InterestManager(config)
        batch = manager.relevant_batch(positions, subjects)
        assert set(batch) == set(subjects)
        for subject_id, point in subjects.items():
            expected = naive_relevant(config, subject_id, point, positions)
            assert batch[subject_id] == expected, (
                f"scenario {scenario}: subject {subject_id} "
                f"grid={batch[subject_id]} naive={expected}"
            )


@pytest.mark.interest_equivalence
def test_single_subject_wrapper_matches_naive():
    rng = np.random.default_rng(4)
    for _ in range(30):
        config, positions, _subjects = _random_scenario(rng)
        manager = InterestManager(config)
        for subject_id in list(positions)[:5]:
            assert manager.relevant(
                subject_id, positions[subject_id], positions
            ) == naive_relevant(config, subject_id, positions[subject_id], positions)


@pytest.mark.interest_equivalence
@given(
    st.integers(min_value=0, max_value=40),
    st.floats(min_value=0.5, max_value=25.0),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_grid_matches_naive_hypothesis(n, radius, cap, seed):
    rng = np.random.default_rng(seed)
    positions = {f"p{i}": rng.uniform(-15, 15, size=3) for i in range(n)}
    always = frozenset({"p0"}) if n > 2 else frozenset()
    config = InterestConfig(radius, cap, always)
    manager = InterestManager(config)
    batch = manager.relevant_batch(positions)
    for subject_id in positions:
        assert batch[subject_id] == naive_relevant(
            config, subject_id, positions[subject_id], positions
        )


# -- batch query vs the per-cell oracle --------------------------------------


@st.composite
def _interest_worlds(draw):
    """A batch-query input: entity block, subjects and policy.

    Dense worlds pack ~300 entities into a cube one radius wide, so
    every subject scans the whole world and the (subject,
    candidate) pairs cross ``_PAIR_CHUNK`` partway through the subjects.
    """
    dense = draw(st.booleans())
    n = draw(st.integers(260, 330) if dense else st.integers(0, 60))
    radius = draw(st.floats(0.5, 25.0))
    cap = draw(st.integers(1, 40))
    centre = draw(st.floats(-500.0, 500.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = radius / 2 if dense else radius * float(
        rng.choice([0.3, 1.0, 4.0]))
    points = centre + rng.uniform(-scale, scale, size=(n, 3))
    if n >= 2 and rng.random() < 0.3:
        # Coincident entities exercise distance-tie breaking by id.
        points[n - 1] = points[0]
    embodied = rng.permutation(n) if dense else rng.permutation(n)[
        :draw(st.integers(0, n))]
    spectators = draw(st.integers(0, 4))
    subject_points = np.concatenate([
        points[embodied],
        centre + rng.uniform(-scale, scale, size=(spectators, 3))])
    subject_self = np.concatenate([
        embodied, np.full(spectators, -1)]).astype(np.int64)
    always = np.flatnonzero(rng.random(n) < 0.1).astype(np.int64)
    id_ranks = rng.permutation(n).astype(np.int64)
    return (InterestConfig(radius, cap), dense,
            (points, subject_points, subject_self, always, id_ranks))


@pytest.mark.interest_equivalence
@given(_interest_worlds())
@settings(max_examples=80, deadline=None)
def test_batch_query_is_byte_identical_to_per_cell_loop(world):
    config, dense, args = world
    manager = InterestManager(config)
    oracle = PerCellInterestManager(config)
    offsets, flat = manager.relevant_indices_batch(*args)
    want_offsets, want_flat = oracle.relevant_indices_batch(*args)
    assert offsets.dtype == want_offsets.dtype
    assert flat.dtype == want_flat.dtype
    assert offsets.tobytes() == want_offsets.tobytes()
    assert flat.tobytes() == want_flat.tobytes()
    assert manager.last_pairs_scanned == oracle.last_pairs_scanned
    if dense:
        assert manager.last_pairs_scanned > _PAIR_CHUNK
