"""C3a's tick-phase table is timed from outside the data plane.

``phase_timer`` wraps ``SyncServer.tick_once`` and the three phase
functions on their classes for one run, then puts the originals back —
also when a wrapped call raises.  The phases are exact wall-time sums,
so they cannot saturate, and with ``tick self`` they add up to the
wrapped ``tick_once`` total.
"""

import pytest

from benchmarks.bench_c3_scale_sync import PHASES, phase_timer, run_profile
from repro.sync.delta import WorldState
from repro.sync.server import SyncServer

TARGETS = [(SyncServer, "tick_once"), *PHASES.values()]


def _class_entries():
    # Functions compare by identity, so == means "the very same object".
    return {(cls, attr): cls.__dict__[attr] for cls, attr in TARGETS}


def test_run_profile_sums_phases_to_the_tick_and_unwraps():
    originals = _class_entries()
    profile = run_profile(200, ticks=2)
    assert _class_entries() == originals
    phases = profile["phases_s"]
    assert set(phases) == {*PHASES, "tick self"}
    assert all(seconds >= 0.0 for seconds in phases.values())
    assert profile["tick_s"] > 0.0
    assert sum(phases.values()) == pytest.approx(profile["tick_s"], rel=1e-12)


def test_phase_timer_unwraps_after_a_wrapped_call_raises():
    originals = _class_entries()
    with pytest.raises(AttributeError):
        with phase_timer():
            wrapped = WorldState.__dict__["apply_many"]
            assert wrapped is not originals[(WorldState, "apply_many")]
            WorldState().apply_many([object(), object()])
    assert _class_entries() == originals
