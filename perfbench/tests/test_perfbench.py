"""The benchmark's own checks: slicing and tracing leave the simulation
untouched, percentiles and self times are computed as documented, and
``BENCHMARK.json`` matches what ``run.py`` reports.

    python3 -m pytest perfbench/tests -q
"""

import json
from pathlib import Path

import pytest

import layers
import measure
import run
import scenarios

#: Short horizons keep each check to a second or so.
SHORT = {
    "federation": {"horizon": 1.0},
    "dense_shard": {"horizon": 0.5, "n": 300},
    "unit_case": {"horizon": 0.6},
    "adapt_faults": {"horizon": 8.0},
}


def _sliced_digest(workload, seed=3):
    episode = scenarios.BUILDERS[workload](seed, **SHORT[workload])
    run.advance(episode)
    return scenarios.sim_digest(episode, episode.outputs())


@pytest.mark.parametrize("workload", sorted(SHORT))
def test_slices_match_one_run(workload):
    """Advancing in 50 ms slices gives the digest of one ``run()``."""
    episode = scenarios.BUILDERS[workload](3, **SHORT[workload])
    episode.sim.run(until=episode.horizon)
    whole = scenarios.sim_digest(episode, episode.outputs())
    assert _sliced_digest(workload) == whole


@pytest.mark.parametrize("workload", sorted(SHORT))
def test_tracing_does_not_perturb_the_simulation(workload):
    untraced = _sliced_digest(workload)
    with layers.LayerTracer() as tracer:
        layers.install(tracer)
        tracer.active = True
        traced = _sliced_digest(workload)
    assert traced == untraced
    assert tracer.stats["simkit.step"].calls > 0


def test_digest_depends_on_the_seed():
    assert _sliced_digest("adapt_faults", 3) != _sliced_digest(
        "adapt_faults", 4)


@pytest.mark.parametrize("n, expected", [
    (10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 95.0),
    (200, 95.0), (199, 90.0), (100, 90.0), (40, 75.0), (20, 50.0),
    (19, None), (0, None),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert measure.tail_percentile(n) == expected


class _Clock:
    """A fake clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class _Layered:
    def outer(self, clock):
        clock.now += 1.0
        self.inner(clock)
        clock.now += 2.0
        self.inner(clock)
        return "done"

    def inner(self, clock):
        clock.now += 0.5
        self.leaf(clock)

    def leaf(self, clock):
        clock.now += 0.25


def test_self_time_subtracts_direct_children_only():
    clock = _Clock()
    with layers.LayerTracer(clock) as tracer:
        for attr in ("outer", "inner", "leaf"):
            tracer.wrap(_Layered, attr, attr)
        tracer.active = True
        with tracer.span("root"):
            clock.now += 4.0
            assert _Layered().outer(clock) == "done"
    stats = tracer.stats
    assert stats["leaf"].calls == 2
    assert stats["leaf"].self_s == pytest.approx(0.5)
    assert stats["inner"].total_s == pytest.approx(1.5)
    assert stats["inner"].self_s == pytest.approx(1.0)
    assert stats["outer"].total_s == pytest.approx(4.5)
    assert stats["outer"].self_s == pytest.approx(3.0)
    assert stats["root"].self_s == pytest.approx(4.0)


def test_inactive_tracer_records_nothing():
    clock = _Clock()
    with layers.LayerTracer(clock) as tracer:
        tracer.wrap(_Layered, "leaf", "leaf")
        _Layered().leaf(clock)
    assert tracer.stats["leaf"].calls == 0


def _wrapped_attributes():
    probe = layers.LayerTracer()
    layers.install(probe)
    owners = [(owner, attr, original)
              for owner, attr, original in probe._patches]
    probe.restore()
    return owners


def test_restore_puts_back_every_wrapped_function():
    targets = _wrapped_attributes()
    assert len(targets) >= 20
    with pytest.raises(RuntimeError):
        with layers.LayerTracer() as tracer:
            layers.install(tracer)
            assert all(owner.__dict__[attr] is not original
                       for owner, attr, original in targets)
            raise RuntimeError("traced run failed")
    assert all(owner.__dict__[attr] is original
               for owner, attr, original in targets)


def test_benchmark_json_matches_the_runner():
    spec = json.loads(
        (Path(run.HERE).parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(scenarios.BUILDERS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_speed_factors_follow_the_local_probe_median():
    ref = measure.REFERENCE_PROBE_S
    probes = [ref] * 20 + [2 * ref] * 20
    probes[3] = 50 * ref            # one disturbed probe is outvoted
    factors = measure.speed_factors(probes)
    assert factors[:15] == pytest.approx([1.0] * 15)
    assert factors[-15:] == pytest.approx([0.5] * 15)
    assert measure.probe() > 0
