"""Unit tests for ``Simulator.repeat``, the periodic-process horizon rule."""

from repro.simkit import Simulator
from repro.simkit.errors import Interrupt


def test_repeat_none_stops_the_loop_early():
    sim = Simulator()
    calls = []

    def step():
        calls.append(sim.now)
        return None if len(calls) == 4 else 0.25

    proc = sim.process(sim.repeat(10.0, step))
    sim.run()
    assert calls == [0.0, 0.25, 0.5, 0.75]
    assert not proc.is_alive
    assert sim.now == 0.75


def test_repeat_last_sleep_lands_exactly_on_the_horizon():
    sim = Simulator()
    calls = []

    def step():
        calls.append(sim.now)
        return 0.375

    def body():
        yield from sim.repeat(1.0, step)
        return sim.now

    proc = sim.process(body())
    sim.run(until=1.0)
    # Steps at 0, .375 and .75; the last sleep is clamped from .375 to .25.
    assert calls == [0.0, 0.375, 0.75]
    assert not proc.is_alive
    assert proc.value == 1.0
    assert sim.peek() == float("inf")


def test_repeat_calls_step_once_per_period_up_to_the_horizon():
    # 40 sleeps of 0.05 s sum to 2.000000000000001: without the clamp the
    # last wake would sit an ulp past the horizon.
    sim = Simulator()
    calls = []

    def step():
        calls.append(sim.now)
        return 0.05

    proc = sim.process(sim.repeat(2.0, step))
    sim.run(until=2.0)
    assert len(calls) == 40
    assert not proc.is_alive
    assert sim.peek() == float("inf")


def test_repeat_interrupt_reaches_the_callers_except():
    sim = Simulator()
    caught = []

    def body():
        try:
            yield from sim.repeat(10.0, lambda: 1.0)
        except Interrupt as interrupt:
            caught.append((sim.now, interrupt.cause))

    proc = sim.process(body())
    sim.call_later(2.5, lambda: proc.interrupt("crash"))
    sim.run()
    assert caught == [(2.5, "crash")]
    assert proc.ok
