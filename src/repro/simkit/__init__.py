"""Deterministic discrete-event simulation kernel.

``simkit`` is the substrate every other subsystem runs on.  It provides:

* :class:`~repro.simkit.engine.Simulator` — the event loop with a virtual
  clock measured in **seconds** (floats).
* :class:`~repro.simkit.event.Event` and friends — one-shot triggers with
  callbacks, plus :class:`~repro.simkit.event.Timeout` and the composite
  conditions :class:`~repro.simkit.event.AnyOf` / :class:`~repro.simkit.event.AllOf`.
* :class:`~repro.simkit.process.Process` — generator-based cooperative
  processes in the style of SimPy.
* :class:`~repro.simkit.resource.Resource` and
  :class:`~repro.simkit.resource.Store` — contention primitives.
* :class:`~repro.simkit.rng.RngRegistry` — named, independently seeded
  random streams so a run is reproducible from ``(config, seed)``.
* :class:`~repro.simkit.clock.VirtualClock` — per-device clocks with offset
  and drift relative to simulation time.
* :mod:`~repro.simkit.spans` — the span-tracing hook behind
  ``Simulator(obs=...)``: a no-op by default, the real
  :class:`~repro.obs.span.SpanTracer` when observability is on.

Example
-------
>>> from repro.simkit import Simulator
>>> sim = Simulator(seed=7)
>>> log = []
>>> def proc(sim):
...     yield sim.timeout(1.5)
...     log.append(sim.now)
>>> _ = sim.process(proc(sim))
>>> sim.run()
>>> log
[1.5]
"""

from repro.simkit.clock import VirtualClock
from repro.simkit.engine import Simulator
from repro.simkit.errors import (
    Interrupt,
    SimkitError,
    StopProcess,
)
from repro.simkit.event import AllOf, AnyOf, Event, Timeout
from repro.simkit.process import Process
from repro.simkit.resource import Resource, Store
from repro.simkit.rng import RngRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "RngRegistry",
    "SimkitError",
    "Simulator",
    "StopProcess",
    "Store",
    "Timeout",
    "VirtualClock",
]
