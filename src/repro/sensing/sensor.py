"""Non-intrusive room sensors (ceiling cameras / depth rigs)."""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.sensing.headset import PoseSample
from repro.sensing.pose import Pose
from repro.simkit.engine import Simulator


class RoomSensorArray:
    """A classroom's external tracking rig.

    ``n_sensors`` cameras observe each tracked participant; a sensor's view
    is occluded with probability ``occlusion`` (other bodies, furniture).
    Each unoccluded sensor produces a position fix whose noise grows
    linearly with distance from the sensor; the array reports the average of
    available fixes (position only — external rigs cannot see where the
    eyes point, so orientation comes from the headset).

    If *every* sensor is occluded the participant is simply not reported
    that frame, which is why fusion with the headset stream matters.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        sensor_positions: Optional[List[np.ndarray]] = None,
        rate_hz: float = 30.0,
        base_noise_m: float = 0.01,
        noise_per_meter: float = 0.002,
        occlusion: float = 0.1,
        on_sample: Optional[Callable[[PoseSample], None]] = None,
    ):
        if rate_hz <= 0:
            raise ValueError("rate must be positive")
        if not 0.0 <= occlusion < 1.0:
            raise ValueError(f"occlusion must be in [0,1), got {occlusion}")
        if sensor_positions is None:
            # Default: four ceiling corners of a 10x8x3 m classroom.
            sensor_positions = [
                np.array([0.0, 0.0, 3.0]),
                np.array([10.0, 0.0, 3.0]),
                np.array([0.0, 8.0, 3.0]),
                np.array([10.0, 8.0, 3.0]),
            ]
        self.sim = sim
        self.name = name
        self.sensor_positions = [np.asarray(p, dtype=float) for p in sensor_positions]
        self.rate_hz = float(rate_hz)
        self.base_noise_m = float(base_noise_m)
        self.noise_per_meter = float(noise_per_meter)
        self.occlusion = float(occlusion)
        self.on_sample = on_sample
        self._rng = sim.rng.stream(f"sensors:{name}")
        self._seq = 0
        self.fixes_emitted = 0
        self.frames_fully_occluded = 0

    @property
    def period(self) -> float:
        return 1.0 / self.rate_hz

    def measure(self, device_id: str, truth: Callable[[float], Pose]) -> Optional[PoseSample]:
        """One array observation of a participant; None if fully occluded."""
        true_pose = truth(self.sim.now)
        fixes = []
        for sensor_pos in self.sensor_positions:
            if self._rng.random() < self.occlusion:
                continue
            distance = float(np.linalg.norm(true_pose.position - sensor_pos))
            sigma = self.base_noise_m + self.noise_per_meter * distance
            fixes.append(true_pose.position + self._rng.normal(0.0, sigma, size=3))
        if not fixes:
            self.frames_fully_occluded += 1
            return None
        position = np.mean(fixes, axis=0)
        # External rigs see where a body *is*, not where the eyes point:
        # orientation is reported as identity and supplied by the headset.
        sample = PoseSample(
            time=self.sim.now,
            device_id=device_id,
            pose=Pose(position),
            seq=self._seq,
            source="room",
        )
        self._seq += 1
        self.fixes_emitted += 1
        return sample

    def run(self, device_id: str, truth: Callable[[float], Pose], duration: float):
        """A simkit process observing one participant at the array rate."""

        def observe():
            sample = self.measure(device_id, truth)
            if sample is not None and self.on_sample is not None:
                self.on_sample(sample)
            return self.period

        return self.sim.process(self.sim.repeat(duration, observe))
