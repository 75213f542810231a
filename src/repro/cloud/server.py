"""The cloud server hosting the fully virtual VR classroom."""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.avatar.state import AvatarState
from repro.cloud.layout import VRClassroomLayout
from repro.sensing.pose import Pose
from repro.simkit.engine import Simulator
from repro.sync.interest import InterestConfig, InterestManager
from repro.sync.protocol import ClientUpdate
from repro.sync.server import ServerCostModel, SyncServer


class CloudClassroomServer:
    """A :class:`~repro.sync.server.SyncServer` plus VR-room placement.

    Two ingress paths:

    * remote VR users connect as ordinary sync clients — on first update
      the server assigns them a seat in the virtual auditorium and
      re-bases their (room-scale) pose onto that seat;
    * the physical classrooms' edge servers push their participants'
      avatar states via :meth:`ingest_edge_state`; those avatars are
      placed in the auditorium too, so remote users see the physical
      rooms' occupants (Figure 2's lower half).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "cloud",
        tick_rate_hz: float = 20.0,
        layout: Optional[VRClassroomLayout] = None,
        interest: Optional[InterestManager] = None,
        cost_model: ServerCostModel = ServerCostModel(),
    ):
        self.sim = sim
        self.name = name
        self.layout = layout if layout is not None else VRClassroomLayout()
        self.sync = SyncServer(
            sim,
            name=name,
            tick_rate_hz=tick_rate_hz,
            interest=interest,
            cost_model=cost_model,
        )
        self._seat_offsets: Dict[str, np.ndarray] = {}
        self.edge_states_ingested = 0

    # -- membership --------------------------------------------------------

    def connect(
        self,
        client_id: str,
        send: Callable,
        role: str = "student",
    ) -> Pose:
        """Register a remote user; returns their assigned classroom pose."""
        if role == "instructor" or role == "speaker":
            seat_pose = self.layout.assign_stage(client_id)
        else:
            seat_pose = self.layout.assign_seat(client_id)
        self._seat_offsets[client_id] = seat_pose.position.copy()
        self.sync.subscribe(client_id, send)
        return seat_pose

    def disconnect(self, client_id: str) -> None:
        self.sync.unsubscribe(client_id)
        self.layout.release(client_id)
        self._seat_offsets.pop(client_id, None)

    # -- ingress ------------------------------------------------------------

    def ingest_update(self, update: ClientUpdate) -> None:
        """A remote user's own state, re-based onto their seat."""
        offset = self._seat_offsets.get(update.client_id)
        if offset is not None:
            rebased = update.state.copy()
            rebased.pose = Pose(
                rebased.pose.position + offset, rebased.pose.orientation
            )
            update = ClientUpdate(
                client_id=update.client_id,
                state=rebased,
                input_seq=update.input_seq,
                ctx=update.ctx,
            )
        self.sync.ingest(update)

    def ingest_edge_state(self, state: AvatarState) -> None:
        """A physical participant's state arriving from an edge server."""
        pid = state.participant_id
        if pid not in self._seat_offsets:
            seat_pose = self.layout.assign_seat(pid)
            self._seat_offsets[pid] = seat_pose.position.copy()
        placed = state.copy()
        placed.pose = Pose(
            placed.pose.position + self._seat_offsets[pid],
            placed.pose.orientation,
        )
        if self.sim.obs.enabled:
            ctx = state.meta.get("obs_ctx")
            if ctx is not None:
                self.sync.trace_entity(pid, ctx)
        self.sync.world.apply(placed)
        self.edge_states_ingested += 1

    # -- queries -------------------------------------------------------------

    def visible_to(self, client_id: str):
        """Entity ids the interest layer currently deems relevant.

        Embodied clients are queried from their avatar position.  A
        spectator with no embodied avatar yet is queried from their
        assigned seat (or the room origin if they have none).  That is
        *not* what the sync server's tick does: the tick serves a
        subscriber that is not yet an entity from the room origin, so
        for such a client this seat-based answer can differ from what
        the tick actually sends until the client's first update lands.
        """
        positions = self.sync.world.positions()
        subject = positions.get(client_id)
        if subject is None:
            subject = self._seat_offsets.get(client_id)
        if subject is None:
            subject = np.zeros(3)
        return self.sync.interest.relevant(
            client_id, np.asarray(subject, dtype=float), positions
        )

    # -- lifecycle ------------------------------------------------------------

    def run(self, duration: float):
        return self.sync.run(duration)

    # -- measurement ----------------------------------------------------------

    @property
    def metrics(self):
        """The underlying sync server's metrics registry."""
        return self.sync.metrics

    def achieved_tick_rate(self, duration: Optional[float] = None) -> float:
        """Ticks per second delivered during the current run window."""
        return self.sync.achieved_tick_rate(duration)

    def egress_bytes_per_client_s(self, duration: Optional[float] = None) -> float:
        """Mean downstream bandwidth per subscriber (bytes/s), windowed."""
        return self.sync.egress_bytes_per_client_s(duration)

    @property
    def world_size(self) -> int:
        return len(self.sync.world)
