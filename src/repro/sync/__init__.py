"""Real-time state synchronization of the shared classroom world.

Section 3.3: "Developing such a classroom raises significant challenges
related to the synchronization of a large number of entities within a
single digital space ... users' actions need to be synchronized in
real-time to enable seamless interaction."  This package provides the
tick-based authoritative server, delta encoding, interest management,
client-side prediction, NTP-style clock sync, and the consistency metrics
the scaling experiments (C3a) measure.
"""

from repro.sync.client import SyncClient
from repro.sync.consistency import ConsistencyProbe
from repro.sync.delta import WorldState
from repro.sync.federation import (
    FederatedClient,
    ShardDelta,
    ShardedSyncService,
    ShardHandoffController,
    ShardRelay,
)
from repro.sync.interest import (
    BroadcastInterest,
    InterestConfig,
    InterestManager,
    SpatialHashGrid,
    naive_relevant,
)
from repro.sync.migration import FailoverController, MigratableClient
from repro.sync.prediction import MoveInput, PredictedAvatar
from repro.sync.protocol import ClientUpdate, ServerSnapshot
from repro.sync.server import ServerCostModel, SyncServer
from repro.sync.timesync import NtpSynchronizer, TimeSyncError

__all__ = [
    "BroadcastInterest",
    "ClientUpdate",
    "FailoverController",
    "FederatedClient",
    "MigratableClient",
    "MoveInput",
    "PredictedAvatar",
    "ConsistencyProbe",
    "InterestConfig",
    "InterestManager",
    "NtpSynchronizer",
    "ServerCostModel",
    "ShardDelta",
    "ShardedSyncService",
    "ShardHandoffController",
    "ShardRelay",
    "SpatialHashGrid",
    "naive_relevant",
    "ServerSnapshot",
    "SyncClient",
    "SyncServer",
    "TimeSyncError",
    "WorldState",
]
