"""Data-center assembly: tier classification, declarative specs, and
the end-to-end cyber-physical co-simulation harness."""

from repro.datacenter.availability import (
    AvailabilityEstimate,
    AvailabilityModel,
    AvailabilityParameters,
    TIER_AVAILABILITY_PARAMETERS,
)
from repro.datacenter.cosim import CoSimResult, CoSimulation
from repro.datacenter.sharded import (
    ShardedCoSimulation,
    ShardWorkerDied,
    ShardWorkerPool,
    ShardWorkerTimeout,
    merge_resilience,
    merge_results,
    partition_faults,
    partition_spec,
    poll_recv,
)
from repro.datacenter.shm import (
    FabricBlock,
    ShmLane,
    ShmLaneClosed,
    ShmLaneTimeout,
)
from repro.datacenter.spec import DataCenter, DataCenterSpec
from repro.datacenter.tiers import Tier, TIER_SPECS, TierSpec

__all__ = [
    "AvailabilityEstimate",
    "AvailabilityModel",
    "AvailabilityParameters",
    "CoSimResult",
    "CoSimulation",
    "DataCenter",
    "DataCenterSpec",
    "FabricBlock",
    "ShardedCoSimulation",
    "ShardWorkerDied",
    "ShardWorkerPool",
    "ShardWorkerTimeout",
    "ShmLane",
    "ShmLaneClosed",
    "ShmLaneTimeout",
    "merge_resilience",
    "merge_results",
    "partition_faults",
    "partition_spec",
    "poll_recv",
    "TIER_AVAILABILITY_PARAMETERS",
    "TIER_SPECS",
    "Tier",
    "TierSpec",
]
