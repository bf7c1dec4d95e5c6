"""Structure-of-arrays vector plant for fleet-scale co-simulation.

Every ``DataCenterSpec`` builds on it: servers are thin views over
preallocated numpy columns, aggregates fold deltas in bulk, and the
cluster heat map is one ``bincount`` — bit-identical to plain
per-object ``Server``s (see ``plant`` module docstring).
"""

from repro.fleet.aggregates import VectorAggregate, VectorRackAggregate
from repro.fleet.cluster import VectorCluster
from repro.fleet.plant import EnergyMeter, VectorFleet, VectorServer

__all__ = [
    "EnergyMeter",
    "VectorAggregate",
    "VectorCluster",
    "VectorFleet",
    "VectorRackAggregate",
    "VectorServer",
]
