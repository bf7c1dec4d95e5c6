"""Scale benchmark: wall-time of an N-server managed day.

``python -m repro bench --servers 20000`` is the operational answer
to "how big a facility can this library co-simulate?"  The runner
derives a balanced facility shape from the requested server count
(20 servers per rack, one zone per ~50 racks, one CRAC per ~2.5
zones), runs a full managed day against a flat 50 % demand, and
reports wall time plus the headline physics so a perf regression and
a correctness regression are equally visible.

The same entry point backs the committed ``BENCH_PERF.json`` rows and
the CI regression gate (``benchmarks/check_perf_regression.py``).
"""

from __future__ import annotations

import time
import typing

__all__ = ["SCHEMA_VERSION", "bench_spec", "run_scale_bench",
           "run_placement_bench", "format_placement_report",
           "federation_scenario", "run_federation_bench",
           "format_federation_report"]

#: Version stamp for ``bench --json`` artifact rows.  Bump when a
#: row's shape changes so archived CI artifacts stay comparable; the
#: regression gate reads rows with ``.get()`` and tolerates both
#: stamped and unstamped rows.
SCHEMA_VERSION = 1


def bench_spec(servers: int, backend: str = "vector"):
    """A balanced :class:`DataCenterSpec` for ``servers`` machines.

    ``backend`` accepts only ``"vector"``, the one plant layout.  It
    is kept because ``perfbench/workloads.py`` still calls
    ``bench_spec(n, "vector")`` positionally; any other value raises.
    """
    from repro.datacenter import DataCenterSpec

    if backend != "vector":
        raise ValueError(f"the only plant is 'vector', got {backend!r}")
    if servers < 20:
        raise ValueError(f"need at least 20 servers, got {servers}")
    racks, rem = divmod(servers, 20)
    if rem:
        raise ValueError(f"server count must be a multiple of 20, "
                         f"got {servers}")
    zones = max(1, min(racks, round(racks / 50)))
    cracs = max(1, min(zones, round(zones / 2.5)))
    # Keep watts-per-kelvin proportional to the heat each zone
    # receives so the thermal story is scale-invariant: the reference
    # point is the 2000-server benchmark (10 zones at 80 kW/K).
    conductance = 80_000.0 * (servers / zones) / 200.0
    return DataCenterSpec(racks=racks, servers_per_rack=20,
                          zones=zones, cracs=cracs,
                          zone_conductance_w_per_k=conductance)


def _run_scale_once(servers: int, hours: float, demand_fraction: float,
                    shards: int, shard_workers: int, pool=None) -> dict:
    """One timed managed day (plain or zone-sharded)."""
    from repro.datacenter import CoSimulation, ShardedCoSimulation

    spec = bench_spec(servers)
    demand = spec.total_servers * spec.server_capacity * demand_fraction
    start = time.perf_counter()
    if shards:
        sim = ShardedCoSimulation(
            spec, {"kind": "constant", "fraction": demand_fraction},
            shards=shards, workers=shard_workers, pool=pool)
    else:
        sim = CoSimulation(spec, lambda t: demand, managed=True)
    result = sim.run(hours * 3600.0)
    wall_s = time.perf_counter() - start
    transport = sim.transport if shards else "local"
    metrics = {
        "servers": spec.total_servers,
        "hours": hours,
        "wall_s": wall_s,
        "sim_seconds_per_wall_second": hours * 3600.0 / wall_s,
        "facility_kwh": result.facility_kwh,
        "pue": result.energy_weighted_pue,
        "served_fraction": result.sla.served_fraction,
        "thermal_alarms": result.thermal_alarms,
        "mean_active_servers": result.mean_active_servers,
        "transport": transport,
    }
    if shards:
        metrics["shards"] = shards
        metrics["shard_workers"] = shard_workers
    return metrics


def run_scale_bench(servers: int, hours: float = 24.0,
                    demand_fraction: float = 0.5,
                    shards: int = 0, shard_workers: int = 1,
                    repeat: int = 1, warmup: int = 0) -> dict:
    """Co-simulate a managed day at scale; returns a metrics dict.

    ``shards > 0`` runs the zone-sharded plant
    (:class:`~repro.datacenter.ShardedCoSimulation`) over
    ``shard_workers`` processes instead of the single-process
    co-simulation.  ``repeat``/``warmup`` make the reported wall time a
    best-of-N after N discarded warmups — the committed BENCH_PERF
    rows use this so the regression gate doesn't flap on a cold page
    cache or a noisy shared runner.  Simulation metrics are identical
    across repeats (runs are deterministic), so only the timing of the
    fastest run is kept.
    """
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    if warmup < 0:
        raise ValueError(f"warmup cannot be negative, got {warmup}")
    runs = warmup + repeat
    pool = None
    if shards and shard_workers > 1 and runs > 1:
        # Warm worker reuse: spawn once, re-build each iteration, so
        # repeated rows time the simulation rather than process spawn.
        from repro.datacenter import ShardWorkerPool
        pool = ShardWorkerPool(min(int(shard_workers), int(shards)))
    best: dict | None = None
    try:
        for i in range(runs):
            metrics = _run_scale_once(servers, hours, demand_fraction,
                                      shards, shard_workers, pool=pool)
            if i < warmup:
                continue
            if best is None or metrics["wall_s"] < best["wall_s"]:
                best = metrics
    finally:
        if pool is not None:
            pool.close()
    best["repeat"] = repeat
    return best


def run_placement_bench(servers: int = 20_000, vm_ratio: float = 1.5,
                        gamma: int = 2, seed: int = 42,
                        repeat: int = 1, warmup: int = 0) -> dict:
    """One Γ-robust consolidation pass at fleet scale.

    Packs ``servers * vm_ratio`` uncertain-interval VMs onto
    ``servers`` unit-capacity hosts with the first-fit-decreasing
    Γ-robust packer (``python -m repro bench --scenario placement``).
    This is the planning half of a consolidation cycle — the part
    whose wall time gates how often the macro layer can re-plan.
    ``repeat``/``warmup`` report a best-of-N wall time, as in
    :func:`run_scale_bench`.
    """
    import numpy as np

    from repro.placement import GammaRobustPacker, UncertainDemand

    if servers < 1:
        raise ValueError("need at least one server")
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    if warmup < 0:
        raise ValueError(f"warmup cannot be negative, got {warmup}")
    n_vms = int(servers * vm_ratio)
    best_wall = None
    for i in range(warmup + repeat):
        rng = np.random.default_rng(seed)
        demand = UncertainDemand(rng.uniform(0.05, 0.45, n_vms),
                                 rng.uniform(0.0, 0.15, n_vms))
        start = time.perf_counter()
        packer = GammaRobustPacker(np.ones(servers), gamma=gamma)
        result = packer.pack(demand)
        wall_s = time.perf_counter() - start
        if i >= warmup and (best_wall is None or wall_s < best_wall):
            best_wall = wall_s
    return {
        "servers": servers,
        "vms": n_vms,
        "gamma": gamma,
        "wall_s": best_wall,
        "vms_per_second": n_vms / best_wall,
        "hosts_used": result.hosts_used,
        "servers_freed": result.servers_freed,
        "unplaced": len(result.unplaced),
        "repeat": repeat,
    }


def format_placement_report(metrics: typing.Mapping) -> str:
    """Human-readable one-run summary of a placement bench."""
    return (f"{metrics['vms']:,} VMs onto {metrics['servers']:,} "
            f"hosts (gamma={metrics['gamma']}): "
            f"{metrics['wall_s']:.2f} s wall "
            f"({metrics['vms_per_second']:,.0f} VMs/s) | "
            f"{metrics['hosts_used']:,} hosts used, "
            f"{metrics['servers_freed']:,} freed, "
            f"{metrics['unplaced']} unplaced")


def federation_scenario(n_sites: int = 5, shards: int = 1,
                        outage_site: str = "dc0",
                        outage_start_s: float = 2 * 86_400.0
                        + 6 * 3600.0,
                        outage_duration_s: float = 12 * 3600.0):
    """The canonical EXP-FED geography: ``(sites, regions)``.

    ``n_sites`` small vector plants (800 units each) ring-connected by
    latency, each with a home region whose diurnal peak is phased
    4.8 h east of its neighbour and priced on a west-to-east gradient.
    ``outage_site`` suffers a utility outage with dead generators
    (``generator_start_probability=0``) so the site truly goes dark —
    the scenario the router's failover exists for.  Shared verbatim by
    the EXP-FED benchmark, ``python -m repro bench --scenario
    federation``, and the CI chaos smoke so they all gate the same
    deterministic run.  Pass ``outage_site=None`` for a quiet week.
    """
    from repro.core.faults import FaultKind, FaultSchedule, Incident
    from repro.datacenter import DataCenterSpec
    from repro.federation import (FederationSite, Region, SiteConfig,
                                  SiteMeta)

    if n_sites < 2:
        raise ValueError(f"need at least two sites, got {n_sites}")
    sites = []
    for i in range(n_sites):
        name = f"dc{i}"
        spec = DataCenterSpec(name=name, racks=2, servers_per_rack=4,
                              zones=2, cracs=1)
        schedule = None
        engine_kwargs = None
        if name == outage_site:
            schedule = FaultSchedule()
            schedule.add(Incident(FaultKind.UTILITY_OUTAGE,
                                  outage_start_s, outage_duration_s))
            engine_kwargs = {"generator_start_probability": 0.0}
        sites.append(FederationSite(
            config=SiteConfig(name=name, spec=spec, shards=shards,
                              fault_schedule=schedule,
                              fault_engine_kwargs=engine_kwargs),
            meta=SiteMeta(name=name,
                          energy_price_per_kwh=0.08 + 0.015 * i,
                          static_pue=1.5)))
    capacity = (sites[0].config.spec.total_servers
                * sites[0].config.spec.server_capacity)
    regions = [
        Region(name=f"r{i}", home=f"dc{i}",
               peak_units=0.45 * capacity,
               latency_ms={
                   f"dc{j}": 20.0 + 15.0 * min(abs(i - j),
                                               n_sites - abs(i - j))
                   for j in range(n_sites)},
               utc_offset_h=4.8 * i)
        for i in range(n_sites)]
    return sites, regions


def run_federation_bench(days: float = 1.0, n_sites: int = 5,
                         policy: str = "optimizing",
                         workers: bool = False, outage: bool = True,
                         chaos_kill: typing.Mapping | None = None,
                         repeat: int = 1, warmup: int = 0) -> dict:
    """A federated multi-DC run on the canonical scenario.

    Runs :func:`federation_scenario` for ``days`` under the given
    routing policy (``python -m repro bench --scenario federation``).
    With the default single day the outage (scheduled for day 3)
    never fires and this is a pure throughput benchmark; ``days >= 3``
    exercises the failover path too.  ``repeat``/``warmup`` report a
    best-of-N wall time, as in :func:`run_scale_bench`.
    """
    from repro.federation import FederatedCoSimulation

    if days <= 0:
        raise ValueError(f"days must be positive, got {days}")
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    if warmup < 0:
        raise ValueError(f"warmup cannot be negative, got {warmup}")
    best: dict | None = None
    for i in range(warmup + repeat):
        sites, regions = federation_scenario(
            n_sites=n_sites,
            outage_site=("dc0" if outage else None))
        fed = FederatedCoSimulation(sites, regions, policy=policy,
                                    workers=workers,
                                    chaos_kill=chaos_kill)
        start = time.perf_counter()
        result = fed.run(days * 86_400.0)
        wall_s = time.perf_counter() - start
        metrics = {
            "sites": n_sites,
            "servers": sum(s.config.spec.total_servers
                           for s in sites),
            "days": days,
            "policy": policy,
            "workers": workers,
            "transport": fed.transport,
            "wall_s": wall_s,
            "sim_seconds_per_wall_second": days * 86_400.0 / wall_s,
            "served_fraction": result.served_fraction,
            "router_shed_unit_s": result.router_shed_unit_s,
            "site_shed_unit_s": result.site_shed_unit_s,
            "facility_kwh": result.facility_kwh,
            "pue": result.energy_weighted_pue,
            "failovers": result.failovers,
            "decisions": result.decisions,
            "recoveries": sum(fed.recoveries.values()),
        }
        if i >= warmup and (best is None
                            or metrics["wall_s"] < best["wall_s"]):
            best = metrics
    best["repeat"] = repeat
    return best


def format_federation_report(metrics: typing.Mapping) -> str:
    """Human-readable one-run summary of a federation bench."""
    workers_part = (f", workers/{metrics['transport']}"
                    if metrics.get("workers")
                    and metrics.get("transport") else
                    ", workers" if metrics.get("workers") else "")
    return (f"{metrics['sites']} sites / {metrics['servers']:,} "
            f"servers ({metrics['policy']}{workers_part}): "
            f"{metrics['days']:.0f} d simulated in "
            f"{metrics['wall_s']:.2f} s wall "
            f"({metrics['sim_seconds_per_wall_second']:,.0f}x "
            f"realtime) | served {metrics['served_fraction']:.2%}, "
            f"PUE {metrics['pue']:.2f}, "
            f"{metrics['failovers']} failovers, "
            f"{metrics['recoveries']} worker recoveries")


def format_report(metrics: typing.Mapping) -> str:
    """Human-readable one-run summary."""
    layout = ""
    if metrics.get("shards"):
        layout = (f" ({metrics['shards']} shards / "
                  f"{metrics['shard_workers']} workers")
        if metrics.get("transport"):
            layout += f", {metrics['transport']}"
        layout += ")"
    return (f"{metrics['servers']:,} servers{layout}: "
            f"{metrics['hours']:.0f} h simulated in "
            f"{metrics['wall_s']:.2f} s wall "
            f"({metrics['sim_seconds_per_wall_second']:,.0f}x realtime) "
            f"| {metrics['facility_kwh']:,.0f} kWh, "
            f"PUE {metrics['pue']:.2f}, "
            f"served {metrics['served_fraction']:.2%}, "
            f"{metrics['thermal_alarms']} alarms")
