"""Zone-sharded parallel plants: one facility split across cores.

A 10⁵-server day is embarrassingly parallel *between* thermal zones:
racks heat only their own zone, zones couple only to their CRACs, and
the farm's dispatch treats capacity as a fungible pool.  This module
exploits that structure by partitioning one :class:`DataCenterSpec`
into ``shards`` self-similar sub-facilities (each takes a contiguous
block of zones plus every rack and a proportional slice of CRACs and
UPS capacity) and co-simulating the shards independently, in lockstep
macro-periods.

At every sync point the driver gathers one aggregate column from each
shard — its deliverable (healthy) capacity — and redistributes the
global demand proportionally for the next period, exactly what a
global load balancer in front of N rooms would do.  Between sync
points the shards share nothing, so they can run in worker processes
(persistent :func:`multiprocessing.Pipe` servers, one batch of shards
per worker) with only ``2 × shards`` floats crossing the boundary per
period.

Transport: zero-copy shard fabric
---------------------------------
With workers, the per-period payloads (demand-share vector down,
capacity column up) travel through one shared-memory
:class:`~repro.datacenter.shm.FabricBlock` per worker under the
seqlock/epoch protocol — the pipe carries only control tokens, so
the hot path serializes nothing.  A block that cannot be created
raises its :class:`OSError`; ``workers=1`` (in-process, no shared
memory) is the path for hosts without ``/dev/shm``.
:attr:`ShardedCoSimulation.transport` records which path ran
(``"local"`` / ``"shm"``); both are bit-identical (float64 columns
round-trip exactly).  Control, error reporting, build configs and the
final result pickle always stay on the pipe — they are the
crash-attribution and replay surface.

Warm worker reuse
-----------------
Spawning a worker pays interpreter fork + first-build cost; bench
``--repeat`` loops rebuild everything per iteration by design (runs
are one-shot for determinism) but can share a
:class:`ShardWorkerPool`, which keeps persistent worker processes
alive between runs and re-``build``\\ s each run's shard batches on
the warm processes.

Determinism contract
--------------------
* The worker-side driver is the *same object* (:class:`_ShardGroup`)
  the in-process path uses; the parent computes shares from shard
  aggregates in shard-index order in both modes.  ``workers=1``
  therefore produces a bit-identical :class:`CoSimResult` to
  ``workers=N`` — the CI smoke test asserts it — and is the reference
  for the parallel path, mirroring ``perf.sweep``'s contract.
* The *single-process unsharded* path is untouched: sharding is a new
  driver next to :class:`CoSimulation`, not a change to it, so manager
  decisions and golden tables cannot shift.

Worker liveness
---------------
The parent never blocks forever on a pipe: every reply crosses
:func:`poll_recv`, which polls with a deadline and watches the worker
process, raising :class:`ShardWorkerDied` (process gone) or
:class:`ShardWorkerTimeout` (hung past ``recv_deadline_s``) with the
shard ids and the last completed macro period.  The federation
supervisor (:mod:`repro.federation`) reuses the same helper — and
layers restart-and-replay on top of it.

Fault domains inside shards
---------------------------
A facility-level :class:`~repro.core.faults.FaultSchedule` can ride
into the shards: :func:`partition_faults` retargets each incident at
the shard that owns its fault domain (rack branches follow the rack,
CRAC failures follow the proportional CRAC slice, UPS derates and
utility outages replicate into every shard, whose UPS banks jointly
*are* the facility's).  Shard :class:`ResilienceReport`\\ s merge with
:func:`merge_resilience`.  The exchanged capacity column is the
*healthy* capacity (installed minus failed servers) rather than the
awake capacity, so a repaired shard's share snaps back at the next
sync point instead of starving behind its own sleep state.

Merge semantics (documented approximations)
-------------------------------------------
Energies, alarms and mean active servers sum exactly.  The merged PUE
is the energy-weighted quotient of the summed energies.  The merged
served fraction is recomputed from summed offered/shed work — exact.
The response percentile is taken as the *worst shard's* percentile
(a conservative bound; per-sample merging would need the raw series).
``peak_grid_w`` sums per-shard peaks, an upper bound on the true
coincident peak (shards peak at slightly different instants).
Resilience reports concatenate incidents and sum counters; the
during-incident SLA is the worst shard's (same convention).
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import time
import typing

import numpy as np

from repro.cluster.server import ServerState
from repro.core.faults import FaultKind, FaultSchedule, ResilienceReport
from repro.core.sla import SLAReport
from repro.datacenter.cosim import CoSimResult, CoSimulation
from repro.datacenter.shm import FabricBlock
from repro.datacenter.spec import DataCenterSpec

__all__ = [
    "partition_spec",
    "partition_faults",
    "merge_resilience",
    "merge_results",
    "poll_recv",
    "ShardWorkerDied",
    "ShardWorkerTimeout",
    "ShardedCoSimulation",
    "ShardWorkerPool",
]


class ShardWorkerDied(RuntimeError):
    """A pipe worker process exited (or broke its pipe) mid-protocol.

    The message names the shard ids served by the worker and the last
    macro period it completed, so a crash in a 96-shard campaign is
    attributable without archaeology.
    """


class ShardWorkerTimeout(ShardWorkerDied):
    """A pipe worker failed to reply within the receive deadline.

    Subclass of :class:`ShardWorkerDied`: callers that only care about
    "the worker is gone" catch the base class; callers that restart
    differently on hang vs. crash can distinguish.
    """


def poll_recv(conn, deadline_s: float, proc=None, context: str = ""):
    """``conn.recv()`` with a liveness poll instead of a blocking wait.

    Polls ``conn`` in short slices up to ``deadline_s`` wall seconds.
    Raises :class:`ShardWorkerDied` as soon as the worker process is
    observed dead with nothing left in the pipe (or the pipe returns
    EOF), and :class:`ShardWorkerTimeout` when the deadline passes
    with the worker still alive — a hung worker, not a dead one.
    ``context`` is appended to the error message (shard ids, last
    completed period).
    """
    if deadline_s <= 0:
        raise ValueError("receive deadline must be positive")
    deadline = time.monotonic() + deadline_s
    while True:
        remaining = deadline - time.monotonic()
        if conn.poll(min(0.05, max(0.0, remaining))):
            try:
                return conn.recv()
            except (EOFError, OSError) as exc:
                raise ShardWorkerDied(
                    f"worker pipe closed mid-protocol{context}: "
                    f"{type(exc).__name__}") from exc
        if proc is not None and not proc.is_alive() and not conn.poll(0):
            raise ShardWorkerDied(
                f"worker process exited (code {proc.exitcode})"
                f"{context}")
        if remaining <= 0:
            raise ShardWorkerTimeout(
                f"no reply within {deadline_s:.0f}s deadline"
                f"{context}")


def partition_spec(spec: DataCenterSpec,
                   shards: int) -> list[DataCenterSpec]:
    """Split a facility into ``shards`` self-similar sub-specs.

    Zones are dealt out in contiguous blocks (largest-remainder, so
    block sizes differ by at most one); each shard receives exactly
    the racks the builder would have mapped to its zones (rack ``r``
    lands in zone ``r % zones``) and a proportional CRAC count
    (rounded, floored at one).  Per-server parameters, tier, and the
    per-zone conductance carry over unchanged, so each shard is a
    smaller facility with the same physics per zone; UPS and tree
    ratings re-derive from the shard's own rack count.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    if shards > spec.zones:
        raise ValueError(
            f"cannot cut {spec.zones} zones into {shards} shards")
    base, rem = divmod(spec.zones, shards)
    specs = []
    zone_lo = 0
    for i in range(shards):
        n_zones = base + (1 if i < rem else 0)
        zone_hi = zone_lo + n_zones
        n_racks = sum(
            spec.racks // spec.zones
            + (1 if z < spec.racks % spec.zones else 0)
            for z in range(zone_lo, zone_hi))
        n_cracs = max(1, min(n_zones,
                             round(spec.cracs * n_zones / spec.zones)))
        specs.append(dataclasses.replace(
            spec, name=f"{spec.name}-shard{i}", racks=n_racks,
            zones=n_zones, cracs=n_cracs))
        zone_lo = zone_hi
    return specs


def _zone_blocks(spec: DataCenterSpec,
                 shard_specs: list[DataCenterSpec]) -> list[range]:
    """The contiguous global-zone block each shard covers."""
    blocks = []
    lo = 0
    for part in shard_specs:
        blocks.append(range(lo, lo + part.zones))
        lo += part.zones
    return blocks


def _rack_map(spec: DataCenterSpec,
              shard_specs: list[DataCenterSpec]
              ) -> dict[str, tuple[int, str]]:
    """``{facility rack name: (shard index, shard-local rack name)}``.

    The shard builder assigns its local rack ``r'`` to local zone
    ``r' % zones``; enumerating the global racks of a shard's zone
    block in the same cycling order reproduces that assignment, so a
    fault aimed at facility rack ``dc-rack7`` lands on the shard rack
    holding the same servers in the same (relabelled) zone.
    """
    mapping: dict[str, tuple[int, str]] = {}
    for i, (part, block) in enumerate(
            zip(shard_specs, _zone_blocks(spec, shard_specs))):
        local = 0
        for k in range((spec.racks // spec.zones) + 1):
            for z in block:
                r = z + k * spec.zones
                if r < spec.racks and local < part.racks:
                    mapping[f"{spec.name}-rack{r}"] = (
                        i, f"{part.name}-rack{local}")
                    local += 1
    return mapping


def partition_faults(spec: DataCenterSpec,
                     shard_specs: list[DataCenterSpec],
                     schedule: FaultSchedule) -> list[FaultSchedule]:
    """Split a facility fault schedule into per-shard schedules.

    * ``RACK_BRANCH`` incidents follow their rack into the shard that
      owns it (retargeted to the shard-local rack name).
    * ``CRAC_FAILURE`` incidents follow the proportional CRAC slice:
      global unit ``c`` belongs to the shard whose cumulative CRAC
      count covers it, clamped into the shard's own range (rounding
      can shrink a slice).
    * ``UPS_DERATE`` and ``UTILITY_OUTAGE`` are facility-wide:
      replicated into every shard, whose UPS banks jointly are the
      facility's parallel bank.
    """
    racks = _rack_map(spec, shard_specs)
    crac_lo = []
    lo = 0
    for part in shard_specs:
        crac_lo.append(lo)
        lo += part.cracs
    total_cracs = lo
    schedules = [FaultSchedule() for _ in shard_specs]
    for incident in schedule.ordered():
        if incident.kind is FaultKind.RACK_BRANCH:
            if incident.target not in racks:
                raise KeyError(f"no rack named {incident.target!r} "
                               f"in {spec.name!r}")
            shard, local = racks[incident.target]
            schedules[shard].add(
                dataclasses.replace(incident, target=local))
        elif incident.kind is FaultKind.CRAC_FAILURE:
            # Map the facility CRAC index onto the concatenated shard
            # slices (scaled when rounding changed the total).
            c = int(incident.target)
            if not 0 <= c < spec.cracs:
                raise IndexError(f"CRAC {c} outside facility range")
            scaled = min(total_cracs - 1, c * total_cracs // spec.cracs)
            shard = 0
            for i, lo in enumerate(crac_lo):
                if scaled >= lo:
                    shard = i
            local = min(scaled - crac_lo[shard],
                        shard_specs[shard].cracs - 1)
            schedules[shard].add(
                dataclasses.replace(incident, target=local))
        else:  # facility-wide: UPS derate, utility outage
            for shard_schedule in schedules:
                shard_schedule.add(incident)
    return schedules


def merge_resilience(reports: typing.Sequence[ResilienceReport | None]
                     ) -> ResilienceReport | None:
    """Fold per-shard resilience reports into one facility report.

    Incidents concatenate (sorted by start time, then kind/target for
    a deterministic order); counters sum; MTTR is recomputed over the
    merged closed incidents.  The during-incident SLA is the worst
    shard's report (lowest served fraction) — the same conservative
    worst-shard convention the response percentile uses.
    """
    present = [r for r in reports if r is not None]
    if not present:
        return None
    incidents = tuple(sorted(
        (rec for r in present for rec in r.incidents),
        key=lambda rec: (rec.start_s, rec.kind.value, str(rec.target))))
    closed = [rec.duration_s for rec in incidents
              if not rec.active and not math.isnan(rec.duration_s)]
    worst_sla: SLAReport | None = None
    for r in present:
        sla = r.sla_during_incidents
        if sla is None:
            continue
        if worst_sla is None or (
                sla.served_fraction < worst_sla.served_fraction):
            worst_sla = sla
    return ResilienceReport(
        incident_count=sum(r.incident_count for r in present),
        incidents=incidents,
        mttr_s=sum(closed) / len(closed) if closed else 0.0,
        degraded_mode_s=sum(r.degraded_mode_s for r in present),
        mode_transitions=sum(r.mode_transitions for r in present),
        protective_shutdowns=sum(r.protective_shutdowns
                                 for r in present),
        blackouts=sum(r.blackouts for r in present),
        sla_during_incidents=worst_sla,
        incident_energy_j=sum(r.incident_energy_j for r in present),
    )


def merge_results(finished: typing.Sequence[tuple[CoSimResult, float,
                                                  float]],
                  duration_s: float) -> CoSimResult:
    """Fold ``(result, offered, shed)`` triples into one summary.

    The merge semantics documented in the module docstring; shared by
    :class:`ShardedCoSimulation` and the federation layer (a site's
    zone shards merge into one site result the same way a facility's
    shards merge into one facility result).
    """
    results = [f[0] for f in finished]
    offered = 0.0
    shed = 0.0
    it = 0.0
    facility = 0.0
    active = 0.0
    alarms = 0
    peak = 0.0
    worst_response = float("nan")
    for result, shard_offered, shard_shed in finished:
        offered += shard_offered
        shed += shard_shed
        it += result.it_energy_j
        facility += result.facility_energy_j
        active += result.mean_active_servers
        alarms += result.thermal_alarms
        peak += result.peak_grid_w
        response = result.sla.measured_response_s
        if not math.isnan(response) and not (
                worst_response >= response):
            worst_response = response
    sla = SLAReport(
        sla=results[0].sla.sla,
        measured_response_s=worst_response,
        served_fraction=(1.0 - shed / offered if offered > 0.0
                         else 1.0),
    )
    return CoSimResult(
        duration_s=duration_s,
        it_energy_j=it,
        facility_energy_j=facility,
        energy_weighted_pue=(facility / it if it > 0.0
                             else float("inf")),
        mean_active_servers=active,
        sla=sla,
        thermal_alarms=alarms,
        peak_grid_w=peak,
        resilience=merge_resilience([r.resilience for r in results]),
    )


def _demand_fn(cfg: dict, capacity: float):
    """Build the global demand callable from a picklable config.

    ``cfg`` mirrors :func:`repro.perf.sweep.run_cosim_point`'s demand
    block — ``{"kind": "constant"|"diurnal", "fraction": f}`` with the
    fraction relative to ``capacity`` — so the same declaration drives
    a sharded run, a sweep point, or a plain co-simulation.
    """
    fraction = float(cfg.get("fraction", 0.5))
    kind = cfg.get("kind", "constant")
    if kind == "constant":
        level = fraction * capacity

        def fn(t: float) -> float:
            return level
    elif kind == "diurnal":
        from repro.workload.diurnal import DiurnalProfile
        profile = DiurnalProfile()
        scale = fraction * capacity

        def fn(t: float) -> float:
            return scale * profile(t)
    else:
        raise ValueError(f"unknown demand kind {kind!r}")
    return fn


class _Shard:
    """One sub-facility co-simulation plus its mutable demand share."""

    def __init__(self, index: int, spec: DataCenterSpec, demand_cfg: dict,
                 total_capacity: float, managed: bool,
                 fault_schedule: FaultSchedule | None = None):
        self.index = index
        self.share = 0.0  # parent sends the real share before each period
        global_fn = _demand_fn(demand_cfg, total_capacity)

        def shard_demand(t: float) -> float:
            return global_fn(t) * self.share

        self.sim = CoSimulation(spec, shard_demand, managed=managed,
                                fault_schedule=fault_schedule)
        self.start = self.sim.env.now

    def deliverable_cap(self) -> float:
        """Healthy capacity — the aggregate column shards exchange.

        Installed capacity minus failed servers: what the shard could
        serve once its manager wakes the fleet, not what happens to be
        awake right now.  Re-read at every sync point, so a repair
        restores the shard's demand share at the next period instead
        of trapping it behind its own post-fault sleep state (low
        share → few awake → low awake capacity → low share).
        """
        dc = self.sim.dc
        failed = dc.cluster.count_in(ServerState.FAILED)
        return (dc.spec.total_servers - failed) * dc.spec.server_capacity

    def advance(self, until: float) -> None:
        self.sim.env.run(until=until)

    def finish(self) -> tuple[CoSimResult, float, float]:
        """Shard summary plus the offered/shed integrals the merge needs."""
        end = self.sim.env.now
        result = self.sim.summarize(self.start, end)
        offered = self.sim.farm.offered_monitor.integral(self.start, end)
        shed = self.sim.farm.shed_monitor.integral(self.start, end)
        return result, offered, shed


class _ShardGroup:
    """Drives a batch of shards; used verbatim in-process and in workers."""

    def __init__(self, items: list[tuple], demand_cfg: dict,
                 total_capacity: float, managed: bool):
        self.shards = [_Shard(i, s, demand_cfg, total_capacity, managed,
                              fault_schedule=sched)
                       for i, s, sched in items]

    def ready(self) -> list[tuple[int, float, float]]:
        return [(s.index, s.start, s.deliverable_cap())
                for s in self.shards]

    def advance(self, until: float,
                shares: dict[int, float]) -> list[tuple[int, float]]:
        out = []
        for s in self.shards:
            s.share = shares[s.index]
            s.advance(until)
            out.append((s.index, s.deliverable_cap()))
        return out

    def finish(self) -> list[tuple[int, tuple]]:
        return [(s.index, s.finish()) for s in self.shards]

    def close(self) -> None:
        """Nothing to release in-process (the worker handles' API)."""


def _group_layout(n_shards: int,
                  n_local: int) -> tuple[tuple[str, int], ...]:
    """Fabric lanes for one worker group.

    ``shares``: the parent's full demand-share vector (indexed by
    global shard id — every group reads the same column it would have
    received as a dict).  ``caps``: the group's deliverable-capacity
    column, one slot per local shard in ``shard_ids`` order.
    """
    return (("shares", n_shards), ("caps", max(1, n_local)))


def _shard_worker(conn, persist: bool = False) -> None:
    """Persistent worker: serve shard batches over a pipe + fabric.

    Each run starts with ``("build", items, demand_cfg,
    total_capacity, managed, shm)`` and ends with ``("finish",)`` →
    ``("result", ...)``; with ``persist`` the worker then waits for
    the next ``build`` (warm reuse across bench repeats) until an
    ``("exit",)``, otherwise it returns.  ``shm`` is ``(block name,
    total shard count)``: each ``("advance", until)`` token's demand
    shares are read from the block's ``shares`` lane and the capacity
    column is written to its ``caps`` lane, so the pipe carries only
    control tokens.
    """
    block = None
    try:
        while True:
            msg = conn.recv()
            if msg[0] == "exit":
                return
            if msg[0] != "build":  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown message {msg[0]!r}")
            _, items, demand_cfg, total_capacity, managed, shm = msg
            group = _ShardGroup(items, demand_cfg, total_capacity,
                                managed)
            local_ids = [i for i, _, _ in items]
            name, n_shards = shm
            block = FabricBlock.attach(
                name, _group_layout(n_shards, len(local_ids)))
            shares_lane = block.lane("shares")
            caps_lane = block.lane("caps")
            conn.send(("ready", group.ready()))
            period = 0
            while True:
                msg = conn.recv()
                if msg[0] == "advance":
                    period += 1
                    vec = shares_lane.read(period)
                    shares = {i: float(vec[i]) for i in local_ids}
                    out = group.advance(msg[1], shares)
                    caps_lane.write(period, [cap for _, cap in out])
                    conn.send(("ok", None))
                elif msg[0] == "finish":
                    conn.send(("result", group.finish()))
                    break
                else:  # pragma: no cover - protocol guard
                    raise RuntimeError(f"unknown message {msg[0]!r}")
            del group
            block.close()
            block = None
            if not persist:
                return
    except BaseException as exc:  # noqa: BLE001 - reported to parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
        raise
    finally:
        if block is not None:
            block.close()
        conn.close()


class _ShardWorkerHandle:
    """A worker process serving one shard batch over a pipe.

    Every reply crosses :func:`poll_recv` with ``recv_deadline_s``, so
    a SIGKILLed or hung worker surfaces as :class:`ShardWorkerDied` /
    :class:`ShardWorkerTimeout` naming the shards it served and the
    last macro period it completed — never as a parent blocked forever
    in ``Connection.recv``.

    ``fabric`` is a :class:`~repro.datacenter.shm.FabricBlock` the
    caller created and owns: the per-period share vector and capacity
    column travel through its lanes at the macro-period epoch, and
    the pipe carries only control tokens.  With ``persist``, the
    worker process outlives :meth:`finish` so a
    :class:`ShardWorkerPool` can rebuild the next run on it warm.
    """

    def __init__(self, items, demand_cfg, total_capacity, managed,
                 fabric: FabricBlock, recv_deadline_s: float = 120.0,
                 persist: bool = False):
        ctx = multiprocessing.get_context()
        self.conn, child = ctx.Pipe()
        self.recv_deadline_s = float(recv_deadline_s)
        self.persist = bool(persist)
        self.shard_ids: list[int] = []
        self.completed_periods = 0
        self._done = True
        self.proc = ctx.Process(target=_shard_worker,
                                args=(child, self.persist), daemon=True)
        self.proc.start()
        child.close()
        self.build(items, demand_cfg, total_capacity, managed, fabric)

    def build(self, items, demand_cfg, total_capacity, managed,
              fabric: FabricBlock) -> None:
        """Start one run (on a fresh spawn or a warm pooled worker)."""
        self.shard_ids = [i for i, _, _ in items]
        self.completed_periods = 0
        self._done = False
        self._shares_lane = fabric.lane("shares")
        self._caps_lane = fabric.lane("caps")
        self._share_vec = np.zeros(self._shares_lane.size)
        self._send(("build", items, demand_cfg, total_capacity,
                    managed, (fabric.name, self._shares_lane.size)))

    def _context(self) -> str:
        return (f" (shards {self.shard_ids}, last completed period "
                f"{self.completed_periods})")

    def _send(self, message: tuple) -> None:
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise ShardWorkerDied(
                f"worker pipe broken on send{self._context()}: "
                f"{type(exc).__name__}") from exc

    def _recv(self, expect: str):
        msg = poll_recv(self.conn, self.recv_deadline_s, proc=self.proc,
                        context=self._context())
        if msg[0] == "error":
            raise RuntimeError(f"shard worker failed: {msg[1]}")
        if msg[0] != expect:  # pragma: no cover - protocol guard
            raise RuntimeError(f"expected {expect!r}, got {msg[0]!r}")
        return msg[1]

    def ready(self):
        return self._recv("ready")

    def advance(self, until, shares):
        period = self.completed_periods + 1
        for i, share in shares.items():
            self._share_vec[i] = share
        self._shares_lane.write(period, self._share_vec)
        self._send(("advance", until))
        self._recv("ok")
        caps = self._caps_lane.read(period, deadline_s=self.recv_deadline_s)
        out = [(i, float(caps[k])) for k, i in enumerate(self.shard_ids)]
        self.completed_periods += 1
        return out

    def finish(self):
        self._send(("finish",))
        out = self._recv("result")
        self._done = True
        if not self.persist:
            self.proc.join(timeout=30.0)
        return out

    def close(self):
        """Release the run; pooled workers survive a *clean* finish.

        A persistent worker that completed its run stays alive for the
        pool to rebuild (the pool's own :meth:`ShardWorkerPool.close`
        retires it); one closed mid-run is in an unknown state and is
        terminated like a non-pooled worker.
        """
        if self.persist and self._done and self.proc.is_alive():
            return
        self.conn.close()
        if self.proc.is_alive():  # pragma: no cover - error cleanup
            self.proc.terminate()
            self.proc.join(timeout=5.0)


class ShardWorkerPool:
    """Persistent shard workers reused across sharded runs.

    ``ShardedCoSimulation`` is one-shot by design; benchmark
    ``--repeat`` loops therefore pay worker spawn + build every
    iteration.  A pool keeps up to ``workers`` persistent pipe
    servers alive between runs: pass the same pool to successive
    ``ShardedCoSimulation(..., pool=...)`` constructions and each run
    re-``build``\\ s its shard batches on the warm processes.  Close
    the pool (or use it as a context manager) to retire the workers.

    Reuse cannot perturb results: the worker rebuilds its whole
    :class:`_ShardGroup` from the build message, so a warm process
    differs from a fresh one only by interpreter startup cost.
    """

    def __init__(self, workers: int, recv_deadline_s: float = 120.0):
        if workers < 1:
            raise ValueError("pool needs at least one worker")
        self.workers = int(workers)
        self.recv_deadline_s = float(recv_deadline_s)
        self._handles: list[_ShardWorkerHandle] = []

    def lease(self, batches, demand_cfg, total_capacity, managed,
              fabrics) -> list[_ShardWorkerHandle]:
        """Handles for one run, reusing live workers where possible."""
        if len(batches) > self.workers:
            raise ValueError(
                f"run wants {len(batches)} workers, pool holds "
                f"{self.workers}")
        out = []
        for w, (items, fabric) in enumerate(zip(batches, fabrics)):
            if (w < len(self._handles)
                    and self._handles[w]._done
                    and self._handles[w].proc.is_alive()):
                handle = self._handles[w]
                handle.build(items, demand_cfg, total_capacity,
                             managed, fabric)
            else:
                handle = _ShardWorkerHandle(
                    items, demand_cfg, total_capacity, managed, fabric,
                    recv_deadline_s=self.recv_deadline_s, persist=True)
                if w < len(self._handles):
                    self._handles[w].close()  # dead, or left mid-run
                    self._handles[w] = handle
                else:
                    self._handles.append(handle)
            out.append(handle)
        return out

    def close(self) -> None:
        """Retire every pooled worker (idempotent)."""
        for handle in self._handles:
            if handle.proc.is_alive() and handle._done:
                try:
                    handle._send(("exit",))
                    handle.proc.join(timeout=5.0)
                except ShardWorkerDied:  # pragma: no cover
                    pass
            handle.persist = False
            handle.close()
        self._handles = []

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ShardedCoSimulation:
    """Co-simulate one facility as zone shards in macro-period lockstep.

    Parameters
    ----------
    spec:
        The whole facility; :func:`partition_spec` cuts it up.
    demand:
        Declarative global demand (picklable — it must cross the
        process boundary): ``{"kind": "constant"|"diurnal",
        "fraction": f}`` with the fraction relative to the *full*
        facility's capacity.
    shards:
        Number of sub-facilities (≤ ``spec.zones``).
    workers:
        OS processes.  ``<= 1`` runs every shard in-process — the
        bit-identical reference; larger values deal shards round-robin
        over ``min(workers, shards)`` persistent workers, each
        exchanging its payloads through its own shared-memory fabric
        block.
    sync_period_s:
        Lockstep macro-period between demand redistributions (default
        300 s, the macro-management cadence).
    fault_schedule:
        Optional facility-level fault schedule, partitioned into the
        shards by :func:`partition_faults`; the merged result carries
        the merged :class:`~repro.core.faults.ResilienceReport`.
    recv_deadline_s:
        Wall-clock deadline for any single worker reply (a macro
        period of the largest shard takes well under a second; the
        default 120 s only trips on a genuinely dead or hung worker).
    pool:
        Optional :class:`ShardWorkerPool` to lease worker processes
        from instead of spawning fresh ones (warm reuse across bench
        repeats).  The pool outlives the run; the caller closes it.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`; the chosen
        transport is recorded as a ``sharded.transport.<name>``
        counter.

    After :meth:`run`, :attr:`transport` names the exchange path that
    ran: ``"local"`` (in-process) or ``"shm"`` (shared-memory fabric).
    A fabric block that cannot be created raises its :class:`OSError`
    after every block and worker already made is closed.
    """

    def __init__(self, spec: DataCenterSpec, demand: dict,
                 shards: int = 2, workers: int = 1,
                 managed: bool = True,
                 sync_period_s: float = 300.0,
                 fault_schedule: FaultSchedule | None = None,
                 recv_deadline_s: float = 120.0,
                 pool: "ShardWorkerPool | None" = None,
                 tracer=None):
        if sync_period_s <= 0:
            raise ValueError("sync period must be positive")
        if recv_deadline_s <= 0:
            raise ValueError("receive deadline must be positive")
        if not isinstance(demand, dict):
            raise TypeError("demand must be a declarative dict "
                            "(it crosses the process boundary)")
        _demand_fn(demand, 1.0)  # validate the config eagerly
        self.spec = spec
        self.demand = dict(demand)
        self.shard_specs = partition_spec(spec, shards)
        self.shard_faults: list[FaultSchedule | None]
        if fault_schedule is None:
            self.shard_faults = [None] * len(self.shard_specs)
        else:
            self.shard_faults = list(partition_faults(
                spec, self.shard_specs, fault_schedule))
        self.workers = max(1, min(int(workers), len(self.shard_specs)))
        self.managed = bool(managed)
        self.sync_period_s = float(sync_period_s)
        self.recv_deadline_s = float(recv_deadline_s)
        self.total_capacity = spec.total_servers * spec.server_capacity
        #: Static fallback shares (proportional to installed capacity),
        #: used whenever the fleet reports zero deliverable capacity.
        caps = [s.total_servers * spec.server_capacity
                for s in self.shard_specs]
        total = 0.0
        for cap in caps:
            total += cap
        self._static_shares = {i: cap / total
                               for i, cap in enumerate(caps)}
        self.pool = pool
        self.tracer = tracer
        #: Exchange path of the (last) run: local / shm.
        self.transport: str | None = None
        self._ran = False

    def _shares(self, caps: dict[int, float]) -> dict[int, float]:
        """Demand shares from the exchanged capacity column.

        Summed in shard-index order so the in-process and worker paths
        fold identically.
        """
        total = 0.0
        for i in sorted(caps):
            total += caps[i]
        if total <= 0.0:
            return dict(self._static_shares)
        return {i: caps[i] / total for i in sorted(caps)}

    def run(self, duration_s: float) -> CoSimResult:
        """Advance every shard through ``duration_s`` and merge."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if self._ran:
            raise RuntimeError("a sharded co-simulation runs once")
        self._ran = True
        items = [(i, spec, sched) for i, (spec, sched) in enumerate(
            zip(self.shard_specs, self.shard_faults))]
        self.transport = "local" if self.workers <= 1 else "shm"
        if self.tracer is not None:
            self.tracer.count(f"sharded.transport.{self.transport}")
        # Blocks and handles are appended one at a time inside the
        # try, so a failure on the k-th create still closes the k-1
        # already made.
        fabrics: list[FabricBlock] = []
        groups: list = []
        try:
            if self.workers <= 1:
                groups.append(_ShardGroup(items, self.demand,
                                          self.total_capacity,
                                          self.managed))
            else:
                batches = [items[w::self.workers]
                           for w in range(self.workers)]
                for batch in batches:
                    fabrics.append(FabricBlock.create(
                        _group_layout(len(items), len(batch))))
                if self.pool is not None:
                    groups = self.pool.lease(batches, self.demand,
                                             self.total_capacity,
                                             self.managed, fabrics)
                else:
                    for batch, fabric in zip(batches, fabrics):
                        groups.append(_ShardWorkerHandle(
                            batch, self.demand, self.total_capacity,
                            self.managed, fabric,
                            recv_deadline_s=self.recv_deadline_s))
            caps: dict[int, float] = {}
            starts: set[float] = set()
            for group in groups:
                for index, start, cap in group.ready():
                    starts.add(start)
                    caps[index] = cap
            if len(starts) != 1:  # pragma: no cover - spec invariant
                raise RuntimeError(f"shards disagree on start: {starts}")
            t = start = starts.pop()
            end = start + duration_s
            while t < end:
                t = min(t + self.sync_period_s, end)
                shares = self._shares(caps)
                for index, cap in [pair for group in groups
                                   for pair in group.advance(t, shares)]:
                    caps[index] = cap
            finished: dict[int, tuple] = {}
            for group in groups:
                finished.update(group.finish())
            return merge_results([finished[i] for i in sorted(finished)],
                                 duration_s)
        finally:
            for group in groups:
                group.close()
            for fabric in fabrics:
                fabric.close()
