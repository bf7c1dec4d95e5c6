"""Federated co-simulation: N plants, one router, crash-tolerant glue.

:class:`FederatedCoSimulation` is the top of the stack: each
federation site is a full plant (:mod:`repro.federation.sites`)
advancing in macro-period lockstep, the
:class:`~repro.federation.router.GlobalRouter` places regional demand
between periods, and — with ``workers=True`` — every site lives in its
own worker process behind a supervisor that makes worker death a
wall-time event instead of a correctness event.

Crash tolerance is log-structured replay, not state snapshotting: the
supervisor records every message it sent to a site worker (the
inter-period exchange state — a few floats per period).  When
:func:`~repro.datacenter.sharded.poll_recv` reports the worker dead or
hung, the supervisor respawns it from the picklable
:class:`~repro.federation.sites.SiteConfig`, replays the log
(discarding the replies it already consumed — the simulation is
deterministic, so they are bit-identical), and takes the reply to the
in-flight message.  A SIGKILL at any macro period therefore yields a
:class:`FederationResult` bit-identical to an uninterrupted run; the
restart count lives on the supervisor (:attr:`recoveries`), *not* in
the result, precisely because it is a wall-time fact.

Each worker publishes its per-period :class:`SiteSummary` to a
shared-memory summary lane (one fresh
:class:`~repro.datacenter.shm.FabricBlock` per spawn); the pipe keeps
the replay log and the control tokens.  A block that cannot be
created raises its :class:`OSError`.

Determinism contract: ``workers=False`` (everything in-process) is the
bit-identical reference for ``workers=True``, with or without worker
kills — the federation test asserts all three ways.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import typing

from repro.datacenter.cosim import CoSimResult
from repro.datacenter.sharded import ShardWorkerDied, poll_recv
from repro.datacenter.shm import FabricBlock
from repro.sim import RandomStreams
from repro.workload.diurnal import DiurnalProfile

from repro.federation.router import (
    GlobalRouter,
    Region,
    RouteDecision,
    RouterConfig,
    SiteMeta,
)
from repro.federation.sites import (
    SUMMARY_LAYOUT,
    SiteConfig,
    SiteRuntime,
    SiteSummary,
    _site_worker,
    unpack_summary,
)

__all__ = ["FederationSite", "FederationResult",
           "FederatedCoSimulation"]


@dataclasses.dataclass(frozen=True)
class FederationSite:
    """One site: its plant config plus parent-side routing metadata."""

    config: SiteConfig
    meta: SiteMeta

    @property
    def name(self) -> str:
        return self.config.name


@dataclasses.dataclass
class FederationResult:
    """Deterministic summary of one federated run.

    Everything here is a function of simulation state only — restart
    counts and wall times are deliberately excluded so a run with
    worker crashes compares equal to a clean one.
    """

    duration_s: float
    site_results: dict[str, CoSimResult]
    #: Work ledger, all in unit-seconds of demand.
    offered_unit_s: float
    placed_unit_s: float
    router_shed_unit_s: float
    site_shed_unit_s: float
    served_fraction: float
    #: Merged plant energetics.
    it_energy_j: float
    facility_energy_j: float
    energy_weighted_pue: float
    #: Router ledger.
    routing_cost: float
    failovers: int
    transitions: tuple
    decisions: int

    @property
    def facility_kwh(self) -> float:
        return self.facility_energy_j / 3.6e6


class _LocalSiteHandle:
    """In-process site — the bit-identical reference path."""

    def __init__(self, cfg: SiteConfig):
        self.name = cfg.name
        self.runtime = SiteRuntime(cfg)
        self.ready_summary = self.runtime.ready()
        self.pid = None

    def advance(self, until: float, units: float) -> SiteSummary:
        return self.runtime.advance(until, units)

    def finish(self) -> tuple[CoSimResult, float, float]:
        return self.runtime.finish()

    def close(self) -> None:
        pass


class _SiteHandle:
    """A site worker process, supervised with restart-and-replay.

    The message log *is* the checkpoint: every ``advance`` the parent
    ever sent, in order.  ``request`` appends, sends, and receives
    through the shared :func:`poll_recv` deadline helper; any
    :class:`ShardWorkerDied` (crash, SIGKILL, hang past the deadline,
    broken pipe) triggers ``_recover``, which respawns the worker from
    ``cfg`` and replays the whole log to the current sync point.
    """

    def __init__(self, cfg: SiteConfig, recv_deadline_s: float = 60.0,
                 max_restarts: int = 3):
        self.cfg = cfg
        self.name = cfg.name
        self.recv_deadline_s = float(recv_deadline_s)
        self.max_restarts = int(max_restarts)
        self.restarts = 0
        self.log: list[tuple] = []
        self._fabric: FabricBlock | None = None
        self.conn = self.proc = None
        try:
            self._spawn()
        except BaseException:
            self.close()
            raise

    # -- process lifecycle --------------------------------------------
    def _spawn(self) -> None:
        """Start (or restart) the worker, with a fresh fabric block.

        The worker-side summary lane is per-spawn state: a respawned
        worker attaches a brand-new block and replaying the log
        repopulates it from epoch 1, so stale telemetry from the dead
        incarnation can never satisfy a read.
        """
        ctx = multiprocessing.get_context()
        self.conn, child = ctx.Pipe()
        self._fabric = FabricBlock.create(SUMMARY_LAYOUT)
        self.proc = ctx.Process(target=_site_worker,
                                args=(child, self.cfg, self._fabric.name),
                                daemon=True)
        self.proc.start()
        child.close()
        self.ready_summary = self._recv("ready")

    @property
    def pid(self) -> int | None:
        return self.proc.pid

    def _context(self) -> str:
        return (f" (site {self.name!r}, last completed period "
                f"{len(self.log)})")

    def _recv(self, expect: str):
        msg = poll_recv(self.conn, self.recv_deadline_s,
                        proc=self.proc, context=self._context())
        if msg[0] == "error":
            # The worker *reported* a failure before dying: that is a
            # simulation bug, not a crash — replay would just repeat
            # it, so surface it instead.
            raise RuntimeError(
                f"site worker {self.name!r} failed: {msg[1]}")
        if msg[0] != expect:  # pragma: no cover - protocol guard
            raise RuntimeError(f"expected {expect!r}, got {msg[0]!r}")
        return msg[1]

    # -- supervised request/replay ------------------------------------
    def _exchange(self, message: tuple, expect: str, period: int):
        """One send/receive; ``period`` indexes the summary lane.

        An ``advance`` reply's payload lives in the fabric: the pipe
        ``ok`` (which orders writer before reader) carries ``None``
        and the summary is read from the lane at the period's epoch.
        """
        self.conn.send(message)
        reply = self._recv(expect)
        if expect == "ok":
            vec = self._fabric.lane("summary").read(
                period, deadline_s=self.recv_deadline_s)
            reply = unpack_summary(self.name, vec)
        return reply

    def _recover(self) -> None:
        self.restarts += 1
        if self.restarts > self.max_restarts:
            raise ShardWorkerDied(
                f"site worker {self.name!r} exceeded "
                f"{self.max_restarts} restarts")
        self.close()
        self._spawn()
        # Replay everything already acknowledged; deterministic sims
        # reproduce the same trajectory, so the replies (discarded
        # here) are bit-identical to the ones consumed the first time.
        # Periods renumber from 1 because the fresh worker's lane
        # epochs do too.
        for period, message in enumerate(self.log[:-1], start=1):
            self._exchange(message, _expect_for(message), period)

    def request(self, message: tuple):
        self.log.append(message)
        expect = _expect_for(message)
        period = len(self.log)
        while True:
            try:
                return self._exchange(self.log[-1], expect, period)
            except (ShardWorkerDied, BrokenPipeError, OSError):
                self._recover()

    def advance(self, until: float, units: float) -> SiteSummary:
        return self.request(("advance", until, units))

    def finish(self) -> tuple[CoSimResult, float, float]:
        out = self.request(("finish",))
        self.proc.join(timeout=30.0)
        return out

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
        if self.proc is not None and self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=5.0)
        if self._fabric is not None:
            self._fabric.close()
            self._fabric = None


def _expect_for(message: tuple) -> str:
    return "ok" if message[0] == "advance" else "result"


class FederatedCoSimulation:
    """Drive N site plants under one global router.

    Parameters
    ----------
    sites:
        The federation members (plant config + routing metadata).
    regions:
        User populations with home sites, latency geometry, peak
        demand, and the UTC offset that phases their diurnal cycle.
    policy:
        ``"optimizing"`` (managed federation) or ``"static-home"``
        (the naive baseline) — see :class:`GlobalRouter`.
    workers:
        ``False`` runs every site in-process (the bit-identical
        reference); ``True`` gives each site its own supervised
        worker process.
    period_s:
        Macro period between routing decisions (default 300 s).
    recv_deadline_s / max_restarts:
        Supervisor knobs: per-reply deadline and the restart budget
        per site before the run is abandoned.
    chaos_kill:
        ``{site name: period index}`` — SIGKILL that site's worker
        just before the given period's exchange (test hook for the
        crash-tolerance contract; ignored in-process).
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`; the chosen
        transport is recorded as a ``federation.transport.<name>``
        counter.

    After :meth:`run`, :attr:`transport` names the summary exchange
    path: ``"local"`` (in-process) or ``"shm"`` (shared-memory summary
    lanes).  The parent→worker advance stream always stays on the
    pipe: it is the supervisor's replay log.
    """

    def __init__(self, sites: typing.Sequence[FederationSite],
                 regions: typing.Sequence[Region],
                 policy: str = "optimizing",
                 workers: bool = False,
                 period_s: float = 300.0,
                 router_config: RouterConfig | None = None,
                 seed: int = 0,
                 recv_deadline_s: float = 60.0,
                 max_restarts: int = 3,
                 chaos_kill: typing.Mapping[str, int] | None = None,
                 tracer=None):
        if period_s <= 0:
            raise ValueError("period must be positive")
        names = [s.name for s in sites]
        if len(names) != len(set(names)):
            raise ValueError("duplicate site names")
        self.sites = list(sites)
        self.regions = list(regions)
        self.policy = policy
        self.workers = bool(workers)
        self.period_s = float(period_s)
        self.recv_deadline_s = float(recv_deadline_s)
        self.max_restarts = int(max_restarts)
        self.chaos_kill = dict(chaos_kill or {})
        self.router = GlobalRouter(
            [s.meta for s in sites], regions, config=router_config,
            policy=policy, streams=RandomStreams(seed))
        self._profile = DiurnalProfile()
        self.tracer = tracer
        #: Summary exchange path of the (last) run: local / shm.
        self.transport: str | None = None
        #: Wall-time facts only — never part of the result.
        self.recoveries: dict[str, int] = {}
        self._ran = False

    def demand_at(self, t_s: float) -> dict[str, float]:
        """Each region's demand level (units/s) at federation time t."""
        return {
            r.name: r.peak_units * self._profile(
                t_s + r.utc_offset_h * 3600.0)
            for r in self.regions}

    def _maybe_kill(self, handle, period: int) -> None:
        if self.chaos_kill.get(handle.name) != period:
            return
        if handle.pid is None:
            return  # in-process handle: nothing to kill
        os.kill(handle.pid, signal.SIGKILL)
        handle.proc.join(timeout=10.0)

    def run(self, duration_s: float) -> FederationResult:
        """Advance the federation through ``duration_s`` and merge."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if self._ran:
            raise RuntimeError("a federated co-simulation runs once")
        self._ran = True
        self.transport = "shm" if self.workers else "local"
        if self.tracer is not None:
            self.tracer.count(f"federation.transport.{self.transport}")
        # Appended one at a time inside the try, so a site that fails
        # to build still lets the finally close the sites before it.
        handles = []
        try:
            for s in self.sites:
                handles.append(_SiteHandle(
                    s.config, recv_deadline_s=self.recv_deadline_s,
                    max_restarts=self.max_restarts)
                    if self.workers else _LocalSiteHandle(s.config))
            summaries: dict[str, SiteSummary] = {
                h.name: h.ready_summary for h in handles}
            starts = {s.time_s for s in summaries.values()}
            if len(starts) != 1:
                raise RuntimeError(
                    f"sites disagree on start time: {starts} — "
                    "federation sites must share boot_s")
            t = start = starts.pop()
            end = start + duration_s
            offered = 0.0
            router_shed = 0.0
            cost = 0.0
            period = 0
            decision: RouteDecision
            while t < end:
                t_next = min(t + self.period_s, end)
                dt = t_next - t
                # Provision against the demand level at the *end* of
                # the period: on a rising diurnal edge the assignment
                # then covers the whole period instead of trailing it
                # by one step.
                demands = self.demand_at(t_next)
                decision = self.router.decide(t, summaries, demands)
                offered += sum(demands.values()) * dt
                router_shed += decision.total_shed * dt
                cost += decision.cost_per_hour * dt / 3600.0
                for handle in handles:
                    self._maybe_kill(handle, period)
                    summaries[handle.name] = handle.advance(
                        t_next, decision.assignments.get(handle.name,
                                                         0.0))
                t = t_next
                period += 1
            finished = {h.name: h.finish() for h in handles}
        finally:
            for handle in handles:
                self.recoveries[handle.name] = getattr(
                    handle, "restarts", 0)
                handle.close()
        site_results = {name: f[0] for name, f in finished.items()}
        placed = sum(f[1] for f in finished.values())
        site_shed = sum(f[2] for f in finished.values())
        it = sum(r.it_energy_j for r in site_results.values())
        facility = sum(r.facility_energy_j
                       for r in site_results.values())
        shed_total = router_shed + site_shed
        return FederationResult(
            duration_s=duration_s,
            site_results=site_results,
            offered_unit_s=offered,
            placed_unit_s=placed,
            router_shed_unit_s=router_shed,
            site_shed_unit_s=site_shed,
            served_fraction=(1.0 - shed_total / offered
                             if offered > 0.0 else 1.0),
            it_energy_j=it,
            facility_energy_j=facility,
            energy_weighted_pue=(facility / it if it > 0.0
                                 else float("inf")),
            routing_cost=cost,
            failovers=self.router.failovers,
            transitions=tuple(self.router.transitions),
            decisions=self.router.decisions,
        )
