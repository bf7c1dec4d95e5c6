"""The closed-loop server-farm plant that controllers act on.

A :class:`ServerFarm` wires a demand function, a load balancer, and a
pool of servers into one periodically-sampled plant with the three
signals every §4/§5 policy consumes:

* mean utilization of active servers (what DVFS policies watch),
* a response-time estimate from per-server M/M/1 (what On/Off
  policies watch — deliberately computed from *measured* delay so a
  DVS-oblivious controller cannot tell "slow CPUs" from "too few
  machines", which is precisely the §5.1 failure mode),
* total wall power.
"""

from __future__ import annotations

import typing

from repro.cluster.loadbalancer import EvenSplit, LoadBalancer
from repro.cluster.server import Server
from repro.sim import CounterMonitor, Environment, Monitor

__all__ = ["ServerFarm"]


class ServerFarm:
    """Demand → dispatch → measurement loop over a server pool.

    Parameters
    ----------
    demand_fn:
        Total offered work (work units/s) as a function of time.
    dispatch_period_s:
        How often the balancer re-splits load ("load balancing
        policies are usually updated at the scale of minutes", §3).
    delay_cap_s:
        Finite stand-in for an overloaded server's infinite delay.
    """

    def __init__(self, env: Environment,
                 servers: typing.Sequence[Server],
                 demand_fn: typing.Callable[[float], float],
                 dispatch_period_s: float = 30.0,
                 delay_cap_s: float = 10.0,
                 policy=None):
        if dispatch_period_s <= 0:
            raise ValueError("dispatch period must be positive")
        self.env = env
        self.servers = list(servers)
        self.demand_fn = demand_fn
        self.dispatch_period_s = float(dispatch_period_s)
        self.delay_cap_s = float(delay_cap_s)
        self.balancer = LoadBalancer(self.servers, policy=policy or EvenSplit())
        #: Event-driven pool aggregates (power sum, active count and
        #: roster), shared with the balancer so every server carries a
        #: single farm-level watcher.  See ``cluster.aggregates``.
        self.fleet = self.balancer.fleet
        #: Fraction of offered demand admitted (brownout knob).  The
        #: macro layer lowers this in degraded operations; refused work
        #: still counts against the SLA via :attr:`shed_monitor`.
        self.admission_fraction = 1.0
        #: Zones the dispatcher must not activate servers in (e.g. a
        #: zone whose CRAC is down); see ``control.onoff``.
        self.quarantined_zones: set[str] = set()
        #: Optional :class:`~repro.controlplane.ControlPlane` mediating
        #: the manager's sensing and actuation (set by its ``attach``).
        #: ``None`` — the default — means controllers read and command
        #: ground truth directly, exactly as before.
        self.control_plane = None
        self.power_monitor = Monitor(env, "farm.power_w")
        self.delay_monitor = Monitor(env, "farm.delay_s")
        self.utilization_monitor = Monitor(env, "farm.utilization")
        self.active_monitor = CounterMonitor(env, "farm.active", initial=0)
        self.offered_monitor = Monitor(env, "farm.offered")
        self.shed_monitor = Monitor(env, "farm.shed")

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def active_servers(self) -> list[Server]:
        """ACTIVE servers in pool order (cached between transitions)."""
        return list(self.fleet.active_servers())

    def mean_utilization(self) -> float:
        """Mean busy fraction of active servers.

        **No-capacity convention:** with zero active servers the farm
        reports a mean utilization of ``1.0`` — no capacity at all is
        saturated by definition, so utilization-watching controllers
        (DVFS) read the outage as maximal pressure rather than an idle
        fleet.  The counterpart convention in
        :meth:`mean_response_time_s` reports ``delay_cap_s``.
        """
        if not self.fleet.active_servers():
            return 1.0  # no capacity at all: saturated by definition
        return self.fleet.mean_utilization_active()

    def mean_response_time_s(self) -> float:
        """Measured mean response time across active servers.

        Per-server M/M/1 on *effective* capacity: slowing the CPU via
        a P-state raises this exactly as adding load does — the
        ambiguity that makes oblivious On/Off control dangerous.

        **No-capacity convention:** with zero active servers this
        reports ``delay_cap_s`` (the finite stand-in for an infinite
        queue) — the same "saturated by definition" outage reading
        that :meth:`mean_utilization` expresses as ``1.0``.
        """
        if not self.fleet.active_servers():
            return self.delay_cap_s
        return self.fleet.mean_response_time_active(self.delay_cap_s)

    def total_power_w(self) -> float:
        """Total wall power of the pool (event-driven aggregate; O(1))."""
        return self.fleet.power_w

    # ------------------------------------------------------------------
    # Plant loop
    # ------------------------------------------------------------------
    def step(self) -> None:
        """One dispatch + measurement tick.

        Costs O(active) — the servers whose load actually changes —
        rather than O(fleet): power and the active count come from the
        event-driven aggregates, and the utilization/delay means scan
        the cached active roster instead of the whole pool.
        """
        demand = self.demand_fn(self.env.now)
        admitted = demand * self.admission_fraction
        served = self.balancer.dispatch(admitted)
        self.offered_monitor.record(demand)
        # Shed is measured against *raw* demand: browned-out requests
        # are refused service and the SLA must account for them.
        self.shed_monitor.record(max(0.0, demand - served))
        self.power_monitor.record(self.fleet.power_w)
        self.delay_monitor.record(self.mean_response_time_s())
        self.utilization_monitor.record(self.mean_utilization())
        self.active_monitor.record(self.fleet.active_count)
        if self.control_plane is not None:
            # Plant-side sensor sweep: demand, per-server states, and
            # heartbeats cross the (possibly lossy) telemetry network.
            self.control_plane.publish_tick(self)

    def run(self):
        """Process generator: dispatch loop forever."""
        while True:
            self.step()
            yield self.env.timeout(self.dispatch_period_s)

    # ------------------------------------------------------------------
    # Summary metrics for experiments
    # ------------------------------------------------------------------
    def energy_j(self, start: float | None = None,
                 end: float | None = None) -> float:
        """Total farm energy over an interval."""
        return self.power_monitor.integral(start, end)

    def active_count_switches(self) -> int:
        """Number of changes in the active-server count.

        The oscillation metric for EXP-DVFSOO: a stable controller
        changes the fleet a handful of times per day; the §5.1
        pathological composition churns continuously.
        """
        values = self.active_monitor.values
        return sum(1 for a, b in zip(values, values[1:]) if a != b)
