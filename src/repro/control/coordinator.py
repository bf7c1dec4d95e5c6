"""Coordinated multi-level power control (paper §5.1).

The paper's case study [29]: composing an interval DVFS policy with a
delay-based On/Off policy, each locally sensible, produces a cycle —

    DVFS slows CPUs → delay rises → On/Off adds machines → utilization
    falls → DVFS slows further → ...

— ending with *more* machines at *deep* P-states, which costs more
than fewer machines at full speed because every powered-on machine
pays the ~60 % idle floor.

:class:`CoordinatedController` removes the conflict by making both
decisions jointly from one demand signal, in the right order:

1. **Fleet size first**: the fewest machines that serve the demand at
   full speed and the target utilization (idle floors dominate, so
   machine count is the big knob).
2. **Speed second**: with the fleet fixed, the slowest P-state that
   still leaves the required capacity (DVFS trims the residual slack
   it is actually good at).

Because one controller owns both knobs, the delay signal can never be
misattributed.  This is the minimal instance of the paper's
macro-level "coordination layer".
"""

from __future__ import annotations

import math

from repro.cluster.server import ServerState
from repro.control.farm import ServerFarm
from repro.control.onoff import _activate_many, _deactivate_many
from repro.sim import Monitor

__all__ = ["CoordinatedController"]


class CoordinatedController:
    """Joint fleet-size + P-state controller over a server farm."""

    def __init__(self, farm: ServerFarm, period_s: float = 120.0,
                 target_utilization: float = 0.8,
                 headroom: float = 1.1,
                 to_sleep: bool = True,
                 demand_source=None):
        if period_s <= 0:
            raise ValueError("period must be positive")
        if not 0.0 < target_utilization <= 1.0:
            raise ValueError("target utilization must be in (0, 1]")
        if headroom < 1.0:
            raise ValueError("headroom must be >= 1")
        self.farm = farm
        # Demand signal to provision against; the macro layer passes a
        # *forecast* here so booting machines lands ahead of the peak.
        self.demand_source = demand_source or (
            lambda t: farm.demand_fn(t))
        self.period_s = float(period_s)
        self.target_utilization = float(target_utilization)
        self.headroom = float(headroom)
        self.to_sleep = to_sleep
        self.fleet_monitor = Monitor(farm.env, "coord.fleet")
        self.pstate_monitor = Monitor(farm.env, "coord.pstate")
        #: Last commanded P-state, so the flight recorder logs DVFS
        #: *changes* rather than one event per hold cycle.
        self._last_pstate: int | None = None

    def decide(self) -> tuple[int, int]:
        """One joint decision; returns (target fleet, P-state).

        Traced runs wrap the cycle in a ``coordinator.decide`` span
        whose attrs carry the outputs; fleet moves and DVFS changes
        land as ``actuation`` events for the audit trail.
        """
        tracer = self.farm.env.tracer
        if tracer is None:
            return self._decide()
        with tracer.timer("coordinator"), \
                tracer.span("coordinator.decide", "control") as span:
            target, pstate = self._decide()
            span.attrs = {"target_fleet": target, "pstate": pstate}
        return target, pstate

    def _decide(self) -> tuple[int, int]:
        farm = self.farm
        demand = self.demand_source(farm.env.now) * self.headroom
        per_server_full = farm.servers[0].capacity * self.target_utilization

        # Step 1: machine count at full speed.  With an impaired
        # control plane attached, the committed count and active
        # roster are *believed* state — the controller cannot see
        # whether its wake commands actually landed.
        cp = farm.control_plane
        mediated = cp is not None and not cp.perfect
        target = max(1, math.ceil(demand / per_server_full))
        target = min(target, len(farm.servers))
        if mediated:
            committed = sum(
                1 for s in farm.servers
                if cp.believed_state(s) is ServerState.ACTIVE)
        else:
            committed = farm.fleet.committed_count()
        if committed < target:
            _activate_many(farm, target - committed)
        elif committed > target:
            _deactivate_many(farm, self.to_sleep, committed - target)

        # Step 2: trim speed on the fleet we just sized.  Required
        # per-server speed fraction so that `target` machines at the
        # target utilization still cover demand.
        active = (cp.believed_active(farm) if mediated
                  else farm.active_servers())
        pstate = 0
        if active:
            capacity_needed = demand / (target * per_server_full)
            table = active[0].model.pstates
            pstate = table.slowest_state_meeting(min(capacity_needed, 1.0))
            batch = farm.fleet.batcher() if cp is None else None
            if batch is not None:
                batch.batch_set_pstate(pstate)
            else:
                for server in active:
                    if cp is not None:
                        cp.set_pstate(server, pstate)
                    else:
                        server.set_pstate(pstate)
            tracer = farm.env.tracer
            if tracer is not None and pstate != self._last_pstate:
                tracer.event("dvfs.set", "actuation", index=pstate,
                             servers=len(active))
        self._last_pstate = pstate
        self.fleet_monitor.record(target)
        self.pstate_monitor.record(pstate)
        return target, pstate

    def run(self):
        """Process generator: decide every period."""
        while True:
            self.decide()
            yield self.farm.env.timeout(self.period_s)
