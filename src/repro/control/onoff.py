"""Sleep / On-Off provisioning controllers (paper §4.3).

Two flavors:

* :class:`DelayBasedOnOff` — the *DVS-oblivious* controller of the
  §5.1 case study [29]: it watches measured response time only.  High
  delay ⇒ add a machine; low delay ⇒ remove one.  It cannot tell
  "CPUs slowed by DVFS" from "not enough machines", which is exactly
  what makes its composition with a DVFS policy pathological.
* :class:`ForecastOnOff` — energy-aware provisioning in the spirit of
  Chen et al. [18]: size the fleet from forecast demand and target
  utilization, with a spare margin covering the wake-up latency and
  hysteresis so machines are not churned (the §4.3 caveat that waking
  "may consume more energy and offset the benefit of sleeping").

Both prefer waking SLEEPING machines over booting OFF ones and drain
via the load balancer implicitly (the farm re-dispatches next tick).
"""

from __future__ import annotations

import math

from repro.cluster.server import ServerState
from repro.control.farm import ServerFarm
from repro.sim import Monitor

__all__ = ["DelayBasedOnOff", "ForecastOnOff"]


def _trace_activate(farm: ServerFarm, name: str | None,
                    via: str) -> None:
    """Flight-recorder hook: one wake/boot landed (no-op untraced)."""
    tracer = farm.env.tracer
    if tracer is not None:
        tracer.event("onoff.activate", "actuation", server=name, via=via)


def _trace_deactivate(farm: ServerFarm, name: str | None,
                      to_sleep: bool, via: str) -> None:
    """Flight-recorder hook: one sleep/shutdown landed."""
    tracer = farm.env.tracer
    if tracer is not None:
        tracer.event("onoff.deactivate", "actuation", server=name,
                     to_sleep=to_sleep, via=via)


def _start(farm: ServerFarm, server) -> None:
    """Wake a SLEEPING server, boot an OFF one."""
    if server.state is ServerState.SLEEPING:
        server.wake()
    else:
        server.power_on()
    _trace_activate(farm, server.name, "direct")


def _activate_one(farm: ServerFarm) -> bool:
    """Wake (preferred) or boot one machine; True if one was started.

    Skips servers in quarantined zones — a zone whose cooling is down
    must not receive fresh capacity, or the controller re-creates the
    thermal hazard the macro layer just drained.

    When the farm has a :class:`~repro.controlplane.ControlPlane`
    attached, selection and command both go through it: a perfect
    plane reproduces this exact scan and calls synchronously, while an
    impaired one can only select on believed state and the command has
    to survive the actuation network.
    """
    cp = farm.control_plane
    if cp is not None:
        started = cp.activate_one(farm.quarantined_zones)
        if started:
            _trace_activate(farm, cp.last_actuated, "controlplane")
        return started
    server = farm.fleet.pick_startable(farm.quarantined_zones)
    if server is None:
        return False
    _start(farm, server)
    return True


def _activate_many(farm: ServerFarm, count: int) -> int:
    """Start up to ``count`` machines; returns how many were started.

    Waking a machine never changes any *other* machine's eligibility,
    so taking the first ``count`` startable servers in one scan is
    exactly the ``count``-times-repeated single scan — which is what
    the control-plane loop literally does.
    """
    if count <= 0:
        return 0
    if farm.control_plane is None:
        picked = farm.fleet.pick_startable_many(farm.quarantined_zones,
                                                count)
        for server in picked:
            _start(farm, server)
        return len(picked)
    started = 0
    for _ in range(count):
        if not _activate_one(farm):
            break
        started += 1
    return started


def _deactivate_one(farm: ServerFarm, to_sleep: bool) -> bool:
    """Drain and sleep/shut one ACTIVE machine; True if done."""
    cp = farm.control_plane
    if cp is not None:
        done = cp.deactivate_one(to_sleep)
        if done:
            _trace_deactivate(farm, cp.last_actuated, to_sleep,
                              "controlplane")
        return done
    active = farm.active_servers()
    if len(active) <= 1:
        return False  # never scale to zero
    victim = active[-1]
    victim.set_offered_load(0.0)
    if to_sleep:
        victim.sleep()
    else:
        victim.shut_down()
    _trace_deactivate(farm, victim.name, to_sleep, "direct")
    return True


def _deactivate_many(farm: ServerFarm, to_sleep: bool, count: int) -> int:
    """Drain and sleep/shut up to ``count`` machines from the tail.

    The repeated single-victim loop always takes the *last* active
    server, so the victims are the roster's tail processed back to
    front; doing that against one roster snapshot issues the identical
    mutation sequence without rebuilding the roster per victim (the
    O(victims × fleet) cost that dominated large scale-downs).  Never
    scales below one active server.
    """
    if count <= 0:
        return 0
    cp = farm.control_plane
    if cp is not None:
        done = 0
        for _ in range(count):
            if not cp.deactivate_one(to_sleep):
                break
            _trace_deactivate(farm, cp.last_actuated, to_sleep,
                              "controlplane")
            done += 1
        return done
    active = farm.active_servers()
    victims = min(count, len(active) - 1)
    if victims <= 0:
        return 0
    for victim in reversed(active[len(active) - victims:]):
        victim.set_offered_load(0.0)
        if to_sleep:
            victim.sleep()
        else:
            victim.shut_down()
        _trace_deactivate(farm, victim.name, to_sleep, "direct")
    return victims


class DelayBasedOnOff:
    """Threshold controller on measured response time (DVS-oblivious)."""

    def __init__(self, farm: ServerFarm, period_s: float = 120.0,
                 high_delay_s: float = 0.08, low_delay_s: float = 0.03,
                 to_sleep: bool = True):
        if period_s <= 0:
            raise ValueError("period must be positive")
        if low_delay_s >= high_delay_s:
            raise ValueError("low threshold must be below high threshold")
        self.farm = farm
        self.period_s = float(period_s)
        self.high_delay_s = float(high_delay_s)
        self.low_delay_s = float(low_delay_s)
        self.to_sleep = to_sleep
        self.action_monitor = Monitor(farm.env, "onoff.action")

    def decide(self) -> int:
        """One decision: +1 added a machine, −1 removed, 0 held."""
        delay = self.farm.mean_response_time_s()
        if delay > self.high_delay_s:
            action = 1 if _activate_one(self.farm) else 0
        elif delay < self.low_delay_s:
            action = -1 if _deactivate_one(self.farm, self.to_sleep) else 0
        else:
            action = 0
        self.action_monitor.record(action)
        return action

    def run(self):
        """Process generator: decide every period."""
        while True:
            self.decide()
            yield self.farm.env.timeout(self.period_s)


class ForecastOnOff:
    """Provision the fleet from forecast demand (Chen et al. style).

    needed = ceil(forecast / (per-server capacity × target util))
    plus ``spare`` machines of margin.  Scale-up is immediate;
    scale-down waits ``scale_down_after_s`` of sustained surplus
    (hysteresis), which is what keeps wake-up energy from eating the
    savings under a bouncy load.
    """

    def __init__(self, farm: ServerFarm,
                 forecast_fn=None,
                 period_s: float = 300.0,
                 target_utilization: float = 0.75,
                 spare: int = 1,
                 scale_down_after_s: float = 900.0,
                 to_sleep: bool = True):
        if period_s <= 0:
            raise ValueError("period must be positive")
        if not 0.0 < target_utilization <= 1.0:
            raise ValueError("target utilization must be in (0, 1]")
        if spare < 0:
            raise ValueError("spare cannot be negative")
        self.farm = farm
        self.forecast_fn = forecast_fn or (
            lambda t: farm.demand_fn(t + period_s))
        self.period_s = float(period_s)
        self.target_utilization = float(target_utilization)
        self.spare = int(spare)
        self.scale_down_after_s = float(scale_down_after_s)
        self.to_sleep = to_sleep
        self._surplus_since: float | None = None
        self.target_monitor = Monitor(farm.env, "forecast_onoff.target")

    def needed_servers(self, demand: float) -> int:
        """Fleet size for ``demand`` work units/s."""
        per_server = self.farm.servers[0].capacity * self.target_utilization
        return max(1, math.ceil(demand / per_server) + self.spare)

    def decide(self) -> int:
        """One decision; returns the target fleet size.

        Provisions against ``max(current, forecast)``: the forecast
        pulls scale-*up* ahead of ramps, but scale-*down* waits for the
        demand to actually fall — otherwise a long horizon that sees a
        future dip descales while current load is still high and sheds
        it (the premature-descale trap the ABL-HORIZON ablation
        documents).
        """
        now = self.farm.env.now
        demand = max(self.farm.demand_fn(now), self.forecast_fn(now))
        target = min(self.needed_servers(demand), len(self.farm.servers))
        self.target_monitor.record(target)
        # Machines already on their way up count toward the target.
        committed = self.farm.fleet.committed_count()
        if committed < target:
            self._surplus_since = None
            _activate_many(self.farm, target - committed)
        elif committed > target:
            if self._surplus_since is None:
                self._surplus_since = now
            if now - self._surplus_since >= self.scale_down_after_s:
                _deactivate_many(self.farm, self.to_sleep,
                                 committed - target)
        else:
            self._surplus_since = None
        return target

    def run(self):
        """Process generator: decide every period."""
        while True:
            self.decide()
            yield self.farm.env.timeout(self.period_s)
