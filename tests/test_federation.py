"""Geo-federation: router ladder, outage failover, crash tolerance.

Three contracts under test:

* the degraded-routing ladder (optimizing → last-known-good →
  static-home) and the health hysteresis (up → dark → recovering →
  up), driven entirely by synthetic telemetry — no plants;
* the scenario headline: a managed federation serves through a
  regional utility outage that static-home routing mostly sheds;
* crash tolerance: SIGKILLing a site worker at a random macro period
  changes wall time, not the result — restart-and-replay reproduces
  the uninterrupted run bit for bit.
"""

import math
import random

import pytest

from repro.core.faults import FaultKind, FaultSchedule, Incident
from repro.datacenter import DataCenterSpec, ShardWorkerDied
from repro.federation import (
    FederatedCoSimulation,
    FederationSite,
    GlobalRouter,
    Region,
    RouterConfig,
    RoutingMode,
    SiteConfig,
    SiteHealth,
    SiteMeta,
    SiteRuntime,
    SiteSummary,
)

PERIOD = 300.0


def _spec(name, **overrides):
    base = dict(name=name, racks=2, servers_per_rack=4, zones=2,
                cracs=1)
    base.update(overrides)
    return DataCenterSpec(**base)


def _summary(site, t, installed=800.0, healthy=None, awake=None,
             on_battery=False, pue=1.5, offered=0.0, shed=0.0):
    healthy = installed if healthy is None else healthy
    awake = healthy if awake is None else awake
    return SiteSummary(
        site=site, time_s=t, installed_capacity=installed,
        healthy_capacity=healthy, awake_capacity=awake,
        on_battery=on_battery, active_incidents=0, failed_servers=0,
        window_pue=pue, window_offered=offered, window_shed=shed)


def _metas(n=2):
    return [SiteMeta(name=f"dc{i}", energy_price_per_kwh=0.10,
                     static_pue=1.5) for i in range(n)]


def _regions(n=2, peak=300.0):
    return [Region(name=f"r{i}", home=f"dc{i}", peak_units=peak,
                   latency_ms={f"dc{j}": 30.0 for j in range(n)})
            for i in range(n)]


# ----------------------------------------------------------------------
# Router: configuration and validation
# ----------------------------------------------------------------------
class TestRouterValidation:
    def test_config_ranges(self):
        with pytest.raises(ValueError):
            RouterConfig(stale_after_s=0.0)
        with pytest.raises(ValueError):
            RouterConfig(partition_after_s=600.0, stale_after_s=900.0)
        with pytest.raises(ValueError):
            RouterConfig(dark_fraction=1.5)
        with pytest.raises(ValueError):
            RouterConfig(recover_fraction=0.2, dark_fraction=0.5)
        with pytest.raises(ValueError):
            RouterConfig(recovery_periods=0)
        with pytest.raises(ValueError):
            RouterConfig(telemetry_dropout=1.5)
        with pytest.raises(ValueError):
            RouterConfig(headroom_fraction=0.0)

    def test_rejects_unknown_policy_and_homes(self):
        with pytest.raises(ValueError):
            GlobalRouter(_metas(), _regions(), policy="round-robin")
        with pytest.raises(ValueError):
            GlobalRouter(_metas(1), _regions(2))
        with pytest.raises(ValueError):
            GlobalRouter([], [])

    def test_region_home_needs_latency(self):
        with pytest.raises(ValueError):
            Region(name="r", home="dc0", peak_units=1.0,
                   latency_ms={"dc1": 10.0})


# ----------------------------------------------------------------------
# Router: degraded-routing ladder (telemetry ages out)
# ----------------------------------------------------------------------
class TestRoutingModeLadder:
    def test_silence_walks_the_ladder_down(self):
        router = GlobalRouter(_metas(), _regions())
        demands = {"r0": 100.0, "r1": 100.0}
        sums = {"dc0": _summary("dc0", 0.0),
                "dc1": _summary("dc1", 0.0)}
        d = router.decide(0.0, sums, demands)
        assert d.modes["dc1"] is RoutingMode.OPTIMIZING

        # dc1 goes silent; dc0 keeps reporting.
        t = 0.0
        modes = {}
        while t < 2400.0:
            t += PERIOD
            d = router.decide(
                t, {"dc0": _summary("dc0", t), "dc1": None}, demands)
            modes[t] = d.modes["dc1"]
        assert modes[900.0] is RoutingMode.OPTIMIZING
        assert modes[1200.0] is RoutingMode.LAST_KNOWN_GOOD
        assert modes[2100.0] is RoutingMode.STATIC_HOME
        axes = [(axis, old, new)
                for (_, site, axis, old, new) in router.transitions
                if site == "dc1"]
        assert ("mode", "optimizing", "last-known-good") in axes
        assert ("mode", "last-known-good", "static-home") in axes

    def test_partitioned_home_routes_blind(self):
        """A region homed to a partitioned site is routed home at
        static cost, whatever the optimizer would prefer."""
        router = GlobalRouter(_metas(), _regions())
        demands = {"r0": 100.0, "r1": 100.0}
        router.decide(0.0, {"dc0": _summary("dc0", 0.0),
                            "dc1": _summary("dc1", 0.0)}, demands)
        d = router.decide(2400.0, {"dc0": _summary("dc0", 2400.0),
                                   "dc1": None}, demands)
        assert d.modes["dc1"] is RoutingMode.STATIC_HOME
        assert d.assignments["dc1"] == pytest.approx(100.0)

    def test_telemetry_recovery_climbs_back(self):
        router = GlobalRouter(_metas(), _regions())
        demands = {"r0": 100.0, "r1": 100.0}
        router.decide(0.0, {"dc0": _summary("dc0", 0.0),
                            "dc1": _summary("dc1", 0.0)}, demands)
        d = router.decide(2400.0, {"dc0": _summary("dc0", 2400.0),
                                   "dc1": None}, demands)
        assert d.modes["dc1"] is RoutingMode.STATIC_HOME
        d = router.decide(2700.0, {"dc0": _summary("dc0", 2700.0),
                                   "dc1": _summary("dc1", 2700.0)},
                          demands)
        assert d.modes["dc1"] is RoutingMode.OPTIMIZING


# ----------------------------------------------------------------------
# Router: health hysteresis (dark → recovering → up)
# ----------------------------------------------------------------------
class TestHealthLadder:
    def _router(self):
        return GlobalRouter(_metas(), _regions(),
                            config=RouterConfig(recovery_periods=3))

    def test_dark_site_sheds_no_demand_onto_it(self):
        router = self._router()
        demands = {"r0": 100.0, "r1": 100.0}
        router.decide(0.0, {"dc0": _summary("dc0", 0.0),
                            "dc1": _summary("dc1", 0.0)}, demands)
        d = router.decide(
            PERIOD, {"dc0": _summary("dc0", PERIOD),
                     "dc1": _summary("dc1", PERIOD, healthy=0.0)},
            demands)
        assert d.health["dc1"] is SiteHealth.DARK
        assert d.assignments["dc1"] == 0.0
        # The surviving site hosts both regions.
        assert d.assignments["dc0"] == pytest.approx(200.0)

    def test_recovery_needs_consecutive_healthy_periods(self):
        router = self._router()
        demands = {"r0": 100.0, "r1": 100.0}
        t = 0.0
        router.decide(t, {"dc0": _summary("dc0", t),
                          "dc1": _summary("dc1", t)}, demands)
        t += PERIOD
        d = router.decide(t, {"dc0": _summary("dc0", t),
                              "dc1": _summary("dc1", t, healthy=100.0)},
                          demands)
        assert d.health["dc1"] is SiteHealth.DARK
        # Healthy again — but hysteresis holds it out for 3 periods.
        seen = []
        for _ in range(3):
            t += PERIOD
            d = router.decide(t, {"dc0": _summary("dc0", t),
                                  "dc1": _summary("dc1", t)}, demands)
            seen.append(d.health["dc1"])
        assert seen[:2] == [SiteHealth.RECOVERING, SiteHealth.RECOVERING]
        assert seen[2] is SiteHealth.UP
        # A relapse mid-streak resets the counter.
        values = [v for (_, s, a, _, v) in router.transitions
                  if s == "dc1" and a == "health"]
        assert values == ["dark", "recovering", "up"]

    def test_on_battery_site_is_evacuated(self):
        router = self._router()
        demands = {"r0": 100.0, "r1": 100.0}
        router.decide(0.0, {"dc0": _summary("dc0", 0.0),
                            "dc1": _summary("dc1", 0.0)}, demands)
        d = router.decide(
            PERIOD, {"dc0": _summary("dc0", PERIOD),
                     "dc1": _summary("dc1", PERIOD, on_battery=True)},
            demands)
        assert d.health["dc1"] is SiteHealth.DEGRADED
        assert d.assignments["dc1"] == 0.0

    def test_static_home_policy_pins_everything(self):
        router = GlobalRouter(_metas(), _regions(),
                              policy="static-home")
        demands = {"r0": 120.0, "r1": 80.0}
        d = router.decide(0.0, {"dc0": _summary("dc0", 0.0),
                                "dc1": _summary("dc1", 0.0)}, demands)
        assert d.assignments == {"dc0": 120.0, "dc1": 80.0}
        assert d.failovers == 0


# ----------------------------------------------------------------------
# Site runtime
# ----------------------------------------------------------------------
class TestSiteRuntime:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SiteConfig(name="x", spec=_spec("x"), shards=0)

    def test_ready_summary_reports_boot_state(self):
        runtime = SiteRuntime(SiteConfig(name="s", spec=_spec("s")))
        summary = runtime.ready()
        assert summary.site == "s"
        assert summary.installed_capacity == 800.0
        assert summary.healthy_capacity == 800.0
        assert math.isnan(summary.window_pue)
        assert summary.window_offered == 0.0

    def test_advance_must_move_forward(self):
        runtime = SiteRuntime(SiteConfig(name="s", spec=_spec("s")))
        with pytest.raises(ValueError):
            runtime.advance(runtime.now, 100.0)

    def test_sharded_site_serves_and_merges(self):
        runtime = SiteRuntime(SiteConfig(name="s", spec=_spec("s"),
                                         shards=2))
        assert len(runtime.plants) == 2
        t = runtime.now
        for k in range(12):
            t += PERIOD
            summary = runtime.advance(t, 300.0)
        assert summary.installed_capacity == 800.0
        result, offered, shed = runtime.finish()
        assert offered == pytest.approx(300.0 * 12 * PERIOD, rel=0.01)
        assert shed < 0.02 * offered
        assert result.facility_energy_j > result.it_energy_j > 0.0


# ----------------------------------------------------------------------
# Federated co-simulation
# ----------------------------------------------------------------------
def _federation(policy="optimizing", outage=True, n=3, **kwargs):
    sites = []
    for i in range(n):
        name = f"dc{i}"
        sched = None
        engine_kwargs = None
        if outage and i == 0:
            sched = FaultSchedule()
            sched.add(Incident(FaultKind.UTILITY_OUTAGE, 2 * 3600.0,
                               3 * 3600.0))
            engine_kwargs = {"generator_start_probability": 0.0}
        sites.append(FederationSite(
            config=SiteConfig(name=name, spec=_spec(name),
                              fault_schedule=sched,
                              fault_engine_kwargs=engine_kwargs),
            meta=SiteMeta(name=name,
                          energy_price_per_kwh=0.10 + 0.01 * i,
                          static_pue=1.5)))
    regions = [Region(name=f"r{i}", home=f"dc{i}",
                      peak_units=0.45 * 800.0,
                      latency_ms={f"dc{j}": 20.0 + 30.0 * abs(i - j)
                                  for j in range(n)},
                      utc_offset_h=6.0 * i)
               for i in range(n)]
    return FederatedCoSimulation(sites, regions, policy=policy,
                                 **kwargs)


class TestFederatedCoSimulation:
    def test_validation(self):
        sites = _federation().sites
        regions = _federation().regions
        with pytest.raises(ValueError):
            FederatedCoSimulation(sites + sites[:1], regions)
        with pytest.raises(ValueError):
            FederatedCoSimulation(sites, regions, period_s=0.0)
        fed = _federation(outage=False, n=2)
        fed.run(1800.0)
        with pytest.raises(RuntimeError):
            fed.run(1800.0)
        with pytest.raises(ValueError):
            _federation().run(0.0)

    def test_ledger_closes(self):
        res = _federation(outage=False, n=2).run(2 * 3600.0)
        assert res.offered_unit_s > 0.0
        assert res.offered_unit_s == pytest.approx(
            res.placed_unit_s + res.router_shed_unit_s, rel=1e-6)
        assert 0.0 < res.served_fraction <= 1.0
        assert res.facility_energy_j > res.it_energy_j > 0.0
        assert res.energy_weighted_pue > 1.0

    def test_outage_failover_beats_static_home(self):
        """The robustness headline: a regional outage day is mostly
        survived under management and mostly shed under static-home."""
        managed = _federation("optimizing").run(8 * 3600.0)
        static = _federation("static-home").run(8 * 3600.0)
        assert managed.served_fraction > 0.98
        assert static.served_fraction < managed.served_fraction - 0.03
        assert managed.failovers >= 1
        health = [(old, new) for (_, s, a, old, new)
                  in managed.transitions
                  if s == "dc0" and a == "health"]
        assert ("up", "dark") in health or ("degraded", "dark") in health
        assert any(new == "up" and old in ("recovering", "dark")
                   for old, new in health)

    def test_workers_bit_identical_to_in_process(self):
        ref = _federation(outage=False, n=2).run(2 * 3600.0)
        par = _federation(outage=False, n=2,
                          workers=True).run(2 * 3600.0)
        assert par == ref

    def test_kill_at_random_period_replays_bit_identically(self):
        """The acceptance criterion: SIGKILL a site worker at a random
        macro period mid-run; restart-and-replay must reproduce the
        uninterrupted result exactly."""
        duration = 2 * 3600.0
        periods = int(duration / PERIOD)
        victim_period = random.Random(1234).randrange(1, periods)
        ref = _federation(outage=False, n=2).run(duration)
        fed = _federation(outage=False, n=2, workers=True,
                          chaos_kill={"dc1": victim_period})
        killed = fed.run(duration)
        assert fed.recoveries["dc1"] == 1
        assert killed == ref

    def test_restart_budget_exhaustion_raises(self):
        import os
        import signal

        from repro.federation.federation import _SiteHandle

        handle = _SiteHandle(SiteConfig(name="s", spec=_spec("s")),
                             recv_deadline_s=30.0, max_restarts=0)
        try:
            os.kill(handle.pid, signal.SIGKILL)
            handle.proc.join(timeout=10.0)
            t0 = handle.ready_summary.time_s
            with pytest.raises(ShardWorkerDied) as err:
                handle.request(("advance", t0 + PERIOD, 100.0))
            assert "exceeded 0 restarts" in str(err.value)
        finally:
            handle.close()

    def test_sharded_site_inside_federation(self):
        """A zone-sharded site (in-process shards inside the site
        worker) federates like a monolithic one."""
        fed = _federation(outage=False, n=2)
        cfg = fed.sites[0].config
        sites = [FederationSite(
            config=SiteConfig(name=cfg.name, spec=cfg.spec, shards=2),
            meta=fed.sites[0].meta)] + fed.sites[1:]
        ref = FederatedCoSimulation(sites, fed.regions).run(2 * 3600.0)
        par = FederatedCoSimulation(sites, fed.regions,
                                    workers=True).run(2 * 3600.0)
        assert par == ref
