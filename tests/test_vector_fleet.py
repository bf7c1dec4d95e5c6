"""Unit tests for the structure-of-arrays vector plant.

The equivalence suite (test_backend_equivalence.py) proves the vector
plant agrees with the scalar reference plant end to end; these tests
pin the fleet package's own contracts — view semantics, the energy
meter, aggregate construction rules, batch gating, and the vectorized
scans.
"""

import numpy as np
import pytest

from repro.cluster.aggregates import FleetAggregate, make_pool_aggregate
from repro.cluster.rack import Cluster, Rack
from repro.cluster.server import Server, ServerState
from repro.fleet import (
    EnergyMeter,
    VectorAggregate,
    VectorCluster,
    VectorFleet,
    VectorRackAggregate,
    VectorServer,
)
from repro.power.models import ServerPowerModel
from repro.power.pstates import PStateTable
from repro.sim import Environment


def make_fleet(n=8, **server_kwargs):
    env = Environment()
    fleet = VectorFleet(env, n)
    servers = [VectorServer(fleet, env, f"v{i}", **server_kwargs)
               for i in range(n)]
    return env, fleet, servers


# ----------------------------------------------------------------------
# View semantics: a VectorServer behaves exactly like a Server
# ----------------------------------------------------------------------
def test_vector_server_mirrors_object_server():
    env = Environment()
    fleet = VectorFleet(env, 1)
    vec = VectorServer(fleet, env, "v0", capacity=100.0)
    obj = Server(env, "o0", capacity=100.0)
    assert vec.state is obj.state is ServerState.OFF
    vec.power_on(), obj.power_on()
    env.run(until=121.0)
    for load in (0.0, 35.0, 100.0, 250.0):
        vec.set_offered_load(load)
        obj.set_offered_load(load)
        assert vec.power_w() == obj.power_w()
        assert vec.effective_capacity == obj.effective_capacity
        assert vec.utilization == obj.utilization
    vec.set_pstate(1), obj.set_pstate(1)
    assert vec.power_w() == obj.power_w()
    assert vec.apply_cap(150.0) == obj.apply_cap(150.0)
    assert vec.capped and obj.capped
    vec.remove_cap(), obj.remove_cap()
    assert vec.power_w() == obj.power_w()
    assert not vec.capped


def test_vector_server_state_lives_in_columns():
    env, fleet, servers = make_fleet(3)
    servers[1].power_on()
    assert fleet.state_code[1] == 1  # BOOTING
    env.run(until=121.0)
    assert fleet.state_code[1] == 2  # ACTIVE
    servers[1].set_offered_load(42.0)
    assert fleet.offered[1] == 42.0
    assert fleet.power[1] == servers[1].power_w()
    assert np.isnan(fleet.cap_w[1])
    servers[1].apply_cap(100.0)
    assert fleet.cap_w[1] == 100.0
    servers[1].remove_cap()
    assert np.isnan(fleet.cap_w[1])


def test_zone_names_are_interned():
    env, fleet, servers = make_fleet(4)
    servers[0].zone = "zone-a"
    servers[1].zone = "zone-b"
    servers[2].zone = "zone-a"
    assert fleet.zone_id[0] == fleet.zone_id[2] != fleet.zone_id[1]
    assert servers[2].zone == "zone-a"
    assert servers[3].zone is None


def test_fleet_is_exactly_sized():
    env = Environment()
    fleet = VectorFleet(env, 1)
    VectorServer(fleet, env, "v0")
    with pytest.raises(ValueError, match="full"):
        VectorServer(fleet, env, "v1")
    with pytest.raises(ValueError):
        VectorFleet(env, 0)


# ----------------------------------------------------------------------
# EnergyMeter
# ----------------------------------------------------------------------
def test_energy_meter_matches_monitor_integral():
    env = Environment()
    fleet = VectorFleet(env, 1)
    vec = VectorServer(fleet, env, "v0", capacity=100.0)
    obj = Server(env, "o0", capacity=100.0)
    assert isinstance(vec.power_monitor, EnergyMeter)
    vec.power_on(), obj.power_on()
    env.run(until=121.0)
    for until, load in ((200.0, 30.0), (500.0, 90.0), (900.0, 0.0)):
        env.run(until=until)
        vec.set_offered_load(load)
        obj.set_offered_load(load)
    env.run(until=1200.0)
    assert vec.energy_j() == pytest.approx(obj.energy_j(), rel=1e-12)


def test_energy_meter_rejects_windowed_queries_and_time_travel():
    env, fleet, servers = make_fleet(1)
    env.run(until=10.0)
    meter = servers[0].power_monitor
    with pytest.raises(ValueError, match="no history"):
        meter.integral(5.0, None)
    meter.record(servers[0].power_w())  # closes the segment at t=10
    with pytest.raises(ValueError, match="precedes"):
        meter.record(1.0, time=3.0)
    assert meter.last == servers[0].power_w()


# ----------------------------------------------------------------------
# Aggregate construction rules
# ----------------------------------------------------------------------
def test_make_aggregate_kinds():
    env, fleet, servers = make_fleet(8)
    rack_a = fleet.make_aggregate(servers[:4], 4096, kind="rack")
    assert isinstance(rack_a, VectorRackAggregate)
    # Overlapping rack claim is refused.
    assert fleet.make_aggregate(servers[2:6], 4096, kind="rack") is None
    rack_b = fleet.make_aggregate(servers[4:], 4096, kind="rack")
    assert isinstance(rack_b, VectorRackAggregate)
    pool = fleet.make_aggregate(servers, 4096, kind="pool")
    assert isinstance(pool, VectorAggregate)
    # Sub-pools and non-contiguous picks fall back.
    assert fleet.make_aggregate(servers[:4], 4096, kind="pool") is None
    assert fleet.make_aggregate(servers[::2], 4096, kind="rack") is None


def test_make_pool_aggregate_falls_back_for_plain_servers():
    env = Environment()
    servers = [Server(env, f"s{i}") for i in range(3)]
    agg = make_pool_aggregate(servers)
    assert type(agg) is FleetAggregate
    assert agg.batcher() is None


def test_vector_aggregate_tracks_scalar_invariants():
    env, fleet, servers = make_fleet(6)
    for s in servers[:4]:
        s._fleet  # views
    racks = [fleet.make_aggregate(servers[:3], 4096, kind="rack"),
             fleet.make_aggregate(servers[3:], 4096, kind="rack")]
    pool = fleet.make_aggregate(servers, 4096, kind="pool")
    for s in servers[:4]:
        s.power_on()
    env.run(until=121.0)
    for i, s in enumerate(servers[:4]):
        s.set_offered_load(10.0 * i)
    assert pool.active_count == 4
    assert pool.power_w == pytest.approx(
        sum(s.power_w() for s in servers), rel=1e-12)
    assert racks[0].power_w == pytest.approx(
        sum(s.power_w() for s in servers[:3]), rel=1e-12)
    assert pool.active_servers() == servers[:4]
    report = pool.verify()
    assert report["active_count_corrected"] == 0
    assert not report["roster_repaired"]
    assert report["power_drift_w"] < 1e-9


# ----------------------------------------------------------------------
# Batch gating
# ----------------------------------------------------------------------
def build_wired_pool(n=6):
    env, fleet, servers = make_fleet(n)
    half = n // 2
    fleet.make_aggregate(servers[:half], 4096, kind="rack")
    fleet.make_aggregate(servers[half:], 4096, kind="rack")
    pool = fleet.make_aggregate(servers, 4096, kind="pool")
    return env, fleet, servers, pool


def test_batcher_requires_canonical_wiring():
    env, fleet, servers, pool = build_wired_pool()
    assert pool.batcher() is pool

    class Mute:
        """A watcher with no power_changed — genuinely foreign."""

        def state_changed(self, *a):
            pass

    servers[2]._watchers.append(Mute())
    assert pool.batcher() is None  # cannot be notified: fall back

    servers[2]._watchers.pop()
    # Plain-list mutation (pop) does not bump the epoch, but any
    # epoch-bumping mutation rechecks; emulate a rewire.
    servers[2]._watchers.append(Mute())
    servers[2]._watchers.remove(servers[2]._watchers[-1])
    assert pool.batcher() is pool
    # Swapping the farm slot for anything else is foreign wiring too.
    servers[3]._watchers.insert(1, object())
    assert pool.batcher() is None


def test_plain_extra_watcher_gets_scalar_replay():
    """An unknown power_changed watcher no longer poisons batching: it
    is replayed one delta at a time, in pool order, exactly as the
    scalar funnel would have called it."""
    env, fleet, servers, pool = build_wired_pool()

    class Recorder:
        def __init__(self):
            self.calls = []

        def state_changed(self, *a):
            pass

        def power_changed(self, server, delta):
            self.calls.append((server, delta))

    from repro.cluster.loadbalancer import WeightedSplit

    rec = Recorder()
    servers[1]._watchers.append(rec)
    servers[3]._watchers.append(rec)
    for s in servers[:4]:
        s.power_on()
    env.run(until=121.0)
    rec.calls.clear()
    batch = pool.batcher()
    assert batch is pool  # extra watcher does not disable batching
    before = fleet.power.copy()
    batch.dispatch_loads(WeightedSplit(), 120.0, pool.active_servers())
    expected = [(servers[i], float(fleet.power[i] - before[i]))
                for i in (1, 3) if fleet.power[i] != before[i]]
    assert rec.calls == expected
    total = pool.power_w
    assert total == pytest.approx(float(np.sum(fleet.power)), rel=1e-12)


def test_batch_safe_extra_watcher_keeps_batching():
    env, fleet, servers, pool = build_wired_pool()

    class SafeExtra:
        vector_batch_safe = True

        def state_changed(self, *a):
            pass

        def power_changed(self, *a):
            pass

    for s in servers:
        s._watchers.append(SafeExtra())
    assert pool.batcher() is pool


def test_nonlinear_model_batches_bit_exactly():
    """r != 1 models evaluate through the grouped libm-pow kernel —
    batching stays enabled and every power equals the scalar model."""
    env = Environment()
    fleet = VectorFleet(env, 4)
    model = ServerPowerModel(nonlinearity=1.4)
    servers = [VectorServer(fleet, env, f"v{i}", power_model=model)
               for i in range(4)]
    assert not fleet.uniform_linear  # informational flag only
    assert len(fleet.groups) == 1 and fleet.groups[0].r == 1.4
    fleet.make_aggregate(servers[:2], 4096, kind="rack")
    fleet.make_aggregate(servers[2:], 4096, kind="rack")
    pool = fleet.make_aggregate(servers, 4096, kind="pool")
    assert pool.batcher() is pool
    env2 = Environment()
    twins = [Server(env2, f"t{i}", power_model=ServerPowerModel(
        nonlinearity=1.4)) for i in range(4)]
    for s, t in zip(servers[:3], twins[:3]):
        s.power_on(), t.power_on()
    env.run(until=121.0), env2.run(until=121.0)
    pool.batcher().dispatch_loads(
        _EqualSplit(), 170.0, pool.active_servers())
    for t, share in zip(twins[:3], _EqualSplit().split(
            170.0, twins[:3])):
        t.set_offered_load(share)
    pool.batcher().batch_set_pstate(2)
    for t in twins[:3]:
        t.set_pstate(2)
    for s, t in zip(servers, twins):
        assert s.power_w() == t.power_w()
        assert s.demand_w() == t.demand_w()
    assert fleet.total_demand_w() == sum(t.demand_w() for t in twins)


class _EqualSplit:
    """Even split policy without numpy fast path (scalar shares)."""

    def split(self, total, active):
        return [total / len(active)] * len(active)


def test_mixed_tables_batch_per_group():
    from repro.power.pstates import DEFAULT_PSTATES, TState

    other_table = PStateTable(
        pstates=DEFAULT_PSTATES,
        tstates=(TState("T0", 1.0), TState("T1", 0.25)))

    def build(cls, env, fleet=None):
        mk = ((lambda n, **kw: VectorServer(fleet, env, n, **kw))
              if fleet is not None else
              (lambda n, **kw: Server(env, n, **kw)))
        a = mk("v0")
        b = mk("v1", power_model=ServerPowerModel(
            pstate_table=other_table))
        return [a, b]

    env = Environment()
    fleet = VectorFleet(env, 2)
    servers = build(VectorServer, env, fleet)
    assert not fleet.uniform_linear
    assert len(fleet.groups) == 2
    assert fleet.group_id.tolist() == [0, 1]
    fleet.make_aggregate(servers[:1], 4096, kind="rack")
    fleet.make_aggregate(servers[1:], 4096, kind="rack")
    pool = fleet.make_aggregate(servers, 4096, kind="pool")
    assert pool.batcher() is pool

    env2 = Environment()
    twins = build(Server, env2)
    for s, t in zip(servers, twins):
        s.power_on(), t.power_on()
    env.run(until=121.0), env2.run(until=121.0)
    pool.batcher().dispatch_loads(
        _EqualSplit(), 130.0, pool.active_servers())
    for t, share in zip(twins, _EqualSplit().split(130.0, twins)):
        t.set_offered_load(share)
    pool.batcher().batch_set_pstate(1)
    for t in twins:
        t.set_pstate(1)
    for s, t in zip(servers, twins):
        assert s.power_w() == t.power_w()
        assert s.effective_capacity == t.effective_capacity
        assert s.demand_w() == t.demand_w()
    assert fleet.total_demand_w() == sum(t.demand_w() for t in twins)


def test_equal_table_contents_share_a_group():
    env = Environment()
    fleet = VectorFleet(env, 2)
    VectorServer(fleet, env, "v0",
                 power_model=ServerPowerModel(pstate_table=PStateTable()))
    VectorServer(fleet, env, "v1",
                 power_model=ServerPowerModel(pstate_table=PStateTable()))
    # Distinct table objects, identical contents: one group, and the
    # fused uniform-linear fast path stays enabled.
    assert len(fleet.groups) == 1
    assert fleet.uniform_linear


# ----------------------------------------------------------------------
# Batch mutators vs scalar twins
# ----------------------------------------------------------------------
def test_batch_set_pstate_matches_scalar():
    env, fleet, servers, pool = build_wired_pool()
    env2 = Environment()
    twins = [Server(env2, f"t{i}") for i in range(len(servers))]
    for s, t in zip(servers[:4], twins[:4]):
        s.power_on(), t.power_on()
    env.run(until=121.0), env2.run(until=121.0)
    for i, (s, t) in enumerate(zip(servers[:4], twins[:4])):
        s.set_offered_load(12.5 * i), t.set_offered_load(12.5 * i)
    batch = pool.batcher()
    assert batch is pool
    batch.batch_set_pstate(2)
    for t in twins[:4]:
        if t.state is ServerState.ACTIVE:
            t.set_pstate(2)
    for s, t in zip(servers, twins):
        assert s.power_w() == t.power_w()
        assert s.pstate == t.pstate
        assert s.effective_capacity == t.effective_capacity
    with pytest.raises(ValueError, match="out of range"):
        batch.batch_set_pstate(99)


def test_dispatch_loads_matches_scalar_split():
    from repro.cluster.loadbalancer import WeightedSplit

    env, fleet, servers, pool = build_wired_pool()
    env2 = Environment()
    twins = [Server(env2, f"t{i}") for i in range(len(servers))]
    for s, t in zip(servers[:4], twins[:4]):
        s.power_on(), t.power_on()
    env.run(until=121.0), env2.run(until=121.0)
    policy = WeightedSplit()
    active = pool.active_servers()
    served = pool.batcher().dispatch_loads(policy, 260.0, active)
    shares = policy.split(260.0, [t for t in twins
                                  if t.state is ServerState.ACTIVE])
    expected = 0.0
    for t, share in zip(twins[:4], shares):
        t.set_offered_load(share)
        expected += t.delivered_load
    assert served == expected
    for s, t in zip(servers, twins):
        assert s.offered_load == t.offered_load
        assert s.power_w() == t.power_w()


# ----------------------------------------------------------------------
# Vectorized scans
# ----------------------------------------------------------------------
def test_pick_startable_prefers_sleeping_and_respects_quarantine():
    env, fleet, servers = make_fleet(5)
    for s in servers:
        s.zone = "hot" if s._idx < 2 else "cold"
    for s in servers[:3]:
        s.power_on()
    env.run(until=121.0)
    servers[0].sleep()
    servers[2].sleep()
    assert fleet.pick_startable() is servers[0]
    assert fleet.pick_startable(quarantined={"hot"}) is servers[2]
    picks = fleet.pick_startable_many({"hot"}, 3)
    assert picks == [servers[2], servers[3], servers[4]]
    # No candidates at all.
    assert fleet.pick_startable(quarantined={"hot", "cold"}) is None


def test_total_demand_and_uncap_candidates():
    env, fleet, servers = make_fleet(6)
    for s in servers[:4]:
        s.power_on()
    env.run(until=121.0)
    servers[3].sleep()
    for i, s in enumerate(servers[:3]):
        s.set_offered_load(20.0 * (i + 1))
    servers[1].apply_cap(120.0)
    assert fleet.total_demand_w() == pytest.approx(
        sum(s.demand_w() for s in servers), rel=1e-12)
    assert fleet.uncap_candidates().tolist() == [1]
    servers[1].remove_cap()
    assert fleet.uncap_candidates().size == 0


def test_committed_count_counts_transitions():
    env, fleet, servers = make_fleet(5)
    servers[0].power_on()
    servers[1].power_on()
    env.run(until=1.0)  # both still BOOTING
    assert fleet.committed_count() == 2
    env.run(until=121.0)
    servers[0].sleep()
    assert fleet.committed_count() == 1
    servers[0].wake()
    assert fleet.committed_count() == 2


# ----------------------------------------------------------------------
# VectorCluster vs object Cluster
# ----------------------------------------------------------------------
def test_vector_cluster_matches_object_cluster():
    def build(vector):
        env = Environment()
        if vector:
            fleet = VectorFleet(env, 6)
            mk = lambda name: VectorServer(fleet, env, name)  # noqa: E731
        else:
            mk = lambda name: Server(env, name)  # noqa: E731
        racks = []
        servers = []
        for r in range(3):
            rs = [mk(f"r{r}s{i}") for i in range(2)]
            servers.extend(rs)
            racks.append(Rack(f"rack{r}", rs, zone=f"z{r % 2}"))
        cluster = (VectorCluster if vector else Cluster)("c", racks)
        for s in servers[:4]:
            s.power_on()
        env.run(until=121.0)
        for i, s in enumerate(servers[:4]):
            s.set_offered_load(15.0 * i)
        return cluster

    vec, obj = build(True), build(False)
    assert vec.power_w() == obj.power_w()
    assert vec.heat_by_zone() == obj.heat_by_zone()
    assert list(vec.heat_by_zone()) == list(obj.heat_by_zone())
    for state in ServerState:
        assert vec.count_in(state) == obj.count_in(state)
    assert vec.total_effective_capacity() == obj.total_effective_capacity()
