"""The vector plant's contract: bit-identical to the scalar reference.

The structure-of-arrays plant is only allowed to change *where* state
lives, never *what* the simulation computes.  These tests run the same
co-simulations on the vector plant and on the plain-``Server``
reference plant (``reference_plant.py``) — managed, faulted, and
behind an impaired control plane — and require every
:class:`CoSimResult` field to match exactly, not approximately.  A
property test drives twin fleets through random P-state / cap /
lifecycle / load sequences and compares the plant state, and the
pool-aggregate queries controllers read, after every step.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster.aggregates import FleetAggregate, make_pool_aggregate
from repro.cluster.server import Server, ServerState
from repro.controlplane import ControlPlaneProfile
from repro.core.faults import FaultKind, FaultSchedule, Incident
from repro.datacenter import CoSimulation, DataCenterSpec
from repro.fleet import VectorAggregate, VectorFleet, VectorServer
from repro.sim import Environment, RandomStreams
from repro.workload import DiurnalProfile

from reference_plant import ReferenceSpec


def spec_for(plant):
    cls = ReferenceSpec if plant == "reference" else DataCenterSpec
    return cls(name="eq", racks=6, servers_per_rack=8, zones=3, cracs=2)


def run_cosim(plant, managed=True, faulted=False, profile=None,
              hours=5.0):
    spec = spec_for(plant)
    peak = spec.total_servers * spec.server_capacity * 0.6
    diurnal = DiurnalProfile()
    schedule = None
    if faulted:
        schedule = FaultSchedule()
        schedule.add(Incident(FaultKind.CRAC_FAILURE, at_s=3_600.0,
                              duration_s=1_800.0, target=0))
        schedule.add(Incident(FaultKind.RACK_BRANCH, at_s=7_200.0,
                              duration_s=1_200.0, target="eq-rack2"))
    sim = CoSimulation(spec, lambda t: peak * diurnal(t),
                       managed=managed, fault_schedule=schedule,
                       streams=RandomStreams(11), control_plane=profile)
    result = sim.run(hours * 3_600.0)
    return sim, result


def assert_results_identical(a, b):
    """Field-by-field exact equality of two CoSimResults."""
    for field in dataclasses.fields(a):
        assert getattr(a, field.name) == getattr(b, field.name), \
            f"CoSimResult.{field.name} differs between plants"


def assert_verify_clean(sim):
    """The farm aggregate's self-check finds nothing to repair."""
    report = sim.farm.fleet.verify()
    assert report["active_count_corrected"] == 0
    assert not report["roster_repaired"]
    assert report["power_drift_w"] < 1e-6


# ----------------------------------------------------------------------
# Co-simulation equivalence
# ----------------------------------------------------------------------
def test_managed_cosim_identical():
    sim_o, res_o = run_cosim("reference")
    sim_v, res_v = run_cosim("vector")
    # The reference really runs the scalar pool code.
    assert type(sim_o.farm.fleet) is FleetAggregate
    assert isinstance(sim_v.farm.fleet, VectorAggregate)
    assert_results_identical(res_o, res_v)
    assert_verify_clean(sim_o)
    assert_verify_clean(sim_v)
    # The plants themselves agree server by server.
    for so, sv in zip(sim_o.dc.servers, sim_v.dc.servers):
        assert so.state is sv.state
        assert so.power_w() == sv.power_w()
        assert so.offered_load == sv.offered_load
        assert so.pstate == sv.pstate


def test_static_cosim_identical():
    _, res_o = run_cosim("reference", managed=False, hours=3.0)
    _, res_v = run_cosim("vector", managed=False, hours=3.0)
    assert_results_identical(res_o, res_v)


def test_faulted_cosim_identical():
    sim_o, res_o = run_cosim("reference", faulted=True)
    sim_v, res_v = run_cosim("vector", faulted=True)
    assert res_o.resilience is not None
    assert res_o.resilience.incident_count == 2
    assert_results_identical(res_o, res_v)
    assert_verify_clean(sim_v)


@pytest.mark.parametrize("profile_name", ["naive", "hardened"])
def test_impaired_control_plane_identical(profile_name):
    profile = getattr(ControlPlaneProfile, profile_name)()
    sim_o, res_o = run_cosim("reference", profile=profile, hours=4.0)
    sim_v, res_v = run_cosim("vector", profile=profile, hours=4.0)
    assert res_o.controlplane is not None
    assert_results_identical(res_o, res_v)
    # Identical RNG consumption: the impairment draws landed the same.
    assert (sim_o.control_plane.telemetry.samples_dropped
            == sim_v.control_plane.telemetry.samples_dropped)
    assert_verify_clean(sim_v)


def test_total_energy_identical_despite_lazy_meters():
    """∫P dt matches per server even though meters flush lazily."""
    sim_o, _ = run_cosim("reference", hours=3.0)
    sim_v, _ = run_cosim("vector", hours=3.0)
    total_o = sum(s.energy_j() for s in sim_o.dc.servers)
    total_v = sum(s.energy_j() for s in sim_v.dc.servers)
    assert total_v == pytest.approx(total_o, rel=1e-9)


# ----------------------------------------------------------------------
# Property test: random op sequences against twin plants
# ----------------------------------------------------------------------
def build_twin_plants(n=12):
    env_o = Environment()
    obj = [Server(env_o, f"s{i}", capacity=100.0) for i in range(n)]
    env_v = Environment()
    fleet = VectorFleet(env_v, n)
    vec = [VectorServer(fleet, env_v, f"s{i}", capacity=100.0)
           for i in range(n)]
    for i, (so, sv) in enumerate(zip(obj, vec)):
        so.zone = sv.zone = f"z{i % 3}"
    return env_o, obj, env_v, vec


def names(servers):
    return [s.name for s in servers if s is not None]


def assert_pools_agree(pool_o, pool_v):
    """The scalar and vector pool aggregates answer every controller
    query identically."""
    assert pool_o.committed_count() == pool_v.committed_count()
    for quarantined in (set(), {"z1"}):
        for count in (0, 1, 5, 12):
            assert (names(pool_o.pick_startable_many(quarantined, count))
                    == names(pool_v.pick_startable_many(quarantined,
                                                        count)))
        assert (names([pool_o.pick_startable(quarantined)])
                == names([pool_v.pick_startable(quarantined)]))
    if pool_o.active_servers():
        assert (pool_o.mean_utilization_active()
                == pool_v.mean_utilization_active())
        for cap in (0.05, 10.0):
            assert (pool_o.mean_response_time_active(cap)
                    == pool_v.mean_response_time_active(cap))


def apply_op(op, value, server):
    """One scripted mutation; illegal transitions are skipped."""
    try:
        if op == 0:
            server.power_on()
        elif op == 1:
            server.set_offered_load(value * 150.0)
        elif op == 2:
            server.set_pstate(int(value * 6.0) % 6)
        elif op == 3:
            server.apply_cap(value * 250.0 + 50.0)
        elif op == 4:
            server.remove_cap()
        elif op == 5:
            if server.offered_load == 0.0:
                server.sleep()
        elif op == 6:
            server.wake()
        else:
            if value < 0.2:
                server.fail()
            elif server.state is ServerState.FAILED:
                server.repair()
    except Exception:
        pass  # illegal from current state — same exception both sides


def test_random_sequences_keep_plants_identical():
    rng = np.random.default_rng(2024)
    script = [(int(rng.integers(0, 12)), int(rng.integers(0, 8)),
               float(rng.random()), float(rng.random()) * 40.0)
              for _ in range(400)]
    env_o, obj, env_v, vec = build_twin_plants()
    pool_o = FleetAggregate(obj)
    pool_v = make_pool_aggregate(vec)
    assert isinstance(pool_v, VectorAggregate)
    t = 0.0
    for which, op, value, dt in script:
        apply_op(op, value, obj[which])
        apply_op(op, value, vec[which])
        t += dt
        env_o.run(until=t)
        env_v.run(until=t)
        assert obj[which].state is vec[which].state
        assert obj[which].power_w() == vec[which].power_w()
        assert_pools_agree(pool_o, pool_v)
    for so, sv in zip(obj, vec):
        assert so.state is sv.state
        assert so.power_w() == sv.power_w()
        assert so.offered_load == sv.offered_load
        assert so.pstate == sv.pstate
        assert so._tstate == sv._tstate
        assert (so._cap_w is None) == (sv._cap_w is None)
        assert sv.energy_j() == pytest.approx(so.energy_j(), rel=1e-9)
