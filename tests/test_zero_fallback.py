"""Zero-fallback regression gate for the vector hot path.

The contract: on the vector plant, *no* standard experiment ever
drops off the batch kernels.  The tracer counts every batch-gate
decision (``fleet.batch`` vs ``fleet.scalar_fallback``) and every
demand evaluation (``fleet.demand_vector`` vs
``fleet.demand_scalar_fallback``); these tests run the canonical
co-simulation scenarios — managed, static, faulted, impaired control
plane, power-capped, and non-linear power models — and require both
fallback counters to stay at exactly zero while the vector counters
actually move.
"""

import dataclasses

import pytest

from repro.controlplane import ControlPlaneProfile
from repro.core import SLA
from repro.core.faults import FaultKind, FaultSchedule, Incident
from repro.datacenter import CoSimulation, DataCenterSpec
from repro.obs import Tracer
from repro.sim import RandomStreams
from repro.workload import DiurnalProfile

from reference_plant import ReferenceSpec


def run_traced(managed=True, faulted=False, profile=None, capped=False,
               nonlinearity=1.0, hours=4.0, spec_cls=DataCenterSpec):
    spec = spec_cls(name="zf", racks=6, servers_per_rack=8, zones=3,
                    cracs=2, server_nonlinearity=nonlinearity)
    peak = spec.total_servers * spec.server_capacity * 0.6
    diurnal = DiurnalProfile()
    schedule = None
    if faulted:
        schedule = FaultSchedule()
        schedule.add(Incident(FaultKind.CRAC_FAILURE, at_s=3_600.0,
                              duration_s=1_800.0, target=0))
    budget = (0.62 * spec.total_servers * spec.server_peak_w
              if capped else None)
    tracer = Tracer()
    sim = CoSimulation(spec, lambda t: peak * diurnal(t),
                       managed=managed, fault_schedule=schedule,
                       streams=RandomStreams(11), control_plane=profile,
                       power_budget_w=budget,
                       sla=SLA("zf", response_target_s=0.15),
                       tracer=tracer)
    result = sim.run(hours * 3_600.0)
    return tracer.counters, result


SCENARIOS = {
    "managed": {},
    "static": {"managed": False},
    "faulted": {"faulted": True},
    "impaired": {"profile": "hardened"},
    "capped": {"capped": True},
    "nonlinear": {"nonlinearity": 1.3},
    "nonlinear-capped": {"nonlinearity": 1.3, "capped": True},
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_no_scalar_fallbacks(name):
    kwargs = dict(SCENARIOS[name])
    if "profile" in kwargs:
        kwargs["profile"] = getattr(ControlPlaneProfile,
                                    kwargs["profile"])()
    counters, _ = run_traced(**kwargs)
    assert counters.get("fleet.scalar_fallback", 0) == 0
    assert counters.get("fleet.demand_scalar_fallback", 0) == 0
    assert counters.get("fleet.batch", 0) > 0
    if kwargs.get("capped"):
        # The capper's demand query must have gone through the vector
        # kernel, not just never run.
        assert counters.get("fleet.demand_vector", 0) > 0


def test_nonlinear_cosim_matches_object_backend():
    """The grouped libm-pow kernel is bit-identical end to end to the
    plain-``Server`` reference plant."""
    _, res_v = run_traced(nonlinearity=1.3, capped=True)
    _, res_o = run_traced(nonlinearity=1.3, capped=True,
                          spec_cls=ReferenceSpec)
    for field in dataclasses.fields(res_o):
        assert getattr(res_o, field.name) == getattr(res_v, field.name), \
            f"CoSimResult.{field.name} differs between plants"
