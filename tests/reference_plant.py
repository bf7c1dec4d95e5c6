"""Scalar reference plant for the differential tests.

``DataCenterSpec.build`` stores every server's state in one
:class:`~repro.fleet.VectorFleet`.  :class:`ReferenceSpec` builds the
same facility from plain :class:`~repro.cluster.server.Server` objects
in :class:`~repro.cluster.rack.Rack`\\ s in a plain
:class:`~repro.cluster.rack.Cluster`: the same rack and server names,
zones and order, with one power model per server.  Every query then
runs the scalar per-object code, so comparing a run on both plants
checks the vector kernels against it bit for bit.
"""

from repro.cluster.rack import Cluster, Rack
from repro.cluster.server import Server
from repro.datacenter import DataCenterSpec
from repro.power.models import ServerPowerModel


class ScalarFleet:
    """The reference plant's fleet handle: it has no fused boot storm,
    so :class:`~repro.datacenter.CoSimulation` powers servers on one
    by one."""

    def boot_many(self, servers):
        return None


class ReferenceSpec(DataCenterSpec):
    """A :class:`DataCenterSpec` whose plant is plain ``Server``s."""

    def _build_racks(self, env, model):
        racks = []
        for r in range(self.racks):
            servers = [
                Server(env, f"{self.name}-r{r}-s{s}",
                       power_model=ServerPowerModel(
                           peak_w=self.server_peak_w,
                           idle_fraction=self.server_idle_fraction,
                           nonlinearity=self.server_nonlinearity),
                       capacity=self.server_capacity,
                       boot_s=self.boot_s, wake_s=self.wake_s)
                for s in range(self.servers_per_rack)]
            racks.append(Rack(f"{self.name}-rack{r}", servers,
                              zone=f"zone-{r % self.zones}"))
        return ScalarFleet(), Cluster(self.name, racks)
