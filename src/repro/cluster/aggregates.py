"""Event-driven fleet aggregates: O(1) power sums and active rosters.

The hot loops of a fleet-scale run used to recompute everything from
scratch: ``ServerFarm.step()`` scanned every server four times per
dispatch tick and ``DataCenter.sync_physical()`` re-evaluated every
server's power model once per rack scan and once more for the heat
map.  At 500+ servers those O(fleet) scans — not the event kernel —
dominated wall time.

:class:`FleetAggregate` inverts the flow: each :class:`~repro.cluster
.server.Server` *pushes* deltas into the aggregates watching it
(registered via ``Server._watchers``) at the moment it changes, so a
tick only pays for the servers that actually changed.

Invariants
----------
* ``power_w`` equals the sum of the member servers' cached wall draw
  (``Server._power_w``).  Servers push ``power_changed`` deltas from
  ``Server._record_power`` — the single funnel every power-relevant
  mutation already flows through — so the aggregate can never miss an
  update.
* ``active_count`` is maintained with exact integer arithmetic from
  ``state_changed`` notifications and therefore never drifts.
* ``active_servers()`` returns the ACTIVE members **in pool order**
  (the order controllers and balancer policies have always seen); the
  roster is cached and only rebuilt after a state change, so steady
  state queries are O(1).

Drift guard
-----------
Floating-point delta accumulation is not associative, so ``power_w``
can drift a few ulps away from a fresh sum.  Every
``recompute_every`` pushed deltas the aggregate re-sums the cached
per-server values exactly (a left fold in pool order).  The trigger is
an update *count*, not wall time, so runs remain bit-for-bit
reproducible for a given seed.  :meth:`recompute_exact` forces the
re-sum on demand and reports the drift it corrected — the determinism
regression tests pin it below 1e-6 relative.
"""

from __future__ import annotations

import typing

from repro.cluster.server import Server, ServerState

__all__ = ["FleetAggregate", "make_pool_aggregate"]

#: Pushed-delta count between exact re-sums.  Small enough that drift
#: stays far below reporting precision, large enough that the O(fleet)
#: re-sum is amortized to nothing (one scan per ~4k server updates).
RECOMPUTE_EVERY = 4096

_COMMITTED = (ServerState.ACTIVE, ServerState.BOOTING, ServerState.WAKING)


class FleetAggregate:
    """Incremental power/state aggregates over a fixed server pool.

    Attach one to any group of servers — a farm's pool, a rack, a load
    balancer's roster.  Construction registers the aggregate as a
    watcher on every member; there is no detach because pools live as
    long as their simulation.
    """

    __slots__ = ("servers", "recompute_every", "_power_w",
                 "_active_count", "_active_cache", "_updates")

    def __init__(self, servers: typing.Sequence[Server],
                 recompute_every: int = RECOMPUTE_EVERY):
        if recompute_every < 1:
            raise ValueError("recompute_every must be >= 1")
        self.servers = list(servers)
        self.recompute_every = int(recompute_every)
        self._updates = 0
        self._active_cache: list[Server] | None = None
        power = 0.0
        count = 0
        for server in self.servers:
            server._watchers.append(self)
            power += server._power_w
            count += server._state is ServerState.ACTIVE
        self._power_w = power
        self._active_count = count

    # ------------------------------------------------------------------
    # Watcher protocol (called by Server on every relevant mutation)
    # ------------------------------------------------------------------
    def power_changed(self, server: Server, delta: float) -> None:
        """Fold one server's wall-power change into the running sum."""
        self._updates += 1
        if self._updates >= self.recompute_every:
            self.recompute_exact()
        else:
            self._power_w += delta

    def state_changed(self, server: Server, old: ServerState,
                      new: ServerState) -> None:
        """Track the ACTIVE population and invalidate the roster."""
        if old is not new:
            if new is ServerState.ACTIVE:
                self._active_count += 1
            elif old is ServerState.ACTIVE:
                self._active_count -= 1
            self._active_cache = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def power_w(self) -> float:
        """Total wall draw of the pool (event-driven running sum)."""
        return self._power_w

    @property
    def active_count(self) -> int:
        """Number of ACTIVE servers (exact integer bookkeeping)."""
        return self._active_count

    def active_servers(self) -> list[Server]:
        """ACTIVE members in pool order.

        Returns the internal cache — callers must treat it as
        read-only (public wrappers copy).  Rebuilt lazily after a
        state change, so repeated queries between transitions are
        O(1).
        """
        roster = self._active_cache
        if roster is None:
            roster = self._active_cache = [
                s for s in self.servers
                if s._state is ServerState.ACTIVE]
        return roster

    def recompute_exact(self) -> float:
        """Re-sum cached per-server power exactly; returns |drift|.

        A left fold over the pool in order, identical to what a cold
        scan would produce from the same cached values.  Called
        automatically every ``recompute_every`` deltas and available
        to tests that want to bound accumulated float drift.
        """
        power = 0.0
        for server in self.servers:
            power += server._power_w
        drift = abs(power - self._power_w)
        self._power_w = power
        self._updates = 0
        return drift

    def verify(self) -> dict:
        """Exact-recompute *every* cached aggregate; repair and report.

        Goes beyond the routine :meth:`recompute_exact` drift guard:
        the active count is recounted, and the cached roster (if one
        is materialized) is rebuilt and compared.  Any disagreement is
        repaired in place.  Designed as the control plane's
        reconciliation-loop self-heal — cheap enough to run every few
        minutes, strong enough that no caching bug or missed watcher
        notification can mislead the manager for long.

        Returns ``{"power_drift_w", "active_count_corrected",
        "roster_repaired"}``.
        """
        power_drift = self.recompute_exact()
        count = sum(1 for s in self.servers
                    if s._state is ServerState.ACTIVE)
        count_corrected = abs(count - self._active_count)
        self._active_count = count
        roster_repaired = False
        if self._active_cache is not None:
            fresh = [s for s in self.servers
                     if s._state is ServerState.ACTIVE]
            roster_repaired = fresh != self._active_cache
            self._active_cache = fresh
        return {"power_drift_w": power_drift,
                "active_count_corrected": count_corrected,
                "roster_repaired": roster_repaired}

    def committed_count(self) -> int:
        """Servers committed to serving: ACTIVE, BOOTING or WAKING."""
        return sum(1 for s in self.servers if s._state in _COMMITTED)

    def pick_startable(self, quarantined=None):
        """First startable server (see :meth:`pick_startable_many`),
        or ``None``."""
        picked = self.pick_startable_many(quarantined, 1)
        return picked[0] if picked else None

    def pick_startable_many(self, quarantined, count: int) -> list:
        """The first ``count`` SLEEPING servers, then OFF ones, in pool
        order, skipping zones in ``quarantined``.

        One scan equals ``count`` repeated single picks because
        starting a server only removes *it* from the candidate pool.
        """
        quarantined = quarantined or ()
        picked: list[Server] = []
        for target in (ServerState.SLEEPING, ServerState.OFF):
            for server in self.servers:
                if len(picked) >= count:
                    return picked
                if (server._state is target
                        and server.zone not in quarantined):
                    picked.append(server)
        return picked

    def mean_utilization_active(self) -> float:
        """Mean utilization over the (non-empty) active set."""
        active = self.active_servers()
        return sum(s.utilization for s in active) / len(active)

    def mean_response_time_active(self, delay_cap_s: float) -> float:
        """Mean M/M/1 response time over the (non-empty) active set,
        each server's delay capped at ``delay_cap_s``."""
        # Imported here: repro.control imports this module.
        from repro.control.queueing import mm1_response_time

        active = self.active_servers()
        total = 0.0
        for server in active:
            total += mm1_response_time(server.offered_load,
                                       max(server.effective_capacity, 1e-9),
                                       saturation_cap_s=delay_cap_s)
        return total / len(active)

    def batcher(self):
        """Bulk-mutation interface, or ``None`` (the plain-server pool
        has none; the vector aggregate overrides this when its wiring
        makes batch updates exact)."""
        return None

    def __repr__(self) -> str:
        return (f"<FleetAggregate n={len(self.servers)} "
                f"active={self._active_count} {self._power_w:.0f}W>")


def make_pool_aggregate(servers: typing.Sequence[Server],
                        recompute_every: int = RECOMPUTE_EVERY,
                        kind: str = "pool") -> FleetAggregate:
    """Build the best aggregate for ``servers``.

    Servers backed by a :class:`~repro.fleet.plant.VectorFleet` get
    the vectorized aggregate matching ``kind`` (``"rack"`` claims a
    contiguous rack slot, ``"pool"`` the whole fleet) when the pool
    qualifies; everything else — plain servers, sub-pools, mixed
    fleets — gets the classic :class:`FleetAggregate`, which behaves
    identically.
    """
    fleet = getattr(servers[0], "_fleet", None) if servers else None
    if fleet is not None:
        aggregate = fleet.make_aggregate(servers, recompute_every, kind)
        if aggregate is not None:
            return aggregate
    return FleetAggregate(servers, recompute_every)
