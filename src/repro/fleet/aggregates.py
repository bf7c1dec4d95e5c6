"""Vectorized fleet aggregates: batch kernels with scalar-exact folds.

:class:`VectorAggregate` is the farm-wide pool aggregate of a
:class:`~repro.fleet.plant.VectorFleet`; :class:`VectorRackAggregate`
is the per-rack one, its running state stored in fleet rack columns.
Both subclass the object-path :class:`~repro.cluster.aggregates
.FleetAggregate`, so the scalar watcher protocol — one
``power_changed`` delta at a time, drift-guard recompute every
``recompute_every`` updates — keeps working unchanged.

On top, the farm aggregate exposes *batch* entry points (bulk load
application, bulk P-state moves, vectorized roster/utilization/demand
queries).  Each batch replays the scalar sequence bit-exactly:

* delta folds are sequential left folds (``np.cumsum`` with the
  running total prepended — numpy's cumsum is a sequential fold, so
  the result equals ``total += d`` one delta at a time);
* the drift guard triggers at the exact same update counts, and the
  exact re-sum it performs is reproduced against a snapshot in which
  servers *after* the trigger point still hold their pre-update power;
* power evaluation uses the fleet's grouped batch kernel (see
  ``plant``), which is scalar-exact for every installed model —
  uniform linear fleets take one fused pass, mixed tables and
  non-linear models evaluate per model group.

Batches run only when :meth:`VectorAggregate.batcher` validates the
wiring — every server watched by ``[its rack aggregate, this
aggregate, *extras]``.  Extras marked ``vector_batch_safe`` are
skipped entirely; any other extra exposing ``power_changed`` is
replayed scalar-style, one delta per changed server in pool order,
*after* the rack and farm folds (the three accumulators are disjoint,
so each watcher sees exactly its scalar delta subsequence).  Only
genuinely foreign wiring — sub-pool aggregates in the rack/farm
slots, or watchers without ``power_changed`` — falls back to the
scalar paths, which remain correct on vector views.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.cluster.aggregates import FleetAggregate
from repro.fleet.plant import C_ACTIVE, VectorFleet

__all__ = ["VectorAggregate", "VectorRackAggregate"]


class VectorAggregate(FleetAggregate):
    """Whole-fleet pool aggregate with batch kernels."""

    __slots__ = ("_fleet", "_active_idx", "_wiring_epoch_seen",
                 "_wiring_ok", "_extra_watchers", "_dispatch_memo",
                 "_util_memo", "_resp_memo")

    def __init__(self, fleet: VectorFleet, servers: typing.Sequence,
                 recompute_every: int):
        self._fleet = fleet
        self._active_idx: np.ndarray | None = None
        self._wiring_epoch_seen = -1
        self._wiring_ok = False
        self._extra_watchers: dict[int, tuple] | None = None
        # Fused sense-pipeline memos, all keyed on the fleet's
        # mutation epoch (see VectorFleet.mutation_epoch).
        self._dispatch_memo: tuple | None = None
        self._util_memo: tuple | None = None
        self._resp_memo: tuple | None = None
        super().__init__(servers, recompute_every)
        fleet.farm_aggs.append(self)

    # ------------------------------------------------------------------
    # Scalar watcher protocol (roster cache gains an index twin)
    # ------------------------------------------------------------------
    def state_changed(self, server, old, new) -> None:
        super().state_changed(server, old, new)
        if old is not new:
            self._active_idx = None

    def active_indices(self) -> np.ndarray:
        """Rows of ACTIVE servers, ascending (= pool order)."""
        idx = self._active_idx
        if idx is None:
            idx = self._active_idx = np.flatnonzero(
                self._fleet.state_code == C_ACTIVE)
        return idx

    def active_servers(self) -> list:
        roster = self._active_cache
        if roster is None:
            roster = self._active_cache = self._fleet.objs[
                self.active_indices()].tolist()
        return roster

    def recompute_exact(self) -> float:
        power = float(np.cumsum(self._fleet.power)[-1])
        drift = abs(power - self._power_w)
        self._power_w = power
        self._updates = 0
        return drift

    def verify(self) -> dict:
        power_drift = self.recompute_exact()
        fleet = self._fleet
        count = int(np.count_nonzero(fleet.state_code == C_ACTIVE))
        count_corrected = abs(count - self._active_count)
        self._active_count = count
        roster_repaired = False
        if self._active_cache is not None:
            fresh_idx = np.flatnonzero(fleet.state_code == C_ACTIVE)
            fresh = fleet.objs[fresh_idx].tolist()
            roster_repaired = fresh != self._active_cache
            self._active_cache = fresh
            self._active_idx = fresh_idx
        return {"power_drift_w": power_drift,
                "active_count_corrected": count_corrected,
                "roster_repaired": roster_repaired}

    # ------------------------------------------------------------------
    # Batch gate
    # ------------------------------------------------------------------
    def _wiring_valid(self) -> bool:
        fleet = self._fleet
        if self._wiring_epoch_seen == fleet._wiring_epoch:
            return self._wiring_ok
        self._wiring_epoch_seen = fleet._wiring_epoch
        extras: dict[int, tuple] = {}
        ok = fleet.n_claimed == fleet.n
        if ok:
            racks = fleet.rack_aggs
            slots = fleet.rack_slot
            for i, server in enumerate(fleet.objs.tolist()):
                slot = slots[i]
                watchers = server._watchers
                if (slot < 0 or len(watchers) < 2
                        or watchers[0] is not racks[slot]
                        or watchers[1] is not self):
                    ok = False
                    break
                if len(watchers) > 2:
                    # Batch-safe extras need no notification; anything
                    # else with power_changed gets a scalar replay per
                    # changed row (see _fold_power_deltas).
                    row = tuple(
                        w for w in watchers[2:]
                        if not getattr(w, "vector_batch_safe", False))
                    if row:
                        if any(not callable(getattr(w, "power_changed",
                                                    None))
                               for w in row):
                            ok = False
                            break
                        extras[i] = row
        self._extra_watchers = extras if ok and extras else None
        self._wiring_ok = ok
        return ok

    def batcher(self) -> "VectorAggregate | None":
        """This aggregate when batch mutation is exact, else ``None``.

        Traced runs count the vector-vs-scalar split so a RunReport
        can show how often the batch gate actually opened.
        """
        ok = self._wiring_valid()
        tracer = self._fleet.env.tracer
        if tracer is not None:
            tracer.count("fleet.batch" if ok else "fleet.scalar_fallback")
        return self if ok else None

    # ------------------------------------------------------------------
    # Batch mutators (callers hold a validated batcher)
    # ------------------------------------------------------------------
    def zero_inactive(self) -> None:
        """Zero offered load on non-ACTIVE servers, in pool order.

        Rare (a server just left ACTIVE with load still assigned), so
        the per-server work stays on the scalar path; the vector part
        is finding the rows without touching Python objects.
        """
        fleet = self._fleet
        idle = np.flatnonzero((fleet.state_code != C_ACTIVE)
                              & (fleet.offered != 0.0))
        for i in idle.tolist():
            fleet.objs[i].set_offered_load(0.0)

    def dispatch_loads(self, policy, total_load: float,
                       active: list) -> float:
        """Split ``total_load`` over the active set and apply in bulk.

        Returns the served amount — the same left fold of
        ``delivered_load`` the scalar dispatch accumulates.
        """
        fleet = self._fleet
        idx = self.active_indices()
        split_array = getattr(policy, "split_array", None)
        if split_array is not None:
            loads = split_array(total_load, fleet.eff_cap[idx])
        else:
            shares = policy.split(total_load, active)
            if len(shares) != len(active):
                raise RuntimeError(
                    "policy returned wrong number of shares")
            loads = np.asarray(shares, dtype=np.float64)
        self._apply_active_loads(idx, loads)
        delivered = np.minimum(fleet.offered[idx], fleet.eff_cap[idx])
        return float(np.cumsum(delivered)[-1])

    def fused_dispatch(self, policy, total_load: float,
                       active: list) -> float:
        """One fused zero-inactive → split → apply → serve step.

        Keyed on ``(mutation epoch, total load, policy identity)``: an
        unchanged epoch proves no dispatch input (state, offered,
        effective capacity, P/T-state, caps) moved since the previous
        dispatch, so the previous dispatch's own writes are the
        fixpoint — re-splitting would reproduce exactly the loads
        already applied and every mutator would no-op.  The memo
        therefore returns the cached served value and skips the whole
        pipeline; constant-demand periods (the common bench and
        macro-period case) collapse to one epoch compare per tick.

        Only policies with a pure ``split_array`` are memoized —
        stateful ``split`` implementations may depend on more than
        the fleet columns.
        """
        fleet = self._fleet
        memo = self._dispatch_memo
        if (memo is not None
                and memo[0] == fleet.mutation_epoch
                and memo[1] == total_load
                and memo[2] is policy):
            return memo[3]
        self.zero_inactive()
        served = self.dispatch_loads(policy, total_load, active)
        if getattr(policy, "split_array", None) is not None:
            self._dispatch_memo = (fleet.mutation_epoch, total_load,
                                   policy, served)
        return served

    def batch_set_pstate(self, index: int) -> None:
        """Command ``index`` on every ACTIVE server, in pool order."""
        fleet = self._fleet
        if not 0 <= index < fleet.n_pstates:
            raise ValueError(f"P-state {index} out of range")
        idx = self.active_indices()
        if idx.size == 0:
            return
        # Ascending unique rows covering the whole fleet are exactly
        # ``arange(n)``; slice stores/views then replace every fancy
        # gather (uniform-linear only — grouped kernels mask by fancy
        # index).  The delta fold below keeps the row array: it
        # gathers changed rows only, usually none.
        rows = (slice(None)
                if (idx.size == fleet.state_code.size
                    and fleet.uniform_linear) else idx)
        now = fleet.env.now
        oldp = fleet.power[rows].copy()
        fleet.energy_j[rows] += oldp * (now - fleet.t_last[rows])
        fleet.t_last[rows] = now
        fleet.pstate[rows] = index
        tstates = fleet.tstate[rows]
        eff = fleet.capacity[rows] * fleet._cap_fractions(rows, index,
                                                          tstates)
        fleet.eff_cap[rows] = eff
        newp = fleet._active_power(rows, fleet.offered[rows], eff,
                                   index, tstates)
        fleet.power[rows] = newp
        fleet.mutation_epoch += 1
        self._fold_power_deltas(idx, oldp, newp)

    def _apply_active_loads(self, idx: np.ndarray,
                            loads: np.ndarray) -> None:
        """Bulk ``set_offered_load`` over ACTIVE rows ``idx``.

        Servers whose load is unchanged are skipped entirely: the
        scalar fast path only re-records the held power, which for an
        :class:`~repro.fleet.plant.EnergyMeter` is a lazy no-op (the
        joule total is identical whether the held segment is flushed
        now or at its eventual close).
        """
        fleet = self._fleet
        offered = fleet.offered
        changed = loads != offered[idx]
        if not changed.any():
            return
        cidx = idx[changed]
        new_loads = loads[changed]
        low = float(new_loads.min())
        if low < 0.0:
            raise ValueError(f"negative load {low}")
        now = fleet.env.now
        oldp = fleet.power[cidx].copy()
        fleet.energy_j[cidx] += oldp * (now - fleet.t_last[cidx])
        fleet.t_last[cidx] = now
        offered[cidx] = new_loads
        fleet.mutation_epoch += 1
        newp = fleet._active_power(cidx, new_loads, fleet.eff_cap[cidx],
                                   fleet.pstate[cidx], fleet.tstate[cidx])
        fleet.power[cidx] = newp
        self._fold_power_deltas(cidx, oldp, newp)

    def _fold_power_deltas(self, cidx: np.ndarray, oldp: np.ndarray,
                           newp: np.ndarray) -> None:
        """Push power deltas to rack aggregates, then to this one.

        The scalar funnel interleaves (rack, farm) per server, but the
        two accumulators are disjoint, so racks-then-farm reproduces
        both delta subsequences exactly.
        """
        changed = newp != oldp
        if not changed.any():
            return
        fidx = cidx[changed]
        old = oldp[changed]
        deltas = newp[changed] - old
        self._fleet._fold_rack_deltas(fidx, old, deltas)
        self._fold_farm_deltas(fidx, old, deltas)
        extras = self._extra_watchers
        if extras is not None:
            # Scalar replay for non-batch-safe extras: one delta per
            # changed server, in pool (= mutation) order.  Runs after
            # the rack/farm folds; the accumulators are disjoint, so
            # each watcher still sees exactly its scalar subsequence.
            objs = self._fleet.objs
            for j, row in enumerate(fidx.tolist()):
                row_extras = extras.get(row)
                if row_extras is not None:
                    server = objs[row]
                    delta = float(deltas[j])
                    for w in row_extras:
                        w.power_changed(server, delta)

    def _fold_farm_deltas(self, fidx: np.ndarray, old: np.ndarray,
                          deltas: np.ndarray) -> None:
        every = self.recompute_every
        updates = self._updates
        total = self._power_w
        power = self._fleet.power
        m = deltas.size
        j = 0
        while j < m:
            until_trigger = every - updates
            if m - j < until_trigger:
                total = float(np.cumsum(
                    np.concatenate(([total], deltas[j:m])))[-1])
                updates += m - j
                break
            # The delta at the trigger is discarded (the scalar guard
            # re-sums instead of folding it); everything before folds.
            pos = j + until_trigger - 1
            if until_trigger > 1:
                total = float(np.cumsum(
                    np.concatenate(([total], deltas[j:pos])))[-1])
            snap = power.copy()
            snap[fidx[pos + 1:]] = old[pos + 1:]
            total = float(np.cumsum(snap)[-1])
            updates = 0
            j = pos + 1
        self._power_w = total
        self._updates = updates

    # ------------------------------------------------------------------
    # Vectorized read-only queries (exact regardless of wiring)
    # ------------------------------------------------------------------
    def committed_count(self) -> int:
        return self._fleet.committed_count()

    def pick_startable_many(self, quarantined, count: int) -> list:
        return self._fleet.pick_startable_many(quarantined, count)

    def total_demand_w(self) -> float | None:
        return self._fleet.total_demand_w()

    def mean_utilization_active(self) -> float:
        """Mean utilization over the (non-empty) active set.

        Memoized on the mutation epoch: both inputs (offered,
        effective capacity) bump it on every write, so an unchanged
        epoch returns the cached mean without touching the columns.
        """
        fleet = self._fleet
        memo = self._util_memo
        if memo is not None and memo[0] == fleet.mutation_epoch:
            return memo[1]
        idx = self.active_indices()
        util = np.minimum(fleet.offered[idx] / fleet.eff_cap[idx], 1.0)
        value = float(np.cumsum(util)[-1]) / idx.size
        self._util_memo = (fleet.mutation_epoch, value)
        return value

    def mean_response_time_active(self, delay_cap_s: float) -> float:
        """Mean M/M/1 response time over the (non-empty) active set.

        Memoized like :meth:`mean_utilization_active`, additionally
        keyed on the delay cap.
        """
        fleet = self._fleet
        memo = self._resp_memo
        if (memo is not None and memo[0] == fleet.mutation_epoch
                and memo[1] == delay_cap_s):
            return memo[2]
        idx = self.active_indices()
        arrival = fleet.offered[idx]
        service = np.maximum(fleet.eff_cap[idx], 1e-9)
        with np.errstate(divide="ignore"):
            inverse = 1.0 / (service - arrival)
        resp = np.where(arrival >= service, delay_cap_s,
                        np.minimum(inverse, delay_cap_s))
        value = float(np.cumsum(resp)[-1]) / idx.size
        self._resp_memo = (fleet.mutation_epoch, delay_cap_s, value)
        return value


class VectorRackAggregate(FleetAggregate):
    """Per-rack aggregate whose running state lives in fleet columns.

    The scalar watcher protocol is inherited untouched; the property
    overrides below move the running sum, update counter and active
    count into ``rack_power`` / ``rack_updates`` / ``rack_active``
    slots so the fleet's batch delta fold can see and update every
    rack without touching aggregate objects.
    """

    __slots__ = ("_fleet", "_slot", "_lo", "_hi")

    def __init__(self, fleet: VectorFleet, lo: int, hi: int,
                 servers: typing.Sequence, recompute_every: int):
        self._fleet = fleet
        self._lo = lo
        self._hi = hi
        self._slot = fleet._register_rack(self, lo, hi, recompute_every)
        super().__init__(servers, recompute_every)

    @property
    def _power_w(self) -> float:
        return float(self._fleet.rack_power[self._slot])

    @_power_w.setter
    def _power_w(self, value: float) -> None:
        self._fleet.rack_power[self._slot] = value

    @property
    def _updates(self) -> int:
        return int(self._fleet.rack_updates[self._slot])

    @_updates.setter
    def _updates(self, value: int) -> None:
        self._fleet.rack_updates[self._slot] = value

    @property
    def _active_count(self) -> int:
        return int(self._fleet.rack_active[self._slot])

    @_active_count.setter
    def _active_count(self, value: int) -> None:
        self._fleet.rack_active[self._slot] = value

    def recompute_exact(self) -> float:
        fleet = self._fleet
        power = float(np.cumsum(fleet.power[self._lo:self._hi])[-1])
        drift = abs(power - self._power_w)
        self._power_w = power
        self._updates = 0
        return drift
