"""Structure-of-arrays vector plant: the fleet as numpy columns.

A plain :class:`~repro.cluster.server.Server` is one Python object
per machine, which caps co-simulations around a few thousand servers
— every dispatch tick walks Python objects.  The vector plant, which
every ``DataCenterSpec`` builds, inverts the layout: all per-server
*hot* state (lifecycle code, P-/T-state, offered load, capacity, wall
power, cap, zone id, rack slot, energy) lives in preallocated numpy
arrays owned by a :class:`VectorFleet`, and :class:`VectorServer` is a
thin **view** whose hot attributes are class-level properties
redirecting into those columns.

Because the views redirect *storage only*, every inherited scalar code
path (state machine, capping search, power funnel) runs unchanged and
bit-identically; the batch entry points in
:mod:`repro.fleet.aggregates` replace whole loops with array passes
that replay the exact same IEEE operation sequence (left folds via
``np.cumsum``, elementwise min/clip, sequential ``np.bincount``).  The
equivalence guarantee — identical energies, rosters and RNG streams
to a plant of plain ``Server``s — is enforced by the equivalence
tests against a scalar reference plant.

Power models are organised into *model groups*: every distinct
(P/T-state table contents, nonlinearity) pair installed on the fleet
gets one group, and each server row carries its group id.  Batch power
evaluation runs per group — the single-linear-group fleet (the
overwhelmingly common case) keeps the original fused kernel, while
mixed tables and non-linear models evaluate group by group with the
same scalar-exact arithmetic.  Non-linear shapes use element-wise
``math.pow`` (libm) rather than ``np.power``, because Python's
``u ** r`` and ``np.power`` differ by 1 ulp on some inputs; the
element-wise path is bit-identical to the scalar model.
"""

from __future__ import annotations

import itertools
import math
import typing

import numpy as np

from repro.cluster.server import Server, ServerState
from repro.power.models import ServerPowerModel
from repro.sim import Environment

__all__ = ["VectorFleet", "VectorServer", "EnergyMeter"]

#: Lifecycle codes, in enum declaration order (OFF=0 .. FAILED=5).
_STATES: tuple[ServerState, ...] = tuple(ServerState)
_STATE_TO_CODE: dict[ServerState, int] = {s: i for i, s in enumerate(_STATES)}
C_OFF = _STATE_TO_CODE[ServerState.OFF]
C_BOOTING = _STATE_TO_CODE[ServerState.BOOTING]
C_ACTIVE = _STATE_TO_CODE[ServerState.ACTIVE]
C_SLEEPING = _STATE_TO_CODE[ServerState.SLEEPING]
C_WAKING = _STATE_TO_CODE[ServerState.WAKING]


class _WatcherList(list):
    """A server's watcher list that notifies the fleet on rewiring.

    Batch mutation is only exact when every server's watchers are the
    canonical ``[rack aggregate, farm aggregate, *batch-safe extras]``
    wiring.  Any structural change bumps the fleet's wiring epoch so
    cached validation is redone before the next batch.
    """

    __slots__ = ("_fleet",)

    def __init__(self, items: typing.Iterable, fleet: "VectorFleet"):
        super().__init__(items)
        self._fleet = fleet
        fleet._wiring_epoch += 1

    def _bump(self) -> None:
        self._fleet._wiring_epoch += 1

    def append(self, item):  # noqa: D102 - list API
        super().append(item)
        self._bump()

    def extend(self, items):  # noqa: D102 - list API
        super().extend(items)
        self._bump()

    def insert(self, index, item):  # noqa: D102 - list API
        super().insert(index, item)
        self._bump()

    def remove(self, item):  # noqa: D102 - list API
        super().remove(item)
        self._bump()

    def clear(self):  # noqa: D102 - list API
        super().clear()
        self._bump()


def _pow_elements(x: np.ndarray, r: float) -> np.ndarray:
    """Element-wise ``x ** r`` via libm — bit-identical to Python pow.

    ``np.power`` differs from CPython's ``float.__pow__`` by 1 ulp on
    some inputs, so the non-linear utilization shape must go through
    ``math.pow`` (the same libm call the scalar model makes) to keep
    batch evaluation bit-exact.
    """
    return np.fromiter(map(math.pow, x.tolist(), itertools.repeat(r)),
                       np.float64, count=x.size)


class _ModelGroup:
    """One distinct (P/T-state table, nonlinearity) combination.

    ``cap`` / ``dyn`` are the table's memoized fraction matrices as
    float64 arrays; ``has_t`` mirrors the scalar model's *"if
    table.tstates"* branch (tables without T-states always read
    column 0 regardless of the commanded T-state).
    """

    __slots__ = ("cap", "dyn", "r", "has_t", "n_pstates")

    def __init__(self, table, r: float):
        self.cap = np.array(table._cap_frac, dtype=np.float64)
        self.dyn = np.array(table._dyn_frac, dtype=np.float64)
        self.r = float(r)
        self.has_t = bool(table.tstates)
        self.n_pstates = len(table.pstates)


class EnergyMeter:
    """Constant-memory stand-in for a server's power :class:`Monitor`.

    A plain ``Server`` keeps a full ``(time, value)`` history; at
    20k+ servers that is hundreds of MB nobody reads — the headline
    results only ever need ∫P dt.  The meter folds each held power
    segment into a running joule total at the moment the segment
    closes (exactly the step interpretation the Monitor integrates
    under) and holds no history.

    The *held* value is the fleet's cached power column: the power
    funnel records the new sample **before** updating the cache, so at
    ``record()`` time the column still holds the value that was in
    force since ``t_last`` — the same invariant batch mutators
    maintain when they flush energy before overwriting power.
    """

    __slots__ = ("_fleet", "_idx", "name", "_t0")

    def __init__(self, fleet: "VectorFleet", idx: int, name: str = ""):
        self._fleet = fleet
        self._idx = idx
        self.name = name
        self._t0 = float(fleet.env.now)
        fleet.t_last[idx] = self._t0

    def record(self, value: float, time: float | None = None) -> None:
        """Close the held segment at ``time`` (defaults to now)."""
        fleet = self._fleet
        i = self._idx
        t = fleet.env.now if time is None else float(time)
        last = fleet.t_last[i]
        if t < last:
            raise ValueError(
                f"sample at t={t} precedes last sample t={last}")
        fleet.energy_j[i] += fleet.power[i] * (t - last)
        fleet.t_last[i] = t

    @property
    def last(self) -> float:
        """Currently held power (the fleet's cached column)."""
        return float(self._fleet.power[self._idx])

    def integral(self, start: float | None = None,
                 end: float | None = None) -> float:
        """∫P dt from the meter's birth to ``end`` (joules).

        Only full-range queries are answered — the meter keeps no
        history, which is the point.  Windowed per-server energy needs
        a plain ``Server`` (a per-server Monitor).
        """
        if start is not None and start > self._t0:
            raise ValueError(
                "EnergyMeter keeps no history; windowed integrals need "
                "a plain Server (a per-server Monitor)")
        fleet = self._fleet
        i = self._idx
        t = fleet.env.now if end is None else float(end)
        if t < fleet.t_last[i]:
            raise ValueError(
                f"end={t} precedes last sample t={fleet.t_last[i]}")
        return float(fleet.energy_j[i]
                     + fleet.power[i] * (t - fleet.t_last[i]))


class VectorFleet:
    """Preallocated per-server state columns plus batch kernels.

    Construct with the exact fleet size, then create ``n``
    :class:`VectorServer` views against it.  Aggregation objects are
    obtained through :meth:`make_aggregate` (racks claim contiguous
    slots; the farm-wide pool gets the vectorized
    :class:`~repro.fleet.aggregates.VectorAggregate`).
    """

    def __init__(self, env: Environment, n: int):
        if n < 1:
            raise ValueError(f"fleet size must be >= 1, got {n}")
        self.env = env
        self.n = int(n)
        self.n_claimed = 0
        f8 = np.float64
        self.state_code = np.zeros(n, dtype=np.int8)
        self.offered = np.zeros(n, dtype=f8)
        self.power = np.zeros(n, dtype=f8)
        self.eff_cap = np.zeros(n, dtype=f8)
        self.capacity = np.zeros(n, dtype=f8)
        self.cap_w = np.full(n, np.nan, dtype=f8)   # NaN == uncapped
        self.energy_j = np.zeros(n, dtype=f8)
        self.t_last = np.zeros(n, dtype=f8)
        self.sleep_w = np.zeros(n, dtype=f8)
        self.idle_w = np.zeros(n, dtype=f8)
        self.cpu_dyn_w = np.zeros(n, dtype=f8)
        self.other_dyn_w = np.zeros(n, dtype=f8)
        self.off_w = np.zeros(n, dtype=f8)
        self.boot_w = np.zeros(n, dtype=f8)
        self.pstate = np.zeros(n, dtype=np.int16)
        self.tstate = np.zeros(n, dtype=np.int16)
        self.zone_id = np.full(n, -1, dtype=np.int32)
        self.rack_slot = np.full(n, -1, dtype=np.int32)
        self.objs = np.empty(n, dtype=object)
        self.zone_names: list[str] = []
        self._zone_ids: dict[str, int] = {}
        #: Bumped whenever any server's watcher list changes shape;
        #: aggregates re-validate batch wiring when it moves.
        self._wiring_epoch = 0
        #: Bumped whenever a dispatch-relevant column changes —
        #: lifecycle state, offered load, effective capacity,
        #: capacity, P/T-state, power cap.  The farm aggregate's
        #: fused-dispatch and mean-utilization/response memos key on
        #: it: an unchanged epoch proves the active set, the split
        #: inputs, and the per-server loads are all unchanged, so the
        #: whole sense pipeline for a repeated demand level is a
        #: cache hit.  Power/energy columns deliberately do *not*
        #: bump (they are outputs of dispatch, not inputs).
        self.mutation_epoch = 0
        # Model groups: one per distinct (table contents, r) pair.
        # ``cap_frac`` / ``dyn_frac`` alias group 0's tables so the
        # single-group fast paths can index them directly.
        self.groups: list[_ModelGroup] = []
        self.group_id = np.zeros(n, dtype=np.int32)
        self._group_by_table: dict[tuple, int] = {}
        self._group_by_content: dict[tuple, int] = {}
        self.cap_frac: np.ndarray | None = None
        self.dyn_frac: np.ndarray | None = None
        self.n_pstates = 0
        self.n_tstates = 0
        #: True while every installed model shares one fraction table
        #: (with T-states) and is linear (r == 1.0) — the single-group
        #: fast path; grouped evaluation covers everything else with
        #: the same scalar-exact arithmetic.
        self.uniform_linear = False
        # Rack slots (amortized-doubling columns, like server rows).
        self.n_racks = 0
        cap = 8
        self.rack_power = np.zeros(cap, dtype=f8)
        self.rack_updates = np.zeros(cap, dtype=np.int64)
        self.rack_active = np.zeros(cap, dtype=np.int64)
        self.rack_recompute = np.zeros(cap, dtype=np.int64)
        self.rack_lo = np.zeros(cap, dtype=np.int64)
        self.rack_hi = np.zeros(cap, dtype=np.int64)
        self.rack_aggs: list = []
        self.farm_aggs: list = []

    # ------------------------------------------------------------------
    # Row lifecycle
    # ------------------------------------------------------------------
    def _claim(self, server: "VectorServer") -> int:
        i = self.n_claimed
        if i >= self.n:
            raise ValueError(
                f"fleet is full ({self.n} rows); size it to the exact "
                f"server count at construction")
        self.n_claimed = i + 1
        self.objs[i] = server
        return i

    def build_servers(self, env: Environment,
                      names: typing.Sequence[str],
                      power_model: ServerPowerModel,
                      capacity: float = 100.0,
                      boot_s: float = 120.0,
                      wake_s: float = 15.0,
                      sleep_w: float = 10.0,
                      zone: str | None = None) -> list["VectorServer"]:
        """Bulk-construct OFF servers sharing one model on fresh rows.

        Field-for-field equivalent to constructing each
        :class:`VectorServer` in turn with the same arguments — same
        validations, same column state (held power is the model's off
        draw, energy meters zeroed at ``env.now``), same per-server
        Python objects (state log seeded with the OFF entry, empty
        watcher list, ``EnergyMeter`` monitor) — but the uniform-args
        checks are hoisted and every column write is one slice store,
        which is what makes building a 10\\ :sup:`5`-row plant cheap.
        """
        # Server.__init__'s validations, hoisted (the args are shared).
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if boot_s < 0 or wake_s < 0:
            raise ValueError("transition latencies cannot be negative")
        if sleep_w < 0 or sleep_w > power_model.peak_w:
            raise ValueError(f"sleep_w {sleep_w} outside [0, peak]")
        count = len(names)
        if count == 0:
            return []
        i0 = self.n_claimed
        if i0 + count > self.n:
            raise ValueError(
                f"fleet is full ({self.n} rows); size it to the exact "
                f"server count at construction")
        rows = slice(i0, i0 + count)
        now = float(env.now)
        bs = float(boot_s)
        ws = float(wake_s)
        off_state = ServerState.OFF
        objs = self.objs
        servers: list[VectorServer] = []
        append = servers.append
        new = object.__new__
        for k, name in enumerate(names):
            idx = i0 + k
            srv = new(VectorServer)
            d = srv.__dict__
            d["_fleet"] = self
            d["_idx"] = idx
            d["env"] = env
            d["name"] = name
            d["model"] = power_model
            d["boot_s"] = bs
            d["wake_s"] = ws
            d["_transition"] = None
            d["power_monitor"] = EnergyMeter(self, idx,
                                             name=f"{name}.power_w")
            d["state_log"] = [(now, off_state)]
            d["_watchers"] = _WatcherList((), self)
            objs[idx] = srv
            append(srv)
        self.n_claimed = i0 + count
        # Column state after the scalar constructor chain: OFF row,
        # zeroed load/P/T/eff-cap, uncapped, meter seeded at ``now``
        # with the off draw held (the initial ``_record_power``).
        self.state_code[rows] = C_OFF
        self.capacity[rows] = float(capacity)
        self.sleep_w[rows] = float(sleep_w)
        self.zone_id[rows] = self._zone_code(zone)
        self.offered[rows] = 0.0
        self.pstate[rows] = 0
        self.tstate[rows] = 0
        self.cap_w[rows] = np.nan
        self.eff_cap[rows] = 0.0
        self.t_last[rows] = now
        self.energy_j[rows] = 0.0
        self.power[rows] = power_model.off_w
        # ``_install_model`` over the uniform model, one slice each.
        self.idle_w[rows] = power_model._idle_w
        self.cpu_dyn_w[rows] = power_model._cpu_dynamic_w
        self.other_dyn_w[rows] = power_model._other_dynamic_w
        self.off_w[rows] = power_model.off_w
        self.boot_w[rows] = power_model.boot_w
        self.group_id[rows] = self._group_for(power_model)
        self.mutation_epoch += 1
        return servers

    def _install_model(self, idx: int, model: ServerPowerModel) -> None:
        self.idle_w[idx] = model._idle_w
        self.cpu_dyn_w[idx] = model._cpu_dynamic_w
        self.other_dyn_w[idx] = model._other_dynamic_w
        self.off_w[idx] = model.off_w
        self.boot_w[idx] = model.boot_w
        self.group_id[idx] = self._group_for(model)

    def _group_for(self, model: ServerPowerModel) -> int:
        """Group id for ``model``, deduplicated by table *contents*.

        Same-object tables resolve through an identity cache; distinct
        table objects with equal fraction matrices share a group (the
        matrices are what evaluation reads, so equal contents means
        bit-identical results).
        """
        table = model.pstates
        key = (id(table), model.nonlinearity)
        gid = self._group_by_table.get(key)
        if gid is not None:
            return gid
        content = (model.nonlinearity, bool(table.tstates),
                   tuple(map(tuple, table._cap_frac)),
                   tuple(map(tuple, table._dyn_frac)))
        gid = self._group_by_content.get(content)
        if gid is None:
            gid = len(self.groups)
            group = _ModelGroup(table, model.nonlinearity)
            self.groups.append(group)
            self._group_by_content[content] = gid
            if gid == 0:
                self.cap_frac = group.cap
                self.dyn_frac = group.dyn
                self.n_pstates = group.n_pstates
                self.n_tstates = len(table.tstates)
            else:
                # Mixed fleets validate batch P-state commands against
                # the shortest ladder, so a batch either applies to
                # every active server or raises before mutating.
                self.n_pstates = min(self.n_pstates, group.n_pstates)
            self.uniform_linear = (len(self.groups) == 1
                                   and group.has_t and group.r == 1.0)
        self._group_by_table[key] = gid
        return gid

    def _zone_code(self, name: str | None) -> int:
        if name is None:
            return -1
        zid = self._zone_ids.get(name)
        if zid is None:
            zid = self._zone_ids[name] = len(self.zone_names)
            self.zone_names.append(name)
        return zid

    # ------------------------------------------------------------------
    # Aggregate construction
    # ------------------------------------------------------------------
    def make_aggregate(self, servers: typing.Sequence, recompute_every: int,
                       kind: str = "pool"):
        """Vectorized aggregate over ``servers``, or ``None``.

        ``kind="rack"`` claims a contiguous unclaimed row range as a
        rack slot; ``kind="pool"`` requires the whole (fully claimed)
        fleet.  Anything else — sub-pools, overlapping racks, foreign
        servers — returns ``None`` and the caller falls back to the
        plain object-path :class:`FleetAggregate`, which works on
        views too.
        """
        from repro.fleet.aggregates import (
            VectorAggregate,
            VectorRackAggregate,
        )
        try:
            idxs = [s._idx for s in servers]
        except AttributeError:
            return None
        if not idxs:
            return None
        lo, hi = idxs[0], idxs[-1] + 1
        if idxs != list(range(lo, hi)):
            return None
        objs = self.objs
        if any(objs[i] is not s for i, s in zip(idxs, servers)):
            return None
        if kind == "rack":
            if bool((self.rack_slot[lo:hi] >= 0).any()):
                return None
            return VectorRackAggregate(self, lo, hi, servers,
                                       recompute_every)
        if lo == 0 and hi == self.n and self.n_claimed == self.n:
            return VectorAggregate(self, servers, recompute_every)
        return None

    def _register_rack(self, agg, lo: int, hi: int,
                       recompute_every: int) -> int:
        slot = self.n_racks
        if slot == len(self.rack_power):
            cap = 2 * slot
            for attr in ("rack_power", "rack_updates", "rack_active",
                         "rack_recompute", "rack_lo", "rack_hi"):
                old = getattr(self, attr)
                new = np.zeros(cap, dtype=old.dtype)
                new[:slot] = old
                setattr(self, attr, new)
        self.rack_recompute[slot] = int(recompute_every)
        self.rack_lo[slot] = lo
        self.rack_hi[slot] = hi
        self.rack_slot[lo:hi] = slot
        self.rack_aggs.append(agg)
        self.n_racks = slot + 1
        self._wiring_epoch += 1
        return slot

    # ------------------------------------------------------------------
    # Batch power kernel (bit-identical to the scalar model)
    # ------------------------------------------------------------------
    def _active_power(self, idx: np.ndarray, offered: np.ndarray,
                      eff: np.ndarray, p, t) -> np.ndarray:
        """Wall power of ACTIVE rows — the scalar model, vectorized.

        Replays ``ServerPowerModel.power`` term for term: same
        divisions, same clamps, same left-to-right products, so each
        element is the bit-exact scalar result.  ``eff`` must be the
        effective capacity at the queried (p, t) — strictly positive
        for ACTIVE rows.  The uniform-linear fleet takes one fused
        pass; everything else evaluates per model group (non-linear
        shapes through element-wise libm pow).
        """
        if self.uniform_linear:
            # Uniform P-/T-state columns (the common case after a
            # batch command) collapse to one scalar table lookup —
            # the same table entry every row would gather, so the
            # broadcast product is element-for-element identical.
            if isinstance(p, np.ndarray) and p.size and (p == p[0]).all():
                p = int(p[0])
            if isinstance(t, np.ndarray) and t.size and (t == t[0]).all():
                t = int(t[0])
            u = np.minimum(offered / eff, 1.0)
            cap = self.cap_frac[p, t]
            scale = self.dyn_frac[p, t]
            tt = np.clip(u * cap, 0.0, 1.0)
            return (self.idle_w[idx] + u * self.cpu_dyn_w[idx] * scale
                    + tt * self.other_dyn_w[idx])
        out = np.empty(idx.size, dtype=np.float64)
        for gid, m, rows in self._group_masks(idx):
            group = self.groups[gid]
            p_g = p[m] if isinstance(p, np.ndarray) else p
            if group.has_t:
                t_g = t[m] if isinstance(t, np.ndarray) else t
            else:
                t_g = 0
            cap = group.cap[p_g, t_g]
            scale = group.dyn[p_g, t_g]
            u = np.minimum(offered[m] / eff[m], 1.0)
            r = group.r
            if r == 1.0:
                cpu_shape = u
                other_shape = np.clip(u * cap, 0.0, 1.0)
            else:
                cpu_shape = np.minimum(2.0 * u - _pow_elements(u, r), 1.0)
                tt = np.clip(u * cap, 0.0, 1.0)
                other_shape = np.minimum(2.0 * tt - _pow_elements(tt, r),
                                         1.0)
            out[m] = (self.idle_w[rows]
                      + cpu_shape * self.cpu_dyn_w[rows] * scale
                      + other_shape * self.other_dyn_w[rows])
        return out

    def _group_masks(self, idx: np.ndarray):
        """Yield ``(gid, mask, rows)`` per model group present in ``idx``.

        ``mask`` selects the group's positions within ``idx`` and
        ``rows`` the corresponding fleet rows.  Single-group fleets
        yield one full-coverage slice without any masking cost.
        """
        if len(self.groups) == 1:
            yield 0, slice(None), idx
            return
        gids = self.group_id[idx]
        for gid in np.unique(gids).tolist():
            m = gids == gid
            yield gid, m, idx[m]

    def _cap_fractions(self, idx: np.ndarray, p, t) -> np.ndarray:
        """Per-row capacity fraction at (p, t), honoring model groups.

        The batch twin of ``PStateTable.capacity_fraction`` — tables
        without T-states read column 0 just like the scalar lookup.
        """
        if self.uniform_linear:
            # Same uniform-column collapse as the batch power kernel:
            # one scalar lookup broadcasts to the identical per-row
            # fractions a gathered index would produce.
            if isinstance(p, np.ndarray) and p.size and (p == p[0]).all():
                p = int(p[0])
            if isinstance(t, np.ndarray) and t.size and (t == t[0]).all():
                t = int(t[0])
            return self.cap_frac[p, t]
        out = np.empty(idx.size, dtype=np.float64)
        for gid, m, _rows in self._group_masks(idx):
            group = self.groups[gid]
            p_g = p[m] if isinstance(p, np.ndarray) else p
            if group.has_t:
                t_g = t[m] if isinstance(t, np.ndarray) else t
            else:
                t_g = 0
            out[m] = group.cap[p_g, t_g]
        return out

    def _fold_rack_deltas(self, fidx: np.ndarray, old: np.ndarray,
                          deltas: np.ndarray) -> None:
        """Fold per-server power deltas into the rack running sums.

        ``fidx`` is ascending (pool order is rack-major), so each
        rack's deltas form one contiguous run.  Racks whose update
        counter stays below the recompute threshold are folded with a
        zero-padded row-cumsum (trailing ``+ 0.0`` adds are exact);
        racks that cross it replay the scalar trigger sequence against
        a snapshot of their row range, reproducing the drift guard's
        exact re-sum at the exact same update count.
        """
        slots = self.rack_slot[fidx]
        m = slots.size
        starts = np.flatnonzero(np.r_[True, slots[1:] != slots[:-1]])
        counts = np.diff(np.r_[starts, m])
        gslots = slots[starts]
        newu = self.rack_updates[gslots] + counts
        trig = newu >= self.rack_recompute[gslots]
        quiet = ~trig
        if quiet.any():
            rows = np.flatnonzero(quiet)
            width = int(counts[rows].max())
            mat = np.zeros((rows.size, width + 1))
            mat[:, 0] = self.rack_power[gslots[rows]]
            grp = np.repeat(np.arange(gslots.size), counts)
            col = np.arange(m) - np.repeat(starts, counts) + 1
            keep = quiet[grp]
            rowmap = np.cumsum(quiet) - 1
            mat[rowmap[grp[keep]], col[keep]] = deltas[keep]
            self.rack_power[gslots[rows]] = np.cumsum(mat, axis=1)[:, -1]
            self.rack_updates[gslots[rows]] = newu[rows]
        if trig.any():
            for g in np.flatnonzero(trig).tolist():
                slot = int(gslots[g])
                s, c = int(starts[g]), int(counts[g])
                self._replay_rack_trigger(slot, fidx[s:s + c],
                                          old[s:s + c], deltas[s:s + c])

    def _replay_rack_trigger(self, slot: int, gidx: np.ndarray,
                             gold: np.ndarray, gd: np.ndarray) -> None:
        total = float(self.rack_power[slot])
        updates = int(self.rack_updates[slot])
        every = int(self.rack_recompute[slot])
        lo, hi = int(self.rack_lo[slot]), int(self.rack_hi[slot])
        c = gd.size
        j = 0
        while j < c:
            k = every - updates
            if c - j < k:
                for d in gd[j:c].tolist():
                    total += d
                updates += c - j
                break
            for d in gd[j:j + k - 1].tolist():
                total += d
            pos = j + k - 1
            snap = self.power[lo:hi].copy()
            snap[gidx[pos + 1:] - lo] = gold[pos + 1:]
            total = float(np.cumsum(snap)[-1])
            updates = 0
            j = pos + 1
        self.rack_power[slot] = total
        self.rack_updates[slot] = updates

    # ------------------------------------------------------------------
    # Read-only fleet scans (exact regardless of wiring)
    # ------------------------------------------------------------------
    def committed_count(self) -> int:
        """Servers committed to serving: ACTIVE | BOOTING | WAKING."""
        code = self.state_code
        return int(np.count_nonzero((code == C_ACTIVE)
                                    | (code == C_BOOTING)
                                    | (code == C_WAKING)))

    def pick_startable(self, quarantined=None):
        """First SLEEPING (else first OFF) server, in pool order,
        skipping quarantined zones — the On/Off scan, vectorized."""
        picked = self.pick_startable_many(quarantined, 1)
        return picked[0] if picked else None

    def pick_startable_many(self, quarantined, count: int) -> list:
        """The first ``count`` startable servers, SLEEPING before OFF.

        One scan equals ``count`` repeated :meth:`pick_startable`
        calls because starting a server only removes *it* from the
        candidate pool.
        """
        if count <= 0:
            return []
        code = self.state_code
        eligible = None
        if quarantined:
            qids = [self._zone_ids[z] for z in quarantined
                    if z in self._zone_ids]
            if qids:
                eligible = ~np.isin(self.zone_id, qids)
        picked: list = []
        for target in (C_SLEEPING, C_OFF):
            mask = code == target
            if eligible is not None:
                mask &= eligible
            hits = np.flatnonzero(mask)[:count - len(picked)]
            picked.extend(self.objs[hits].tolist())
            if len(picked) >= count:
                break
        return picked

    def total_demand_w(self) -> float | None:
        """Uncapped fleet demand (the capper input), or ``None`` when
        the fleet has unclaimed rows (callers fall back to the scalar
        fold).  Mixed tables and non-linear models evaluate through
        the grouped kernel — no scalar fallback."""
        tracer = self.env.tracer
        if self.n_claimed != self.n:
            if tracer is not None:
                tracer.count("fleet.demand_scalar_fallback")
            return None
        if tracer is not None:
            tracer.count("fleet.demand_vector")
        code = self.state_code
        demand = self.off_w.copy()          # OFF and FAILED rows
        mask = (code == C_BOOTING) | (code == C_WAKING)
        demand[mask] = self.boot_w[mask]
        mask = code == C_SLEEPING
        demand[mask] = self.sleep_w[mask]
        active = np.flatnonzero(code == C_ACTIVE)
        if active.size:
            # ``flatnonzero`` rows are ascending and unique, so a
            # full-coverage active set IS ``arange(n)``: slice views
            # replace every per-column gather (uniform-linear fleets
            # only — the grouped kernel masks by fancy index).
            rows = (slice(None)
                    if (active.size == code.size
                        and self.uniform_linear) else active)
            p = self.pstate[rows]
            cap0 = self.capacity[rows] * self._cap_fractions(
                rows, p, 0)
            demand[rows] = self._active_power(
                rows, self.offered[rows], cap0, p, 0)
        return float(np.cumsum(demand)[-1])

    def uncap_candidates(self) -> np.ndarray:
        """Rows where ``remove_cap()`` is not a no-op, in pool order."""
        return np.flatnonzero(~np.isnan(self.cap_w) | (self.tstate != 0))

    # ------------------------------------------------------------------
    # Fused boot storm
    # ------------------------------------------------------------------
    def boot_many(self, servers) -> "object | None":
        """Boot a batch of OFF servers in one fused storm.

        Replays exactly what ``server.power_on()`` per server would do
        — the same state-log entries, EnergyMeter folds, rack
        running-sum delta folds (drift guard included) and transition
        guard — but with the per-server work in column operations and
        one shared timer process instead of one process per server.
        Built for the bring-up storm in ``CoSimulation.__init__``,
        where tens of thousands of scalar OFF→BOOTING→ACTIVE walks
        dominate construction time.

        Preconditions (else returns ``None`` and the caller falls back
        to scalar ``power_on`` calls, which are always correct): every
        server is a view on this fleet and currently OFF, rows are in
        ascending pool order, boot times are uniform, per-row capacity
        at the current P/T-state is positive, and each server's only
        watcher is its rack aggregate — true during plant bring-up,
        before any farm/balancer aggregate attaches.  Returns the
        shared transition event (servers' ``_transition`` points at
        it, so a mid-boot ``power_on()`` still returns a live event).
        """
        if not servers:
            return None
        rack_aggs = self.rack_aggs
        rack_slot = self.rack_slot
        rows_list = []
        boot_s = None
        prev = -1
        for s in servers:
            if getattr(s, "_fleet", None) is not self:
                return None
            i = s._idx
            if (i <= prev or self.state_code[i] != C_OFF
                    or s._transition is not None):
                return None
            watchers = s._watchers
            slot = rack_slot[i]
            if (slot < 0 or len(watchers) != 1
                    or watchers[0] is not rack_aggs[slot]):
                return None
            if boot_s is None:
                boot_s = s.boot_s
            elif s.boot_s != boot_s:
                return None
            rows_list.append(i)
            prev = i
        rows = np.asarray(rows_list, dtype=np.int64)
        p = self.pstate[rows]
        t = self.tstate[rows]
        eff = self.capacity[rows] * self._cap_fractions(rows, p, t)
        if not (eff > 0.0).all():
            return None

        env = self.env
        now = env.now
        booting = _STATES[C_BOOTING]
        for s in servers:
            s.state_log.append((now, booting))
        self.state_code[rows] = C_BOOTING
        self.mutation_epoch += 1
        for slot in np.unique(rack_slot[rows]).tolist():
            # FleetAggregate.state_changed on OFF→BOOTING only drops
            # the roster cache (the active count is untouched).
            rack_aggs[slot]._active_cache = None
        # The scalar power funnel: flush the held EnergyMeter segment
        # at the old power, then publish the new sample and fold the
        # deltas into the rack running sums.
        self.eff_cap[rows] = 0.0
        oldp = self.power[rows].copy()
        self.energy_j[rows] += oldp * (now - self.t_last[rows])
        self.t_last[rows] = now
        newp = self.boot_w[rows].copy()
        self.power[rows] = newp
        changed = newp != oldp
        if changed.any():
            fidx = rows[changed]
            old = oldp[changed]
            self._fold_rack_deltas(fidx, old, newp[changed] - old)

        fleet = self
        active = _STATES[C_ACTIVE]

        def body(env):
            yield env.timeout(boot_s)
            t1 = env.now
            # Same guard as the scalar transition body: only rows
            # still BOOTING complete; anything preempted (e.g. a
            # protective fail) keeps its new state.
            still = fleet.state_code[rows] == C_BOOTING
            brows = rows[still]
            objs = fleet.objs[brows]
            rewired = any(
                len(s._watchers) != 1
                or s._watchers[0] is not rack_aggs[rack_slot[s._idx]]
                for s in objs)
            if rewired:
                # A watcher attached mid-boot: replay the scalar walk,
                # which notifies whatever is wired now.
                for s in objs:
                    s._set_state(active)
                    s._transition = None
                for s in servers:
                    if s._transition is proc:
                        s._transition = None
                return
            if brows.size:
                for s in objs:
                    s.state_log.append((t1, active))
                fleet.state_code[brows] = C_ACTIVE
                fleet.mutation_epoch += 1
                slots = rack_slot[brows]
                for slot in np.unique(slots).tolist():
                    agg = rack_aggs[slot]
                    agg._active_cache = None
                np.add.at(fleet.rack_active, slots, 1)
                bp = fleet.pstate[brows]
                bt = fleet.tstate[brows]
                beff = (fleet.capacity[brows]
                        * fleet._cap_fractions(brows, bp, bt))
                oldp = fleet.power[brows].copy()
                fleet.energy_j[brows] += oldp * (t1 - fleet.t_last[brows])
                fleet.t_last[brows] = t1
                fleet.eff_cap[brows] = beff
                newp = fleet._active_power(brows, fleet.offered[brows],
                                           beff, bp, bt)
                fleet.power[brows] = newp
                changed = newp != oldp
                if changed.any():
                    fidx = brows[changed]
                    old = oldp[changed]
                    fleet._fold_rack_deltas(fidx, old,
                                            newp[changed] - old)
            for s in servers:
                if s._transition is proc:
                    s._transition = None

        proc = env.process(body(env), name="fleet:boot_many")
        for s in servers:
            s._transition = proc
        return proc

    def __repr__(self) -> str:
        return (f"<VectorFleet n={self.n} claimed={self.n_claimed} "
                f"racks={self.n_racks} uniform_linear={self.uniform_linear}>")


def _column_property(column: str, doc: str, tracked: bool = False):
    """Float column accessor: plain-float reads, direct writes.

    ``tracked`` columns are dispatch inputs: their setters bump the
    fleet's :attr:`~VectorFleet.mutation_epoch` so the farm
    aggregate's memos invalidate.
    """

    def fget(self):
        return float(getattr(self._fleet, column)[self._idx])

    if tracked:
        def fset(self, value):
            fleet = self._fleet
            getattr(fleet, column)[self._idx] = value
            fleet.mutation_epoch += 1
    else:
        def fset(self, value):
            getattr(self._fleet, column)[self._idx] = value

    return property(fget, fset, doc=doc)


def _int_column_property(column: str, doc: str, tracked: bool = False):
    def fget(self):
        return int(getattr(self._fleet, column)[self._idx])

    if tracked:
        def fset(self, value):
            fleet = self._fleet
            getattr(fleet, column)[self._idx] = value
            fleet.mutation_epoch += 1
    else:
        def fset(self, value):
            getattr(self._fleet, column)[self._idx] = value

    return property(fget, fset, doc=doc)


class VectorServer(Server):
    """A :class:`Server` whose hot state lives in fleet columns.

    Everything behavioural is inherited; the class-level properties
    below redirect reads and writes of the hot attributes into the
    owning :class:`VectorFleet`'s arrays, so scalar code paths stay
    bit-identical while batch kernels see every server's state
    contiguously.
    """

    def __init__(self, fleet: VectorFleet, env: Environment, name: str,
                 **kwargs):
        self._fleet = fleet
        self._idx = fleet._claim(self)
        super().__init__(env, name, **kwargs)
        fleet._install_model(self._idx, self.model)
        # Wrap the watcher list so rewiring invalidates batch caches.
        self._watchers = _WatcherList(self._watchers, fleet)

    def _make_power_monitor(self):
        return EnergyMeter(self._fleet, self._idx,
                           name=f"{self.name}.power_w")

    # -- lifecycle state (code column <-> enum singletons) -------------
    @property
    def _state(self) -> ServerState:
        return _STATES[self._fleet.state_code[self._idx]]

    @_state.setter
    def _state(self, value: ServerState) -> None:
        fleet = self._fleet
        fleet.state_code[self._idx] = _STATE_TO_CODE[value]
        fleet.mutation_epoch += 1

    # -- cap (NaN column <-> None) --------------------------------------
    @property
    def _cap_w(self) -> float | None:
        value = self._fleet.cap_w[self._idx]
        return None if np.isnan(value) else float(value)

    @_cap_w.setter
    def _cap_w(self, value: float | None) -> None:
        self._fleet.cap_w[self._idx] = (np.nan if value is None
                                        else value)
        self._fleet.mutation_epoch += 1

    # -- thermal zone (interned name <-> id column) ---------------------
    @property
    def zone(self) -> str | None:
        zid = self._fleet.zone_id[self._idx]
        return None if zid < 0 else self._fleet.zone_names[zid]

    @zone.setter
    def zone(self, name: str | None) -> None:
        self._fleet.zone_id[self._idx] = self._fleet._zone_code(name)

    # -- plain float / int columns --------------------------------------
    _offered_load = _column_property("offered", "Offered load column.",
                                     tracked=True)
    _power_w = _column_property("power", "Cached wall-power column.")
    _eff_cap = _column_property("eff_cap", "Effective-capacity column.",
                                tracked=True)
    capacity = _column_property("capacity", "P0 capacity column.",
                                tracked=True)
    sleep_w = _column_property("sleep_w", "Sleep-draw column.")
    _pstate = _int_column_property("pstate", "P-state column.",
                                   tracked=True)
    _tstate = _int_column_property("tstate", "T-state column.",
                                   tracked=True)
