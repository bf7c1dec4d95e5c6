"""Spans around the simulator's public layer entry points.

The benchmark measures each layer from outside the program: it
replaces a handful of public functions with wrappers that record a
span (layer, start, end, parent) into in-memory columns, and folds
the columns into per-layer totals only when the process is done.  A
span's self time is its duration minus the durations of its direct
children, so ``sim.kernel.self_s`` is ``Environment.run`` minus every
wrapped layer called beneath it.

Nothing here edits ``src/``: :func:`install` patches class and module
attributes in the running process only.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

#: (layer, module, attribute, busy metric suffix).  Every entry yields
#: ``<layer>.<suffix>`` and ``<layer>.calls``; the end-to-end metric
#: each one should move is tabulated in ``perfbench/README.md``.
#: ``ShmLane.read`` on the driver is where it waits for a worker's
#: published epoch, hence ``wait_s``.
LAYERS = (
    ("sim.kernel", "repro.sim.kernel", "Environment.run", "busy_s"),
    ("datacenter.spec.build", "repro.datacenter.spec",
     "DataCenterSpec.build", "busy_s"),
    ("fleet.boot_many", "repro.fleet.plant", "VectorFleet.boot_many",
     "busy_s"),
    ("control.farm.step", "repro.control.farm", "ServerFarm.step",
     "busy_s"),
    ("core.manager.decide", "repro.core.manager",
     "MacroResourceManager.decide", "busy_s"),
    ("power.capper.evaluate", "repro.power.capping",
     "PowerCapper.evaluate", "busy_s"),
    ("cooling.room.step_once", "repro.cooling.room",
     "MachineRoom.step_once", "busy_s"),
    ("datacenter.sync_physical", "repro.datacenter.spec",
     "DataCenter.sync_physical", "busy_s"),
    ("controlplane.publish_physical", "repro.controlplane.plane",
     "ControlPlane.publish_physical", "busy_s"),
    ("sim.monitor.record", "repro.sim.monitor", "Monitor.record",
     "busy_s"),
    ("sim.monitor.integral", "repro.sim.monitor", "Monitor.integral",
     "busy_s"),
    ("serve.session.advance", "repro.serve.session",
     "SimSession.advance", "busy_s"),
    ("serve.session.telemetry", "repro.serve.session",
     "SimSession.telemetry", "busy_s"),
    ("serve.session.submit", "repro.serve.session",
     "SimSession.submit", "busy_s"),
    ("serve.protocol.encode", "repro.serve.protocol", "encode",
     "busy_s"),
    ("serve.protocol.decode_line", "repro.serve.protocol",
     "decode_line", "busy_s"),
    # The sharded lockstep.  ``sharded.advance`` is one group's period
    # as the driver sees it: shares written, the pipe's "ok" awaited
    # (the barrier), capacities read.
    ("sharded.advance", "repro.datacenter.sharded",
     "_ShardWorkerHandle.advance", "busy_s"),
    ("shm.lane.read", "repro.datacenter.shm", "ShmLane.read", "wait_s"),
    ("shm.lane.write", "repro.datacenter.shm", "ShmLane.write",
     "busy_s"),
)

#: The wrapper whose own cost is reported apart from the others: it
#: fires on every monitor sample, far more often than any other layer.
HOT_LAYER = "sim.monitor.record"


class SpanLog:
    """In-memory span columns plus the farms seen, for switch counts."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.farms: list = []

    def clear(self) -> None:
        """Drop every span and farm seen so far; the wrappers stay."""
        for column in (self.layer, self.parent, self.start, self.end):
            del column[:]
        self._open = [-1]
        self.farms = []

    def wrap(self, layer: str, fn):
        """``fn`` recording one span per call under ``layer``."""
        layer_id = self._ids.setdefault(layer, len(self._ids))
        log = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(log.start)
            log.layer.append(layer_id)
            log.parent.append(log._open[-1])
            log.start.append(clock())
            log.end.append(0.0)
            log._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                log._open.pop()
                log.end[index] = clock()

        return traced

    def totals(self) -> dict:
        """Per-layer ``busy_s``/``self_s``/``calls`` plus farm switches.

        ``layer`` ids are recovered from :meth:`wrap` registrations, so
        only layers that were installed appear.
        """
        names = {i: name for name, i in self._ids.items()}
        out: dict = {}
        if len(self.start):
            layer = np.frombuffer(self.layer, dtype=np.int32)
            parent = np.frombuffer(self.parent, dtype=np.int32)
            dur = (np.frombuffer(self.end, dtype=np.float64)
                   - np.frombuffer(self.start, dtype=np.float64))
            nested = parent >= 0
            children = np.bincount(parent[nested], weights=dur[nested],
                                   minlength=len(dur))
            own = dur - children
            n = len(names)
            busy = np.bincount(layer, weights=dur, minlength=n)
            self_s = np.bincount(layer, weights=own, minlength=n)
            calls = np.bincount(layer, minlength=n)
            for i, name in names.items():
                out[name] = {"busy_s": float(busy[i]),
                             "self_s": float(self_s[i]),
                             "calls": int(calls[i])}
        out["control.farm.switches"] = sum(
            farm.active_count_switches() for farm in self.farms)
        return out


def merge(totals: list[dict]) -> dict:
    """Sum several processes' :meth:`SpanLog.totals`."""
    out: dict = {}
    for part in totals:
        for name, value in part.items():
            if isinstance(value, dict):
                into = out.setdefault(name, dict.fromkeys(value, 0))
                for key, amount in value.items():
                    into[key] += amount
            else:
                out[name] = out.get(name, 0) + value
    return out


def _resolve(module: str, attribute: str):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def install(log: SpanLog, skip: tuple[str, ...] = ()) -> None:
    """Wrap every layer in :data:`LAYERS` except ``skip``.

    Also records each :class:`~repro.control.farm.ServerFarm` built
    afterwards, so :meth:`SpanLog.totals` can count its active-count
    switches.
    """
    for layer, module, attribute, _ in LAYERS:
        if layer in skip:
            continue
        owner, name = _resolve(module, attribute)
        setattr(owner, name, log.wrap(layer, getattr(owner, name)))

    from repro.control.farm import ServerFarm
    init = ServerFarm.__init__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        log.farms.append(self)

    ServerFarm.__init__ = tracked_init

