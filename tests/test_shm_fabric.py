"""Zero-copy shard fabric: seqlock safety, lifecycle, transport parity.

Three contracts under test:

* the seqlock/epoch protocol never hands a reader a torn or stale
  payload — it either returns the published epoch's bytes or raises
  :class:`ShmLaneTimeout`, and a closed block turns further lane use
  into :class:`ShmLaneClosed`;
* the segment lifecycle is leak-free: every run (clean finish,
  SIGKILLed worker, interrupted parent) leaves ``/dev/shm`` exactly
  as it found it, because the parent owns the one canonical
  registration;
* the transport is invisible in the results: sharded and federated
  runs are bit-identical across ``local`` / ``shm`` / ``pipe``
  (``REPRO_NO_SHM=1``), including the federation's SIGKILL
  restart-and-replay path and warm :class:`ShardWorkerPool` reuse.
"""

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
    NO_SHM_ENV,
    FabricBlock,
    ShmLaneClosed,
    ShmLaneTimeout,
    shm_available,
)

SHM_DIR = pathlib.Path("/dev/shm")


def _shm_names() -> set[str]:
    if not SHM_DIR.is_dir():  # pragma: no cover - non-tmpfs platform
        return set()
    return {p.name for p in SHM_DIR.iterdir()}


@pytest.fixture()
def leak_check():
    """Assert the test leaves /dev/shm exactly as it found it."""
    before = _shm_names()
    yield
    assert _shm_names() == before


def _spec(**overrides):
    base = dict(racks=8, servers_per_rack=10, zones=4, cracs=2)
    base.update(overrides)
    return DataCenterSpec(**base)


DEMAND = {"kind": "diurnal", "fraction": 0.6}


class TestShmAvailable:
    def test_default_is_available(self, monkeypatch):
        monkeypatch.delenv(NO_SHM_ENV, raising=False)
        assert shm_available()

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv(NO_SHM_ENV, "1")
        assert not shm_available()
        monkeypatch.setenv(NO_SHM_ENV, "0")
        assert shm_available()
        monkeypatch.setenv(NO_SHM_ENV, "")
        assert shm_available()


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
            True, recv_deadline_s=30.0, fabric=fabric)
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


class TestTransportParity:
    def test_sharded_shm_and_pipe_match_local(self, monkeypatch,
                                              leak_check):
        spec = _spec()
        monkeypatch.delenv(NO_SHM_ENV, raising=False)
        local = ShardedCoSimulation(spec, DEMAND, shards=2, workers=1)
        ref = local.run(2 * 3600.0)
        assert local.transport == "local"

        shm = ShardedCoSimulation(spec, DEMAND, shards=2, workers=2)
        assert shm.run(2 * 3600.0) == ref
        assert shm.transport == "shm"

        monkeypatch.setenv(NO_SHM_ENV, "1")
        pipe = ShardedCoSimulation(spec, DEMAND, shards=2, workers=2)
        assert pipe.run(2 * 3600.0) == ref
        assert pipe.transport == "pipe"

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

    def _federation(self, **kwargs):
        from repro.federation import (
            FederatedCoSimulation,
            FederationSite,
            Region,
            SiteConfig,
            SiteMeta,
        )

        sites = [FederationSite(
            config=SiteConfig(
                name=f"dc{i}",
                spec=_spec(name=f"dc{i}", racks=2, servers_per_rack=4,
                           zones=2, cracs=1)),
            meta=SiteMeta(name=f"dc{i}", energy_price_per_kwh=0.10,
                          static_pue=1.5)) for i in range(2)]
        regions = [Region(name=f"r{i}", home=f"dc{i}",
                          peak_units=0.45 * 800.0, utc_offset_h=8.0 * i,
                          latency_ms={"dc0": 20.0, "dc1": 40.0})
                   for i in range(2)]
        return FederatedCoSimulation(sites, regions, **kwargs)

    def test_federated_shm_and_pipe_match_local(self, monkeypatch,
                                                leak_check):
        monkeypatch.delenv(NO_SHM_ENV, raising=False)
        local = self._federation()
        ref = local.run(2 * 3600.0)
        assert local.transport == "local"

        shm = self._federation(workers=True)
        assert shm.run(2 * 3600.0) == ref
        assert shm.transport == "shm"

        monkeypatch.setenv(NO_SHM_ENV, "1")
        pipe = self._federation(workers=True)
        assert pipe.run(2 * 3600.0) == ref
        assert pipe.transport == "pipe"

    @pytest.mark.parametrize("no_shm", ["0", "1"])
    def test_chaos_kill_replays_on_both_transports(self, monkeypatch,
                                                   no_shm, leak_check):
        # SIGKILL a site worker mid-run: restart-and-replay must
        # reproduce the uninterrupted result on the shm transport
        # (fresh fabric per spawn, epochs renumber from 1) exactly as
        # it does on the pipe fallback.
        monkeypatch.setenv(NO_SHM_ENV, no_shm)
        ref = self._federation().run(2 * 3600.0)
        fed = self._federation(workers=True, chaos_kill={"dc1": 3})
        assert fed.run(2 * 3600.0) == ref
        assert fed.transport == ("pipe" if no_shm == "1" else "shm")
        assert fed.recoveries["dc1"] == 1
