"""Zero-copy shard fabric: seqlock lanes in shared memory.

The sharded plant and the federation exchange tiny fixed-dtype
payloads every macro period — a demand-share vector down, a capacity
or telemetry column up.  Pickling those tuples through a
:func:`multiprocessing.Pipe` costs a serialize/copy/deserialize per
period per worker; at 10⁵–10⁶ servers the exchange happens thousands
of times per simulated day.  This module gives each worker group one
:mod:`multiprocessing.shared_memory` block of named float64 *lanes*
so both sides write and read the columns in place, and the pipe
carries only control tokens (``advance`` / ``ok`` / ``error``) plus
everything that must stay replayable (the checkpoint log, crash
reports, the final result pickle).  The fabric is the only worker
payload path: a driver that cannot create its block raises the
:class:`OSError`, and runs without workers stay in-process and never
touch shared memory.

Seqlock/epoch protocol
----------------------
Each lane owns one int64 sequence word in the block header.  A writer
publishing epoch ``e`` (epochs are 1-based macro-period counters):

1. stores ``2e - 1`` (odd: write in progress),
2. copies the payload into the lane's float64 region,
3. stores ``2e`` (even: epoch ``e`` published).

A reader wanting epoch ``e`` spins (with a deadline) until the word
equals ``2e``, copies the payload out, and re-checks the word; a
changed word means the copy may be torn, so it re-reads.  Epochs are
*absolute*, not incremented from whatever the previous writer left
behind: a respawned worker replaying its log rewrites the same lanes
at the same epochs deterministically, which is exactly what the
federation's restart-and-replay path needs.

In the lockstep drivers the pipe ack already orders writer before
reader, so the seqlock never spins in practice — it is the safety
layer that turns a protocol bug or torn read into a loud
:class:`ShmLaneTimeout` instead of silent corruption.

Lifecycle
---------
The parent creates the block (:meth:`FabricBlock.create`) and is the
*owner*: closing an owner block also unlinks the segment from
``/dev/shm``.  Workers attach by name (:meth:`FabricBlock.attach`)
and deregister from the resource tracker — the parent's registration
is the canonical one, so a worker dying (even by SIGKILL) cannot
leak or prematurely destroy the segment.  ``close`` is idempotent
and also runs from ``__del__`` as a last resort; drivers still close
in ``try/finally`` so KeyboardInterrupt and crash paths unlink
deterministically.
"""

from __future__ import annotations

import time
import typing

import numpy as np

__all__ = [
    "ShmLaneClosed",
    "ShmLaneTimeout",
    "ShmLane",
    "FabricBlock",
]


class ShmLaneClosed(RuntimeError):
    """A lane was used after its fabric block was closed."""


class ShmLaneTimeout(RuntimeError):
    """A lane read did not observe its target epoch within the deadline.

    Either the writer never published (dead worker, protocol bug) or
    every observed copy was torn by a concurrent write — both mean
    the exchanged column cannot be trusted, so the driver's crash
    handling takes over.
    """


class ShmLane:
    """One seqlock-protected float64 column inside a :class:`FabricBlock`.

    Writers normally call :meth:`write`; :meth:`begin_write` /
    :meth:`publish` are exposed separately so tests can hold a lane
    torn open and prove the reader refuses the partial payload.
    """

    __slots__ = ("name", "_seq", "_data")

    def __init__(self, name: str, seq: np.ndarray, data: np.ndarray):
        self.name = name
        self._seq = seq
        self._data = data

    @property
    def size(self) -> int:
        """Number of float64 slots in the lane."""
        return self._views()[1].shape[0]

    def _views(self) -> tuple[np.ndarray, np.ndarray]:
        if self._seq is None:
            raise ShmLaneClosed(
                f"lane {self.name!r} used after its block was closed")
        return self._seq, self._data

    def begin_write(self, epoch: int) -> None:
        """Mark epoch ``epoch`` as write-in-progress (odd seq word)."""
        seq, _ = self._views()
        seq[0] = 2 * epoch - 1

    def publish(self, epoch: int) -> None:
        """Mark epoch ``epoch`` as published (even seq word)."""
        seq, _ = self._views()
        seq[0] = 2 * epoch

    def write(self, epoch: int, values) -> None:
        """Publish ``values`` as epoch ``epoch`` under the seqlock."""
        seq, data = self._views()
        seq[0] = 2 * epoch - 1
        data[:] = values
        seq[0] = 2 * epoch

    def read(self, epoch: int, deadline_s: float = 30.0) -> np.ndarray:
        """A stable copy of epoch ``epoch``'s payload.

        Spins until the sequence word equals ``2 * epoch`` both before
        and after the copy (otherwise the copy may interleave with a
        write and is discarded).  Raises :class:`ShmLaneTimeout` after
        ``deadline_s`` wall seconds.
        """
        seq, data = self._views()
        target = 2 * epoch
        deadline = time.monotonic() + float(deadline_s)
        while True:
            if int(seq[0]) == target:
                out = data.copy()
                if int(seq[0]) == target:
                    return out
            if time.monotonic() >= deadline:
                # Clear the array locals before raising: the traceback
                # keeps this frame alive, and a lingering view would
                # make the block's close() fail with "cannot close
                # exported pointers exist".
                observed = int(seq[0])
                seq = data = out = None
                raise ShmLaneTimeout(
                    f"lane {self.name!r}: epoch {epoch} not published "
                    f"within {deadline_s:.0f}s (seq={observed}, "
                    f"want {target})")
            time.sleep(0.0005)

    def _drop(self) -> None:
        """Release the numpy views so the block's buffer can close."""
        self._seq = None
        self._data = None


class FabricBlock:
    """One shared-memory block holding named seqlock lanes.

    Layout: one int64 sequence word per lane (in declaration order),
    then each lane's float64 payload region, concatenated.  Both
    sides build the same views from the same ``layout`` — a sequence
    of ``(lane name, float64 count)`` pairs — so no lengths or
    offsets ever cross the pipe.
    """

    __slots__ = ("name", "_shm", "_lanes", "_owner", "_closed",
                 "__weakref__")

    def __init__(self, shm, layout: typing.Sequence[tuple[str, int]],
                 owner: bool):
        self._shm = shm
        self.name = shm.name
        self._owner = bool(owner)
        self._closed = False
        self._lanes: dict[str, ShmLane] = {}
        n_lanes = len(layout)
        seq_words = np.frombuffer(shm.buf, dtype=np.int64,
                                  count=n_lanes, offset=0)
        offset = n_lanes * 8
        for k, (lane_name, count) in enumerate(layout):
            data = np.frombuffer(shm.buf, dtype=np.float64,
                                 count=int(count), offset=offset)
            self._lanes[lane_name] = ShmLane(
                lane_name, seq_words[k:k + 1], data)
            offset += int(count) * 8

    @staticmethod
    def _nbytes(layout: typing.Sequence[tuple[str, int]]) -> int:
        return (len(layout) + sum(int(c) for _, c in layout)) * 8

    @classmethod
    def create(cls, layout: typing.Sequence[tuple[str, int]]
               ) -> "FabricBlock":
        """Allocate and zero a new block; the caller becomes owner."""
        from multiprocessing import shared_memory
        shm = shared_memory.SharedMemory(
            create=True, size=max(8, cls._nbytes(layout)))
        block = cls(shm, layout, owner=True)
        for lane in block._lanes.values():
            lane._seq[0] = 0  # no epoch published yet
        return block

    @classmethod
    def attach(cls, name: str,
               layout: typing.Sequence[tuple[str, int]]) -> "FabricBlock":
        """Attach to an existing block by name (worker side).

        Under the ``fork`` start method (this repo's workers) the
        resource-tracker daemon is shared with the parent, so the
        attach-time registration is a set no-op and the owner's
        ``unlink`` clears it exactly once.  Under ``spawn`` the child
        has its *own* tracker, whose registration would unlink the
        segment when the child exits first — deregister there, the
        parent's registration is the canonical one.
        """
        import multiprocessing
        from multiprocessing import shared_memory
        shm = shared_memory.SharedMemory(name=name)
        if multiprocessing.get_start_method(allow_none=True) == "spawn":
            try:  # pragma: no cover - fork is the default here
                from multiprocessing import resource_tracker
                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:
                pass
        return cls(shm, layout, owner=False)

    def lane(self, name: str) -> ShmLane:
        return self._lanes[name]

    def close(self) -> None:
        """Release the mapping; owners also unlink the segment.

        Idempotent.  Every lane is dropped first (reuse afterwards
        raises :class:`ShmLaneClosed`), releasing the buffer exports
        so ``SharedMemory.close`` can unmap.
        """
        if self._closed:
            return
        self._closed = True
        for lane in self._lanes.values():
            lane._drop()
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - stray external view
            # Someone still holds a view (e.g. an exception traceback
            # pinning a frame).  The mapping then lives until process
            # exit — but the unlink below must still happen, or the
            # owner leaks the segment in /dev/shm.
            pass
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __del__(self):  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

    def __enter__(self) -> "FabricBlock":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
