"""One repetition of one benchmark workload, in its own process.

``python3 perfbench/workloads.py <workload> <seed> <mode> <tmpdir>``
builds the workload's inputs from the seed, times set-up and the
fixed simulated horizon, checks the simulated outputs' invariants and
prints one JSON line.  ``mode`` is ``off`` (no spans: the end-to-end
numbers), ``full`` (every layer wrapped), ``norecord`` (every layer
but ``sim.monitor.record``, so that wrapper's own cost shows apart)
or ``reference`` (the result the workload must reproduce bit for bit:
``loadgen.golden_run`` for ``served-crowd``, the in-process
``workers=1`` run for ``sharded-day``).

Each repetition runs in a fresh interpreter so its peak RSS is its
own and no allocator or cache state leaks from one into the next.
"""

from __future__ import annotations

import collections
import hashlib
import json
import math
import os
import selectors
import signal
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402

DAY_S = 86_400.0
#: Served workload: sessions in the crowd and sim-days it covers.
SESSIONS = 2_000_000
SERVE_DAYS = 2.0
#: How far ahead of its landing tick, in simulated seconds, the
#: open-loop sender submits each mutation.
LEAD_S = 3_600.0
STREAMS = ("power", "pue", "served", "health")
#: sharded-day: ``bench_spec(20000, "vector")`` as zone shards over
#: worker processes.
SHARDS = 2
SHARD_WORKERS = 2
#: The manager decides, and the shards exchange, every 300 s.
PERIODS_PER_HOUR = 12


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set of ``pid`` in MB, from ``/proc``."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def digest(fingerprint: str) -> str:
    return hashlib.sha256(fingerprint.encode()).hexdigest()


def invariant_failures(served: float, it_j: float, facility_j: float,
                       pue: float) -> list[str]:
    """Physical/accounting invariants any seed must satisfy."""
    bad = []
    if not 0.0 <= served <= 1.0:
        bad.append(f"served fraction {served} outside [0, 1]")
    if not it_j <= facility_j:
        bad.append(f"IT energy {it_j} J exceeds facility {facility_j} J")
    if not pue >= 1.0:
        bad.append(f"PUE {pue} below 1")
    return bad


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=float), q))


def ack_percentiles(waits_ms: list[float]) -> dict:
    """This repetition's ``ack_p50_ms`` and ``ack_p95_ms``.

    A run reports their medians over repetitions: pooling every
    repetition's samples instead let one stalled repetition own the
    pooled tail.
    """
    return {"ack_p50_ms": percentile(waits_ms, 50),
            "ack_p95_ms": percentile(waits_ms, 95)}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def diurnal_demand(spec, seed: int):
    """Minute-resolution Messenger-like demand for one day.

    ``MessengerTraceGenerator(seed=seed)`` with its default flash-crowd
    rate; every repetition of a run simulates the same day.  The trace
    is scaled so its noise-free, crowd-free shape peaks at 70 % of
    capacity; noise and flash crowds ride on top (clipped at
    capacity).  Scaling by the deterministic shape rather than by the
    seeded trace's own peak keeps the offered work, and so the cost of
    a run, from swinging with whether a seed drew a crowd.
    """
    import numpy as np

    from repro.workload import MessengerTraceGenerator

    capacity = spec.total_servers * spec.server_capacity
    trace = MessengerTraceGenerator(seed=seed).generate(DAY_S, 60.0)
    shape = MessengerTraceGenerator(
        noise_sigma=0.0, flash_crowds_per_week=0.0).generate(DAY_S, 60.0)
    scale = 0.7 * capacity / shape.connections.max()
    values = np.minimum(trace.connections * scale, capacity).tolist()
    last = len(values) - 1
    return lambda t: values[min(int(t // 60.0), last)]


# ----------------------------------------------------------------------
# diurnal-day and sharded-day
# ----------------------------------------------------------------------
def _install(mode: str):
    if mode not in ("full", "norecord"):
        return None
    log = spans.SpanLog()
    spans.install(log, skip=(spans.HOT_LAYER,) if mode == "norecord"
                  else ())
    return log


def _hours_ms(stamps: list[float], end: float) -> list[float]:
    """Host ms per simulated hour, from macro-period start stamps.

    Single periods fall in a cheap and a dear cluster, so the median of
    periods jumps between the two from run to run; hours do not.
    """
    bounds = stamps[::PERIODS_PER_HOUR] + [end]
    return [1e3 * (b - a) for a, b in zip(bounds, bounds[1:])]


def diurnal_rep(seed: int, mode: str) -> dict:
    """A managed 5,000-server day on the seed's Messenger demand."""
    log = _install(mode)
    from repro.core.manager import MacroResourceManager
    from repro.datacenter import CoSimulation
    from repro.perf.bench import bench_spec

    # Host time at the start of each macro period (manager decision).
    stamps: list[float] = []
    decide = MacroResourceManager.decide

    def stamped(self):
        stamps.append(time.perf_counter())
        return decide(self)

    MacroResourceManager.decide = stamped

    demand_fn = diurnal_demand(bench_spec(5_000, "vector"), seed)
    t0 = time.perf_counter()
    sim = CoSimulation(bench_spec(5_000, "vector"), demand_fn,
                       managed=True)
    t1 = time.perf_counter()
    result = sim.run(DAY_S)
    t2 = time.perf_counter()

    return _day_out(log, t0, t1, t2, vm_hwm_mb(), stamps, result)


def _day_out(log, t0: float, t1: float, t2: float, rss_mb: float,
             stamps: list[float], result) -> dict:
    """Set-up ``t0..t1``, the simulated day ``t1..t2``, and checks."""
    from repro.serve.protocol import result_fingerprint

    out = {
        "setup_s": t1 - t0,
        "run_s": t2 - t1,
        "peak_rss_mb": rss_mb,
        **ack_percentiles(_hours_ms(stamps, t2)),
        "fingerprint": digest(result_fingerprint(result)),
        "attempted": 1,
        "failures": invariant_failures(result.sla.served_fraction,
                                       result.it_energy_j,
                                       result.facility_energy_j,
                                       result.energy_weighted_pue),
    }
    if log is not None:
        out["spans"] = log.totals()
    return out


def _sharded(workers: int):
    from repro.datacenter import ShardedCoSimulation
    from repro.perf.bench import bench_spec

    return ShardedCoSimulation(bench_spec(20_000, "vector"),
                               {"kind": "constant", "fraction": 0.5},
                               shards=SHARDS, workers=workers)


def _worker_spans(log: spans.SpanLog, tmp: str) -> None:
    """Have each forked shard worker write its own span totals.

    Workers inherit the wrappers and the driver's log; each drops the
    driver's spans when it starts and writes its totals to ``tmp``
    once its shards have summarised.
    """
    from multiprocessing.util import register_after_fork

    from repro.datacenter.sharded import _ShardGroup

    register_after_fork(log, spans.SpanLog.clear)
    finish = _ShardGroup.finish

    def dumped(self):
        out = finish(self)
        path = os.path.join(tmp, f"worker-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump(log.totals(), fh)
        return out

    _ShardGroup.finish = dumped


def sharded_rep(mode: str, tmp: str) -> dict:
    """A 20k-server day at flat 50 % as zone shards on workers.

    The driver and the workers it forks share one CPU, so within a
    period the two workers take turns rather than run side by side.
    Side by side on a two-CPU host they slowed each other, by a margin
    that came and went with whatever else the host ran: the day took
    longer and its slowest hours spread wider.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    log = _install(mode)
    if log is not None:
        _worker_spans(log, tmp)
    from repro.datacenter import ShardedCoSimulation
    from repro.datacenter.sharded import _ShardWorkerHandle

    # The driver folds the exchanged capacities into demand shares once
    # per macro period, right after every shard reported ready for the
    # first; those stamps split set-up from run and time the periods.
    stamps: list[float] = []
    shares = ShardedCoSimulation._shares

    def stamped(self, caps):
        stamps.append(time.perf_counter())
        return shares(self, caps)

    ShardedCoSimulation._shares = stamped
    # Workers exit once they hand back their result, so their peak RSS
    # is read just before: after the last period, before the summary.
    worker_rss: list[float] = []
    finish = _ShardWorkerHandle.finish

    def sampled(self):
        worker_rss.append(vm_hwm_mb(self.proc.pid))
        return finish(self)

    _ShardWorkerHandle.finish = sampled

    t0 = time.perf_counter()
    sim = _sharded(SHARD_WORKERS)
    result = sim.run(DAY_S)
    t2 = time.perf_counter()
    out = _day_out(log, t0, stamps[0], t2, vm_hwm_mb() + sum(worker_rss),
                   stamps, result)
    out["periods"] = len(stamps)
    if log is not None:
        parts = [out["spans"]]
        for name in sorted(os.listdir(tmp)):
            if name.startswith("worker-"):
                with open(os.path.join(tmp, name)) as fh:
                    parts.append(json.load(fh))
        if len(parts) != 1 + SHARD_WORKERS:
            out["failures"].append(f"{len(parts) - 1} worker span files")
        out["spans"] = spans.merge(parts)
    if sim.transport != "shm":
        out["failures"].append(f"transport {sim.transport}, not shm")
    if len(worker_rss) != SHARD_WORKERS:
        out["failures"].append(f"{len(worker_rss)} workers sampled")
    return out


def sharded_reference() -> dict:
    from repro.serve.protocol import result_fingerprint

    sim = _sharded(1)
    return {"fingerprint": digest(result_fingerprint(sim.run(DAY_S)))}


# ----------------------------------------------------------------------
# served-crowd
# ----------------------------------------------------------------------
def crowd_script(seed: int):
    from repro.serve import ServeScenario
    from repro.serve.loadgen import session_script

    scenario = ServeScenario()
    script, ticks = session_script(scenario, SESSIONS, days=SERVE_DAYS,
                                   seed=seed)
    return scenario, script, ticks


def served_reference(seed: int) -> dict:
    from repro.serve.loadgen import golden_run

    scenario, script, ticks = crowd_script(seed)
    return {"fingerprint": digest(golden_run(scenario, script, ticks))}


class _Conn:
    """One line-framed connection to the daemon.

    ``request`` is a blocking exchange (handshake, result, stats);
    ``drain`` reads once from a socket the selector found readable and
    returns every complete frame, so one thread can serve both
    connections of the open loop without waiting on either.
    ``ServeClient`` reads through a buffered file, and a selector
    cannot see frames already sitting in that buffer.
    """

    def __init__(self, path: str, proc, name: str, deadline: float):
        from repro.serve.protocol import Hello, Welcome

        while True:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                sock.close()
                if proc.poll() is not None:
                    raise RuntimeError(
                        f"daemon exited with {proc.returncode}")
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.002)
        sock.settimeout(60.0)
        self.sock = sock
        self.buf = b""
        self.request(Hello(client=name), Welcome)

    def send(self, msg) -> None:
        from repro.serve import protocol

        self.sock.sendall(protocol.encode(msg))

    def drain(self) -> list:
        from repro.serve import protocol
        from repro.serve.protocol import Error

        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        *lines, self.buf = (self.buf + chunk).split(b"\n")
        frames = [protocol.decode_line(line) for line in lines]
        for msg in frames:
            if isinstance(msg, Error):
                raise RuntimeError(f"daemon error {msg.code}: "
                                   f"{msg.message}")
        return frames

    def request(self, msg, expect: type):
        self.send(msg)
        while True:
            frames = self.drain()
            if frames:
                if len(frames) != 1 or not isinstance(frames[0], expect):
                    raise RuntimeError(f"wanted {expect.__name__}, "
                                       f"got {frames}")
                return frames[0]

    def close(self) -> None:
        from repro.serve.protocol import Bye

        try:
            self.request(Bye(), Bye)
        except (ConnectionError, OSError, RuntimeError):
            pass
        finally:
            self.sock.close()


def served_rep(seed: int, mode: str, tmp: str) -> dict:
    """Drive the serve daemon with the 2M-session crowd, open loop.

    One thread serves both connections: telemetry frames on the runner
    connection are the clock, and each mutation goes out on the
    mutator connection as soon as a frame shows its send time has
    come, without waiting for earlier acks.
    """
    from repro.serve.protocol import (Ack, GetResult, GetStats, Result,
                                      Run, RunDone, Stats, Subscribe,
                                      Subscribed, Telemetry)

    scenario, script, ticks = crowd_script(seed)
    tick_s = scenario.tick_s
    sock = os.path.join(tmp, "serve.sock")
    span_path = os.path.join(tmp, "daemon-spans.json")
    log_path = os.path.join(tmp, "daemon.log")
    if mode == "off":
        cmd = [sys.executable, "-m", "repro", "serve", "--unix", sock,
               "--log", log_path]
    else:
        cmd = [sys.executable, os.path.join(HERE, "launcher.py"),
               "--unix", sock, "--log", log_path, "--spans", span_path]
        if mode == "norecord":
            cmd += ["--skip", spans.HOT_LAYER]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")

    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL)
    conns = []
    try:
        runner = _Conn(sock, proc, "perfbench-run", t0 + 60.0)
        t1 = time.perf_counter()
        conns.append(runner)
        mutator = _Conn(sock, proc, "perfbench-mutate", t0 + 60.0)
        conns.append(mutator)
        runner.request(Subscribe(streams=list(STREAMS), every_ticks=1),
                       Subscribed)

        acks: list = [None] * len(script)
        latency: list = [None] * len(script)
        lag: list = [None] * len(script)

        # Everything due within the first lead is acked before the
        # first run frame, so no early mutation races the clock.
        nxt = sum(1 for m in script if m.at_s < LEAD_S)
        for i in range(nxt):
            due = time.perf_counter()
            acks[i] = mutator.request(script[i], Ack)
            latency[i] = time.perf_counter() - due
            lag[i] = 0.0

        sel = selectors.DefaultSelector()
        sel.register(mutator.sock, selectors.EVENT_READ, mutator)
        sel.register(runner.sock, selectors.EVENT_READ, runner)
        pending: collections.deque = collections.deque()
        frames = 0
        t_run0 = time.perf_counter()
        t_run1 = None
        runner.send(Run(ticks=ticks))
        try:
            while t_run1 is None or pending:
                events = sel.select(timeout=60.0)
                if not events:
                    raise RuntimeError("daemon silent for 60 s")
                # Acks first, so a backlog of telemetry does not hold
                # up their arrival times.
                events.sort(key=lambda e: e[0].data is runner)
                for key, _ in events:
                    received = time.perf_counter()
                    for msg in key.data.drain():
                        if isinstance(msg, Ack):
                            i, due = pending.popleft()
                            acks[i] = msg
                            latency[i] = received - due
                        elif isinstance(msg, Telemetry):
                            frames += 1
                            while (nxt < len(script) and script[nxt].at_s
                                   - LEAD_S <= msg.t_s):
                                lag[nxt] = time.perf_counter() - received
                                mutator.send(script[nxt])
                                pending.append((nxt, received))
                                nxt += 1
                        elif isinstance(msg, RunDone):
                            t_run1 = time.perf_counter()
                        else:
                            raise RuntimeError(f"unexpected {msg}")
        finally:
            sel.close()
        result = runner.request(GetResult(), Result)
        stats = runner.request(GetStats(), Stats).stats
        rss = vm_hwm_mb(proc.pid)
    finally:
        for conn in conns:
            conn.close()
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    failures = []
    acked = [a for a in acks if a is not None]
    late = 0
    for msg, ack in zip(script, acks):
        landing = math.ceil(msg.at_s / tick_s - 1e-9) * tick_s
        if ack is not None and ack.applied_at_s > landing + 1e-6:
            late += 1
    if len(acked) < len(script):
        failures.append(f"{len(script) - len(acked)} mutations unacked")
    if late:
        failures.append(f"{late} mutations landed after their tick")
    if frames < ticks:
        failures.append(f"{ticks - frames} telemetry frames missing")
    if stats.get("frames_dropped") != 0:
        failures.append(f"daemon dropped {stats.get('frames_dropped')}")
    res = result.result
    failures += invariant_failures(res["sla"]["served_fraction"],
                                   res["it_energy_j"],
                                   res["facility_energy_j"],
                                   res["energy_weighted_pue"])
    waits = [x for x in latency if x is not None]
    lags = [x for x in lag if x is not None]
    out = {
        "setup_s": t1 - t0,
        "run_s": t_run1 - t_run0,
        "peak_rss_mb": rss,
        **ack_percentiles([1e3 * x for x in waits]),
        "fingerprint": digest(result.fingerprint),
        # Each mutation, each telemetry frame and the result itself.
        "attempted": len(script) + ticks + 1,
        "failed_ops": (len(script) - len(acked) + late
                       + max(0, ticks - frames)),
        "failures": failures,
        "ontime_frac": (len(acked) - late) / len(script),
        "lag_ms": 1e3 * percentile(lags, 95),
    }
    if mode != "off":
        with open(span_path) as fh:
            out["spans"] = json.load(fh)
    return out


def main(argv: list[str]) -> int:
    workload, seed, mode, tmp = argv[0], int(argv[1]), argv[2], argv[3]
    if workload == "served-crowd":
        out = (served_reference(seed) if mode == "reference"
               else served_rep(seed, mode, tmp))
    elif workload == "sharded-day":
        out = (sharded_reference() if mode == "reference"
               else sharded_rep(mode, tmp))
    else:
        out = diurnal_rep(seed, mode)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
