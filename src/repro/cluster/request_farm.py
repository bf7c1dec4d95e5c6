"""Request-granular server farm (paper §3).

    "Users expect sub-second response time from web pages."

The fluid :class:`~repro.control.farm.ServerFarm` is the right plant
for control loops, but user experience lives in the latency *tail*,
which only discrete requests can show.  :class:`RequestFarm` runs
individual requests through per-server queues on the kernel:

* a dispatcher assigns each arrival to a server (round-robin or
  join-shortest-queue);
* each server serves its queue at a rate set by its P-state — so the
  latency cost of fleet-wide DVFS, invisible to means, shows up in
  the p99 exactly as §4.2's response-time trade-off says it should;
* requests that wait longer than ``patience_s`` abandon (users
  reload or leave), giving an honest goodput number under overload.
"""

from __future__ import annotations

import bisect
import typing

import numpy as np

from repro.cluster.server import Server, ServerState
from repro.sim import Environment, Store

__all__ = ["RequestFarm", "RequestFarmStats"]


class RequestFarmStats(typing.NamedTuple):
    """Latency/goodput measurements from a run."""

    completed: int
    abandoned: int
    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float

    @property
    def goodput_fraction(self) -> float:
        total = self.completed + self.abandoned
        return self.completed / total if total else 1.0


class _ServerQueue:
    """One server's FIFO of (arrival time, work) requests."""

    def __init__(self, env: Environment, server: Server,
                 farm: "RequestFarm"):
        self.env = env
        self.server = server
        self.farm = farm
        self.queue: Store = Store(env)
        env.process(self._serve(), name=f"{server.name}:serve")

    def __len__(self) -> int:
        return len(self.queue)

    def _serve(self):
        while True:
            arrival_s, work = yield self.queue.get()
            waited = self.env.now - arrival_s
            if waited > self.farm.patience_s:
                self.farm._abandoned += 1
                continue
            # Service time stretches with the current P-state (and is
            # re-read per request, so a DVFS change mid-run applies).
            capacity = max(self.server.effective_capacity, 1e-9)
            yield self.env.timeout(work / capacity)
            self.farm._latencies.append(self.env.now - arrival_s)


class _ServingRoster:
    """Watcher keeping a sorted index of ACTIVE servers.

    Before this, ``_pick_queue`` rebuilt the serving list by chasing
    ``q.server.is_serving`` on every request — O(fleet) per arrival,
    the dominant cost at high request rates.  State transitions are
    orders of magnitude rarer than arrivals, so the roster is
    maintained *there*: a bisect insert/remove per transition, and
    dispatch reads the index.
    """

    #: Safe alongside the vector plant's batch kernels: the roster
    #: only reacts to state transitions, which batches never perform.
    vector_batch_safe = True

    def __init__(self, farm: "RequestFarm"):
        self._farm = farm

    def state_changed(self, server, old, new) -> None:
        if old is new:
            return
        farm = self._farm
        idx = farm._queue_index.get(id(server))
        if idx is None:
            return
        if new is ServerState.ACTIVE:
            bisect.insort(farm._serving, idx)
        elif old is ServerState.ACTIVE:
            pos = bisect.bisect_left(farm._serving, idx)
            if pos < len(farm._serving) and farm._serving[pos] == idx:
                del farm._serving[pos]

    def power_changed(self, server, delta) -> None:
        pass


class RequestFarm:
    """Dispatch discrete requests over a pool of servers.

    ``work_sampler`` draws each request's work in the same units as
    :class:`Server.capacity` (work units; a server at P0 completes
    ``capacity`` units/second).

    ``exact_fraction`` selects the hybrid fidelity mode: that share of
    the offered arrival rate runs as discrete requests through the
    per-server queues; the remainder flows through an analytic
    M/M/1-style fluid path (see :meth:`_drive_fluid`) whose latency
    mixture is merged into :meth:`stats`.  The default ``1.0`` keeps
    every request on the exact path — byte-identical to the
    pre-fluid farm.
    """

    def __init__(self, env: Environment,
                 servers: typing.Sequence[Server],
                 work_sampler: typing.Callable[[], float] | None = None,
                 policy: str = "jsq",
                 patience_s: float = 10.0,
                 rng: np.random.Generator | None = None,
                 exact_fraction: float = 1.0,
                 mean_work: float = 1.0,
                 fluid_interval_s: float = 30.0):
        if not servers:
            raise ValueError("need at least one server")
        if policy not in ("jsq", "round-robin"):
            raise ValueError(f"unknown policy {policy!r}")
        if patience_s <= 0:
            raise ValueError("patience must be positive")
        if not 0.0 <= exact_fraction <= 1.0:
            raise ValueError(
                f"exact fraction must be in [0, 1], got {exact_fraction}")
        if mean_work <= 0 or fluid_interval_s <= 0:
            raise ValueError("mean work and fluid interval must be positive")
        self.env = env
        self.servers = list(servers)
        self.rng = rng or np.random.default_rng(0)
        self.work_sampler = work_sampler or (
            lambda: self.rng.exponential(1.0))
        self.policy = policy
        self.patience_s = float(patience_s)
        self.exact_fraction = float(exact_fraction)
        self.mean_work = float(mean_work)
        self.fluid_interval_s = float(fluid_interval_s)
        self._queues = [_ServerQueue(env, s, self) for s in self.servers]
        self._rr_index = 0
        self._latencies: list[float] = []
        self._abandoned = 0
        # Fluid-path accumulators: exponential mixture components
        # (weight, rate) for in-patience response times, point masses
        # (weight, latency) for saturated intervals, abandoned weight.
        self._fluid_mixture: list[tuple[float, float]] = []
        self._fluid_points: list[tuple[float, float]] = []
        self._fluid_abandoned = 0.0
        self._queue_index = {id(s): i for i, s in enumerate(self.servers)}
        self._serving = sorted(
            i for i, s in enumerate(self.servers) if s.is_serving)
        roster = _ServingRoster(self)
        for server in self.servers:
            server._watchers.append(roster)

    # ------------------------------------------------------------------
    def _pick_queue(self) -> _ServerQueue:
        queues = self._queues
        serving = self._serving
        if self.policy == "jsq":
            if serving:
                return min((queues[i] for i in serving), key=len)
            return min(queues, key=len)
        pool_len = len(serving) or len(queues)
        self._rr_index = (self._rr_index + 1) % pool_len
        if serving:
            return queues[serving[self._rr_index]]
        return queues[self._rr_index]

    def submit(self, work: float | None = None) -> None:
        """Enqueue one request now."""
        if work is None:
            work = self.work_sampler()
        if work < 0:
            raise ValueError("work cannot be negative")
        queue = self._pick_queue()
        queue.queue.put((self.env.now, work))

    def drive_poisson(self, rate_per_s: float, horizon_s: float):
        """Process generator: Poisson arrivals until ``horizon_s``.

        With ``exact_fraction < 1`` only that share of the rate
        arrives as discrete requests; the rest is handed to the fluid
        fast path, which costs O(servers / interval) instead of
        O(requests).
        """
        if rate_per_s <= 0:
            raise ValueError("rate must be positive")
        exact_rate = rate_per_s * self.exact_fraction
        if self.exact_fraction < 1.0:
            self.env.process(
                self._drive_fluid(rate_per_s - exact_rate, horizon_s),
                name="requestfarm:fluid")
        if exact_rate <= 0.0:
            return
        while self.env.now < horizon_s:
            yield self.env.timeout(
                self.rng.exponential(1.0 / exact_rate))
            if self.env.now >= horizon_s:
                break
            self.submit()

    def drive_poisson_bulk(self, rate_per_s: float,
                           horizon_s: float) -> int:
        """Batched :meth:`drive_poisson`: pre-sample, bulk-schedule.

        Draws the whole exponential gap train in one vectorized RNG
        call and inserts every arrival into the kernel's calendar ring
        in a single bulk pass — no per-arrival generator frame.  Work
        is still sampled per request at dispatch time, so DVFS and
        roster changes mid-run apply exactly as with the incremental
        driver.  RNG consumption differs from :meth:`drive_poisson`
        (gaps up front instead of interleaved with work draws), so the
        two drivers realize different — equally distributed — sample
        paths.  Returns the number of discrete arrivals scheduled.
        """
        if rate_per_s <= 0:
            raise ValueError("rate must be positive")
        exact_rate = rate_per_s * self.exact_fraction
        if self.exact_fraction < 1.0:
            self.env.process(
                self._drive_fluid(rate_per_s - exact_rate, horizon_s),
                name="requestfarm:fluid")
        if exact_rate <= 0.0:
            return 0
        now = self.env.now
        span = horizon_s - now
        if span <= 0.0:
            return 0
        expected = exact_rate * span
        n = int(expected + 6 * np.sqrt(expected + 1) + 16)
        gaps = self.rng.exponential(1.0 / exact_rate, size=n)
        times = now + np.cumsum(gaps)
        while times[-1] < horizon_s:  # pragma: no cover - rare top-up
            extra = self.rng.exponential(1.0 / exact_rate, size=n)
            times = np.concatenate(
                [times, times[-1] + np.cumsum(extra)])
        times = times[times < horizon_s]
        if times.size == 0:
            return 0

        def arrive(event):
            self.submit()

        self.env.schedule_callback_bulk(times, arrive)
        return int(times.size)

    def _drive_fluid(self, rate_per_s: float, horizon_s: float):
        """Analytic fast path: arrivals as per-server fluid flows.

        Every ``fluid_interval_s`` the flow splits evenly over the
        serving pool and each server is treated as an M/M/1 queue with
        arrival rate λ and service rate μ = effective capacity /
        mean work.  Stable queues (λ < μ) contribute an Exp(ν = μ − λ)
        response-time component minus the waits that exceed patience
        (P[wait > patience] ≈ ρ·e^{−ν·patience}, which abandon);
        saturated queues serve μ/λ of their flow at ≈ patience latency
        (a point mass) and abandon the rest.  The resulting mixture is
        merged with the exact samples in :meth:`stats`.
        """
        while self.env.now < horizon_s:
            interval = min(self.fluid_interval_s,
                           horizon_s - self.env.now)
            serving = self._serving
            weight = rate_per_s * interval
            if not serving:
                self._fluid_abandoned += weight
            else:
                lam = rate_per_s / len(serving)
                per_queue = weight / len(serving)
                for i in serving:
                    mu = max(self.servers[i].effective_capacity,
                             1e-9) / self.mean_work
                    if lam < mu:
                        nu = mu - lam
                        rho = lam / mu
                        lost = per_queue * min(
                            1.0, rho * np.exp(-nu * self.patience_s))
                        self._fluid_abandoned += lost
                        if per_queue > lost:
                            self._fluid_mixture.append(
                                (per_queue - lost, nu))
                    else:
                        served = per_queue * (mu / lam)
                        self._fluid_points.append(
                            (served, self.patience_s))
                        self._fluid_abandoned += per_queue - served
            yield self.env.timeout(interval)

    # ------------------------------------------------------------------
    def _fluid_cdf(self, t: float) -> float:
        """Un-normalized completed-latency mass at or below ``t``."""
        mass = 0.0
        for weight, nu in self._fluid_mixture:
            mass += weight * (1.0 - np.exp(-nu * t))
        for weight, point in self._fluid_points:
            if point <= t:
                mass += weight
        return mass

    def _mixed_percentile(self, samples: np.ndarray, q: float) -> float:
        """Quantile of exact samples ∪ analytic mixture, by bisection."""
        fluid_w = (sum(w for w, _ in self._fluid_mixture)
                   + sum(w for w, _ in self._fluid_points))
        if fluid_w <= 0.0:
            return float(np.percentile(samples, q * 100.0))
        total = len(samples) + fluid_w
        target = q * total
        sorted_samples = np.sort(samples)
        hi = max(self.patience_s,
                 float(sorted_samples[-1]) if len(sorted_samples) else 0.0,
                 1e-9)
        while (np.searchsorted(sorted_samples, hi, side="right")
               + self._fluid_cdf(hi)) < target:
            hi *= 2.0
        lo = 0.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            mass = (float(np.searchsorted(sorted_samples, mid,
                                          side="right"))
                    + self._fluid_cdf(mid))
            if mass < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def stats(self, discard_first: int = 0) -> RequestFarmStats:
        """Latency statistics (optionally discarding a warmup prefix).

        Exact-path samples and the fluid mixture are merged into one
        distribution; counts include the (rounded) fluid weights.
        """
        samples = np.array(self._latencies[discard_first:])
        mix_w = sum(w for w, _ in self._fluid_mixture)
        point_w = sum(w for w, _ in self._fluid_points)
        fluid_w = mix_w + point_w
        if len(samples) == 0 and fluid_w <= 0.0:
            raise RuntimeError("no completed requests to report")
        if fluid_w <= 0.0:
            return RequestFarmStats(
                completed=len(self._latencies),
                abandoned=self._abandoned,
                mean_s=float(samples.mean()),
                p50_s=float(np.percentile(samples, 50)),
                p95_s=float(np.percentile(samples, 95)),
                p99_s=float(np.percentile(samples, 99)),
            )
        mass = (samples.sum() if len(samples) else 0.0)
        mass += sum(w / nu for w, nu in self._fluid_mixture)
        mass += sum(w * p for w, p in self._fluid_points)
        total = len(samples) + fluid_w
        return RequestFarmStats(
            completed=len(self._latencies) + int(round(fluid_w)),
            abandoned=self._abandoned + int(round(self._fluid_abandoned)),
            mean_s=float(mass / total),
            p50_s=self._mixed_percentile(samples, 0.50),
            p95_s=self._mixed_percentile(samples, 0.95),
            p99_s=self._mixed_percentile(samples, 0.99),
        )
