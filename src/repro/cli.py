"""Command-line interface: run the library's canonical scenarios.

``python -m repro list`` shows the scenarios; ``python -m repro run
<name>`` executes one and prints its report.  The scenarios are thin
wrappers over the same public API the examples use, so the CLI doubles
as a smoke test of the full stack.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "SCENARIOS"]


def _quickstart(args: argparse.Namespace) -> int:
    from repro.core import SLA
    from repro.datacenter import CoSimulation, DataCenterSpec
    from repro.workload import DiurnalProfile

    zones = min(4, args.racks)
    spec = DataCenterSpec(racks=args.racks,
                          servers_per_rack=args.servers_per_rack,
                          zones=zones, cracs=min(2, zones))
    profile = DiurnalProfile()
    peak = spec.total_servers * spec.server_capacity * 0.6
    sla = SLA("cli", response_target_s=0.15)
    print(f"{'mode':<16}{'kWh':>8}{'PUE':>7}{'avg srv':>9}{'SLA':>6}")
    for label, managed in (("static", False), ("managed", True)):
        sim = CoSimulation(spec, lambda t: peak * profile(t),
                           managed=managed, sla=sla)
        result = sim.run(args.hours * 3600.0)
        print(f"{label:<16}{result.facility_kwh:>8.1f}"
              f"{result.energy_weighted_pue:>7.2f}"
              f"{result.mean_active_servers:>9.1f}"
              f"{'ok' if result.sla.compliant else 'VIOL':>6}")
    return 0


def _pathology(args: argparse.Namespace) -> int:
    from repro.cluster import Server
    from repro.control import (CoordinatedController, DelayBasedOnOff,
                               ServerFarm, UtilizationDVFS)
    from repro.sim import Environment

    def build():
        env = Environment()
        servers = [Server(env, f"s{i}", capacity=100.0, boot_s=120.0)
                   for i in range(20)]
        for server in servers[:10]:
            server.power_on()
        env.run(until=130.0)
        farm = ServerFarm(env, servers, demand_fn=lambda t: 600.0)
        env.process(farm.run())
        return env, farm

    env, farm_u = build()
    env.process(UtilizationDVFS(farm_u, period_s=60.0, low=0.7,
                                high=0.95).run())
    env.process(DelayBasedOnOff(farm_u, period_s=120.0,
                                high_delay_s=0.045,
                                low_delay_s=0.01).run())
    env.run(until=args.hours * 3600.0)

    env, farm_c = build()
    env.process(CoordinatedController(farm_c, period_s=120.0).run())
    env.run(until=args.hours * 3600.0)

    print(f"{'composition':<15}{'machines':>9}{'avg W':>8}"
          f"{'delay ms':>10}")
    for label, farm in (("oblivious", farm_u), ("coordinated", farm_c)):
        print(f"{label:<15}{len(farm.active_servers()):>9}"
              f"{farm.power_monitor.time_weighted_mean(1000, None):>8.0f}"
              f"{farm.delay_monitor.time_weighted_mean(1000, None) * 1000:>10.1f}")
    return 0


def _flashcrowd(args: argparse.Namespace) -> int:
    from repro.core import ReactiveAutoscaler, static_provisioning
    from repro.workload import animoto_demand

    times, demand = animoto_demand(step_s=900.0)
    elastic = ReactiveAutoscaler().replay(times, demand)
    static = static_provisioning(times, demand, float(demand.mean()))
    print(f"{'strategy':<14}{'unmet':>8}{'waste':>8}{'peak':>7}")
    print(f"{'static@mean':<14}{static.unmet_fraction:>8.1%}"
          f"{static.waste_fraction:>8.1%}{static.peak_fleet:>7.0f}")
    print(f"{'elastic':<14}{elastic.unmet_fraction:>8.1%}"
          f"{elastic.waste_fraction:>8.1%}{elastic.peak_fleet:>7.0f}")
    return 0


def _tiers(args: argparse.Namespace) -> int:
    from repro.datacenter import AvailabilityModel, TIER_SPECS, Tier

    print(f"{'tier':>5}{'simulated':>12}{'published':>11}"
          f"{'downtime h/yr':>15}")
    for tier in Tier:
        estimate = AvailabilityModel.for_tier(tier).simulate(args.years)
        print(f"{tier.name:>5}{estimate.availability:>12.4%}"
              f"{TIER_SPECS[tier].availability:>11.3%}"
              f"{estimate.downtime_h_per_year:>15.1f}")
    return 0


def _sweep(args: argparse.Namespace) -> int:
    """Fan a co-simulation config grid across a process pool.

    The grid crosses demand fraction with managed/static — 8 points by
    default — and prints per-point metrics and wall time plus the
    sweep's speedup over a serial execution (the sum of per-point
    in-worker times divided by elapsed time).
    """
    from repro.perf import SweepRunner, cosim_grid, run_cosim_point

    zones = min(4, args.racks)
    points = cosim_grid(
        base={"hours": args.hours,
              "demand": {"kind": "diurnal"},
              "spec": {"racks": args.racks,
                       "servers_per_rack": args.servers_per_rack,
                       "zones": zones, "cracs": min(2, zones)}},
        seed=args.seed,
        **{"demand.fraction": [0.3, 0.5, 0.7, 0.9],
           "managed": [False, True]})
    report = SweepRunner(run_cosim_point, points,
                         workers=args.workers).run()
    print(f"{'point':<28}{'kWh':>8}{'PUE':>7}{'avg srv':>9}"
          f"{'served':>8}{'wall s':>8}")
    for r in report.results:
        m = r.metrics
        print(f"{r.name:<28}{m['facility_kwh']:>8.1f}{m['pue']:>7.2f}"
              f"{m['mean_active_servers']:>9.1f}"
              f"{m['served_fraction']:>8.1%}{r.wall_time_s:>8.2f}")
    print(f"{len(report.results)} points, {report.workers} workers: "
          f"{report.elapsed_s:.2f}s elapsed "
          f"({report.serial_time_s:.2f}s of point time, "
          f"speedup {report.speedup:.2f}x vs serial)")
    return 0


def _bench(args: argparse.Namespace) -> int:
    """Time an N-server managed day or a consolidation pass."""
    import json

    from repro.perf.bench import (
        format_federation_report,
        format_placement_report,
        format_report,
        run_federation_bench,
        run_placement_bench,
        run_scale_bench,
    )

    if args.bench_scenario == "federation":
        metrics = run_federation_bench(days=args.days,
                                       policy=args.policy,
                                       workers=args.fed_workers,
                                       outage=not args.no_outage,
                                       repeat=args.repeat,
                                       warmup=args.warmup)
        print(format_federation_report(metrics))
        # Match the committed BENCH_PERF.json row so the regression
        # gate can consume the CLI output directly.
        name = f"PERF: {metrics['sites']}-site federated day"
    elif args.bench_scenario == "placement":
        metrics = run_placement_bench(args.servers, gamma=args.gamma,
                                      repeat=args.repeat,
                                      warmup=args.warmup)
        print(format_placement_report(metrics))
        # Match the committed BENCH_PERF.json row name ("20k-server")
        # so the regression gate can consume the CLI output directly.
        n = metrics["servers"]
        label = f"{n // 1000}k" if n % 1000 == 0 else str(n)
        name = f"PERF: {label}-server consolidation pass"
    else:
        metrics = run_scale_bench(args.servers, hours=args.hours,
                                  shards=args.shards,
                                  shard_workers=args.shard_workers,
                                  repeat=args.repeat,
                                  warmup=args.warmup)
        print(format_report(metrics))
        name = f"PERF: {metrics['servers']}-server day"
    if args.json:
        from repro.perf.bench import SCHEMA_VERSION

        # One row in the BENCH_PERF.json shape, so the nightly CI job
        # can feed it straight to check_perf_regression.py.  The
        # schema_version stamp keeps archived artifacts comparable
        # across runs (the gate reads rows with .get(), so extra keys
        # are compatible in both directions).
        row = {"name": name,
               "schema_version": SCHEMA_VERSION,
               "metrics": {k: v for k, v in metrics.items()
                           if isinstance(v, (int, float, str))},
               "mean_s": metrics["wall_s"]}
        with open(args.json, "w") as fh:
            json.dump([row], fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0


def _flight_sim(args: argparse.Namespace, tracer):
    """Managed flash-crowd day for the flight-recorder verbs.

    Diurnal base load with a mid-day flash crowd, a hardened (lossy)
    control plane, and a facility budget tight enough that the surge
    trips power capping — so one run exercises the whole causal
    chain: demand ramp → forecast → wake-ups → cap tighten → drains.
    """
    from repro.controlplane import ControlPlaneProfile
    from repro.core import SLA
    from repro.datacenter import CoSimulation, DataCenterSpec
    from repro.workload import DiurnalProfile

    zones = min(4, args.racks)
    spec = DataCenterSpec(racks=args.racks,
                          servers_per_rack=args.servers_per_rack,
                          zones=zones, cracs=min(2, zones))
    profile = DiurnalProfile()
    fleet_capacity = spec.total_servers * spec.server_capacity

    def demand(t):
        base = 0.45 * fleet_capacity * profile(t)
        if 10 * 3600.0 <= t < 12 * 3600.0:
            base += 0.55 * fleet_capacity
        return min(base, 0.98 * fleet_capacity)

    budget_w = (args.budget_fraction * spec.total_servers
                * spec.server_peak_w)
    return CoSimulation(spec, demand, managed=True,
                        sla=SLA("flight", response_target_s=0.15),
                        control_plane=ControlPlaneProfile.hardened(),
                        power_budget_w=budget_w, tracer=tracer)


def _serve(args: argparse.Namespace) -> int:
    """Run the co-simulation as a live daemon (``repro serve``)."""
    from repro.serve import ServeScenario
    from repro.serve.daemon import run_daemon

    zones = min(4, args.racks)
    scenario = ServeScenario(
        racks=args.racks, servers_per_rack=args.servers_per_rack,
        zones=zones, cracs=min(2, zones), seed=args.seed, tick_s=args.tick,
        initial_work_fraction=args.initial_fraction,
        budget_fraction=args.budget_fraction)
    log = open(args.log, "w") if args.log else sys.stdout
    try:
        run_daemon(scenario, host=args.host, port=args.port,
                   unix_path=args.unix, realtime_scale=args.realtime,
                   report_path=args.report, log=log)
    finally:
        if args.log:
            log.close()
    return 0


def _connect(args: argparse.Namespace) -> int:
    """Drive a running daemon (``repro connect``).

    With ``--sessions`` this is the load generator: draw that many
    user sessions against the flash-crowd profile, stream them as
    demand mutations, soak the telemetry subscription, and verify the
    served result — bit-for-bit against the in-process golden when
    ``--golden`` is set.  Without it, subscribe + advance ``--ticks``.
    """
    from repro.serve import ServeClient, ServeScenario
    from repro.serve.loadgen import drive, golden_run, session_script

    client = ServeClient(host=args.host, port=args.port,
                         unix_path=args.unix, name="repro-connect")
    try:
        scenario = ServeScenario.from_dict(client.welcome.scenario)
        print(f"connected: tick_s={client.welcome.tick_s:g} "
              f"servers={scenario.racks * scenario.servers_per_rack}")
        ok = True
        if args.sessions:
            script, ticks = session_script(scenario, args.sessions,
                                           days=args.days)
            report = drive(client, script, ticks, args.sessions,
                           subscribe_every=args.every)
            print(f"loadgen: {report.sessions} sessions -> "
                  f"{report.mutations_acked}/{report.mutations_sent} "
                  f"mutations acked, "
                  f"{report.telemetry_frames}/"
                  f"{report.telemetry_expected} telemetry frames, "
                  f"dropped={report.daemon_stats['frames_dropped']}")
            print(f"result: pue="
                  f"{report.result['energy_weighted_pue']:.3f} "
                  f"served={report.result['sla']['served_fraction']:.4f}")
            print(f"fingerprint: {report.fingerprint[:64]}...")
            ok = report.lossless
            if args.golden:
                fingerprint = golden_run(scenario, script, ticks)
                match = fingerprint == report.fingerprint
                print("bit-identical vs in-process golden: "
                      + ("yes" if match else "NO"))
                ok = ok and match
        else:
            client.subscribe(["power", "pue", "served", "health"],
                             every_ticks=args.every)
            done = client.run(args.ticks)
            result = client.result()
            stats = client.stats()
            print(f"ran {done.ticks} ticks to t={done.now_s:g}s; "
                  f"{len(client.telemetry)} telemetry frames, "
                  f"dropped={stats['frames_dropped']}")
            print(f"result: pue="
                  f"{result.result['energy_weighted_pue']:.3f} "
                  f"served="
                  f"{result.result['sla']['served_fraction']:.4f}")
        return 0 if ok else 1
    finally:
        client.close()


def _trace(args: argparse.Namespace) -> int:
    """Run the flight scenario and print its causal chain as text."""
    from repro.obs import Tracer, format_causal_chain

    tracer = Tracer()
    sim = _flight_sim(args, tracer)
    sim.run(args.hours * 3600.0)
    print(format_causal_chain(tracer, sim.manager.audit,
                              max_decisions=args.max_decisions))
    return 0


def _report(args: argparse.Namespace) -> int:
    """Run the flight scenario and emit the RunReport JSON artifact."""
    from repro.obs import Tracer, build_run_report

    tracer = Tracer()
    sim = _flight_sim(args, tracer)
    result = sim.run(args.hours * 3600.0)
    report = build_run_report(
        sim, result,
        meta={"scenario": "flight", "hours": args.hours,
              "servers": args.racks * args.servers_per_rack,
              "budget_fraction": args.budget_fraction})
    if args.out:
        report.write(args.out)
        print(f"wrote {args.out}")
    else:
        print(report.to_json())
    return 0


SCENARIOS = {
    "quickstart": (_quickstart, "co-simulate a facility, static vs "
                   "macro-managed"),
    "pathology": (_pathology, "the §5.1 DVFS x On/Off spiral vs "
                  "coordination"),
    "flashcrowd": (_flashcrowd, "the Animoto surge vs static and "
                   "elastic allocation"),
    "tiers": (_tiers, "Monte-Carlo the Uptime tier availability table"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="elastic-dc: elastic power management scenarios")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available scenarios")
    run = sub.add_parser("run", help="run one scenario")
    run.add_argument("scenario", choices=sorted(SCENARIOS))
    run.add_argument("--hours", type=float, default=8.0,
                     help="simulated hours (where applicable)")
    run.add_argument("--racks", type=int, default=4)
    run.add_argument("--servers-per-rack", type=int, default=10)
    run.add_argument("--years", type=int, default=2_000,
                     help="Monte-Carlo years for the tiers scenario")
    sweep = sub.add_parser(
        "sweep", help="parallel co-simulation parameter sweep")
    sweep.add_argument("--hours", type=float, default=4.0,
                       help="simulated hours per point")
    sweep.add_argument("--racks", type=int, default=4)
    sweep.add_argument("--servers-per-rack", type=int, default=10)
    sweep.add_argument("--workers", type=int, default=4,
                       help="process count (1 = serial)")
    sweep.add_argument("--seed", type=int, default=0,
                       help="base seed; each point forks its own")
    bench = sub.add_parser(
        "bench", help="time an N-server managed day (scale benchmark)")
    bench.add_argument("--scenario", dest="bench_scenario",
                       choices=("day", "placement", "federation"),
                       default="day",
                       help="'day': co-simulate a managed day; "
                            "'placement': one fleet-scale gamma-robust "
                            "consolidation pass; 'federation': the "
                            "canonical 5-site federated run "
                            "(default: day)")
    bench.add_argument("--servers", type=int, default=2_000,
                       help="fleet size (multiple of 20 for 'day')")
    bench.add_argument("--hours", type=float, default=24.0,
                       help="simulated hours ('day' scenario)")
    bench.add_argument("--gamma", type=int, default=2,
                       help="robustness budget ('placement' scenario)")
    bench.add_argument("--days", type=float, default=1.0,
                       help="simulated days ('federation' scenario; "
                            "the dc0 outage fires on day 3)")
    bench.add_argument("--policy", choices=("optimizing",
                                            "static-home"),
                       default="optimizing",
                       help="routing policy ('federation' scenario)")
    bench.add_argument("--fed-workers", action="store_true",
                       help="one supervised worker process per site "
                            "('federation' scenario)")
    bench.add_argument("--no-outage", action="store_true",
                       help="skip the scheduled dc0 utility outage "
                            "('federation' scenario)")
    bench.add_argument("--shards", type=int, default=0,
                       help="zone-shard the facility into N sub-plants "
                            "('day' scenario; 0 = single plant)")
    bench.add_argument("--shard-workers", type=int, default=1,
                       help="worker processes for --shards "
                            "(1 = in-process lockstep)")
    bench.add_argument("--repeat", type=int, default=1,
                       help="timed runs; the row keeps the best "
                            "wall time (runs are deterministic)")
    bench.add_argument("--warmup", type=int, default=0,
                       help="untimed runs discarded before the "
                            "--repeat timed ones")
    bench.add_argument("--json", metavar="PATH", default=None,
                       help="also write the result as a one-row "
                            "BENCH_PERF-style JSON file")
    serve = sub.add_parser(
        "serve", help="run the co-simulation as a live NDJSON daemon")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = pick one and log it)")
    serve.add_argument("--unix", metavar="PATH", default=None,
                       help="serve on a Unix socket instead of TCP")
    serve.add_argument("--racks", type=int, default=4)
    serve.add_argument("--servers-per-rack", type=int, default=20)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--tick", type=float, default=60.0,
                       help="tick size in simulated seconds; mutations "
                            "land on tick boundaries")
    serve.add_argument("--initial-fraction", type=float, default=0.3,
                       help="starting demand as a fraction of fleet "
                            "work capacity")
    serve.add_argument("--budget-fraction", type=float, default=0.9,
                       help="power budget as a fraction of fleet peak "
                            "wall draw")
    serve.add_argument("--realtime", type=float, default=0.0,
                       help="simulated seconds per wall second "
                            "(0 = free-running)")
    serve.add_argument("--report", metavar="PATH", default=None,
                       help="write the served RunReport JSON here on "
                            "shutdown")
    serve.add_argument("--log", metavar="PATH", default=None,
                       help="daemon log file (default: stdout)")
    connect = sub.add_parser(
        "connect", help="drive a running serve daemon (loadgen client)")
    connect.add_argument("--host", default="127.0.0.1")
    connect.add_argument("--port", type=int, default=None)
    connect.add_argument("--unix", metavar="PATH", default=None)
    connect.add_argument("--sessions", type=int, default=0,
                         help="loadgen: drive N simulated user "
                              "sessions over the fluid request path")
    connect.add_argument("--days", type=float, default=2.0,
                         help="loadgen horizon in simulated days")
    connect.add_argument("--ticks", type=int, default=60,
                         help="ticks to advance when not in loadgen "
                              "mode")
    connect.add_argument("--every", type=int, default=1,
                         help="telemetry subscription cadence in ticks")
    connect.add_argument("--golden", action="store_true",
                         help="replay the script in-process and "
                              "require a bit-identical result")
    for verb, help_text in (
            ("trace", "print a managed day's causal decision chain"),
            ("report", "emit a flight-recorder RunReport JSON")):
        obs = sub.add_parser(verb, help=help_text)
        obs.add_argument("--hours", type=float, default=24.0,
                         help="simulated hours")
        obs.add_argument("--racks", type=int, default=4)
        obs.add_argument("--servers-per-rack", type=int, default=10)
        obs.add_argument("--budget-fraction", type=float, default=0.62,
                         help="facility budget as a fraction of fleet "
                              "peak draw (low enough to trip capping)")
        if verb == "trace":
            obs.add_argument("--max-decisions", type=int, default=12,
                             help="decision cycles to render")
        else:
            obs.add_argument("--out", metavar="PATH", default=None,
                             help="write JSON here instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list" or args.command is None:
        for name, (_, description) in sorted(SCENARIOS.items()):
            print(f"{name:<12} {description}")
        return 0
    if args.command == "sweep":
        return _sweep(args)
    if args.command == "bench":
        return _bench(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "connect":
        return _connect(args)
    if args.command == "trace":
        return _trace(args)
    if args.command == "report":
        return _report(args)
    handler, _ = SCENARIOS[args.scenario]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
