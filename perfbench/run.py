"""The simulator's benchmark: three workloads, checked outputs.

    python3 perfbench/run.py --workload diurnal-day --seed 1 --trace 0
    python3 perfbench/run.py --all          # every workload, one table
    python3 perfbench/run.py --record       # re-pin expected.json

A run repeats the workload, each repetition in a fresh process (see
``workloads.py``), until ``--seconds`` have passed and at least three
repetitions are done, then reports medians.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the repetitions
cycle through untraced, traced-without-``sim.monitor.record`` and
fully traced, and the metrics are the per-layer ones plus the tracing
overhead.  Every repetition's simulated result is checked; the last
stdout line is one JSON object and the exit code is 1 when any check
failed.  The workloads and metrics are the ones ``BENCHMARK.json``
declares.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from spans import LAYERS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    MANIFEST = json.load(_fh)
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
#: The seed whose simulated results are pinned in ``expected.json``.
DEFAULT_SEED = 0
#: Workloads whose inputs the seed changes; the others are pinned on
#: every seed.
SEEDED = ("diurnal-day", "served-crowd")
#: Workloads with an independent ``reference`` result to reproduce.
REFERENCED = ("served-crowd", "sharded-day")

EXPECTED = os.path.join(HERE, "expected.json")
#: Scratch space for repetitions, relative to the checkout so the
#: daemon's Unix socket path stays short.
TMP = ".perfbench_tmp"
MIN_REPS = 3
#: Stop starting repetitions once one more could pass this many
#: seconds; a run must end well inside three minutes.
BUDGET_S = 120.0
REP_TIMEOUT_S = 150.0


class CheckFailed(RuntimeError):
    pass


def machine_stamp() -> dict:
    """CPU, core count, versions and a fixed calibration timing."""
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    py_ms = 1e3 * (time.perf_counter() - start)
    data = np.arange(1_000_000, dtype=np.float64)
    start = time.perf_counter()
    for _ in range(20):
        np.sort(data[::-1])
    np_ms = 1e3 * (time.perf_counter() - start)
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "calib_python_ms": round(py_ms, 3),
            "calib_numpy_ms": round(np_ms, 3)}


def run_child(args: list[str], timeout: float) -> dict:
    """Run ``workloads.py`` in its own session; return its JSON line."""
    os.makedirs(os.path.join(ROOT, TMP), exist_ok=True)
    tmp = os.path.join(TMP, f"{os.getpid()}-{time.perf_counter_ns()}")
    os.makedirs(os.path.join(ROOT, tmp))
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "workloads.py"), *args, tmp],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise CheckFailed(f"{args} timed out after {timeout:.0f} s")
    finally:
        shutil.rmtree(os.path.join(ROOT, tmp), ignore_errors=True)
    if proc.returncode != 0:
        raise CheckFailed(f"{args} exited {proc.returncode}:\n"
                          f"{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> list[tuple[str, dict]]:
    """Repeat the workload for ``seconds``; ``(mode, result)`` pairs."""
    modes = ("off", "norecord", "full") if trace else ("off",)
    reps: list[tuple[str, dict]] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        mode = modes[len(reps) % len(modes)]
        rep = run_child([workload, str(seed), mode], REP_TIMEOUT_S)
        reps.append((mode, rep))
        took = time.perf_counter() - began
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(reps) >= max(MIN_REPS, len(modes)):
            return reps
        if elapsed + took > BUDGET_S:
            return reps


def check(workload: str, seed: int,
          reps: list[tuple[str, dict]]) -> tuple[int, int, list[str]]:
    """``(attempted, failed, messages)`` over every repetition."""
    pinned = None
    if seed == DEFAULT_SEED or workload not in SEEDED:
        with open(EXPECTED) as fh:
            pinned = json.load(fh).get(workload)
        if pinned is None:
            raise CheckFailed(f"no expected fingerprint for {workload}")
    reference = None
    if workload in REFERENCED:
        reference = run_child([workload, str(seed), "reference"],
                              REP_TIMEOUT_S)["fingerprint"]
    # Every repetition of a run simulates the same input, and the
    # first is untraced: neither the tracing wrappers nor anything
    # else may change the result.
    first = reps[0][1]["fingerprint"]
    attempted = failed = 0
    messages: list[str] = []
    for mode, rep in reps:
        bad = list(rep["failures"])
        if rep["fingerprint"] != first:
            bad.append("fingerprint differs from the first repetition")
        if pinned is not None and rep["fingerprint"] != pinned:
            bad.append("fingerprint differs from expected.json")
        if reference is not None and rep["fingerprint"] != reference:
            bad.append("fingerprint differs from the reference run")
        attempted += rep["attempted"]
        failed += min(rep["attempted"],
                      rep.get("failed_ops", 0) + (1 if bad else 0))
        messages += [f"{mode}: {msg}" for msg in bad]
    return attempted, failed, messages


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(reps: list[tuple[str, dict]]) -> dict:
    """Each end-to-end metric's median over the repetitions."""
    return declared({m["name"]: median(r[m["name"]] for _, r in reps)
                     for m in MANIFEST["end_to_end"]}, "end_to_end")


def declared(values: dict, kind: str) -> dict:
    """The ``kind`` metrics ``BENCHMARK.json`` declares, from ``values``."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in MANIFEST[kind]}


def layer_values(rep: dict) -> dict:
    """Flat per-layer metric values of one traced repetition."""
    totals = rep["spans"]
    values = {}
    for layer, _, _, busy in LAYERS:
        part = totals.get(layer, {"busy_s": 0.0, "self_s": 0.0,
                                  "calls": 0})
        values[f"{layer}.{busy}"] = part["busy_s"]
        values[f"{layer}.calls"] = part["calls"]
        if layer == "sim.kernel":
            values["sim.kernel.self_s"] = part["self_s"]
    values["control.farm.switches"] = totals["control.farm.switches"]
    values["serve.mutations.ontime_frac"] = rep.get("ontime_frac", 0.0)
    values["loadgen.lag_ms"] = rep.get("lag_ms", 0.0)
    values["sharded.periods"] = rep.get("periods", 0)
    return values


def per_layer(reps: list[tuple[str, dict]]) -> dict:
    run_s = {mode: median(r["run_s"] for m, r in reps if m == mode)
             for mode in ("off", "norecord", "full")}
    full = [layer_values(r) for m, r in reps if m == "full"]
    values = {key: median(v[key] for v in full) for key in full[0]}
    values["trace.run_s"] = run_s["full"]
    values["trace.overhead_s"] = run_s["full"] - run_s["off"]
    values["trace.record_overhead_s"] = run_s["full"] - run_s["norecord"]
    return declared(values, "per_layer")


def bench(workload: str, seed: int, seconds: float,
          trace: bool) -> dict:
    reps = measure(workload, seed, seconds, trace)
    attempted, failed, messages = check(workload, seed, reps)
    for msg in messages:
        print(f"CHECK FAILED {workload}: {msg}", file=sys.stderr)
    metrics = per_layer(reps) if trace else end_to_end(reps)
    return {"correct": not messages, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def cmd_all(seconds: float) -> int:
    """Every workload at the default seed, one table."""
    ok = True
    print("machine: " + json.dumps(machine_stamp()))
    for workload in WORKLOADS:
        out = bench(workload, DEFAULT_SEED, seconds, False)
        ok = ok and out["correct"]
        print(f"{workload}: attempted={out['attempted']} "
              f"failed={out['failed']} failed_frac="
              f"{out['failed'] / out['attempted']:.6g}")
        for name, metric in out["metrics"].items():
            print(f"  {name:<12} {metric['value']:>12.4f} "
                  f"{metric['unit']}")
    return 0 if ok else 1


def cmd_record() -> int:
    """Pin each workload's default-seed fingerprint."""
    pinned = {}
    seed = str(DEFAULT_SEED)
    for workload in WORKLOADS:
        rep = run_child([workload, seed, "off"], REP_TIMEOUT_S)
        if rep["failures"]:
            raise CheckFailed(f"{workload}: {rep['failures']}")
        if workload in REFERENCED:
            ref = run_child([workload, seed, "reference"], REP_TIMEOUT_S)
            if ref["fingerprint"] != rep["fingerprint"]:
                raise CheckFailed(f"{workload}: differs from reference")
        pinned[workload] = rep["fingerprint"]
    with open(EXPECTED, "w") as fh:
        json.dump(pinned, fh, indent=2)
        fh.write("\n")
    print(f"wrote {EXPECTED}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the simulator on one workload.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=MANIFEST["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print one table")
    parser.add_argument("--record", action="store_true",
                        help="re-pin the default-seed fingerprints")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no simulator sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    try:
        if args.all:
            return cmd_all(args.seconds)
        if args.record:
            return cmd_record()
        if args.workload is None:
            parser.error("--workload is required")
        print("machine: " + json.dumps(machine_stamp()))
        out = bench(args.workload, args.seed, args.seconds,
                    bool(args.trace))
    except CheckFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, metric in out["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
