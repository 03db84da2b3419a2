"""Benchmark of tpg, end to end and per module.

Usage, from the root of a checkout:

    python3 perf/run.py --workload normals|certify|enumerate --seed N \
        --seconds S --trace 0|1

Each run starts fresh program processes one at a time: nine that only
import tpg (set-up samples) and one that runs the workload through
tpg.cli.run, a cold round and then warm rounds for S seconds.  Every time
is scaled to reference speed (reference.py).  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are the per-layer ones of a traced run.  Run artifacts go
to .perf_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import reference
import workloads
from tracer import metric_specs

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perf_out"
SETUP_SAMPLES = 9  # import-only processes per run
WORKER_TIMEOUT_S = 165
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def program_env(seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONHASHSEED"] = str(seed)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(spec: dict, env: dict, rundir: Path, tag: str) -> dict:
    """Run one fresh program process to its end and return its result."""
    spec = dict(spec, result=str(rundir / f"{tag}.result.json"))
    spec_path = rundir / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), repr(t0)],
        env=env, cwd=rundir, stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"program process exited {proc.returncode}")
    return json.loads(Path(spec["result"]).read_text())


def setup_sample(env: dict, rundir: Path, tag: str) -> tuple[float, float]:
    """Raw and scaled set-up time of one import-only process."""
    before = reference.measure(3)
    raw = spawn({"mode": "setup"}, env, rundir, tag)["setup_s"]
    after = reference.measure(3)
    return raw, reference.scaled(raw, (before + after) / 2)


def round_metrics(records: list[dict]) -> dict[str, float]:
    """Scaled and raw times of the cold round and of a warm round.

    A warm round's time is the sum over its operations of each operation's
    median over the warm rounds, so one slow moment moves one sample.
    """
    cold = [r for r in records if r["round"] == 0]
    warm: dict[str, list[dict]] = {}
    for r in records:
        if r["round"] > 0:
            warm.setdefault(r["key"], []).append(r)
    rounds = {r["round"] for r in records if r["round"] > 0}
    return {
        "cold_s": sum(reference.scaled(r["t"], r["ref"]) for r in cold),
        "round_s": sum(statistics.median(reference.scaled(r["t"], r["ref"])
                                         for r in recs)
                       for recs in warm.values()),
        "raw_cold_s": sum(r["t"] for r in cold),
        "raw_round_s": statistics.median(
            sum(r["t"] for r in records if r["round"] == n) for n in rounds),
        "ref_ms": 1000 * statistics.median(r["ref"] for r in records),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the
    # program process it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "tpg" / "cli.py").is_file():
        print(f"perf: no tpg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    rundir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    rundir.mkdir(parents=True)
    workloads.write_inputs(args.workload, rundir)
    env = program_env(args.seed)
    spec = {"mode": "run", "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": bool(args.trace),
            "rundir": str(rundir)}

    reference.measure(3)  # warm the kernel's own code and data
    raw_setup, setup = [], []
    try:
        if not args.trace:
            for i in range(SETUP_SAMPLES):
                raw, scaled = setup_sample(env, rundir, f"setup{i}")
                raw_setup.append(raw)
                setup.append(scaled)
        res = spawn(spec, env, rundir, "run")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perf: {args.workload}: {exc}", file=sys.stderr)
        return 1

    records = res["records"]
    check = {"normals": checks.check_normals, "certify": checks.check_certify,
             "enumerate": checks.check_enumerate}[args.workload]
    found = check(records)
    failed = sum(1 for msgs in found.values() if msgs)
    for i, msgs in sorted(found.items()):
        for m in msgs:
            print(f"FAILED op {i} ({' '.join(records[i]['argv'][-2:])}): {m}")

    times = round_metrics(records)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": res["numpy"], "loadavg": os.getloadavg(),
            "rounds": res["rounds"],
            "raw_setup_s": statistics.median(raw_setup) if raw_setup else None,
            "cold_s": times["cold_s"], "raw_cold_s": times["raw_cold_s"],
            "raw_round_s": times["raw_round_s"], "ref_ms": times["ref_ms"]}
    if args.trace:
        # per warm round, so that counts repeat exactly whatever the number
        # of rounds; the cold round's calls are left out
        units = {name: unit for name, unit, _ in metric_specs()}
        warm_rounds = res["rounds"] - 1
        metrics = {}
        for name, total in res["trace"].items():
            value = (total - res["cold_trace"].get(name, 0)) / warm_rounds
            if units[name] == "count" and value.is_integer():
                value = int(value)
            metrics[name] = {"value": value, "unit": units[name]}
        metrics["traced_cold_s"] = {"value": times["cold_s"], "unit": "s"}
        metrics["traced_round_s"] = {"value": times["round_s"], "unit": "s"}
        for name in res["absent"]:
            print(f"absent: {name} (not in this commit)")
        missing = set(units) - set(metrics) - set(res["absent"])
        if missing:
            print(f"perf: metrics neither measured nor absent: {sorted(missing)}",
                  file=sys.stderr)
            return 1
        print(f"spans: {rundir / 'spans.txt'}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "round_s": {"value": times["round_s"], "unit": "s"},
            "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
        }
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed, "metrics": metrics}
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({**info, **result}) + "\n")
    print("env: " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
