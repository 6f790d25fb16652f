"""Record bench/baseline.json: ten seeds per workload, and one traced run each.

    python3 bench/baseline.py [--seeds 11-20] [--seconds 35]

Run from the repository root on an otherwise idle machine; it takes about
half an hour.  For each workload and end-to-end metric it keeps every run's
value, the median, the quartiles as `statistics.quantiles(values, n=4)`
gives them, and their spread (q3 - q1) over the median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN = [sys.executable, str(BENCH / "run.py")]
UNITS_FROM = ROOT / "BENCHMARK.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(RUN + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} ops failed")
    return result


def summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)   # the middle cut is the median
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median, "runs": values}


def cpu_model() -> str:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return platform.machine()
    return next((ln.split(":", 1)[1].strip() for ln in lines if ln.startswith("model name")),
                platform.machine())


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="11-20", help="inclusive range, as in 11-20")
    parser.add_argument("--seconds", type=int, default=None,
                        help="seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--out", default=str(BENCH / "baseline.json"))
    args = parser.parse_args()

    spec = json.loads(UNITS_FROM.read_text())
    seconds = args.seconds or spec["run_seconds"]
    lo, hi = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    end_to_end, per_layer = {}, {}
    for w in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in units}
        for seed in seeds:
            metrics = run_once(w, seed, seconds, 0)["metrics"]
            for name in units:
                values[name].append(metrics[name]["value"])
            print(w, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        end_to_end[w] = {"seeds": seeds, **{k: summary(v, units[k]) for k, v in values.items()}}
        traced = run_once(w, seeds[0], seconds, 1)
        per_layer[w] = {"seed": seeds[0], "attempted": traced["attempted"],
                        **{k: v["value"] for k, v in traced["metrics"].items()}}

    baseline = {
        "commit": commit(),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
            "os": f"{platform.system()} {platform.machine()}",
        },
        "command": f"python3 bench/run.py --workload <w> --seed <s> --seconds {seconds} "
                   "--trace <0|1>",
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n")
    for w, metrics in end_to_end.items():
        for name, s in metrics.items():
            if name != "seeds":
                print(f"{w:<9} {name:<12} median {s['median']:12.4f} {s['unit']:<4} "
                      f"spread {s['iqr_over_median']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
