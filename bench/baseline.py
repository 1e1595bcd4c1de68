"""Run the benchmark over seeds 1-10 and write ``bench/baseline.json``.

    python3 bench/baseline.py

For every workload: one untraced run per seed (end-to-end metrics, their
median and quartile spread) and one traced run on the first seed (the
per-layer table).  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = list(range(1, 11))
OUT = BENCH / "baseline.json"


def run_once(spec, workload: str, seed: int, trace: int) -> dict:
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "cpu": cpu_model(), "platform": platform.platform()},
        "run_seconds": spec["run_seconds"],
        "seeds": SEEDS,
        "workloads": {},
    }
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            res = run_once(spec, name, seed, 0)
            runs.append(res)
            print(name, seed, json.dumps({k: v["value"] for k, v in res["metrics"].items()}),
                  file=sys.stderr, flush=True)
        e2e = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            e2e[metric] = {"unit": runs[0]["metrics"][metric]["unit"],
                           "median": statistics.median(values),
                           "iqr_over_median": spread(values),
                           "bound": bounds[metric], "values": values}
        traced = run_once(spec, name, SEEDS[0], 1)
        layer = {k: {"value": v["value"], "unit": v["unit"],
                     "exact": v["unit"] != "s" and not k.startswith("trace.")}
                 for k, v in traced["metrics"].items()}
        report["workloads"][name] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": e2e,
            "per_layer_seed": SEEDS[0],
            "per_layer": layer,
        }
        for metric, row in e2e.items():
            print(f"{name:12s} {metric:12s} median {row['median']:.4f} "
                  f"spread {row['iqr_over_median']:.4f} bound {row['bound']}",
                  file=sys.stderr)
    with open(OUT, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
