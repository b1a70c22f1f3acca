"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py [--out perfbench/results/BENCH_x.json]

For every workload of BENCHMARK.json: ten measured runs (``--trace 0``,
seeds 1-10) and three traced runs (``--trace 1``, seeds 1-3), at the
``run_seconds`` of BENCHMARK.json.  Prints, per metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``), the sample count and the
quartile spread as a share of the median, flagging an end-to-end spread
above a third of the metric's bound.  It also prints, per end-to-end
metric, how far the median of the last five seeds lies from that of the
first five, a sign of host drift within the collection.  With ``--out`` it
writes the same numbers, the Python version and ``nproc`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from workloads import BENCH_DIR, ROOT

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)
TRACE_SEEDS = range(1, 4)


def run_once(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(argv)} reported failures:\n{proc.stderr}")
    return result


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median, "q1": q1, "q3": q3, "n": len(values),
        "spread": (q3 - q1) / median if median else 0.0,
        "exact": len(set(values)) == 1,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": BENCHMARK["run_seconds"],
        "workloads": {},
    }
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        entry = report["workloads"].setdefault(workload, {})
        for trace, seeds in (("end_to_end", SEEDS), ("per_layer", TRACE_SEEDS)):
            samples: dict[str, list[float]] = {}
            for seed in seeds:
                result = run_once(workload, seed, int(trace == "per_layer"))
                for name, metric in result["metrics"].items():
                    samples.setdefault(name, []).append(metric["value"])
            entry[trace] = {name: summarise(values) for name, values in samples.items()}
            for name, stats in entry[trace].items():
                bound = bounds.get(name)
                flag = ""
                if bound is not None and stats["spread"] > bound / 3:
                    flag = f"  SPREAD ABOVE {bound / 3:.3f}"
                if bound is not None:
                    half = len(stats["values"]) // 2
                    drift = (statistics.median(stats["values"][half:])
                             / statistics.median(stats["values"][:half]) - 1)
                    flag = f"  drift {drift:+.4f}{flag}"
                print(f"{workload:16} {name:36} median {stats['median']:<12.6g} "
                      f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} "
                      f"n {stats['n']:<3} spread {stats['spread']:.4f}{flag}", flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
