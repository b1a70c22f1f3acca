"""Benchmark of the arquiver checkout this file sits in.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (see README.md): ``sweep-structure``, ``sweep-classify`` and
``cli``.  All are closed loop with one client, run serially.
Every timed pass runs in a fresh interpreter with ``src/`` first on the
import path, so library caches start cold.  Outputs are checked against
``goldens.json`` and the expected record counts; a failed check counts in
``failed`` and never stops the run.  Every child probes the host's speed
while it runs and every time is reported at reference speed (``hostspeed.py``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of two untraced and two traced passes, run alternately.  The last
stdout line is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import hostspeed
import workloads
from workloads import BENCH_DIR, ROOT, SRC

OUT_DIR = ROOT / ".perfbench_out"
# setup-only interpreters spread over the run, so that setup_s samples the
# host at several moments: twelve before each sweep pass, one before every
# fifth cli query
SETUP_PROBES_PER_PASS = 12
QUERIES_PER_SETUP_PROBE = 5
IMPORT_PROBES = 9
CHILD_TIMEOUT_S = 150
# site/ makes every child probe the host while it runs (hostspeed.py)
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(BENCH_DIR / "site")]),
             "PYTHONHASHSEED": "0"}


class Tally:
    """Operations attempted and failed in one run, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.notes.append(problem)


def run_child(argv: list[str]):
    """Run a child with the host probed just before and just after it, and
    from inside it (``site/sitecustomize.py``).  Returns (spawn time, exit
    time, the finished process or None on timeout, every probe)."""
    before = hostspeed.probe()
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=CHILD_ENV, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc = None
    ended = time.perf_counter()
    probes: list = []
    if proc is not None:
        probes, proc.stderr = hostspeed.child_probes(proc.stderr)
    return spawned, ended, proc, [before, *probes, hostspeed.probe()]


def spawn_worker(mode: str, name: str, seed: int, smoke: bool,
                 trace_file=None) -> tuple[dict | None, str | None]:
    """Run worker.py once; returns (result, None) or (None, why it failed)."""
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), mode, name, "--seed", str(seed)]
    if smoke:
        argv.append("--smoke")
    if trace_file is not None:
        argv += ["--trace", str(trace_file)]
    spawned, _, proc, probes = run_child(argv)
    if proc is None:
        return None, f"worker {mode} {name} timed out"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return None, f"worker {mode} {name} exited {proc.returncode}: {tail[0]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if "ready" in result:
        result["setup_s"] = hostspeed.scaled(spawned, result["ready"], probes)
    return result, None


def run_query(argv: list[str]) -> tuple[float, int, str]:
    """One cli query in its own process: (latency in ms at reference speed,
    exit code, stdout)."""
    spawned, ended, proc, probes = run_child([sys.executable, "-m", "arquiver.cli", *argv])
    ms = hostspeed.scaled(spawned, ended, probes) * 1e3
    if proc is None:
        return ms, -1, ""
    return ms, proc.returncode, proc.stdout


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: a measured value with (100-pct)% above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def check_pass(result: dict, spec, golden: str | None) -> str | None:
    """Why a sweep pass is wrong, or None."""
    if not result["ok"]:
        return f"report not ok: {result['failures']}"
    if result["records"] != spec.records:
        return f"{result['records']} records, expected {spec.records}"
    if result["digest"] != golden:
        return "records differ from the golden report"
    return None


def check_query(key: str, code: int, digest: str | None, goldens: dict) -> str | None:
    if code != 0:
        return f"exit {code}: {key}"
    if digest != goldens.get(key):
        return f"output differs from golden: {key}"
    return None


def _digest_or_none(argv: list[str], stdout: str) -> str | None:
    try:
        return workloads.output_digest(argv, stdout)
    except ValueError:
        return None


def _check_build_json(outputs: dict[str, str], tally: Tally) -> None:
    """Every ``build --format json`` output must re-ingest as the same quiver."""
    workloads.import_checkout_arquiver()
    from arquiver import ar_quiver

    for key, text in outputs.items():
        try:
            ar_quiver.from_json(text)
        except (ValueError, KeyError) as exc:
            tally.record(f"from_json failed for {key}: {exc}")
        else:
            tally.record(None)


def _timed_loop(seconds: float, min_calls: int, step) -> None:
    """Call ``step`` ``min_calls`` times, then again while another call fits
    in ``seconds``."""
    start = time.perf_counter()
    calls = 0
    while True:
        step()
        calls += 1
        elapsed = time.perf_counter() - start
        if calls >= min_calls and elapsed + elapsed / calls > seconds:
            return


def measure(name: str, args, tally: Tally) -> dict[str, float]:
    spec = workloads.workload(name, args.smoke)
    goldens = workloads.load_goldens()
    setup: list[float] = []

    def probe_setup() -> None:
        result, problem = spawn_worker("setup", name, args.seed, args.smoke)
        tally.record(problem)
        if result:
            setup.append(result["setup_s"])

    walls: list[float] = []
    latencies: list[float] = []  # cli queries or sweep orientations, in ms
    if spec.kind == "cli":
        build_json: dict[str, str] = {}

        def step() -> None:
            queries = workloads.cli_pass(args.seed, len(walls), args.smoke)
            for index, argv in enumerate(queries):
                if index % QUERIES_PER_SETUP_PROBE == 0:
                    probe_setup()
                ms, code, stdout = run_query(argv)
                latencies.append(ms)
                key = workloads.query_key(argv)
                tally.record(check_query(key, code, _digest_or_none(argv, stdout),
                                         goldens["cli"]))
                if argv[0] == "build" and argv[-1] == "json" and code == 0:
                    build_json[key] = stdout
            walls.append(sum(latencies[-len(queries):]) / 1e3)

        _timed_loop(args.seconds, spec.min_passes, step)
        _check_build_json(build_json, tally)
    else:
        golden = goldens["records"].get(golden_name(name, args.smoke))

        def step() -> None:
            for _ in range(SETUP_PROBES_PER_PASS):
                probe_setup()
            result, problem = spawn_worker("run", name, args.seed, args.smoke)
            tally.record(problem or check_pass(result, spec, golden))
            if result:
                walls.append(result["wall_s"])
                latencies.extend(result["orientation_ms"])

        _timed_loop(args.seconds, spec.min_passes, step)

    if not walls or not setup:
        raise RuntimeError("no pass completed; nothing to report")
    return {
        "sweep_s": statistics.median(walls),
        "query_p50_ms": percentile(latencies, 50),
        "query_p90_ms": percentile(latencies, 90),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def golden_name(name: str, smoke: bool) -> str:
    return f"smoke:{name}" if smoke else name


def trace(name: str, args, tally: Tally) -> dict[str, float]:
    spec = workloads.workload(name, args.smoke)
    goldens = workloads.load_goldens()
    OUT_DIR.mkdir(exist_ok=True)
    metrics = {m: 0 if unit == "count" else 0.0 for m, unit in workloads.PER_LAYER.items()}

    imports = []
    for _ in range(1 if args.smoke else IMPORT_PROBES):
        result, problem = spawn_worker("import", name, args.seed, args.smoke)
        tally.record(problem)
        if result:
            imports.append(result["import_s"])

    # untraced, traced, traced, untraced: what host-speed scaling leaves of a
    # drift during the run moves both sides of trace.overhead_frac alike
    passes: dict[str, list[dict]] = {"untraced": [], "traced": []}
    for label in ("untraced", "traced", "traced", "untraced"):
        trace_file = OUT_DIR / f"trace-{name}.json" if label == "traced" else None
        result, problem = spawn_worker("run", name, args.seed, args.smoke, trace_file)
        if result and spec.kind == "cli":
            for key, code, digest in result["queries"]:
                tally.record(check_query(key, code, digest, goldens["cli"]))
        elif result:
            golden = goldens["records"].get(golden_name(name, args.smoke))
            tally.record(check_pass(result, spec, golden))
        else:
            tally.record(problem)
        if result:
            passes[label].append(result)
    if not (len(passes["untraced"]) == len(passes["traced"]) == 2 and imports):
        raise RuntimeError("a traced or untraced pass failed; nothing to report")
    untraced, traced = passes["untraced"][0], passes["traced"][0]
    counts = [{k: v for k, v in p["layers"].items() if not k.endswith("self_s")}
              for p in passes["traced"]]
    tally.record(None if counts[0] == counts[1] else "traced counts differ between passes")

    layers = traced["layers"]
    missed = [f"{anchor} = {layers.get(anchor, 0)}, anchor {expected}"
              for anchor, expected in spec.anchors.items()
              if layers.get(anchor, 0) != expected]
    tally.record("; ".join(missed) or None)
    for metric in metrics:
        if metric in layers:
            metrics[metric] = layers[metric]
            if metric.endswith(".self_s"):  # to reference speed, at the pass's mean
                metrics[metric] *= traced["speed"]
    calls = layers.get("orders.pairs_of.calls", 0)
    if calls:
        metrics["orders.pairs_of.hit_ratio"] = layers.get("orders.pairs_of.repeats", 0) / calls
    if layers.get("orders.classify_pair.calls"):
        metrics["orders.canonical_per_classify"] = (
            layers.get("orders.canonical_reading.calls", 0)
            / layers["orders.classify_pair.calls"])
    lookups = layers["qaffine.denom.hits"] + layers["qaffine.denom.misses"]
    if lookups:
        metrics["qaffine.denom.hit_ratio"] = layers["qaffine.denom.hits"] / lookups
    if spec.kind == "cli":
        for command, ms in untraced["inproc_ms"].items():
            metrics[f"cli.{command}.inproc_ms"] = ms
    else:
        for group, seconds in untraced["check_s"].items():
            metrics[f"verify.{group}.check_s"] = seconds * untraced["speed"]
        metrics["verify.records"] = untraced["records"]
        metrics["verify.orientations"] = untraced["orientations"]
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead_frac"] = (sum(p["wall_s"] for p in passes["traced"])
                                      / sum(p["wall_s"] for p in passes["untraced"]) - 1)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args()

    if not (SRC / "arquiver" / "__init__.py").is_file():
        print(f"error: no arquiver sources under {SRC}", file=sys.stderr)
        return 2
    # byte-compile up front so that no pass pays for it
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(BENCH_DIR), quiet=1, maxlevels=1)

    tally = Tally()
    if args.trace:
        metrics, units = trace(args.workload, args, tally), workloads.PER_LAYER
    else:
        metrics, units = measure(args.workload, args, tally), workloads.END_TO_END
    for note in tally.notes:
        print(f"FAILED {note}", file=sys.stderr)
    for metric, value in metrics.items():
        print(f"{args.workload} {metric} = {value:.6g} {units[metric]}")
    print(f"{args.workload} fail_frac = {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed}/{tally.attempted} operations)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
