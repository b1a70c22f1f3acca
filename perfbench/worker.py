"""One measured pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py MODE WORKLOAD [--seed N] [--smoke] [--trace FILE]

MODE is ``setup`` (imports and input generation only), ``run`` (set up, then
one timed pass: a ``run_suite`` sweep or an in-process replay of the cli
queries) or ``import`` (time ``import arquiver.cli``).
With ``--trace FILE`` the pass runs under the span tracer and the spans are
written to FILE.  The last stdout line is a JSON object for ``run.py``;
``ready`` is the ``time.perf_counter()`` reading at the start of the timed
pass, which the parent subtracts from its own reading at spawn.  Times the
worker reports are scaled to reference speed from the probes it takes while
it runs (``hostspeed.py``).
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import sys
import time
from contextlib import redirect_stdout

import hostspeed
import workloads


def _sweep(spec, args, timed: bool) -> dict:
    from arquiver import verify

    suites = set(spec.suites)
    ready = time.perf_counter()
    if not timed:
        return {"ready": ready}
    # run_suite(parallelism=1) calls the module's _run_orientation_task once
    # per orientation; timing it whole makes an orientation's latency include
    # its build.
    run_orientation = verify._run_orientation_task
    intervals: list[tuple[float, float]] = []

    def timed_orientation(task):
        t0 = time.perf_counter()
        try:
            return run_orientation(task)
        finally:
            intervals.append((t0, time.perf_counter()))

    verify._run_orientation_task = timed_orientation
    try:
        start = time.perf_counter()
        report = verify.run_suite(spec.rank_max, suites, parallelism=1)
        end = time.perf_counter()
    finally:
        verify._run_orientation_task = run_orientation
    probes = hostspeed.probes_now()
    orientation_s = [hostspeed.scaled(a, b, probes) for a, b in intervals]
    # the rest of the pass: the task list, the global checks, the sort
    edges = [start, *(t for interval in intervals for t in interval), end]
    rest_s = sum(hostspeed.scaled(a, b, probes) for a, b in zip(edges[::2], edges[1::2]))
    wall_s = sum(orientation_s) + rest_s
    return {"ready": ready, "wall_s": wall_s,
            "speed": wall_s / hostspeed.busy(start, end, probes),
            "orientation_ms": [seconds * 1e3 for seconds in orientation_s],
            **_describe(report.records, report.ok)}


def _describe(records, ok: bool) -> dict:
    """Checks on the records, and the time each suite's checks took."""
    check_s = {"structure": 0.0, "orders": 0.0, "qaffine": 0.0, "global": 0.0}
    for r in records:
        check_s["global" if r.rank is None else r.suite] += r.elapsed
    return {
        "ok": ok,
        "records": len(records),
        "digest": workloads.records_digest(records),
        "failures": [f"{r.check_id} {r.rank} {r.orientation}: {r.counterexample}"
                     for r in records if r.status != "pass"][:5],
        "check_s": check_s,
        "orientations": len({(r.rank, r.orientation) for r in records if r.rank is not None}),
    }


def _cli_replay(spec, args, timed: bool) -> dict:
    from arquiver import cli

    queries = workloads.cli_pass(args.seed, 0, args.smoke)
    ready = time.perf_counter()
    if not timed:
        return {"ready": ready}
    intervals: dict[str, list[tuple[float, float]]] = {}
    outputs = []
    for argv in queries:
        buffer = io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(buffer):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code
        intervals.setdefault(argv[0], []).append((t0, time.perf_counter()))
        outputs.append((workloads.query_key(argv), code, buffer.getvalue()))
    probes = hostspeed.probes_now()
    by_command = {command: [hostspeed.scaled(a, b, probes) for a, b in spans]
                  for command, spans in intervals.items()}
    busy_s = sum(hostspeed.busy(a, b, probes) for spans in intervals.values() for a, b in spans)
    wall_s = sum(sum(scaled) for scaled in by_command.values())
    results = []
    for key, code, text in outputs:
        try:
            digest = workloads.output_digest(key.split(" "), text)
        except ValueError:
            digest = None
        results.append([key, code, digest])
    return {
        "ready": ready,
        "wall_s": wall_s,
        "speed": wall_s / busy_s,
        "inproc_ms": {c: statistics.median(v) * 1e3 for c, v in by_command.items()},
        "queries": results,
    }


PASSES = {"sweep": _sweep, "cli": _cli_replay}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "import"))
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()
    sampler = hostspeed.start_sampling()  # already running under site/

    if args.mode == "import":
        sys.path.insert(0, str(workloads.SRC))
        start = time.perf_counter()
        import arquiver.cli  # noqa: F401

        end = time.perf_counter()
        workloads.import_checkout_arquiver()
        print(json.dumps({"import_s": hostspeed.scaled(start, end, hostspeed.probes_now())}))
        return 0

    workloads.import_checkout_arquiver()
    spec = workloads.workload(args.workload, args.smoke)
    tracer = None
    if args.trace:
        import spans
        from arquiver import qaffine

        caches = (qaffine.denom_D1, qaffine.denom_D2)
        tracer = spans.Tracer()
        spans.install(tracer)
        sampler.on_probe = tracer.exclude
    result = PASSES[spec.kind](spec, args, timed=args.mode == "run")
    if tracer is not None:
        tracer.write(args.trace)
        layers = tracer.summary()
        hits = sum(cache.cache_info().hits for cache in caches)
        misses = sum(cache.cache_info().misses for cache in caches)
        layers["qaffine.denom.hits"] = hits
        layers["qaffine.denom.misses"] = misses
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
