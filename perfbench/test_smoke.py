"""Smoke test of the benchmark: every workload in both modes at tiny sizes,
and the host-speed scaling."""

import json
import shutil
import subprocess
import sys
import time

import pytest

import hostspeed
import run
import workloads
from workloads import BENCH_DIR, ROOT


def _run(root, workload: str, trace: int, smoke: bool = True):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "0.1", "--trace", str(trace)]
    if smoke:
        argv.append("--smoke")
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=120)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, "higher" if name in workloads.HIGHER_IS_BETTER else "lower")
        for name, unit in workloads.PER_LAYER.items()
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    units = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "sweep-structure", 0, smoke=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_scaled_time_follows_the_probes():
    ref = hostspeed.REFERENCE_S
    idle = [(t / 100, ref) for t in range(100)]
    slowed = [(s, 2 * d) for s, d in idle]
    assert hostspeed.scaled(0.2, 0.6, idle) == pytest.approx(0.4 - 40 * ref)
    assert hostspeed.scaled(0.2, 0.6, slowed) == pytest.approx((0.4 - 80 * ref) / 2)


def test_probed_child_writes_whole_output_to_a_slow_reader():
    # A probe signal that interrupts a blocked pipe write makes CPython drop
    # the rest of the write; the probes must never do that to a child.
    size = 200_000
    code = f"import sys; sum(range(10_000_000)); sys.stdout.write('x' * {size})"
    child = subprocess.Popen([sys.executable, "-c", code], env=run.CHILD_ENV,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    time.sleep(0.5)
    out, err = child.communicate(timeout=60)
    probes, _ = hostspeed.child_probes(err.decode())
    assert child.returncode == 0
    assert len(out) == size
    assert probes
