"""Tests of the benchmark itself: every op's check can fail, host-speed
calibration keeps an op's own cost, traced runs repeat exactly, and the
metric names match ``BENCHMARK.json``.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from positroids import perm, ppalg  # noqa: E402


def worker(workload: str, seed: int, *flags: str) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=300)
    return json.loads(proc.stdout.splitlines()[-1])


# -- every check can fail ------------------------------------------------------

def test_class_sizes_match_published_counts():
    sizes = workloads.CLASS_SIZE
    assert (sizes["D4"], sizes["D5"], sizes["D6"]) == (6, 26, 80)
    assert (sizes["E6"], sizes["E7"], sizes["E8"]) == (67, 416, 1574)


def test_mutation_class_check_fails_on_wrong_size():
    p = workloads.mutation_class(seed=3)
    i = next(i for i, want in enumerate(p.expect) if want == ("finite", 26))  # a D5 shape
    got = p.ops[i]()
    assert p.check(got, p.expect[i])
    assert not p.check(got, ("finite", 27))
    assert not p.check(got, ("infinite", 26))


def test_mutation_class_size_does_not_depend_on_seed():
    for seed in (1, 2):
        p = workloads.mutation_class(seed)
        for op, want in zip(p.ops, p.expect):
            if want[1] <= 80:
                assert op() == want


def test_exchange_walk_check_fails_on_wrong_label():
    import random

    k, n, lam, _ = workloads.EXCHANGE_INSTANCES[0]
    walk = workloads.Walk(k, n, lam, random.Random(5))
    assert walk.step() is True
    # a boundary label is never the label a square move creates
    assert walk.step(wrong_label=frozenset(range(1, k + 1))) is False


def test_module_crosscheck_check_fails_on_wrong_module_or_decoration():
    p = workloads.module_crosscheck(seed=1)
    k, n, v, x = 3, 7, (3, 2, 7, 1, 6, 5, 4), (3, 6, 7, 1, 2, 4, 5)
    got, want = workloads.crosscheck_pair(k, n, v, x)
    assert len(want) > 1 and p.check((got, want), None)
    M = want[0]
    smaller = ppalg.DiagramModule(M.n, frozenset(sorted(M.cells)[1:]))
    assert not p.check((got, [smaller, *want[1:]]), None)
    other = perm.DecoratedPermutation(perm.identity(n), frozenset())
    assert not p.check((got, [*want[:-1], other]), None)


def test_cli_check_fails_on_wrong_output_or_exit_code():
    stages = [["seed", "classify", "--lambda", "3 3"]]
    got = workloads.run_subprocess_pipeline(stages)
    assert got == ((0,), b"E6\n")
    assert workloads.cli_check(got, workloads.run_inprocess_pipeline(stages))
    assert not workloads.cli_check(got, ((0,), b"E7\n"))
    assert not workloads.cli_check(((2,), got[1]), ((2,), got[1]))  # exit 0 is required


def test_cli_pipe_matches_in_process():
    stages = [["plabic", "bridge", "--k", "2", "--n", "5", "--x", "3 5 1 2 4"],
              ["plabic", "faces", "--mode", "target"]]
    got = workloads.run_subprocess_pipeline(stages)
    assert got == workloads.run_inprocess_pipeline(stages)
    assert got[0] == (0, 0) and got[1].count(b"\n") == 6


# -- host-speed calibration ------------------------------------------------------

def test_calibration_cancels_host_speed_but_not_op_cost():
    import hostspeed

    nominal = hostspeed.REFERENCE_NOMINAL_S
    # probes every 10 ms; the host runs at half speed from t = 1 s on
    probes = [(t / 100, nominal * (2 if t >= 100 else 1)) for t in range(200)]
    starts, lat = [0.5, 1.5, 1.6], [0.004, 0.008, 0.016]
    assert hostspeed.calibrate(starts, lat, probes) == pytest.approx([0.004, 0.004, 0.008])
    assert hostspeed.scale([s for _, s in probes[150:]]) == pytest.approx(0.5)


# -- exact repeat of traced counts ---------------------------------------------

LIMITS = {"mutation-class": 12, "exchange-walk": 20, "module-crosscheck": 200, "cli-pipeline": 4}


def counts(result: dict) -> dict:
    return {k: v for k, v in result["layers"].items() if not k.endswith(".self_s")}


@pytest.mark.parametrize("workload", sorted(LIMITS))
def test_traced_counts_repeat_exactly(workload):
    limit = str(LIMITS[workload])
    a = worker(workload, 7, "--trace", "--limit", limit)
    b = worker(workload, 7, "--trace", "--limit", limit)
    assert a["failed"] == b["failed"] == 0
    assert counts(a) == counts(b)
    assert any(v for k, v in counts(a).items() if k.endswith(".calls"))
    c = worker(workload, 8, "--trace", "--limit", limit)
    assert c["failed"] == 0


# -- metric names ----------------------------------------------------------------

def run_bench(*args: str, cwd=ROOT, root=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench("--workload", "module-crosscheck", "--seed", "1",
                         "--seconds", "0", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_library():
    # a directory holding only BENCHMARK.json and perfbench/, kept inside the
    # checkout's own output directory
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "exchange-walk", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare, root=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
