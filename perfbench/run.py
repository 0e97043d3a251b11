"""Benchmark entry point: runs one workload for a fixed time and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every pass of the workload runs in a
fresh interpreter (``perfbench/worker.py``), so no library state carries over
from one pass to the next.  Passes repeat, with the same seed and therefore
the same inputs, while the next one still fits in ``--seconds``; at least one
runs.  Timings are calibrated for the host's speed (``hostspeed.py``), and the
run reports the median over its passes.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate, and the last line carries
the per-layer metrics.  The full record of the run (commit,
Python version, nproc, seed, the run's metrics, raw per-pass values with
their medians and quartiles, input properties, per-layer table and tracing
overhead) is written to
``perfbench/out/<workload>-seed<N>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ("mutation-class", "exchange-walk", "module-crosscheck", "cli-pipeline")
# highest latency percentile with at least ten samples beyond it: the
# mutation-class pass has 46 ops, the others at least 100
TAIL_PERCENTILE = {"mutation-class": 75}
DEFAULT_TAIL = 90
SETUP_LAUNCHES = 9  # set-up-only launches per untraced run, before its passes
CLI_PROBES = 15  # fresh interpreters of each kind timed for cli.interp_s / cli.import_s
# every launch must end by this many seconds after the run started, so the
# run exits within 180 s even when a worker hangs
DEADLINE_S = 170
RUN_START = time.monotonic()

END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "pass_frac", "peak_rss_mb")


class BenchError(Exception):
    pass


def launch(workload: str, seed: int, *flags: str) -> tuple[dict, float]:
    """Run the worker once; returns its JSON result and its calibrated set-up
    time (from this process launching it to the worker's inputs being
    built).  Host-speed probes just before the launch and the worker's own
    just after set-up bracket it.  The raw set-up time is added to the
    result as ``setup_raw_s``."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    before: list = []
    for _ in range(hostspeed.SETUP_PROBES):
        hostspeed.probe(before)
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, DEADLINE_S - (started - RUN_START)))
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_raw_s"] = result["ready_at"] - started
    around = [s for _, s in before] + result["setup_probes_s"]
    return result, result["setup_raw_s"] * hostspeed.scale(around)


def latency_metrics(workload: str, lat: list[float]) -> dict:
    """Median and tail latency, in ms, of one latency per op."""
    pct = TAIL_PERCENTILE.get(workload, DEFAULT_TAIL)
    tail = statistics.quantiles(lat, n=100, method="inclusive")[pct - 1] if len(lat) > 1 else lat[0]
    return {"op_p50_ms": statistics.median(lat) * 1e3, "op_tail_ms": tail * 1e3}


def pass_metrics(workload: str, res: dict) -> dict:
    """End-to-end metrics other than ``setup_s`` of one pass, calibrated, with
    the raw (uncalibrated) timings beside them."""
    raw = latency_metrics(workload, res["lat_s"])
    return {
        "ops_per_s": res["attempted"] / sum(res["cal_s"]),
        **latency_metrics(workload, res["cal_s"]),
        "pass_frac": 1 - res["failed"] / res["attempted"],
        "peak_rss_mb": res["peak_rss_mb"],
        "latency_samples": len(res["lat_s"]),
        "raw_ops_per_s": res["attempted"] / res["loop_s"],
        "raw_op_p50_ms": raw["op_p50_ms"],
        "raw_op_tail_ms": raw["op_tail_ms"],
        "reference_ms": res["reference_s"] * 1e3,
    }


def run_metrics(workload: str, results: list[dict]) -> dict:
    """A run's metrics from its passes, which run the same ops: the median
    pass throughput, and the latency percentiles of each op's median over
    the passes, all calibrated; failures counted over every op; the largest
    peak memory of any pass."""
    out = {"ops_per_s": statistics.median(res["attempted"] / sum(res["cal_s"]) for res in results)}
    out.update(latency_metrics(
        workload, [statistics.median(op) for op in zip(*(res["cal_s"] for res in results))]))
    attempted = sum(res["attempted"] for res in results)
    out["pass_frac"] = 1 - sum(res["failed"] for res in results) / attempted
    out["peak_rss_mb"] = max(res["peak_rss_mb"] for res in results)
    out["pass_count"] = len(results)
    return out


def summarize(values: list[float]) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``) and spread (the
    quartile distance as a share of the median) of raw values."""
    med = statistics.median(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values)}


def run_rounds(workload: str, seed: int, seconds: float, *variants) -> list[list[tuple[dict, float]]]:
    """Rounds of passes, one pass per variant (worker flags) in each round,
    while the next round (as long as the longest so far) still fits."""
    variants = variants or ((),)
    out, start, longest = [], time.monotonic(), 0.0
    while not out or time.monotonic() - start + longest <= seconds:
        t0 = time.monotonic()
        out.append([launch(workload, seed, *flags) for flags in variants])
        longest = max(longest, time.monotonic() - t0)
    return out


def median_fresh_starts(*codes: str) -> list[float]:
    """Median wall time of a fresh ``python -c <code>`` for each code.  The
    codes are launched in turn, so each meets the same spells of the machine."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = [[] for _ in codes]
    for _ in range(CLI_PROBES):
        for code, samples in zip(codes, times):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=60)
            samples.append(time.perf_counter() - t0)
    return [statistics.median(samples) for samples in times]


def provenance(seed: int, seconds: float, workload: str, trace: bool) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": commit, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "tail_percentile": TAIL_PERCENTILE.get(workload, DEFAULT_TAIL),
    }


def untraced_run(workload: str, seed: int, seconds: float, record: dict):
    # the set-up-only launches come first and count against --seconds; they
    # also warm the page cache (and byte-code cache) for the passes
    start = time.monotonic()
    launches = [launch(workload, seed, "--setup-only") for _ in range(SETUP_LAUNCHES)]
    passes = [round_[0] for round_ in run_rounds(workload, seed, seconds - (time.monotonic() - start))]
    results = [res for res, _ in passes]
    setups = [setup for _, setup in launches + passes]
    per_pass = [pass_metrics(workload, res) for res in results]
    metrics = run_metrics(workload, results)
    metrics["setup_s"] = statistics.median(setups)
    summary = {name: summarize([m[name] for m in per_pass]) for name in END_TO_END if name != "setup_s"}
    summary["setup_s"] = summarize(setups)
    record.update(run=metrics, passes=per_pass, per_pass_summary=summary, setup_samples_s=setups,
                  setup_raw_samples_s=[res["setup_raw_s"] for res, _ in launches + passes],
                  props=results[0]["props"], errors=results[0]["errors"])
    return {name: metrics[name] for name in END_TO_END}, passes


def traced_run(workload: str, seed: int, seconds: float, record: dict):
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{workload}-seed{seed}.spans.csv.gz"
    # untraced and traced passes alternate, so both meet the same spells of
    # a noisy machine and the overhead is the difference of their medians
    rounds = run_rounds(workload, seed, seconds, (), ("--trace", "--spans", str(spans)))
    plain = [res for (res, _), _ in rounds]
    traced = [res for _, (res, _) in rounds]
    tables = [res["layers"] for res in traced]
    # counts repeat exactly across passes; median_low keeps them whole numbers
    layers = {name: statistics.median_low(t[name] for t in tables) for name in tables[0]}
    traced_ops = run_metrics(workload, traced)["ops_per_s"]
    untraced_ops = run_metrics(workload, plain)["ops_per_s"]
    layers["trace.ops_per_s"] = traced_ops
    layers["trace.untraced_ops_per_s"] = untraced_ops
    layers["trace.overhead_ops_per_s"] = traced_ops - untraced_ops
    props = plain[0]["props"]
    layers["input.ops"] = props["ops"]
    layers["input.repeat_share"] = props.get("repeat_share", 0.0)
    layers["input.mean_eligible_faces"] = props.get("mean_eligible_faces", 0.0)
    interp = imp = 0.0
    if workload == "cli-pipeline":
        interp, with_import = median_fresh_starts("pass", "import positroids")
        imp = with_import - interp
    layers["cli.interp_s"] = interp
    layers["cli.import_s"] = imp
    record.update(layers=layers, layer_tables=tables, props=props, spans=spans.name,
                  traced_loop_s=[res["loop_s"] for res in traced],
                  untraced_loop_s=[res["loop_s"] for res in plain],
                  errors=plain[0]["errors"] + traced[0]["errors"])
    return layers, [pass_ for round_ in rounds for pass_ in round_]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "positroids" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'positroids'}", file=sys.stderr)
        return 2
    record = provenance(args.seed, args.seconds, args.workload, bool(args.trace))
    run = traced_run if args.trace else untraced_run
    try:
        metrics, passes = run(args.workload, args.seed, args.seconds, record)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(res["attempted"] for res, _ in passes)
    failed = sum(res["failed"] for res, _ in passes)
    record.update(attempted=attempted, failed=failed)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for err in record.get("errors", []):
        print(f"failure: {err}")
    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"props={json.dumps(record['props'])} record={path.relative_to(ROOT)}")
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "pass_frac": "ratio", "peak_rss_mb": "MB"}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name) or layer_unit(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name in ("input.ops", "input.mean_eligible_faces"):
        return "count"
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
