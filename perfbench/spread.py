"""Run the benchmark on several seeds and summarize the run-to-run spread.

    python3 perfbench/spread.py --workload NAME [--workload NAME ...]
        [--seeds 1-10] [--out FILE]

Runs ``perfbench/run.py`` once per seed, in sequence, with tracing off and
``BENCHMARK.json``'s ``run_seconds``.  Reports for every metric the median,
quartiles and spread of the per-run values (``run.summarize``).  ``--out``
writes the raw per-run values and the summary as JSON, the form before/after
comparisons cite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from run import BENCH, ROOT, summarize


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    seeds = seed_range(args.seeds)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or None
    report = {"commit": commit, "python": platform.python_version(), "nproc": os.cpu_count(),
              "seeds": seeds, "seconds": seconds, "workloads": {}}
    for workload in args.workload:
        runs = [one_run(workload, s, seconds) for s in seeds]
        summary = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = {"unit": first["unit"], "values": values, **summarize(values)}
            print(f"{workload:18s} {name:12s} median {summary[name]['median']:12.6g} "
                  f"{first['unit']:6s} spread {summary[name]['spread']:.4f}")
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": summary,
        }
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
