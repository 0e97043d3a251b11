"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]

Imports the library, builds the workload's inputs from the seed, times every
op of the pass, then checks each op's observation against its expectation.
Prints one JSON object on its last stdout line.  ``ready_at`` is
``time.monotonic()`` when the inputs are built, so the launching process can
measure set-up time from its own launch time.  Host-speed probes
(``hostspeed.py``) run right after set-up (``setup_probes_s``) and between
ops, outside every timed op; ``cal_s`` are the op latencies calibrated by
them.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import hostspeed  # noqa: E402
import workloads  # noqa: E402  (imports the library)
from tracer import Tracer  # noqa: E402

MAX_ERRORS_SHOWN = 5


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--limit", type=int, help="run only the first N ops (tests)")
    ap.add_argument("--spans", help="write the traced spans to this file")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    p = workloads.WORKLOADS[args.workload](args.seed)
    ops = p.ops[: args.limit]
    ready_at = time.monotonic()
    probes: list = []
    for _ in range(hostspeed.SETUP_PROBES):
        hostspeed.probe(probes)
    setup_probes = [s for _, s in probes]
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at, "setup_probes_s": setup_probes}))
        return 0

    starts, lat, observations, errors = [], [], [], []
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            obs = op()
        except Exception as exc:  # an op that raises counts as failed
            obs = exc
            errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        starts.append(t0)
        lat.append(t1 - t0)
        observations.append(obs)
        if t1 - probes[-1][0] >= hostspeed.PROBE_EVERY_S:
            hostspeed.probe(probes)
    hostspeed.probe(probes)
    loop_s = sum(lat)
    cal = hostspeed.calibrate(starts, lat, probes)

    p.finish(len(ops))
    failed = 0
    for i, (obs, want) in enumerate(zip(observations, p.expect)):
        if isinstance(obs, Exception) or not p.check(obs, want):
            failed += 1
            if not isinstance(obs, Exception):
                errors.append(f"op {i}: check failed")
    if tracer is not None:
        tracer.uninstall()  # the input properties below are not traced
    props = p.props(observations)

    who = resource.RUSAGE_CHILDREN if args.workload == "cli-pipeline" else resource.RUSAGE_SELF
    out = {
        "ready_at": ready_at,
        "setup_probes_s": setup_probes,
        "attempted": len(ops),
        "failed": failed,
        "loop_s": loop_s,
        "lat_s": lat,
        "cal_s": cal,
        "reference_s": statistics.median(s for _, s in probes),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,  # KiB on Linux
        "props": props,
        "errors": errors[:MAX_ERRORS_SHOWN],
    }
    if tracer is not None:
        out["layers"] = tracer.table()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
