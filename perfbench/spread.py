"""Run the benchmark once per seed on each workload and report the spread.

    python3 perfbench/spread.py --seeds 0-9 [--workloads certify,lorenz-monitor] [--out FILE]

For every end-to-end metric prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles over the median, next to the metric's
bound from BENCHMARK.json.  Each run is its own process, one at a time.
``--out`` writes the figures, the per-run values, the event-log digests
and the mean wall time of a run as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from run import HERE, environment
from workloads import ROOT


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out")
    args = ap.parse_args()

    report = {"environment": environment(), "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in args.workloads.split(","):
        runs = []
        started = time.monotonic()
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            lines = done.stdout.strip().splitlines()
            digest = next(ln.split()[1] for ln in lines if ln.startswith("event_log_sha256"))
            runs.append(dict(json.loads(lines[-1]), seed=seed, event_log_sha256=digest))
        figures = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            figures[m["name"]] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                  "bound": m["bound"], "values": values}
            flag = "" if spread < m["bound"] / 3 else "  <-- above a third of the bound"
            print(f"{name:18s} {m['name']:13s} median {median:<12.6g} spread {spread:.4f} "
                  f"(bound {m['bound']}){flag}", flush=True)
        wall_s = (time.monotonic() - started) / len(runs)
        print(f"{name:18s} correct {all(r['correct'] for r in runs)}, failed "
              f"{sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)} units, "
              f"{wall_s:.1f} s wall per run", flush=True)
        report["workloads"][name] = {
            "seeds": args.seeds,
            "wall_s_per_run": wall_s,
            "metrics": figures,
            "runs": [{k: r[k] for k in ("seed", "correct", "attempted", "failed",
                                        "event_log_sha256")} for r in runs],
        }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
