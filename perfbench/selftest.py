"""Self-test of the benchmark: every workload at a tiny size, untraced and traced.

    python3 perfbench/selftest.py

Checks that each run prints exactly the metrics BENCHMARK.json names,
with their units; that the traced spans form a tree per unit whose self
times are nonnegative and sum to at most the unit's duration; and that a
traced run fails, rather than reporting zero, when a wrapped callable is
gone or is never called.
"""

import json
import os
import types

from run import benchmark
from spans import PatchPointMissing, Tracer, check_tree
from workloads import ROOT, WORKLOADS, import_etclab


def expect_metrics(result, declared, where):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise AssertionError(f"{where}: metrics {got} differ from BENCHMARK.json {want}")
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1:
        raise AssertionError(f"{where}: malformed result {result}")


def expect_failure(what, action):
    try:
        action()
    except PatchPointMissing as exc:
        print(f"ok  fails loudly when {what}: {exc}")
    else:
        raise AssertionError(f"traced run went on although {what}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        raise AssertionError("BENCHMARK.json and workloads.py list different workloads")
    for name in WORKLOADS:
        result, _, _ = benchmark(name, 0, 0.01, False, n_items=2, setup_repeats=1)
        expect_metrics(result, spec["end_to_end"], f"{name} untraced")
        result, _, tr = benchmark(name, 0, 1.0, True, trace_items=2)
        expect_metrics(result, spec["per_layer"], f"{name} traced")
        roots = check_tree(tr)
        print(f"ok  {name}: {len(result['metrics'])} per-module metrics, "
              f"{len(tr.spans)} spans in {roots} trees")

    # A package without hybrid.event_function, as a later version might be.
    E = import_etclab()
    hybrid = types.SimpleNamespace(**{k: v for k, v in vars(E.hybrid).items()
                                      if k != "event_function"})
    expect_failure("etclab.hybrid.event_function is gone",
                   lambda: Tracer().install(types.SimpleNamespace(**dict(vars(E), hybrid=hybrid))))
    wl = WORKLOADS["planar-dwell"]
    must_call = wl.must_call
    wl.must_call = must_call + ("systems.check",)
    try:
        expect_failure("a must-call callable is never called",
                       lambda: benchmark("planar-dwell", 0, 1.0, True, trace_items=1))
    finally:
        wl.must_call = must_call
    print("selftest passed")


if __name__ == "__main__":
    main()
