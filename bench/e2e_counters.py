#!/usr/bin/env python3
"""Collect the deterministic counters of traced e2ebench runs into one
Google-Benchmark-shaped JSON, the form `photherm_report diff` reads.

Run from the repository root:

    for w in corners timeline global_ladder; do
      python3 e2ebench/run.py --workload $w --seed 1 --seconds 1 --trace 1 > $w.out
    done
    python3 bench/e2e_counters.py corners.out timeline.out global_ladder.out > BENCH_e2e.json

Each input is the standard output of one traced run: its first line names
the workload, and its last line is the JSON result. The counters below
become the fields of the benchmark `e2e/<workload>`, and bench/gate.rules
pins them exactly. They count work per repetition, so they do not depend
on --seconds.
"""
import json
import sys

COUNTERS = (
    "thermal.assemble.calls",
    "math.cg.solves",
    "math.cg.iterations",
    "math.spmv.count",
    "math.precond_apply.count",
    "mesh.cells",
    "scenario.cache.hits",
    "timeline.steps",
)


def read_run(path):
    """Return the benchmark entry for one run's standard output."""
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines or not lines[0].startswith("e2ebench "):
        sys.exit("%s: not the output of an e2ebench run" % path)
    stamp = dict(field.split("=", 1) for field in lines[0].split() if "=" in field)
    if stamp.get("trace") != "1":
        sys.exit("%s: counters come from traced runs (--trace 1)" % path)
    result = json.loads(lines[-1])
    if result["failed"] != 0:
        sys.exit("%s: %d operations failed" % (path, result["failed"]))
    entry = {"name": "e2e/" + stamp["workload"]}
    for name in COUNTERS:
        entry[name] = result["metrics"][name]["value"]
    return entry


def main(paths):
    if not paths:
        sys.exit("usage: e2e_counters.py RUN_OUTPUT...")
    # e2ebench refuses to report from anything but a Release build.
    document = {
        "context": {"photherm_build_type": "release"},
        "benchmarks": [read_run(path) for path in paths],
    }
    json.dump(document, sys.stdout, indent=2)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
