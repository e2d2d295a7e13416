#!/usr/bin/env python3
"""End-to-end benchmark of photherm's real workloads.

Run from the repository root:

    python3 e2ebench/run.py --workload corners --seed 1 --seconds 30 --trace 0

Builds the photherm library and the e2ebench program in Release under
.bench_build/e2ebench (incremental after the first run), then runs it.
Workloads: corners, timeline, global_ladder. With --trace 0 the program
times the public pipeline and prints the end-to-end metrics; with
--trace 1 it walks the pipeline layer by layer from outside, writes a
Chrome trace-event file under .bench_build/e2ebench/traces and prints the
per-layer metrics. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. The exit code is non-zero
when the build fails, the sources are missing or an output check fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")


def build():
    """Configure once, then build incrementally; build logs go to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "e2ebench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "e2ebench")


def main(argv):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("e2ebench: photherm sources not found next to " + HERE,
              file=sys.stderr)
        return 2
    try:
        program = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print("e2ebench: build failed: %s" % error, file=sys.stderr)
        return 2
    trace_dir = os.path.join(BUILD, "traces")
    return subprocess.run([program, *argv, "--trace-dir", trace_dir]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
