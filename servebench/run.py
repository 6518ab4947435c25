#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 servebench/run.py --selftest

Run from the root of a checkout. The first run configures and builds
the library and the benchmark (Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs reuse the build. Build
output goes to stderr, so the last line of stdout is the benchmark's
JSON result. The exit code is the benchmark's: non-zero when the build
fails, when a served output is wrong, or when the run overruns.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "servebench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "servebench")


def declared_metrics_match(binary):
    """The binary's metric table equals the one in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = subprocess.run([binary, "--list-metrics"], check=True,
                            capture_output=True, text=True).stdout.split("\n")
    have = sorted(tuple(l.split()) for l in listed if l.strip())
    want = sorted((kind, m["name"], m["unit"])
                  for kind in ("end_to_end", "per_layer")
                  for m in spec[kind])
    ok = have == want
    print("  [%s] metric table matches BENCHMARK.json" %
          ("ok" if ok else "FAIL"))
    return ok


def main():
    args = sys.argv[1:]
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("servebench: build failed: %s" % e, file=sys.stderr)
        return 1
    if args == ["--selftest"]:
        ok = declared_metrics_match(binary)
        rc = subprocess.run([binary, "--selftest"],
                            timeout=RUN_TIMEOUT_S).returncode
        return 0 if ok and rc == 0 else 1
    try:
        return subprocess.run([binary] + args,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("servebench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
