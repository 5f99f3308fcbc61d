#!/usr/bin/env python3
"""Builds and runs the treeq serving benchmark.

    python3 perfbench/run.py --workload mix_cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the library from src/) in Release mode under
$CARGO_TARGET_DIR (default .bench_build), later calls rebuild
incrementally. Every run first passes the harness self-tests, then runs
serve_bench, whose last line of output is the JSON result. Build and test
failures exit non-zero without printing a result.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mix_cold", "hot_repeat", "doc_churn")
RUN_TIMEOUT_S = 175


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_logged(cmd, log_path):
    with open(log_path, "w") as log:
        status = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
    if status.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        fail("command failed: " + " ".join(cmd))


def build():
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    run_logged(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
               os.path.join(out, "configure.log"))
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", out, "-j", jobs],
               os.path.join(out, "build.log"))
    return out


def source_identity():
    """The git commit when there is one, plus a digest of the sources."""
    commit = "none"
    try:
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if got.returncode == 0:
            commit = got.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "%s+src:%s" % (commit, digest.hexdigest()[:12])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness self-tests only")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out = build()
    selftest = subprocess.run([os.path.join(out, "harness_selftest")],
                              capture_output=True, text=True, timeout=120)
    sys.stderr.write(selftest.stdout + selftest.stderr)
    if selftest.returncode != 0:
        fail("harness self-tests failed")
    if args.selftest:
        return 0

    cmd = [os.path.join(out, "serve_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", source_identity()]
    try:
        bench = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("serve_bench exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(bench.stderr)
    sys.stdout.write(bench.stdout)
    sys.stdout.flush()
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
