#!/usr/bin/env python3
"""Builds and runs pipebench, the AJD pipeline benchmark.

Usage (from the root of a checkout):

    python3 pipebench/run.py --workload fit_batch --seed 1 --seconds 30 --trace 0

The first call configures and builds the `pipebench` binary (and the `ajd`
library it links) under .bench_build/pipebench with CMake; later calls only
re-run the no-op incremental build. The binary then runs the workload and
prints a stamp line and, as the last line of standard output, one JSON
object {"correct", "attempted", "failed", "metrics"}. --trace 1 also writes
the run's spans to .bench_build/pipebench/traces/.

Extra flags for the benchmark's own test: --tiny (test-sized inputs) and
--perturb-reference (corrupts one reference answer, so the run must fail).

Exit codes: the binary's (0 correct, 1 wrong answer); 2 when the checkout
holds no sources to build or the build fails; 3 when the run times out.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The run must end within 180 s; leave room for start-up and clean-up.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(message, code=2):
    print("pipebench: " + message, file=sys.stderr)
    sys.exit(code)


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources the binary is built from."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "pipebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=log,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "--target", "pipebench",
                       "-j", jobs], stdout=log, stderr=log,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "pipebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--perturb-reference", action="store_true")
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no AJD sources next to pipebench/ (need CMakeLists.txt and "
             "src/ at %s)" % ROOT)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "pipebench")
    binary = build(build_dir)

    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir, "--source", source_id(),
           "--trace-out", os.path.join(
               trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.tiny:
        cmd.append("--tiny")
    if args.perturb_reference:
        cmd.append("--perturb-reference")
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, code=3)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(run.stdout.decode())
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
