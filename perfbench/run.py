#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

NAME "all" runs every workload in turn, each in a fresh process.

Builds perfbench/ (a CMake package over the library sources in src/) in
Release mode under $CARGO_TARGET_DIR (default .bench_build), then runs the
perfbench binary, whose last stdout line is the JSON result.  Workloads,
metrics and their rationale are described in perfbench/README.md.

Exit codes: the binary's own (0 ok, 1 incorrect result, 2 bad arguments,
3 unoptimized build), or 2 when the library sources are missing and 1 when
the build fails -- in both cases without printing a result.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table2_cold", "table2_stress", "random_conformance")
RUN_TIMEOUT_S = 175


def source_digest():
    """SHA-256 over the benchmark and library sources (the checkout may
    not be a git repository, so this identifies the code measured)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(build_root):
    """Configure once, then (re)build the perfbench target incrementally.
    Compiler temporaries stay inside the build tree."""
    build_dir = os.path.join(build_root, "perfbench")
    tmp_dir = os.path.join(build_root, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp_dir))
    log_path = os.path.join(build_root, "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                print("error: perfbench build failed (log: %s)" % log_path, file=sys.stderr)
                return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one set-up probe and small request counts (for the tests)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("error: library sources not found at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)
    if binary is None:
        return 1
    out_dir = os.path.join(build_root, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    # Unix socket paths are limited to ~107 bytes: pass it relative to ROOT.
    socket_path = os.path.relpath(os.path.join(build_root, "perfbench.sock"), ROOT)

    commit = "%s+src:%s" % (git_commit(), source_digest())
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        command = [binary, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", str(args.trace),
                   "--out-dir", out_dir, "--socket", socket_path, "--commit", commit]
        if args.smoke:
            command.append("--smoke")
        sys.stdout.flush()
        try:
            code = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print("error: perfbench exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
            code = 1
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
