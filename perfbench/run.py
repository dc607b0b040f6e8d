#!/usr/bin/env python3
"""Builds the benchmark program from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload cold|churn|fullscale --seed N \
        --seconds N --trace 0|1

Run from the root of the checkout. The program is built with CMake into
.bench_build/perfbench (the first run builds, later runs reuse it). The last
line of standard output is the program's JSON result; build output goes to
standard error.
"""

import argparse
import hashlib
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("cold", "churn", "fullscale")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def whole_number(text):
    if not re.fullmatch(r"[0-9]{1,12}", text):
        raise argparse.ArgumentTypeError(f"not a whole number: {text!r}")
    return int(text)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=whole_number)
    parser.add_argument("--seconds", required=True, type=whole_number)
    parser.add_argument("--trace", required=True, type=whole_number,
                        choices=(0, 1))
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 3600:
        parser.error("--seconds must be in [1, 3600]")
    return args


def source_revision():
    """The git commit of this checkout, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src; run from a full "
             "checkout of the repository")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        try:
            subprocess.run(step, stdout=sys.stderr, check=True)
        except (OSError, subprocess.CalledProcessError) as e:
            fail(f"build failed: {e}", code=1)


def main(argv):
    args = parse_args(argv)
    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_revision()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", code=1)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
