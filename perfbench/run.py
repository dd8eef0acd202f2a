#!/usr/bin/env python3
"""Builds featsep's end-to-end benchmark from source and runs one workload.

Run from the root of a featsep checkout:

    python3 perfbench/run.py --workload fit-cold --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (which compiles the library
from src/) into .bench_build/perfbench; later runs only re-check the build.
Build output goes to standard error, so the last line of standard output is
the benchmark's JSON result. Spans of a traced run go to .bench_out/.
--degrade plants a regression for test_sensitivity.py; see README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "featsep_perfbench")
# A run's time limit: its timed phase (which the legs of a traced run
# share) with a margin, plus slack for set-ups, probes and oracle checks.
# The benchmark ends well within this; a hung run yields no result.
TIMEOUT_MARGIN = 1.5
TIMEOUT_SLACK_S = 60


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(3)


def build(jobs):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("src/ is missing: run from the root of a featsep checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target",
                   "featsep_perfbench", "-j", str(jobs)]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def git(*args):
    """Standard output of a git command, or None when it fails."""
    try:
        out = subprocess.run(["git"] + list(args), capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_id():
    """The git commit, with "-dirty-" and a digest of the sources when src/
    or perfbench/ differ from it; outside git, the digest alone."""
    if os.path.isdir(".git"):
        head = git("rev-parse", "HEAD")
        changes = git("status", "--porcelain", "--", "src", "perfbench")
        if head is not None and changes == "":
            return head
        if head is not None and changes is not None:
            return head + "-dirty-" + source_digest()
    return source_digest()


def source_digest():
    digest = hashlib.sha1()
    for root in ("src", "perfbench"):
        for directory, dirs, files in os.walk(root):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha1-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fit-cold", "serve-zipf", "mutate-stream"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--degrade", default="")
    args = parser.parse_args()

    build(os.cpu_count() or 1)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--commit", source_id()]
    if args.degrade:
        command += ["--degrade", args.degrade]
    timeout = args.seconds * TIMEOUT_MARGIN + TIMEOUT_SLACK_S
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish within %.0f s" % timeout)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
