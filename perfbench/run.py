#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md here).

Run from the repository root:

    python3 perfbench/run.py --workload serve_miss --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --test

Every call configures and builds the benchmark package (the difftune
library from src/ plus the benchmark binary) under $CARGO_TARGET_DIR,
default .bench_build; after the first call that is incremental and
quick. Build output goes to stderr, so the last line of stdout is the
run's JSON result.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(base, "perfbench"))


def build(target):
    """Configure and build @target; return its path."""
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", target, "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(out, target)


def source_id():
    """The git commit, or a digest of the sources outside git."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
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
    return "nogit-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.test:
        binary = build("perfbench_test")
        return subprocess.run(
            [binary, os.path.join(ROOT, "BENCHMARK.json")]).returncode

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are "
                     "required")
    binary = build("perfbench")
    workdir = os.path.join(build_dir(), "work")
    return subprocess.run([
        binary, "--workload", args.workload, "--seed", args.seed,
        "--seconds", args.seconds, "--trace", args.trace,
        "--workdir", workdir, "--git-sha", source_id(),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
