#!/usr/bin/env python3
"""Builds and runs the layered serving benchmark.

    python3 pdxbench/run.py --workload <ann-ivf|exact-flat-large|live-http> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
library and the benchmark from source into .bench_build (or the directory
CARGO_TARGET_DIR names); later runs rebuild incrementally. Build output goes
to stderr, so the last line of stdout is always the benchmark's result line.
Everything the run writes stays inside the checkout: the build directory and
.bench_run (save files, spans, result files).
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "pdxbench")
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target)


def checkout_env():
    """The environment for every child: temporary files (the compiler's
    included) go under the build directory, inside the checkout."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    out = build_dir()
    env = checkout_env()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(["ninja", "--version"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL, env=env) == 0:
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr, stderr=sys.stderr,
                           env=env):
            return False
    return subprocess.call(["cmake", "--build", out, "-j", jobs],
                           stdout=sys.stderr, stderr=sys.stderr, env=env) == 0


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the source files the benchmark builds (an exported tree has no .git)."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, env=env,
                                 timeout=10).stdout.strip()
            if sha:
                return sha
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "pdxbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    if not build():
        print("pdxbench: build failed", file=sys.stderr)
        return 1
    command = [os.path.join(build_dir(), "pdxbench"),
               "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--git-sha", source_id(),
               "--out-dir", os.path.join(ROOT, ".bench_run")]
    process = subprocess.Popen(command, cwd=ROOT, env=checkout_env())
    try:
        return process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        print("pdxbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
