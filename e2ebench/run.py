#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload paper_b1 --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --selftest --seed 1

The benchmark is configured (Release) and built in $CARGO_TARGET_DIR/e2ebench,
default .bench_build/e2ebench, against the repository's libraries in src/.
Build output goes to stderr; the last line of stdout is the benchmark's JSON
result. Results and their run manifests are written to <build dir>/results.
"""
import argparse
import hashlib
import os
import shlex
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_b1", "search_b32", "shuffle_2m", "rt_agg")


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    if proc.returncode != 0:
        fail("command failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="show that corrupted outputs fail the checks")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the repository sources (src/) are missing beside e2ebench/")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, target, "e2ebench")
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", build, "-j", str(os.cpu_count() or 1)])

    results = os.path.join(build, "results")
    os.makedirs(results, exist_ok=True)
    cmd = [os.path.join(build, "sdps_e2ebench"), "--seed=%d" % args.seed,
           "--out-dir=" + results, "--git-sha=" + source_id(),
           "--argv=" + " ".join(shlex.quote(a) for a in sys.argv)]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload=" + args.workload, "--seconds=%g" % args.seconds,
                "--trace=%d" % args.trace]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
