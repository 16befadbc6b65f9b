#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 e2e_bench/run.py --workload archive|sweep|fleet --seed N \\
        --seconds S --trace 0|1 [coral_e2e options...]

Run from the repository root. The first run configures and builds the
CORAL library and the coral_e2e program into .bench_build/e2e; later runs
only confirm the build is current. Build output goes to stderr. The
report of coral_e2e goes to stdout and ends with one JSON line; the exit
code is its own (0 only when every op passed its output check).
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2e")


def build():
    """Configure (once) and build coral_e2e; returns its path."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        # Concurrent runs in one checkout share the build directory.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
                       check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "coral_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["archive", "sweep", "fleet"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = parser.parse_known_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("error: no CORAL sources at %s/src; run from a repository checkout" % ROOT,
              file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("error: build failed: %s" % e, file=sys.stderr)
        return 3

    bench_dir = os.path.dirname(BUILD)
    store = os.path.join(bench_dir, "e2e-store-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--store-dir", store]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            bench_dir, "e2e-trace-%s-s%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd + extra)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.terminate()
            proc.wait()
        shutil.rmtree(store, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
