#!/usr/bin/env python3
"""Build the benchmark from source and run one workload once.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The simulator libraries (src/) and the benchmark program (perfbench/) are
compiled with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) under the checkout root; the first run builds, later
runs only re-check the build.  Build output goes to stderr.  stdout carries
the diagnostics line and, as its last line, the result object.
The traced run (--trace 1) also writes its span log next to the build.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("busy_hour_32k", "registration_storm_100k", "section6_report")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    cmake = shutil.which("cmake")
    if cmake is None:
        log("cmake not found")
        return None
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(build_dir)  # configured for another source tree
    # Compiler temporaries stay inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(cache):
        cfg = [cmake, "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        if subprocess.run(cfg, stdout=sys.stderr, env=env).returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step = [cmake, "--build", build_dir, "--target", "vgprs_perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
        return None
    return os.path.join(build_dir, "vgprs_perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        p.error("--seed must be >= 0 and --seconds in 1..3600")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no simulator sources at {os.path.join(ROOT, 'src')}")
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    if binary is None:
        log("build failed")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        out_dir = os.path.join(build_dir, "spans")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--out", out_dir]
    # A SIGTERM to this script must stop the run too, not orphan it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen(cmd)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except BaseException:
        child.kill()
        child.wait()
        log("run did not finish; stopped")
        return 1


if __name__ == "__main__":
    sys.exit(main())
