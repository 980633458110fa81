#!/usr/bin/env python3
"""Benchmark entry point: build the generator from the checkout's sources,
run one workload, and print its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds
perfbench/CMakeLists.txt (the mpsram library from src/, the generator in
perfbench/src/, the mpsram_serve daemon) into .bench_build/perfbench;
later calls only re-check that build.  Build output goes to stderr, so the
last line of stdout is always the generator's result JSON.  Any failure
(no sources to build, a crashed or timed-out run) exits nonzero without a
result line.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_REL = os.path.join(".bench_build", "perfbench")
WORK_REL = os.path.join(".bench_build", "work")
WORKLOADS = ("fig4_read", "write_sweep", "mc_yield", "serve_mix")
RUN_TIMEOUT_S = 170


def build():
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    build_dir = os.path.join(ROOT, BUILD_REL)
    if not os.path.exists(os.path.join(build_dir, "build.ninja")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, cwd=ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, cwd=ROOT)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    os.makedirs(os.path.join(ROOT, WORK_REL), exist_ok=True)
    cmd = [os.path.join(BUILD_REL, "perfbench_gen"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--data", os.path.join("perfbench", "data"),
           "--work", WORK_REL,
           "--serve", os.path.join(BUILD_REL, "mpsram_serve")]
    if args.trace == "1":
        cmd += ["--trace-out",
                os.path.join(".bench_build", f"trace-{args.workload}.tsv")]
    # Own process group: a timed-out run takes its daemon down with it.
    gen = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           start_new_session=True)
    try:
        out, _ = gen.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(gen.pid, signal.SIGKILL)
        gen.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    if gen.returncode != 0 or not lines:
        print(f"perfbench: generator exited {gen.returncode}",
              file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
