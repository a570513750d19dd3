#!/usr/bin/env python3
"""Builds and runs Neptune's end-to-end benchmark.

    python3 perfbench/run.py --workload browse --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. It compiles the library from ../src
and the benchmark program in perfbench/src into .bench_build/ (or
$CARGO_TARGET_DIR), prints a record of the host and the data directory's
filesystem, then runs the program, whose last stdout line is the JSON
result. Build output goes to stderr. Exits non-zero, without a result,
when the build or the run fails.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    cmake = shutil.which("cmake")
    if cmake is None:
        sys.exit("cmake not found")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        configure = [cmake, "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            sys.exit("configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run([cmake, "--build", build_dir, "--parallel", jobs],
                      stdout=sys.stderr).returncode != 0:
        sys.exit("build failed")
    return os.path.join(build_dir, "neptune_perfbench")


def read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def host_record(data_dir):
    cpuinfo = read("/proc/cpuinfo")
    model = next((line.split(":", 1)[1].strip()
                  for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.machine())
    flags = next((line.split(":", 1)[1].split()
                  for line in cpuinfo.splitlines()
                  if line.startswith("flags")), [])
    # The mount holding the data directory: the longest mount point
    # that prefixes its real path.
    real = os.path.realpath(data_dir)
    mount = ("?", "?", "?")
    for line in read("/proc/mounts").splitlines():
        fields = line.split()
        if len(fields) < 4:
            continue
        point = fields[1]
        if (real == point or real.startswith(point.rstrip("/") + "/")) \
                and len(point) >= len(mount[0]):
            mount = (point, fields[2], fields[3])
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "hypervisor": "hypervisor" in flags,
        "kernel": platform.release(),
        "data_fs": mount[1],
        "data_mount_options": mount[2],
        "python": platform.python_version(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["browse", "history", "checkin"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="corrupt the expected answers; the run must fail")
    args = parser.parse_args()

    out_root = os.path.join(CHECKOUT,
                            os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(os.path.join(out_root, "cmake"))
    os.makedirs(out_root, exist_ok=True)
    print("host: " + json.dumps(host_record(out_root)), flush=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--root", out_root]
    if args.selftest:
        cmd.append("--selftest")
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    proc = subprocess.Popen(cmd, cwd=CHECKOUT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("run timed out")
    if code != 0:
        sys.exit(code if code > 0 else 1)


if __name__ == "__main__":
    main()
