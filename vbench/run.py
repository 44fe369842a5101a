#!/usr/bin/env python3
"""Build vbench from source and run it.

Run from the repository root:

    python3 vbench/run.py --workload jit-steady --seed 1 --seconds 15 --trace 0

The engine library (../src) and the benchmark are configured and built
into $CARGO_TARGET_DIR, else .bench_build, on every call; an up-to-date
tree costs well under a second. All arguments are passed to the vbench
binary, which prints one JSON result as its last line of stdout. A
traced run also writes its spans as Chrome trace JSON into the build
directory. A failed build exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out):
    """Configure (once) and build the vbench target; return the binary."""
    log = sys.stderr
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            # Drop the half-configured tree so the next call starts clean.
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(max(1, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "vbench", "-j", jobs]
    if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
        return None
    return os.path.join(out, "vbench")


def main(argv):
    out = build_dir()
    binary = build(out)
    if binary is None:
        print("vbench: build failed", file=sys.stderr)
        return 1
    args = list(argv)
    if "--expected" not in args:
        args += ["--expected", os.path.join(HERE, "expected.json")]
    if "--trace-out" not in args:
        workload = args[args.index("--workload") + 1] if "--workload" in args else "x"
        args += ["--trace-out", os.path.join(out, "vbench-trace-%s.json" % workload)]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
