#!/usr/bin/env python3
"""Quick self-test of vbench at tiny sizes (about a minute).

Run from the repository root:

    python3 vbench/selftest.py

Checks, for every workload in BENCHMARK.json:
  * an untraced run prints every end-to-end metric by name with its unit,
    passes its output checks, and prints the same modeled digest twice;
  * a traced run prints every per-layer metric by name with its unit and
    its span self times reconcile with the traced wall time;
and that a corrupted expected checksum makes a run fail a cell.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(workload, trace, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if out.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (cmd, out.returncode, out.stderr))
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    digest = [l.split()[3] for l in lines if l.startswith("vbench: modeled digest")]
    return result, digest[0], out.stdout


def check_metrics(result, specs, what):
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        assert got is not None, "%s: %s missing" % (what, spec["name"])
        assert got["unit"] == spec["unit"], "%s: %s unit %s" % (what, spec["name"], got["unit"])
    assert len(result["metrics"]) == len(specs), "%s: extra metrics" % what


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        first, digest, _ = run(name, 0)
        check_metrics(first, bench["end_to_end"], name)
        assert first["correct"] and first["failed"] == 0, (name, first)
        _, again, _ = run(name, 0)
        assert again == digest, "%s: digest %s then %s" % (name, digest, again)

        traced, traced_digest, text = run(name, 1)
        check_metrics(traced, bench["per_layer"], name + " traced")
        assert traced["correct"], (name, traced)
        assert traced_digest == digest, (name, digest, traced_digest)
        assert "(reconciled)" in text, "%s: self times do not reconcile" % name
        print("ok  %-18s digest %s" % (name, digest))

    # A corrupted expected checksum must fail its cells, not abort the run.
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    expected["DP size=1024 iters=4"] = "corrupted"  # jit-steady's tiny DP
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bad = os.path.join(build, "expected-corrupted.json")
    with open(bad, "w") as f:
        json.dump(expected, f)
    result, _, _ = run("jit-steady", 0, "--expected", bad)
    ok_frac = result["metrics"]["ok_frac"]["value"]
    assert not result["correct"] and result["failed"] == 2 and ok_frac < 1, result
    print("ok  corrupted expected checksum: failed=%d ok_frac=%.4f"
          % (result["failed"], ok_frac))
    print("selftest passed")


if __name__ == "__main__":
    main()
