#!/usr/bin/env python3
"""Self-tests of the reference-shape benchmark at a tiny shape (n=2000, d=32).

Run from the repository root (builds refbench first if needed):

    python3 perfbench/selftest.py

Checks, through perfbench/run.py exactly as the benchmark is invoked:
  * every workload passes its correctness gates, traced and untraced;
  * every metric BENCHMARK.json names is present, finite and carries its unit;
  * fr_inproc and fr_service print the same estimate digest for one seed;
  * a traced and an untraced run print the same digest;
  * without the library sources next to it, run.py fails without a result.
"""

import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = ["--n", "2000", "--d", "32", "--seconds", "0"]


def run(workload, seed, trace, cwd=ROOT):
    command = [sys.executable, str(cwd / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(trace)] + TINY
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def parse(done, label):
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise AssertionError(f"{label}: exit {done.returncode}\n"
                             f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    digest = next(line.split()[1] for line in lines
                  if line.startswith("digest "))
    return result, digest


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(condition, message):
        if not condition:
            failures.append(message)
        print(("ok   " if condition else "FAIL ") + message)

    digests = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} trace={trace}"
            result, digest = parse(run(workload, 1, trace), label)
            digests[(workload, trace)] = digest
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"},
                  f"{label}: result has exactly the contract keys")
            check(result["correct"] is True, f"{label}: gates pass")
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  f"{label}: deliveries attempted and none failed")
            names = [m["name"] for m in spec[section]]
            check(sorted(result["metrics"]) == sorted(names),
                  f"{label}: exactly the {section} metrics")
            for entry in spec[section]:
                got = result["metrics"].get(entry["name"], {})
                value = got.get("value")
                check(isinstance(value, (int, float)) and
                      math.isfinite(value) and got.get("unit") == entry["unit"],
                      f"{label}: {entry['name']} finite, in {entry['unit']}")
        check(digests[(workload, 0)] == digests[(workload, 1)],
              f"{workload}: traced and untraced digests agree")
    check(digests[("fr_inproc", 0)] == digests[("fr_service", 0)],
          "fr_inproc and fr_service digests agree")

    # Only BENCHMARK.json and the benchmark's own files: no library to build.
    bare = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / \
        "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("fr_inproc", 1, 0, cwd=bare)
    last = done.stdout.strip().splitlines()[-1:] or [""]
    check(done.returncode != 0 and not last[0].startswith("{"),
          "without the sources run.py fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
