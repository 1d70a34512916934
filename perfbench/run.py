#!/usr/bin/env python3
"""Reference-shape benchmark: builds refbench from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fr_inproc --seed 1 --seconds 30

The workload names and the metrics reported for --trace 0 (end-to-end) and
--trace 1 (per-layer) are listed in BENCHMARK.json next to this directory.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The build
lands in $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), and
the span file of a traced run next to it under runs/.
"""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end within 180 s; stop short of that.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir, env):
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "refbench",
                  "-j", "4"])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(step))
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            fail("build failed: " + " ".join(step))
    return build_dir / "refbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Smaller shapes for the self-tests. Without --n each workload runs at
    # its reference client count (refbench --help lists them); d = 256.
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--d", type=int, default=256)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (ROOT / target / "perfbench").resolve()
    # Compiler and program temporary files stay inside the checkout too.
    tmp_dir = build_dir / "tmp"
    out_dir = build_dir / "runs"
    for directory in (tmp_dir, out_dir):
        directory.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp_dir))
    binary = build(build_dir, env)

    # The UDS path must fit in sun_path, so refbench gets a relative one.
    command = [str(binary), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--trace={args.trace}", f"--d={args.d}",
               f"--out-dir={os.path.relpath(out_dir, ROOT)}"]
    if args.n is not None:
        command.append(f"--n={args.n}")
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"refbench timed out after {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if not lines:
        fail(f"refbench printed nothing (exit {done.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"refbench exited {done.returncode} without a result line")
    for line in lines[:-1]:
        print(line)
    print(f"digest {result['digest']}")

    metrics = {}
    for entry in wanted:
        got = result["metrics"].get(entry["name"])
        if got is None or got["unit"] != entry["unit"]:
            fail(f"metric {entry['name']} missing or not in {entry['unit']}")
        if not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            fail(f"metric {entry['name']} is not a finite number")
        metrics[entry["name"]] = {"value": got["value"], "unit": got["unit"]}

    correct = bool(result["correct"]) and done.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
