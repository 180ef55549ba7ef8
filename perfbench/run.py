#!/usr/bin/env python3
"""Serving benchmark: one seeded workload against an in-process hiqued.

Run from the root of a checkout:

    python3 perfbench/run.py --workload warm_olap --seed 1 --seconds 10 --trace 0

The first run builds the engine and the driver into .bench_build (or
$CARGO_TARGET_DIR). The driver checks every answer and prints a report
(machine fingerprint, report-only figures); this script passes it on and
prints, as the last line, one JSON object with the metrics that
BENCHMARK.json names (end_to_end with --trace 0, per_layer with --trace 1).
It exits non-zero, without that line, if the build or the run fails, and
non-zero after printing it if any answer was wrong. See perfbench/README.md
for the workloads and what each metric should move.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

DRIVER_TIMEOUT_S = 170
RESULT_PREFIX = "PERFBENCH_RESULT "


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, build_dir, env):
    here = os.path.dirname(os.path.abspath(__file__))
    steps = []
    configured = os.path.join(build_dir, "configured")
    if not os.path.exists(configured):
        steps.append(["cmake", "-S", here, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_driver",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
        if cmd[1] == "-S":
            open(configured, "w").close()
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)  # keeps g++ temporaries in the checkout
    if not build(root, build_dir, env):
        return 1

    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload=" + args.workload, "--seed=" + str(args.seed),
           "--seconds=" + str(args.seconds), "--trace=" + str(args.trace),
           "--workdir=" + root]
    # Own process group, so a timeout also stops the compilers it spawned.
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("driver timed out after %d s" % DRIVER_TIMEOUT_S)
        return 1
    result = None
    for line in stdout.splitlines():
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
        else:
            print(line)
    if result is None:
        log("driver exited with %d and no result" % proc.returncode)
        return 1

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("driver did not measure %s in %s" % (m["name"], m["unit"]))
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    os.makedirs(os.path.join(build_dir, "results"), exist_ok=True)
    with open(os.path.join(build_dir, "results", "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    print(json.dumps({"correct": bool(result["correct"]) and proc.returncode == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
