#!/usr/bin/env python3
"""Benchmark entry point: builds the harness from source, runs one workload and
prints its metrics, the last line being one JSON object.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The build lands in .bench_build/perfbench
(first run: about 1.5 minutes on 4 cores; later runs reuse it). Workloads
and metrics are declared in BENCHMARK.json; see perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

# A run must end within 180 s; stop the workload well before that.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

# Per-layer metrics each workload does not exercise (a trailing "." names a
# prefix); they read 0. Every other declared per-layer metric must come
# from the workload itself, and the harness fails a run whose span or
# counter was never recorded.
NOT_EXERCISED = {
    "offline_exact": ["span.cbs_prune_s", "span.serve.utility_matrix_s",
                      "lacb.cbs_pruned_columns", "serve.", "cluster.",
                      "loadgen."],
    "serve_open": ["policy.", "sim.batch_input_s", "sim.commit_s",
                   "cluster."],
    "fleet_failover": ["policy.", "span.", "matching.", "sim.", "lacb.",
                       "serve.", "loadgen."],
}


def exercised(workload, metric):
    for name in NOT_EXERCISED[workload]:
        if metric == name or (name.endswith(".") and metric.startswith(name)):
            return False
    return True


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir, env):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench", "lacb_shard"])
    for cmd in steps:
        # Build logs go to stderr: stdout carries the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def run_workload(cmd, env, timeout_s):
    """Runs the harness in its own process group (it spawns shard
    processes) and kills the whole group if it overruns."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("workload exceeded %d s" % timeout_s)
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # reap any straggler
    except ProcessLookupError:
        pass
    return proc.returncode, out


def main():
    start = time.monotonic()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    if args.workload not in NOT_EXERCISED:
        fail("no per-layer coverage declared for " + args.workload)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found under " + root)
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    tmp_dir = os.path.join(root, ".bench_build", "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    build(root, build_dir, env)

    workdir = os.path.join(root, ".bench_build", "work-%d" % os.getpid())
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--shard-binary", os.path.join(build_dir, "lacb", "lacb_shard"),
           "--workdir", workdir]
    first_run = time.monotonic() - start > 10
    budget = (900 if first_run else 180) - (time.monotonic() - start) - 10
    try:
        code, out = run_workload(cmd, env, min(RUN_TIMEOUT_S, budget))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stdout.write(out)
        fail("workload %s exited with %d" % (args.workload, code))

    result = json.loads(lines[-1])
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = {m["name"] for m in declared}
    extra = set(result["metrics"]) - names
    if extra:
        fail("undeclared metrics: " + ", ".join(sorted(extra)))
    for metric in declared:
        name = metric["name"]
        must_report = not args.trace or exercised(args.workload, name)
        if name in result["metrics"]:
            if not must_report:
                fail("%s reports %s, declared not exercised"
                     % (args.workload, name))
            continue
        if must_report:
            fail("missing metric " + name)
        result["metrics"][name] = {"value": 0, "unit": metric["unit"]}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        if got["unit"] != metric["unit"]:
            fail("metric %s has unit %s, declared %s"
                 % (metric["name"], got["unit"], metric["unit"]))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
