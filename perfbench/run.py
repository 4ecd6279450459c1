#!/usr/bin/env python3
"""The repository benchmark: builds semtag from source and runs one workload.

    python3 perfbench/run.py --workload serve_cascade --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. It configures and builds the
`semtag_serve` daemon and the `perfbench` client (perfbench/CMakeLists.txt,
which compiles the repository's src/ tree) under $CARGO_TARGET_DIR, or
`.bench_build` when that is unset. The pretrained BERT backbone is cached
there too, so only the first run in a checkout pays for pretraining.

The client prints the workload's report and, as its last line, the result
object {"correct", "attempted", "failed", "metrics"}. This script checks that
line against the metric names and units in BENCHMARK.json before relaying
it, and exits non-zero when the build, a correctness check or the result
line fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# One pool thread for the daemon and for in-process work. On a 4-vCPU
# host whose hypervisor steals time from busy vCPUs, two pool threads made
# every parallel step wait for the slower vCPU: qps spread several-fold
# between runs, against ~10% at one thread, which was also no slower.
THREADS = "1"
# A run must end within 180 s once the build and the backbone are cached.
CLIENT_TIMEOUT_S = 170.0


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run_group(cmd, env, timeout, capture=False):
    """Runs cmd in its own process group; on timeout kills the whole group,
    so no daemon the client started outlives this script."""
    proc = subprocess.Popen(
        cmd, env=env, cwd=ROOT, start_new_session=True,
        stdout=subprocess.PIPE if capture else sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"timed out: {' '.join(cmd)}")
        return 124, ""
    finally:
        # Reap anything the client left behind in its group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out or ""


def build(build_dir, env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no source tree next to perfbench/ (src/CMakeLists.txt missing)")
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_group(cmd, env, 300)[0] != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--parallel", jobs,
           "--target", "perfbench", "semtag_serve"]
    return run_group(cmd, env, 850)[0] == 0


def check_result(line, expected):
    """The result object must carry exactly the expected metrics."""
    try:
        result = json.loads(line)
    except ValueError as e:
        return f"result line is not JSON: {e}"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result line has the wrong keys"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != expected:
        return f"metrics {sorted(got)} do not match BENCHMARK.json"
    if result["correct"] is not True:
        return "the run's outputs were not correct"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 2
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    if args.seed < 0 or args.seconds < 1:
        log("--seed must be >= 0 and --seconds >= 1")
        return 2
    expected = {m["name"]: m["unit"]
                for m in bench["per_layer" if args.trace else "end_to_end"]}

    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(out_dir, "perfbench")
    work_dir = os.path.join(out_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    # A hermetic environment: no inherited SEMTAG_* knob changes what runs.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SEMTAG_")}
    env["SEMTAG_NUM_THREADS"] = THREADS
    env["SEMTAG_CACHE_DIR"] = os.path.join(out_dir, "cache")

    if not build(build_dir, env):
        log("build failed")
        return 1
    client = os.path.join(build_dir, "perfbench")
    daemon = os.path.join(build_dir, "semtag", "cli", "semtag_serve")
    if run_group([client, "--self-test"], env, 60)[0] != 0:
        log("the client's result-line self-test failed")
        return 1
    # Pretrains the BERT backbone into the cache on the first run only.
    if run_group([client, "--warm"], env, 600)[0] != 0:
        log("backbone warm-up failed")
        return 1

    cmd = [client, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", daemon, "--work", work_dir]
    code, out = run_group(cmd, env, CLIENT_TIMEOUT_S,
                          capture=True)
    lines = out.rstrip("\n").split("\n")
    problem = check_result(lines[-1], expected) if lines[-1] else "no result line"
    if problem:
        print("\n".join(lines[:-1]))
        log(problem)
        return code or 1
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
