#!/usr/bin/env python3
"""Repository benchmark: one workload per call, run in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (the harness plus the ecgf_* libraries from src/) with CMake
into $CARGO_TARGET_DIR (default .bench_build) inside the checkout; later
calls reuse that build. The harness then runs the workload for S seconds
with ECGF_THREADS pinned to min(4, cores) and prints one JSON object as
the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes the spans to <build>/spans/). When the build
fails or the output does not match BENCHMARK.json, nothing is printed and
the exit code is non-zero; when a correctness check fails, the result is
printed with "correct": false and the exit code is non-zero.

--smoke shrinks every workload to a few hundred caches (the self-test in
perfbench/selftest.py uses it). README.md documents the seeds.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def threads():
    return max(1, min(4, os.cpu_count() or 1))


def build_root():
    """Build directory inside the checkout ($CARGO_TARGET_DIR if it is)."""
    fallback = os.path.join(ROOT, ".bench_build")
    chosen = os.path.normpath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    return chosen if chosen.startswith(ROOT + os.sep) else fallback


def build(build_dir):
    """Configure (once) and build the harness; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt next to perfbench/: run from a full "
             "checkout", code=2)
    if shutil.which("cmake") is None:
        fail("cmake not found", code=2)
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [HERE]:  # configured for another checkout: start over
            shutil.rmtree(build_dir)
    if not os.path.isfile(cache):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(8, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "ecgf_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}, bench


def run_harness(cmd, env):
    """Run the harness in its own process group so that live members it
    spawns are stopped with it on a timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        try:  # reap anything left in the group (members after a crash)
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def validate(result, trace):
    expected, _ = expected_metrics(trace)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(expected) - set(metrics)),
            sorted(set(metrics) - set(expected)))
    for name, m in metrics.items():
        if m.get("unit") != expected[name]:
            return "%s has unit %r, expected %r" % (name, m.get("unit"),
                                                    expected[name])
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return "%s is not a finite number" % name
        if not trace and value <= 0:
            return "end-to-end metric %s is %r" % (name, value)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "no correctness check was attempted"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", code=2)

    build_dir = os.path.join(build_root(), "perfbench")
    binary = build(build_dir)
    _, bench = expected_metrics(args.trace)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload %r" % args.workload, code=2)

    env = {k: v for k, v in os.environ.items()
           if k not in ("ECGF_PROF", "ECGF_TRACE", "ECGF_SKIP_LIVE")}
    env["ECGF_THREADS"] = str(threads())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        spans_dir = os.path.join(build_root(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]

    started = time.monotonic()
    code, out = run_harness(cmd, env)
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("harness printed no result (exit code %s)" % code)
    problem = validate(result, args.trace)
    if problem:
        fail(problem)
    print("# harness_s: %.3f" % (time.monotonic() - started))
    print(json.dumps(result))
    if code != 0 or not result["correct"] or result["failed"] != 0:
        fail("%d of %d correctness checks failed (exit code %s)" % (
            result["failed"], result["attempted"], code))


if __name__ == "__main__":
    main()
