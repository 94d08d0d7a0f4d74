#!/usr/bin/env python3
"""The repository benchmark: build perfbench from this checkout and run one
seeded, named workload.

    python3 perfbench/run.py --workload personalize --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --list

Run it from the root of a checkout. It configures and builds perfbench/ (and
the library sources under src/) into $CARGO_TARGET_DIR, default .bench_build,
runs the workload there, and removes its scratch directories afterwards.
Set-up and the single-user phases run the thread pool at one lane; the fleet
phase runs at four. The report goes to standard
output; the last line is one JSON object with the keys correct, attempted,
failed and metrics (end-to-end metrics with --trace 0, per-layer metrics
with --trace 1).

Workloads (see perfbench/src/main.cpp for their sizes):
  personalize  the paper's loop; training dominates
  fleet        concurrent users over shared lanes; scheduling dominates
  generate     device-scale decode at fp32 and int8; kernels dominate

Later performance claims are re-checked on the held-out seed 2718281, which
is never used while a change is tuned.

A timed run is refused while ODLP_TRACE, ODLP_PROFILE or ODLP_SIMD is set,
since each changes what is measured.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 170
REFUSED_ENV = ("ODLP_TRACE", "ODLP_PROFILE", "ODLP_SIMD")


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_jobs():
    return max(1, min(4, os.cpu_count() or 1))


def configured_source(build_dir):
    """Source directory a CMake build tree was configured for, or None."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return os.path.realpath(line.split("=", 1)[1].strip())
    except OSError:
        pass
    return None


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    steps = [["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", str(build_jobs())]]
    # A tree configured for this source re-runs CMake by itself when a CMake
    # file changed; configure only a new tree or one made for another source.
    if configured_source(build_dir) != os.path.realpath(HERE):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, None without it."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_child(cmd, env):
    """Runs the benchmark process; returns (returncode, stdout)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("workload exceeded %d s" % CHILD_TIMEOUT_S)
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="list the workloads and the held-out seed")
    args = parser.parse_args()
    if not args.list and not args.workload:
        parser.error("--workload or --list is required")

    set_vars = [v for v in REFUSED_ENV if v in os.environ]
    if set_vars and not args.list:
        fail("refusing a timed run with %s set" % ", ".join(set_vars), 2)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build", "perfbench")
    binary = build(build_dir)
    if args.list:
        sys.exit(subprocess.run([binary, "--list"], cwd=ROOT).returncode)

    scratch = os.path.join(build_dir, "run-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    env = dict(os.environ)
    env["ODLP_LOG_LEVEL"] = "warn"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    started = time.monotonic()
    try:
        code, out = run_child(cmd, env)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if code != 0 or not lines:
        sys.stdout.write(out)
        fail("workload exited with code %d" % code)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        fail("workload printed no result line")
    expected = expected_metrics(args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        fail("metrics differ from BENCHMARK.json: %s" % sorted(
            set(result["metrics"]) ^ expected))
    print("\n".join(lines[:-1]))
    print("wall: %.1f s" % (time.monotonic() - started))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
