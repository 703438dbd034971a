#!/usr/bin/env python3
"""Run the LLP benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Builds the harness (perfbench/CMakeLists.txt,
which compiles the library from ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs one workload and prints,
as its last line, one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. A traced run also writes its spans as a
Chrome trace under <build root>/traces and validates it with the repository's
`llp_trace check`.

Exit codes: 0 run completed, 1 build or run error, 2 usage or no sources,
3 an LLP_* variable that changes the program under test is set.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper1m_serial", "paper1m_t4", "serve_jobs")
ENV_REFUSED = 3  # llpbench's exit code for an LLP_* variable it refuses
RUN_DEADLINE_S = 170.0  # after the build, which only the first run pays
BUILD_DEADLINE_S = 700.0


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target) if not os.path.isabs(target) else target


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True,
                             timeout=BUILD_DEADLINE_S)
        if res.returncode != 0:
            sys.stderr.write(res.stdout)
            fail(1, "cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", "4", "--target", "llpbench",
           "llp_trace"]
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, text=True,
                         timeout=BUILD_DEADLINE_S)
    if res.returncode != 0:
        sys.stderr.write(res.stdout)
        fail(1, "build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be positive")

    for f in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
              os.path.join("tools", "llp_trace.cpp")):
        if not os.path.isfile(os.path.join(ROOT, f)):
            fail(2, "no LLP sources in %s (missing %s)" % (ROOT, f))

    root = build_root()
    build_dir = os.path.join(root, "perfbench")
    build(build_dir)
    exe = os.path.join(build_dir, "llpbench")

    if args.selftest:
        sys.exit(subprocess.run([exe, "selftest"], cwd=ROOT).returncode)

    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    # Relative paths keep the serve socket path under the AF_UNIX limit.
    work_dir = os.path.relpath(os.path.join(root, "run", tag), ROOT)
    trace_file = os.path.join(root, "traces",
                              "%s-seed%d.json" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(trace_file), exist_ok=True)
    cmd = [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir,
           "--reference", os.path.join(HERE, "reference.txt")]
    if args.trace:
        cmd += ["--trace-file", trace_file]
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        fail(1, "workload did not finish within %.0f s" % RUN_DEADLINE_S)
    lines = res.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if res.returncode == ENV_REFUSED:
        sys.exit(ENV_REFUSED)  # llpbench said which variable on stderr
    if res.returncode != 0:
        fail(1, "llpbench exited with %d" % res.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(1, "llpbench printed no result line")

    metrics = result["metrics"]
    missing = [m for m in expected_metrics(args.trace) if m not in metrics]
    if missing:
        fail(1, "metrics missing from the run: " + ", ".join(missing))
    result["metrics"] = {m: metrics[m] for m in expected_metrics(args.trace)}

    if args.trace:
        check = subprocess.run([os.path.join(build_dir, "llp_trace"), "check",
                                trace_file], cwd=ROOT, stdout=subprocess.PIPE,
                               text=True)
        print("llp_trace " + check.stdout.strip())
        if check.returncode != 0:
            result["correct"] = False

    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))


if __name__ == "__main__":
    main()
