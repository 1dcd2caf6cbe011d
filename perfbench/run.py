#!/usr/bin/env python3
"""Frappé end-to-end benchmark: build, prepare inputs, run one workload.

Run from the repository root:

  python3 perfbench/run.py --workload paper-queries --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --smoke        # every workload at a small scale

The benchmark is built from the checkout's sources into .bench_build/ (a
standalone CMake project in perfbench/ that compiles ../src). Generated
inputs are cached per (digest of the code that writes them, scale, seed)
under .bench_build/perfbench-cache/<digest>, so each version of the code
reads inputs its own code wrote, and made in a separate process before the
measured one, so generation never shows in a run's time or peak RSS.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}; with --trace 0 the metrics are BENCHMARK.json's end_to_end
metrics, with --trace 1 its per_layer ones. The line before it is the
run's provenance (host, scale, seed, source digest, build type, load
shape). A result whose metric names or units differ from BENCHMARK.json is
reported as incorrect.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench-build")
BINARY = os.path.join(BUILD_DIR, "frappe_perfbench")
WORKLOADS = ("paper-queries", "point-serve", "ingest-publish")
# Preparing inputs and the measured run share one deadline, inside the
# 180 s a run may take once built.
RUN_DEADLINE_S = 170


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest(paths=("src", "perfbench")):
    """sha256 over the files under `paths` (relative to the root). Over the
    library and benchmark sources it identifies the code measured even
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    files = []
    for top in paths:
        top = os.path.join(ROOT, top)
        if os.path.isfile(top):
            files.append(top)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            files += [os.path.join(dirpath, name) for name in sorted(filenames)]
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


# The code that writes the cached inputs: the libraries (generators,
# snapshot format) and the benchmark's input preparation.
INPUT_SOURCES = ("src", "perfbench/inputs.cc", "perfbench/inputs.h")


def build(sha):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no Frappé sources at {ROOT}/src; nothing to build")
        sys.exit(2)
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release", f"-DFRAPPE_GIT_SHA={sha}"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("cmake configure failed")
            sys.exit(2)
    step = ["cmake", "--build", BUILD_DIR, "-j", jobs,
            "--target", "frappe_perfbench"]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(2)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def run_binary(args, env, deadline, extra=()):
    cache = os.path.join(ROOT, ".bench_build", "perfbench-cache",
                         env["PERFBENCH_INPUT_DIGEST"])
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cache-dir", cache,
           "--work-dir", os.path.join(ROOT, ".bench_build", "perfbench-work"),
           *extra]
    if args.scale is not None:
        cmd += ["--scale", str(args.scale)]
    if getattr(args, "drop_requests", 0):
        cmd += ["--drop-requests", str(args.drop_requests)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1, deadline - time.time()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{' '.join(cmd)} timed out")
        sys.exit(3)
    if proc.returncode != 0:
        log(f"{' '.join(cmd)} exited {proc.returncode}")
        sys.exit(3)
    return out


def run_once(args):
    """Runs one workload; returns the result dict and the lines before it."""
    sha = git_sha()
    build(sha)
    env = {k: v for k, v in os.environ.items() if not k.startswith("FRAPPE_")}
    env["FRAPPE_GIT_SHA"] = sha
    env["PERFBENCH_SRC_DIGEST"] = source_digest()
    env["PERFBENCH_INPUT_DIGEST"] = source_digest(INPUT_SOURCES)
    deadline = time.time() + RUN_DEADLINE_S
    run_binary(args, env, deadline, ["--prepare", "1"])
    trace_out = os.path.join(ROOT, ".bench_build",
                             f"perfbench-spans-{args.workload}.json")
    out = run_binary(args, env, deadline,
                     ["--trace-out", trace_out] if args.trace else [])
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        log("no result line")
        sys.exit(3)
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        log(f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"extra {extra}, wrong units {wrong}")
        result["correct"] = False
    return result, lines[:-1]


def smoke():
    """Every workload at a small scale, untraced and traced: checks that
    each run is correct and reports exactly BENCHMARK.json's names and
    units. Then a point-serve run whose server drops three quarters of the
    requests must come out incorrect, with its latencies at the worst
    value rather than a flattering one."""
    scales = {"paper-queries": 0.05, "point-serve": 0.05,
              "ingest-publish": 0.2}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=2,
                                      trace=trace, scale=scales[workload])
            result, _ = run_once(args)
            passed = result["correct"] and result["failed"] == 0
            log(f"smoke {workload} trace={trace}: "
                f"{'ok' if passed else 'FAILED'}")
            ok = ok and passed
    args = argparse.Namespace(workload="point-serve", seed=1, seconds=2,
                              trace=0, scale=scales["point-serve"],
                              drop_requests=1500)
    result, _ = run_once(args)
    p50 = result["metrics"].get("q1_p50_ms", {}).get("value", 0)
    passed = (not result["correct"] and result["failed"] >= 1500 and
              p50 >= sys.float_info.max)
    log(f"smoke point-serve with 1500 dropped requests: "
        f"{'ok' if passed else 'FAILED'} (correct={result['correct']}, "
        f"failed={result['failed']}, q1_p50_ms={p50})")
    return 0 if ok and passed else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="graph scale (kernel workloads) or source-tree "
                             "scale (ingest-publish); default per workload")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result, before = run_once(args)
    for line in before:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
