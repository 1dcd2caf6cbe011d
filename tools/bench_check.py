#!/usr/bin/env python3
"""Validates BENCH_parallel_traversal.json from bench_parallel_traversal.

Checks, in order:

  1. Envelope: bench/git_sha/timestamp strings plus a non-empty entries
     array (the provenance stamp bench_json.h writes).
  2. Timing entries carry iterations >= 1 and min_ms <= avg_ms <= max_ms.
  3. Kernel entries (push-only / pull-only / parallel) carry the
     direction-optimizing fields: `speedup_vs_seed` (> 0),
     `direction_switches` (int >= 0) and `directions` — a comma-joined
     per-level decision list matching push|pull ":" bitmap|array.
  4. Direction sanity: push-only entries never report a pull level,
     pull-only entries never report a push level, and only hybrid
     (parallel) entries may report direction switches.
  5. The meta entry reports all_results_identical == 1 (every engine and
     direction mode returned the same node set).
  6. Perf floor: the closure workload's hybrid entry must show
     speedup_vs_seed >= --min-closure-speedup (default 0.9) against
     the push-only seed kernel measured in the same run — i.e. the
     direction-optimizing kernel never regresses the Fig. 6 lanes. The
     default is 0.9, not 1.0: on all-push workloads (typed closures) the
     hybrid runs the identical levels as the seed plus only per-level cost
     bookkeeping, so honest runs measure parity with best-of noise on
     either side of 1.0, while a genuinely mis-switched pull level
     measures 0.3-0.6x — which the 0.9 floor still fails hard.

Exit code 0 when valid, 1 with a diagnostic otherwise.

Run from ctest as the `bench_check` entry against the JSON the
bench_traversal_smoke fixture writes (a small-scale smoke run whose
sub-ms kernels are noisier still, so ctest passes an explicit 0.7).
"""

import argparse
import json
import re
import sys

DIRECTIONS_RE = re.compile(
    r"^((push|pull):(bitmap|array))(,(push|pull):(bitmap|array))*$")

# Labels look like "<workload> / <engine>"; kernel engines carry the
# direction fields.
KERNEL_ENGINES = {"push-only", "pull-only", "parallel"}


def reject_duplicate_keys(pairs):
    """object_pairs_hook for json.load: a repeated key in one object is an
    error, not a silent last-wins overwrite."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"duplicate JSON key {key!r}")
        out[key] = value
    return out


def fail(message):
    print(f"bench_check: FAIL: {message}", file=sys.stderr)
    return 1


def is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check(path, min_closure_speedup):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f, object_pairs_hook=reject_duplicate_keys)
    except (OSError, ValueError) as e:
        return fail(f"cannot load {path}: {e}")

    if not isinstance(doc, dict):
        return fail(f"{path}: top level is not a JSON object")
    for key in ("bench", "git_sha", "timestamp"):
        if not isinstance(doc.get(key), str) or not doc[key]:
            return fail(f"{path}: {key!r} is not a non-empty string")
    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        return fail(f"{path}: entries is not a non-empty array")
    # The process-cost stamp (peak RSS + CPU seconds via getrusage) rides
    # on every BENCH_*.json so memory regressions show up in artifacts.
    rusage = doc.get("rusage")
    if not isinstance(rusage, dict):
        return fail(f"{path}: rusage is not an object")
    if not is_int(rusage.get("max_rss_kb")) or rusage["max_rss_kb"] <= 0:
        return fail(f"{path}: rusage.max_rss_kb is not an int > 0")
    for key in ("user_s", "sys_s"):
        if not is_num(rusage.get(key)) or rusage[key] < 0:
            return fail(f"{path}: rusage.{key} is not a non-negative"
                        " number")

    meta = None
    kernel_entries = 0
    closure_hybrid_lanes = 0
    for i, e in enumerate(entries):
        where = f"entries[{i}]"
        if not isinstance(e, dict):
            return fail(f"{path}: {where} is not a JSON object")
        label = e.get("label")
        if not isinstance(label, str) or not label:
            return fail(f"{path}: {where}.label is not a non-empty string")
        where = f"entries[{i}] ({label})"
        if label == "meta":
            meta = e
            continue

        if not is_int(e.get("iterations")) or e["iterations"] < 1:
            return fail(f"{path}: {where}.iterations is not an int >= 1")
        for key in ("min_ms", "avg_ms", "max_ms"):
            if not is_num(e.get(key)) or e[key] < 0:
                return fail(f"{path}: {where}.{key} is not a"
                            " non-negative number")
        if not e["min_ms"] <= e["avg_ms"] <= e["max_ms"]:
            return fail(f"{path}: {where} min/avg/max_ms not ordered")
        if not is_int(e.get("results")) or e["results"] < 0:
            return fail(f"{path}: {where}.results is not an int >= 0")
        if e.get("note"):
            return fail(f"{path}: {where} carries note {e['note']!r}")

        engine = label.rsplit(" / ", 1)[-1]
        if engine not in KERNEL_ENGINES:
            continue
        kernel_entries += 1

        if not is_num(e.get("speedup_vs_seed")) or e["speedup_vs_seed"] <= 0:
            return fail(f"{path}: {where}.speedup_vs_seed is not a"
                        " positive number")
        if not is_int(e.get("direction_switches")) \
                or e["direction_switches"] < 0:
            return fail(f"{path}: {where}.direction_switches is not an"
                        " int >= 0")
        directions = e.get("directions")
        if not isinstance(directions, str):
            return fail(f"{path}: {where}.directions is not a string")
        if directions and not DIRECTIONS_RE.match(directions):
            return fail(f"{path}: {where}.directions={directions!r} does"
                        " not match (push|pull):(bitmap|array),...")
        levels = directions.split(",") if directions else []
        if engine == "push-only":
            if any(lv.startswith("pull") for lv in levels):
                return fail(f"{path}: {where} push-only run reports a pull"
                            " level")
            if e["direction_switches"] != 0:
                return fail(f"{path}: {where} push-only run reports"
                            " direction switches")
        if engine == "pull-only":
            if any(lv.startswith("push") for lv in levels):
                return fail(f"{path}: {where} pull-only run reports a push"
                            " level")
            if e["direction_switches"] != 0:
                return fail(f"{path}: {where} pull-only run reports"
                            " direction switches")

        if engine == "parallel" and "closure" in label:
            closure_hybrid_lanes += 1
            if e["speedup_vs_seed"] < min_closure_speedup:
                return fail(
                    f"{path}: {where} closure-lane speedup_vs_seed="
                    f"{e['speedup_vs_seed']:.3f} is below the"
                    f" {min_closure_speedup:.2f} floor — the"
                    " direction-optimizing kernel regressed vs the"
                    " push-only seed")

    if kernel_entries == 0:
        return fail(f"{path}: no kernel entries"
                    f" (push-only/pull-only/parallel)")
    if closure_hybrid_lanes == 0:
        return fail(f"{path}: no closure-workload hybrid lane to check")
    if meta is None:
        return fail(f"{path}: no meta entry")
    if meta.get("all_results_identical") != 1:
        return fail(f"{path}: meta.all_results_identical="
                    f"{meta.get('all_results_identical')!r}, expected 1")
    for key in ("cores", "scale"):
        if not is_num(meta.get(key)) or meta[key] <= 0:
            return fail(f"{path}: meta.{key} is not a positive number")

    print(f"bench_check: OK: {kernel_entries} kernel entries"
          f" ({closure_hybrid_lanes} closure hybrid lanes >="
          f" {min_closure_speedup:.2f}x vs seed) in {path}")
    return 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("json", metavar="FILE",
                        help="BENCH_parallel_traversal.json to validate")
    parser.add_argument("--min-closure-speedup", type=float, default=0.9,
                        help="fail when a closure-workload hybrid lane's"
                             " speedup_vs_seed drops below this (default"
                             " 0.9: parity with the push-only seed modulo"
                             " best-of noise; a mis-switched pull level"
                             " measures 0.3-0.6x)")
    args = parser.parse_args()
    return check(args.json, args.min_closure_speedup)


if __name__ == "__main__":
    sys.exit(main())
