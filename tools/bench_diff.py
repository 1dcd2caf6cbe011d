#!/usr/bin/env python3
"""Compares two BENCH_*.json artifacts and fails on perf regressions.

  bench_diff.py <baseline.json> <candidate.json> [--threshold-pct 10]

Both files are bench_json.h envelopes ({bench, git_sha, timestamp,
rusage, entries}). Entries are matched by label; for every pair that
carries timing samples, the candidate's avg_ms (and median-proxy min_ms)
are compared against the baseline. A candidate avg_ms more than
--threshold-pct percent slower than the baseline is a regression and the
tool exits 1, printing every offending label. Labels present on only one
side are reported but never fatal (benches grow lanes across PRs).

Peak RSS from the rusage stamp is compared the same way, at 2x the
timing threshold (allocator noise is larger than timer noise).

Intended use: download the previous PR's bench_out/BENCH_*.json, rerun
the bench, and diff — a perf gate without a dashboard in the loop.
"""

import argparse
import json
import sys


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
    print(f"bench_diff: FAIL: {message}", file=sys.stderr)


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f, object_pairs_hook=reject_duplicate_keys)
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise ValueError(f"{path}: not a bench_json envelope")
    return doc


def entries_by_label(doc):
    out = {}
    for e in doc["entries"]:
        if isinstance(e, dict) and isinstance(e.get("label"), str):
            out[e["label"]] = e
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline", help="baseline BENCH_*.json")
    parser.add_argument("candidate", help="candidate BENCH_*.json")
    parser.add_argument("--threshold-pct", type=float, default=10.0,
                        help="max tolerated avg_ms increase (default 10)")
    args = parser.parse_args()

    try:
        base = load(args.baseline)
        cand = load(args.candidate)
    except (OSError, json.JSONDecodeError, ValueError) as e:
        fail(str(e))
        return 1
    if base.get("bench") != cand.get("bench"):
        fail(f"bench name mismatch: {base.get('bench')!r} vs"
             f" {cand.get('bench')!r}")
        return 1

    base_entries = entries_by_label(base)
    cand_entries = entries_by_label(cand)
    only_base = sorted(base_entries.keys() - cand_entries.keys())
    only_cand = sorted(cand_entries.keys() - base_entries.keys())
    for label in only_base:
        print(f"bench_diff: note: {label!r} only in baseline")
    for label in only_cand:
        print(f"bench_diff: note: {label!r} only in candidate")

    regressions = []
    compared = 0
    for label in sorted(base_entries.keys() & cand_entries.keys()):
        b, c = base_entries[label], cand_entries[label]
        for key in ("avg_ms", "min_ms"):
            bv, cv = b.get(key), c.get(key)
            if not isinstance(bv, (int, float)) or \
                    not isinstance(cv, (int, float)) or \
                    isinstance(bv, bool) or isinstance(cv, bool):
                continue
            if bv <= 0:
                continue
            delta_pct = 100.0 * (cv - bv) / bv
            compared += 1
            marker = ""
            if delta_pct > args.threshold_pct:
                regressions.append(
                    f"{label}.{key}: {bv:.3f} -> {cv:.3f} ms"
                    f" ({delta_pct:+.1f}% > {args.threshold_pct:.0f}%)")
                marker = "  <-- REGRESSION"
            print(f"bench_diff: {label}.{key}: {bv:.3f} -> {cv:.3f} ms"
                  f" ({delta_pct:+.1f}%){marker}")

    # Peak RSS: whole-process footprint; allocator noise warrants the
    # looser 2x threshold.
    rss_threshold = 2 * args.threshold_pct
    base_rss = (base.get("rusage") or {}).get("max_rss_kb")
    cand_rss = (cand.get("rusage") or {}).get("max_rss_kb")
    if isinstance(base_rss, int) and isinstance(cand_rss, int) \
            and base_rss > 0 and not isinstance(base_rss, bool):
        rss_pct = 100.0 * (cand_rss - base_rss) / base_rss
        marker = ""
        if rss_pct > rss_threshold:
            regressions.append(
                f"rusage.max_rss_kb: {base_rss} -> {cand_rss} kB"
                f" ({rss_pct:+.1f}% > {rss_threshold:.0f}%)")
            marker = "  <-- REGRESSION"
        print(f"bench_diff: rusage.max_rss_kb: {base_rss} -> {cand_rss} kB"
              f" ({rss_pct:+.1f}%){marker}")

    if compared == 0:
        fail("no comparable timing entries between the two files")
        return 1
    if regressions:
        for r in regressions:
            fail(r)
        return 1
    print(f"bench_diff: OK: {compared} timing comparisons within"
          f" {args.threshold_pct:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
