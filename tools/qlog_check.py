#!/usr/bin/env python3
"""Validates frappe workload-telemetry exports.

Three checks, any subset per invocation:

  qlog_check.py <qlog.jsonl> [--min-records N]
      The structured query log: one JSON object per line with the schema
      ToJsonLine writes — ts_us (int >= 0), fp (16 lower-case hex chars,
      the FNV-1a-64 of the record's normalized query),
      trace_id (32 lower-case hex chars), query / raw / status (strings),
      latency_us / rows / db_hits (ints >= 0), fast_path (bool), and the
      latency timeline queue_us / parse_us / plan_us / exec_us
      (ints >= 0). Unknown keys fail: the schema is the contract replay
      and downstream pipelines parse against.

  qlog_check.py --metrics <metrics.txt> [qlog.jsonl]
      A Prometheus text exposition (what GET /metrics on the stats server
      returns): every sample names a metric declared by a preceding
      # TYPE line, metric names match the Prometheus grammar, values
      parse as floats, summaries carry quantile labels, and OpenMetrics
      exemplars (`# {trace_id="..."} value ts`) are syntactically valid
      and only appear on histogram bucket samples.

  qlog_check.py --stats <stats_export.json>
      The /stats document's per-fingerprint rows: at least one row, each
      with exactly the row schema, a 16-hex-char fp that is the FNV-1a-64
      of the row's query, non-negative
      timeline fields, in descending total_latency_us order.

Exit code 0 when valid, 1 with a diagnostic otherwise.

Run from ctest as the `qlog_check` entry (query log and metrics) and the
`stats_row_check` entry (--stats), both label `obs`, against the files the
query_log_test and stats_server_test fixtures export.
"""

import argparse
import json
import re
import sys

QLOG_SCHEMA = {
    "ts_us": int,
    "fp": str,
    "trace_id": str,
    "query": str,
    "raw": str,
    "status": str,
    "latency_us": int,
    "rows": int,
    "db_hits": int,
    "fast_path": bool,
    "queue_us": int,
    "parse_us": int,
    "plan_us": int,
    "exec_us": int,
    "cpu_us": int,
    "alloc_bytes": int,
    "peak_bytes": int,
}
FP_RE = re.compile(r"^[0-9a-f]{16}$")
TRACE_ID_RE = re.compile(r"^[0-9a-f]{32}$")

METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
TYPE_LINE_RE = re.compile(r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (\w+)$")
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? (?P<value>\S+)"
    r"(?P<exemplar> # \{[^}]*\} \S+(?: \S+)?)?$")
EXEMPLAR_RE = re.compile(
    r"^ # \{trace_id=\"(?P<trace_id>[0-9a-f]{32})\"\}"
    r" (?P<value>\S+)(?: (?P<ts>\S+))?$")

FINGERPRINT_SCHEMA = {
    "fp": str,
    "query": str,
    "calls": int,
    "errors": int,
    "total_latency_us": int,
    "avg_latency_us": int,
    "max_latency_us": int,
    "p99_latency_us": int,
    "rows": int,
    "db_hits": int,
    "cpu_us_total": int,
    "alloc_bytes_total": int,
    "peak_bytes": int,
    "timeline": dict,
}

TIMELINE_SCHEMA = {
    "queue_us": int,
    "parse_us": int,
    "plan_us": int,
    "exec_us": int,
}


def fnv1a64_hex(text):
    """obs::Fingerprint64 over the UTF-8 bytes of `text`, as FingerprintHex."""
    h = 0xcbf29ce484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def fail(message):
    print(f"qlog_check: FAIL: {message}", file=sys.stderr)
    return 1


def load_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def check_object(path, obj, schema, where):
    """Strict schema check: exact key set, typed values, ints non-bool."""
    if not isinstance(obj, dict):
        return fail(f"{path}: {where} is not a JSON object")
    missing = schema.keys() - obj.keys()
    if missing:
        return fail(f"{path}: {where} missing keys: {sorted(missing)}")
    unknown = obj.keys() - schema.keys()
    if unknown:
        return fail(f"{path}: {where} unknown keys: {sorted(unknown)}")
    for key, expected in schema.items():
        value = obj[key]
        kinds = expected if isinstance(expected, tuple) else (expected,)
        # bool is an int subclass in Python; keep int checks strict.
        if bool not in kinds and isinstance(value, bool):
            return fail(f"{path}: {where}.{key}={value!r} is a bool")
        if not isinstance(value, kinds):
            names = "/".join(k.__name__ for k in kinds)
            return fail(f"{path}: {where}.{key}={value!r} is not {names}")
    return 0


def check_qlog(path, min_records):
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        return fail(f"cannot read {path}: {e}")

    records = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as e:
            return fail(f"{path}:{lineno}: not valid JSON: {e}")
        if not isinstance(record, dict):
            return fail(f"{path}:{lineno}: not a JSON object")
        missing = QLOG_SCHEMA.keys() - record.keys()
        if missing:
            return fail(f"{path}:{lineno}: missing keys: {sorted(missing)}")
        unknown = record.keys() - QLOG_SCHEMA.keys()
        if unknown:
            return fail(f"{path}:{lineno}: unknown keys: {sorted(unknown)}")
        for key, expected in QLOG_SCHEMA.items():
            value = record[key]
            # bool is an int subclass in Python; keep the check strict.
            if expected is int and (not isinstance(value, int)
                                    or isinstance(value, bool)):
                return fail(f"{path}:{lineno}: {key}={value!r} is not an int")
            if expected is not int and not isinstance(value, expected):
                return fail(f"{path}:{lineno}: {key}={value!r} is not"
                            f" {expected.__name__}")
            if expected is int and value < 0:
                return fail(f"{path}:{lineno}: {key}={value} is negative")
        if not FP_RE.match(record["fp"]):
            return fail(f"{path}:{lineno}: fp={record['fp']!r} is not 16"
                        " lower-case hex chars")
        if record["fp"] != fnv1a64_hex(record["query"]):
            return fail(f"{path}:{lineno}: fp={record['fp']} is not the"
                        f" FNV-1a-64 of query {record['query']!r}")
        if not TRACE_ID_RE.match(record["trace_id"]):
            return fail(f"{path}:{lineno}: trace_id={record['trace_id']!r}"
                        " is not 32 lower-case hex chars")
        if not record["query"]:
            return fail(f"{path}:{lineno}: empty query")
        if not record["status"]:
            return fail(f"{path}:{lineno}: empty status")
        records += 1

    if records < min_records:
        return fail(f"{path}: only {records} records,"
                    f" need >= {min_records}")
    print(f"qlog_check: OK: {records} query-log records in {path}")
    return 0


def check_metrics(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        return fail(f"cannot read {path}: {e}")

    declared = {}  # metric name -> type
    samples = 0
    summaries_with_quantiles = set()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            m = TYPE_LINE_RE.match(line)
            if not m:
                return fail(f"{path}:{lineno}: malformed TYPE line: {line!r}")
            name, kind = m.group(1), m.group(2)
            if kind not in ("counter", "gauge", "summary", "histogram",
                            "untyped"):
                return fail(f"{path}:{lineno}: unknown metric type {kind!r}")
            declared[name] = kind
            continue
        if line.startswith("#"):
            continue  # HELP / comments
        m = SAMPLE_RE.match(line)
        if not m:
            return fail(f"{path}:{lineno}: malformed sample: {line!r}")
        name = m.group("name")
        # A summary's samples may carry _sum/_count suffixes on the
        # declared family name.
        family = name
        for suffix in ("_sum", "_count", "_bucket"):
            if name.endswith(suffix) and name[:-len(suffix)] in declared:
                family = name[:-len(suffix)]
                break
        if family not in declared:
            return fail(f"{path}:{lineno}: sample {name!r} has no # TYPE"
                        " declaration")
        if not METRIC_NAME_RE.match(name):
            return fail(f"{path}:{lineno}: invalid metric name {name!r}")
        try:
            float(m.group("value"))
        except ValueError:
            return fail(f"{path}:{lineno}: non-numeric value"
                        f" {m.group('value')!r}")
        exemplar = m.group("exemplar")
        if exemplar:
            # OpenMetrics exemplar: only on histogram buckets, labelled
            # with a well-formed trace id, numeric value and timestamp.
            if declared[family] != "histogram" or \
                    not name.endswith("_bucket"):
                return fail(f"{path}:{lineno}: exemplar on non-bucket"
                            f" sample {name!r}")
            ex = EXEMPLAR_RE.match(exemplar)
            if not ex:
                return fail(f"{path}:{lineno}: malformed exemplar"
                            f" {exemplar!r}")
            try:
                float(ex.group("value"))
                if ex.group("ts") is not None:
                    float(ex.group("ts"))
            except ValueError:
                return fail(f"{path}:{lineno}: non-numeric exemplar"
                            f" value/timestamp in {exemplar!r}")
        labels = m.group("labels")
        if labels and 'quantile="' in labels and declared[family] == "summary":
            summaries_with_quantiles.add(family)
        samples += 1

    if not declared:
        return fail(f"{path}: no # TYPE declarations")
    if samples == 0:
        return fail(f"{path}: no samples")
    summaries = {n for n, k in declared.items() if k == "summary"}
    bare = summaries - summaries_with_quantiles
    if bare:
        return fail(f"{path}: summaries without quantile samples:"
                    f" {sorted(bare)}")
    print(f"qlog_check: OK: {samples} samples across {len(declared)}"
          f" metrics in {path}")
    return 0


def check_stats(path):
    try:
        doc = load_json(path)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"cannot load {path}: {e}")
    if not isinstance(doc, dict):
        return fail(f"{path}: top level is not a JSON object")
    rows = doc.get("fingerprints")
    if not isinstance(rows, list):
        return fail(f"{path}: fingerprints is missing or not an array")
    if not rows:
        return fail(f"{path}: no fingerprint rows — the fixture ran queries")
    previous_latency = None
    for i, entry in enumerate(rows):
        where = f"fingerprints[{i}]"
        rc = check_object(path, entry, FINGERPRINT_SCHEMA, where)
        if rc:
            return rc
        if not FP_RE.match(entry["fp"]):
            return fail(f"{path}: {where}.fp={entry['fp']!r} is not 16"
                        " lower-case hex chars")
        if entry["fp"] != fnv1a64_hex(entry["query"]):
            return fail(f"{path}: {where}.fp={entry['fp']} is not the"
                        f" FNV-1a-64 of query {entry['query']!r}")
        rc = check_object(path, entry["timeline"], TIMELINE_SCHEMA,
                          f"{where}.timeline")
        if rc:
            return rc
        for key in TIMELINE_SCHEMA:
            if entry["timeline"][key] < 0:
                return fail(f"{path}: {where}.timeline.{key} is negative")
        latency = entry["total_latency_us"]
        if previous_latency is not None and latency > previous_latency:
            return fail(f"{path}: {where} total_latency_us out of"
                        " descending order")
        previous_latency = latency
    print(f"qlog_check: OK: {len(rows)} fingerprint rows in {path}")
    return 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("qlog_file", nargs="?",
                        help="query-log JSONL file to validate")
    parser.add_argument("--min-records", type=int, default=1,
                        help="minimum number of query-log records required")
    parser.add_argument("--metrics", metavar="FILE",
                        help="Prometheus text exposition to validate")
    parser.add_argument("--stats", metavar="FILE",
                        help="/stats JSON export to validate")
    args = parser.parse_args()

    if not (args.qlog_file or args.metrics or args.stats):
        parser.error("nothing to check: pass a qlog file, --metrics and/or"
                     " --stats")

    if args.qlog_file:
        rc = check_qlog(args.qlog_file, args.min_records)
        if rc:
            return rc
    if args.metrics:
        rc = check_metrics(args.metrics)
        if rc:
            return rc
    if args.stats:
        rc = check_stats(args.stats)
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
