#!/usr/bin/env python3
"""Validates the cardinality-observability exports of the frappe stats server.

Three checks, any subset per invocation:

  statz_check.py --statz <statz_export.json>
      The /debug/statz document: exactly one key, the catalog (the
      persisted ANALYZE stats catalog, or null before the first ANALYZE).
      Unknown keys fail: operators' dashboards parse against this schema.

  statz_check.py --stats <stats_export.json>
      The /stats document's per-fingerprint rows: at least one row, each
      with exactly the row schema, a 16-hex-char fp, non-negative
      timeline fields, in descending total_latency_us order.

  statz_check.py --metrics <metrics.txt>
      A /metrics capture: the catalog gauges (frappe_catalog_nodes /
      _edges / _bytes) and the frappe_catalog_builds_total counter must
      all be present with sane values.

Exit code 0 when valid, 1 with a diagnostic otherwise.

Run from ctest as the `statz_check` entry (labels `obs;stats`), against
the files the obs_statz_test fixture exports.
"""

import argparse
import json
import re
import sys

FP_RE = re.compile(r"^[0-9a-f]{16}$")

CATALOG_SCHEMA = {
    "node_count": int,
    "edge_count": int,
    "bytes": int,
    "node_types": dict,
    "edge_types": list,
    "hubs": list,
    "index_fields": list,
}

EDGE_TYPE_SCHEMA = {
    "name": str,
    "count": int,
    "distinct_sources": int,
    "distinct_targets": int,
    "avg_out_fanout": (int, float),
    "avg_in_fanout": (int, float),
    "out_degree_bins": list,
    "in_degree_bins": list,
}

HUB_SCHEMA = {
    "id": int,
    "degree": int,
    "name": str,
    "type": str,
}

INDEX_FIELD_SCHEMA = {
    "field": str,
    "distinct_terms": int,
    "postings": int,
}

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


def fail(message):
    print(f"statz_check: FAIL: {message}", file=sys.stderr)
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


def check_bins(path, bins, where):
    """Degree bins are [min, max, count] triples with min <= max."""
    for i, bin_ in enumerate(bins):
        spot = f"{where}[{i}]"
        if (not isinstance(bin_, list) or len(bin_) != 3
                or any(isinstance(v, bool) or not isinstance(v, int)
                       or v < 0 for v in bin_)):
            return fail(f"{path}: {spot}={bin_!r} is not a non-negative"
                        " [min, max, count] triple")
        if bin_[0] > bin_[1]:
            return fail(f"{path}: {spot} has min {bin_[0]} > max {bin_[1]}")
    return 0


def check_catalog(path, catalog):
    rc = check_object(path, catalog, CATALOG_SCHEMA, "catalog")
    if rc:
        return rc
    for key in ("node_count", "edge_count", "bytes"):
        if catalog[key] < 0:
            return fail(f"{path}: catalog.{key}={catalog[key]} is negative")
    node_type_total = 0
    for name, count in catalog["node_types"].items():
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            return fail(f"{path}: catalog.node_types[{name!r}]={count!r} is"
                        " not a non-negative int")
        node_type_total += count
    if node_type_total != catalog["node_count"]:
        return fail(f"{path}: node_types sum {node_type_total} !="
                    f" node_count {catalog['node_count']}")
    edge_type_total = 0
    for i, et in enumerate(catalog["edge_types"]):
        where = f"catalog.edge_types[{i}]"
        rc = check_object(path, et, EDGE_TYPE_SCHEMA, where)
        if rc:
            return rc
        edge_type_total += et["count"]
        if et["count"] > 0 and et["distinct_sources"] == 0:
            return fail(f"{path}: {where} has edges but no distinct sources")
        for bins_key in ("out_degree_bins", "in_degree_bins"):
            rc = check_bins(path, et[bins_key], f"{where}.{bins_key}")
            if rc:
                return rc
    if edge_type_total != catalog["edge_count"]:
        return fail(f"{path}: edge_types sum {edge_type_total} !="
                    f" edge_count {catalog['edge_count']}")
    previous_degree = None
    for i, hub in enumerate(catalog["hubs"]):
        where = f"catalog.hubs[{i}]"
        rc = check_object(path, hub, HUB_SCHEMA, where)
        if rc:
            return rc
        if previous_degree is not None and hub["degree"] > previous_degree:
            return fail(f"{path}: {where} degree {hub['degree']} out of"
                        " descending order")
        previous_degree = hub["degree"]
    for i, field in enumerate(catalog["index_fields"]):
        where = f"catalog.index_fields[{i}]"
        rc = check_object(path, field, INDEX_FIELD_SCHEMA, where)
        if rc:
            return rc
        if field["postings"] < field["distinct_terms"]:
            return fail(f"{path}: {where} has fewer postings"
                        f" ({field['postings']}) than distinct terms"
                        f" ({field['distinct_terms']})")
    return 0


def check_statz(path):
    try:
        doc = load_json(path)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"cannot load {path}: {e}")
    if not isinstance(doc, dict):
        return fail(f"{path}: top level is not a JSON object")
    if set(doc.keys()) != {"catalog"}:
        return fail(f"{path}: top-level keys {sorted(doc.keys())},"
                    " expected ['catalog']")
    if doc["catalog"] is not None:
        rc = check_catalog(path, doc["catalog"])
        if rc:
            return rc
    catalog_note = ("null catalog" if doc["catalog"] is None else
                    f"catalog of {doc['catalog']['node_count']} nodes")
    print(f"statz_check: OK: {catalog_note} in {path}")
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
    print(f"statz_check: OK: {len(rows)} fingerprint rows in {path}")
    return 0


METRIC_RES = {
    "frappe_catalog_nodes":
        re.compile(r"^frappe_catalog_nodes (\d+)$", re.M),
    "frappe_catalog_edges":
        re.compile(r"^frappe_catalog_edges (\d+)$", re.M),
    "frappe_catalog_bytes":
        re.compile(r"^frappe_catalog_bytes (\d+)$", re.M),
    "frappe_catalog_builds_total":
        re.compile(r"^frappe_catalog_builds_total (\d+)$", re.M),
}


def check_metrics(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        return fail(f"cannot load {path}: {e}")
    values = {}
    for name, regex in METRIC_RES.items():
        match = regex.search(text)
        if not match:
            return fail(f"{path}: metric {name} missing")
        values[name] = int(match.group(1))
    if values["frappe_catalog_builds_total"] < 1:
        return fail(f"{path}: frappe_catalog_builds_total is 0 — the"
                    " fixture ran ANALYZE")
    if values["frappe_catalog_nodes"] < 1:
        return fail(f"{path}: frappe_catalog_nodes is 0 after ANALYZE")
    if values["frappe_catalog_bytes"] < 1:
        return fail(f"{path}: frappe_catalog_bytes is 0 after ANALYZE")
    print(f"statz_check: OK: catalog of {values['frappe_catalog_nodes']}"
          f" nodes / {values['frappe_catalog_bytes']} bytes in {path}")
    return 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--statz", metavar="FILE",
                        help="/debug/statz JSON export to validate")
    parser.add_argument("--stats", metavar="FILE",
                        help="/stats JSON export to validate")
    parser.add_argument("--metrics", metavar="FILE",
                        help="/metrics capture to validate")
    args = parser.parse_args()

    if not (args.statz or args.stats or args.metrics):
        parser.error("nothing to check: pass --statz/--stats/--metrics")

    for flag, checker in (("statz", check_statz),
                          ("stats", check_stats),
                          ("metrics", check_metrics)):
        path = getattr(args, flag)
        if path:
            rc = checker(path)
            if rc:
                return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
