#ifndef FRAPPE_QUERY_EXECUTOR_H_
#define FRAPPE_QUERY_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/ast.h"
#include "query/database.h"

namespace frappe::obs {
struct QueryProgress;
}  // namespace frappe::obs

namespace frappe::query {

// Execution limits. The paper aborted the Figure 6 transitive-closure query
// after 15 minutes; these limits let a caller reproduce that behaviour
// without hanging: on breach the executor returns DeadlineExceeded /
// ResourceExhausted instead of a result.
struct ExecOptions {
  uint64_t max_steps = 0;      // 0 = unlimited; counts expansions/candidates
  int64_t deadline_ms = 0;     // 0 = none; wall-clock budget
  // When a variable-length MATCH only feeds multiplicity-insensitive
  // clauses (RETURN DISTINCT, count(DISTINCT ...)), answer it with the
  // CSR transitive-closure kernel instead of enumerating every edge-distinct
  // path — the difference between Figure 6 aborting and finishing. Off =
  // always enumerate (the paper's measured behaviour).
  bool use_csr_fast_path = true;
  // Collect per-operator runtime stats (rows, db-hits, steps, wall time)
  // into QueryResult::stats.operators. Set by `PROFILE <query>`; adds two
  // clock reads and a couple of counter subtractions per clause.
  bool profile = false;
  // Cooperative cancellation: when set, the executor polls the token on the
  // kDeadlineCheckInterval cadence (and forwards it to the analytics
  // kernel) and returns Status::Cancelled once it reads true. The token
  // outlives the call; the executor never writes it.
  std::atomic<bool>* cancel = nullptr;
  // Live progress counters (steps, db-hits, rows, current operator)
  // published on the same cadence for /debug/queryz and the stuck-query
  // watchdog. Owned by the caller (normally the active-query registry).
  obs::QueryProgress* progress = nullptr;
};

// Storage accesses the executor performed, split by what was touched. One
// "db hit" is one node record, edge record, or property read — the unit
// Neo4j's PROFILE reports, and the denominator the paper lacked when
// diagnosing Figure 6.
struct DbHits {
  uint64_t nodes = 0;
  uint64_t edges = 0;
  uint64_t properties = 0;

  uint64_t Total() const { return nodes + edges + properties; }
  DbHits operator-(const DbHits& o) const {
    return DbHits{nodes - o.nodes, edges - o.edges,
                  properties - o.properties};
  }
};

// Per-clause runtime stats collected under PROFILE. `clause_index` keys the
// entry back to the plan operator rendered for that clause.
struct OperatorStats {
  size_t clause_index = 0;
  uint64_t rows = 0;     // rows alive after the clause ran
  DbHits db_hits;        // storage accesses attributable to the clause
  uint64_t steps = 0;    // step-budget units the clause consumed
  double time_ms = 0.0;  // wall time inside the clause
  // CSR fast-path detail (variable-length MATCH answered by the closure
  // kernel): frontier size per BFS level.
  bool fast_path = false;
  std::vector<uint64_t> frontier_sizes;
  // DAG edges the clause scanned on a condensation (unbounded directed
  // patterns), in the fast path's closures or the Filter's DAG searches.
  // On the condensation, frontier sizes count components.
  uint64_t dag_scans = 0;
  // Reachability-predicate detail (a WHERE `a -[:t*]-> b` answered by the
  // CSR): whether the kernel closures ran from the pattern's target
  // endpoint (against the arrow) or its source, how many searches ran (a
  // kernel closure per distinct anchor node, or a DAG search per probe the
  // condensation could not decide at once), and how many stopped early
  // once every endpoint their rows asked about was reached. Probes on the
  // condensation are decided by a shared component (`reach_scc`), by the
  // components' order (`reach_order`), or by a DAG search (counted in
  // `reach_anchors`, its scans in `dag_scans`).
  bool reach_kernel = false;
  bool reach_from_target = false;
  uint64_t reach_anchors = 0;
  uint64_t reach_early_exits = 0;
  uint64_t reach_scc = 0;
  uint64_t reach_order = 0;
};

// Per-query latency attribution: microseconds spent in each stage of the
// request. parse/plan/exec are filled by Session::Run; queue_us (admission
// queue wait), serialize_us and total_us are filled by the query server —
// zero for queries that never crossed it (shell, replay, tests).
struct Timeline {
  uint64_t queue_us = 0;
  uint64_t parse_us = 0;
  uint64_t plan_us = 0;
  uint64_t exec_us = 0;
  uint64_t serialize_us = 0;
  uint64_t total_us = 0;
};

// Always-on execution summary: populated for every query (two clock reads
// plus counters the executor maintains anyway), independent of PROFILE.
struct ExecStats {
  double elapsed_ms = 0.0;
  uint64_t steps = 0;
  DbHits db_hits;
  bool fast_path_taken = false;
  Timeline timeline;  // latency attribution (see Timeline)
  std::vector<OperatorStats> operators;  // non-empty only under PROFILE
  // Resource attribution (obs/resource.h): thread-CPU time summed across
  // every thread the query touched, heap allocation totals and the live-byte
  // high-water mark, and approximate bytes read from graph storage. The
  // executor fills scanned_bytes; the session fills the rest from the
  // query's ResourceTracker.
  uint64_t cpu_us = 0;
  uint64_t alloc_bytes = 0;
  uint64_t peak_bytes = 0;
  uint64_t scanned_bytes = 0;
};

// A value in a result row: a node, an edge, a scalar, or the edge list a
// variable-length relationship variable binds to. The edge list lives out
// of line and is shared between copies, so a cell stays small and cheap to
// copy: result sets are mostly node and scalar cells.
struct ResultValue {
  enum class Kind { kNull, kNode, kEdge, kValue, kEdgeList };
  Kind kind = Kind::kNull;
  graph::NodeId node = graph::kInvalidNode;
  graph::EdgeId edge = graph::kInvalidEdge;
  graph::Value value;  // kValue payload

  static ResultValue Null() { return {}; }
  static ResultValue Node(graph::NodeId id) {
    ResultValue v;
    v.kind = Kind::kNode;
    v.node = id;
    return v;
  }
  static ResultValue EdgeRef(graph::EdgeId id) {
    ResultValue v;
    v.kind = Kind::kEdge;
    v.edge = id;
    return v;
  }
  static ResultValue Scalar(graph::Value value) {
    ResultValue v;
    if (value.is_null()) return v;
    v.kind = Kind::kValue;
    v.value = value;
    return v;
  }
  static ResultValue EdgeList(std::vector<graph::EdgeId> list) {
    ResultValue v;
    v.kind = Kind::kEdgeList;
    v.edge_list_ = std::make_shared<const std::vector<graph::EdgeId>>(
        std::move(list));
    return v;
  }

  bool is_null() const { return kind == Kind::kNull; }
  // The kEdgeList payload; empty for every other kind.
  const std::vector<graph::EdgeId>& edges() const;

  bool operator==(const ResultValue& other) const;
  // Total order used by DISTINCT, grouping and ORDER BY. Nulls sort last.
  static int Compare(const ResultValue& a, const ResultValue& b);

  // Display rendering, e.g. `(#12:function main)` for a node.
  std::string ToString(const Database& db) const;
  // Appends the display rendering as a JSON string literal (quoted and
  // escaped) to `out`: what ToString returns, passed through JsonQuote,
  // without building either string.
  void AppendTo(std::string* out, const Database& db) const;

 private:
  std::shared_ptr<const std::vector<graph::EdgeId>> edge_list_;
};

struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<ResultValue>> rows;
  uint64_t steps = 0;  // work units the executor spent
  ExecStats stats;     // always populated (operators only under PROFILE)
  // Rendered plan: set for EXPLAIN (instead of rows) and PROFILE
  // (alongside rows, annotated with per-operator stats).
  std::string plan;

  size_t size() const { return rows.size(); }
};

// Parses nothing — takes an already-parsed query. See Session::Run for the
// string-in/rows-out convenience wrapper.
Result<QueryResult> Execute(const Database& db, const Query& query,
                            const ExecOptions& options = {});

}  // namespace frappe::query

#endif  // FRAPPE_QUERY_EXECUTOR_H_
