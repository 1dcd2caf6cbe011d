#ifndef FRAPPE_QUERY_EXPLAIN_H_
#define FRAPPE_QUERY_EXPLAIN_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "query/ast.h"
#include "query/database.h"
#include "query/executor.h"

namespace frappe::query {

// One rendered plan operator. EXPLAIN and PROFILE share this structure —
// PROFILE is the identical operator tree with runtime stats appended — so
// the two renderings can never drift.
struct PlanStep {
  std::string text;
  size_t clause_index = 0;  // AST clause this operator came from
  // First operator emitted for its clause: the anchor PROFILE hangs the
  // clause's OperatorStats on (secondary steps like Sort/Limit share the
  // clause's execution and carry no separate stats).
  bool primary = false;
};

// Builds the operator tree for `query` against `db`'s indexes.
Result<std::vector<PlanStep>> BuildPlan(const Database& db,
                                        const Query& query);

// Renders steps as numbered lines ("1. <operator>\n"). With `stats`
// (PROFILE), each clause's primary step gains " // rows=... db_hits=...
// steps=... time=...ms", padded so every " // " annotation block starts at
// one aligned column, plus "frontier=[...] dag_scans=G" when the operator
// ran on the CSR closure fast path. Annotations never alter operator text
// — strip everything from " // " to end-of-line (and trailing padding
// spaces) to recover the bare operator tree exactly.
std::string RenderPlan(const std::vector<PlanStep>& steps,
                       const ExecStats* stats);

// Renders the execution plan the engine will follow for `query`: start
// operators (index seek / id seek / all-nodes scan), the anchor and
// expansion order chosen for each MATCH chain (with label/scan estimates
// from the database's indexes), filter predicates, and the
// projection/aggregation/ordering pipeline.
//
// This is the EXPLAIN the paper wished for when diagnosing "suboptimal
// graph explorations being chosen by the Cypher query language"
// (Section 6.1): it makes the exploration order visible before paying for
// it.
Result<std::string> Explain(const Database& db, const Query& query);

// Parses and explains in one step.
Result<std::string> ExplainText(const Database& db, std::string_view text);

// PROFILE rendering: the EXPLAIN operator tree annotated with the stats a
// real execution produced (QueryResult::stats with operators populated).
Result<std::string> ProfilePlan(const Database& db, const Query& query,
                                const ExecStats& stats);

// Renders an expression back to FQL-ish text (used by Explain and handy
// for diagnostics).
std::string DescribeExpr(const Expr& expr);

}  // namespace frappe::query

#endif  // FRAPPE_QUERY_EXPLAIN_H_
