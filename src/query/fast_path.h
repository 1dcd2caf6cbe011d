#ifndef FRAPPE_QUERY_FAST_PATH_H_
#define FRAPPE_QUERY_FAST_PATH_H_

#include <cstddef>
#include <vector>

#include "query/ast.h"

namespace frappe::query {

// Variable-length depth from which the executor prefers the CSR closure
// kernel over path enumeration. Short bounded expansions (`*1..2`) stay on
// the enumerating path — they are cheap and may be followed by clauses
// that inspect individual paths; deep or unbounded ones (`-[:calls*]->`,
// Figure 6) are the ones that explode combinatorially.
inline constexpr uint32_t kCsrClosureDepthThreshold = 8;

// Outcome of the static eligibility check for answering a variable-length
// MATCH chain with the CSR transitive-closure kernel instead of
// edge-distinct path enumeration.
struct FastPathDecision {
  bool eligible = false;
  // Human-readable explanation (why not, or empty when eligible). Points at
  // a string literal; never owning.
  const char* reason = "";
};

// Static (AST-level) eligibility of `chain` — the `clause_index`-th clause
// of `query` must be the MATCH containing it. Two things must hold:
//
// 1. Shape: a single 2-node / 1-rel chain whose relationship is
//    variable-length, anonymous (no rel variable), property-free, with
//    min length <= 1 and max length unbounded or >= the depth threshold.
//    The closure kernel answers "which nodes are reachable", so nothing in
//    the query may need the individual paths.
//
// 2. Multiplicity safety: path enumeration emits one row per edge-distinct
//    path, the closure one row per distinct endpoint. The substitution is
//    only sound when a downstream clause collapses that multiplicity before
//    it becomes observable — a DISTINCT projection, or an aggregation whose
//    counts are all count(DISTINCT x). Clauses that merely filter or extend
//    rows (WHERE, MATCH, plain WITH) preserve the question and are scanned
//    through.
//
// Which endpoint is bound (and therefore whether the traversal runs with or
// against the arrow) is a runtime, per-row question the executor checks at
// dispatch time; EXPLAIN approximates it from the statically-bound
// variables.
FastPathDecision ChainEligibleForCsrClosure(const Query& query,
                                            size_t clause_index,
                                            const PatternChain& chain);

// Appends the patterns of a WHERE predicate the executor answers as pure
// reachability questions (`WHERE a -[:t*]-> b`), in evaluation order,
// looking through AND / OR / NOT only (the operators EvalPredicate itself
// walks). The shape: one variable-length relationship with no variable or
// property map, min length <= 1, and both endpoints named. When both
// endpoints are bound to nodes at run time, the CSR closure kernel answers
// it, one closure per distinct anchor node.
void CollectReachabilityPatterns(const Expr& predicate,
                                 std::vector<const PatternChain*>* out);

}  // namespace frappe::query

#endif  // FRAPPE_QUERY_FAST_PATH_H_
