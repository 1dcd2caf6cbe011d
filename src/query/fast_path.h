#ifndef FRAPPE_QUERY_FAST_PATH_H_
#define FRAPPE_QUERY_FAST_PATH_H_

#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

#include "query/ast.h"
#include "query/database.h"
#include "query/executor.h"

// The plan decisions: a chain's anchor and expansion order, its index
// seek, and when the CSR answers a MATCH or a Filter. The executor calls
// each at run time and BuildPlan calls it to render.

namespace frappe::query {

// --- anchor and expansion order ---

// Anchor tiers, cheapest first: a node whose variable already holds a node,
// one a name-index field can seek, one with a label, a full scan.
enum class AnchorTier { kBound, kIndexed, kLabeled, kScan };

// How matching starts from a node pattern whose variable holds no node.
struct UnboundAnchor {
  AnchorTier tier = AnchorTier::kScan;
  // kIndexed: the name-index field that seeks the candidates, and the
  // string it looks up. They view db.name_index and the query's AST.
  const graph::NameIndex::FieldSpec* field = nullptr;
  std::string_view value;
};

// The index rule and the tier of an unbound `node`. Its first property
// whose value is a string the view holds and whose key, resolved through
// db.resolve_property as the executor binds it, backs a non-type field of
// db.name_index makes it kIndexed; else a label makes it kLabeled.
UnboundAnchor AnchorFor(const Database& db, const NodePattern& node);

// The anchor rule: a chain matches from its first node of the lowest tier.
// `tier_of(i)` is node i's tier: kBound when its variable holds a node,
// else AnchorFor's.
template <typename TierOf>
size_t PickAnchor(size_t node_count, const TierOf& tier_of) {
  size_t anchor = 0;
  for (size_t i = 1; i < node_count; ++i) {
    if (tier_of(i) < tier_of(anchor)) anchor = i;
  }
  return anchor;
}

// One expansion of a chain match: binds node `to_node` across relationship
// `rel` from the already bound `from_node`, against the arrow when
// `reversed`.
struct ExpandStep {
  size_t from_node;
  size_t to_node;
  size_t rel;
  bool reversed;
};

// The expansion order from `anchor`: rightward to the chain's end, then
// leftward (reversed) to its start.
std::vector<ExpandStep> ExpansionOrder(size_t node_count, size_t anchor);

// --- CSR fast paths ---

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
// Which endpoint is bound is a per-row question: see ClosureSeed.
FastPathDecision ChainEligibleForCsrClosure(const Query& query,
                                            size_t clause_index,
                                            const PatternChain& chain);

// Whether a pattern predicate asks only "is there a path" (`WHERE a
// -[:t*]-> b`): one variable-length relationship with no variable or
// property map, min length <= 1, and both endpoints named. When both
// endpoints are bound to nodes at run time, reachability answers it (any
// BFS path is edge-distinct): on the CSR, its condensation when the
// pattern is unbounded and directed, otherwise the closure kernel, one
// closure per distinct anchor node.
bool IsReachabilityPattern(const PatternChain& chain);

// Appends the reachability patterns of a WHERE predicate, in evaluation
// order, looking through AND / OR / NOT only (the operators EvalPredicate
// itself walks).
void CollectReachabilityPatterns(const Expr& predicate,
                                 std::vector<const PatternChain*>* out);

// The Filter dispatch, and the gate under the Match one: the CSR answers
// reachability when the query allows it (ExecOptions::use_csr_fast_path)
// and the database has one (db.csr).
inline bool UseReachKernel(const Database& db, const ExecOptions& options) {
  return options.use_csr_fast_path && db.csr != nullptr;
}

// The Match dispatch: MATCH clause `clause_index` of `query` tries the
// closure kernel on each row when UseReachKernel holds, the clause has one
// chain (several chains share edge-distinctness, which the closure does not
// model) and ChainEligibleForCsrClosure accepts it.
bool MatchTriesCsrClosure(const Database& db, const ExecOptions& options,
                          const Query& query, size_t clause_index);

// Per row, the endpoint (0 or 1) of such a chain the kernel seeds from: the
// one whose variable holds a node, when exactly one does and the other is
// named, since the kernel binds it. nullopt: the row enumerates paths.
std::optional<size_t> ClosureSeed(const PatternChain& chain, bool bound0,
                                  bool bound1);

}  // namespace frappe::query

#endif  // FRAPPE_QUERY_FAST_PATH_H_
