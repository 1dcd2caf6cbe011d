#include "query/fast_path.h"

#include <variant>

#include "obs/metrics.h"

namespace frappe::query {

namespace {

FastPathDecision No(const char* reason) {
  static obs::Counter& rejected =
      obs::Registry::Global().GetCounter("fast_path.rejected");
  rejected.Add();
  FastPathDecision d;
  d.reason = reason;
  return d;
}

FastPathDecision Yes() {
  static obs::Counter& eligible =
      obs::Registry::Global().GetCounter("fast_path.eligible");
  eligible.Add();
  FastPathDecision d;
  d.eligible = true;
  return d;
}

// Classifies a projection (WITH or RETURN items) for multiplicity safety.
enum class ProjectionKind {
  kCollapsing,   // DISTINCT, or aggregation with only count(DISTINCT x)
  kTransparent,  // plain projection: duplicates in -> duplicates out
  kObserving,    // count(*) / count(x): row multiplicity reaches the output
};

ProjectionKind ClassifyProjection(const std::vector<ProjectionItem>& items,
                                  bool distinct) {
  if (distinct) return ProjectionKind::kCollapsing;
  bool has_aggregate = false;
  bool all_distinct_counts = true;
  for (const ProjectionItem& item : items) {
    const auto* call = std::get_if<CallExpr>(&item.expr->node);
    if (call == nullptr || call->function != "count") continue;
    has_aggregate = true;
    if (call->star || !call->distinct) all_distinct_counts = false;
  }
  if (!has_aggregate) return ProjectionKind::kTransparent;
  // Aggregation groups by the non-aggregate items. Deduplicating input rows
  // preserves the set of groups and every count(DISTINCT x), but changes
  // count(*) / count(x).
  return all_distinct_counts ? ProjectionKind::kCollapsing
                             : ProjectionKind::kObserving;
}

}  // namespace

bool IsReachabilityPattern(const PatternChain& chain) {
  if (chain.nodes.size() != 2 || chain.rels.size() != 1) return false;
  const RelPattern& rel = chain.rels[0];
  return rel.var_length && rel.var.empty() && rel.props.empty() &&
         rel.min_length <= 1 && !chain.nodes[0].var.empty() &&
         !chain.nodes[1].var.empty();
}

UnboundAnchor AnchorFor(const Database& db, const NodePattern& node) {
  UnboundAnchor out;
  if (db.name_index != nullptr && db.resolve_property) {
    for (const PropConstraint& prop : node.props) {
      if (prop.value.kind != Literal::Kind::kString ||
          !db.view->strings().Find(prop.value.string_value).has_value()) {
        continue;
      }
      std::optional<graph::KeyId> key = db.resolve_property(prop.key);
      if (!key.has_value()) continue;
      for (const auto& spec : db.name_index->fields()) {
        if (!spec.is_type_field && spec.key == *key) {
          out.tier = AnchorTier::kIndexed;
          out.field = &spec;
          out.value = prop.value.string_value;
          return out;
        }
      }
    }
  }
  out.tier = node.labels.empty() ? AnchorTier::kScan : AnchorTier::kLabeled;
  return out;
}

std::vector<ExpandStep> ExpansionOrder(size_t node_count, size_t anchor) {
  std::vector<ExpandStep> steps;
  for (size_t i = anchor; i + 1 < node_count; ++i) {
    steps.push_back(ExpandStep{i, i + 1, i, /*reversed=*/false});
  }
  for (size_t i = anchor; i > 0; --i) {
    steps.push_back(ExpandStep{i, i - 1, i - 1, /*reversed=*/true});
  }
  return steps;
}

FastPathDecision ChainEligibleForCsrClosure(const Query& query,
                                            size_t clause_index,
                                            const PatternChain& chain) {
  // --- shape ---
  if (chain.shortest) return No("shortestPath has its own plan");
  if (chain.nodes.size() != 2 || chain.rels.size() != 1) {
    return No("chain is not a single hop");
  }
  const RelPattern& rel = chain.rels[0];
  if (!rel.var_length) return No("relationship is fixed-length");
  if (!rel.var.empty()) {
    return No("relationship variable binds the path edges");
  }
  if (!rel.props.empty()) {
    return No("relationship properties require per-edge checks on the path");
  }
  if (rel.min_length > 1) {
    return No("min length > 1 distinguishes paths the closure cannot");
  }
  if (rel.max_length != kUnboundedLength &&
      rel.max_length < kCsrClosureDepthThreshold) {
    return No("bounded shallow expansion; enumeration is cheap");
  }

  // --- downstream multiplicity safety ---
  for (size_t i = clause_index + 1; i < query.clauses.size(); ++i) {
    const Clause& clause = query.clauses[i];
    if (std::holds_alternative<StartClause>(clause) ||
        std::holds_alternative<MatchClause>(clause) ||
        std::holds_alternative<WhereClause>(clause)) {
      // Per-row filters/extensions: duplicates in -> duplicates out.
      continue;
    }
    if (const auto* with = std::get_if<WithClause>(&clause)) {
      switch (ClassifyProjection(with->items, with->distinct)) {
        case ProjectionKind::kCollapsing:
          return Yes();
        case ProjectionKind::kTransparent:
          continue;
        case ProjectionKind::kObserving:
          return No("WITH observes row multiplicity (count over paths)");
      }
    }
    if (const auto* ret = std::get_if<ReturnClause>(&clause)) {
      switch (ClassifyProjection(ret->items, ret->distinct)) {
        case ProjectionKind::kCollapsing:
          return Yes();
        case ProjectionKind::kTransparent:
        case ProjectionKind::kObserving:
          return No("RETURN observes row multiplicity (one row per path)");
      }
    }
  }
  return No("no collapsing projection downstream");
}

void CollectReachabilityPatterns(const Expr& predicate,
                                 std::vector<const PatternChain*>* out) {
  if (const auto* pattern = std::get_if<PatternExpr>(&predicate.node)) {
    if (IsReachabilityPattern(pattern->chain)) out->push_back(&pattern->chain);
  } else if (const auto* boolean = std::get_if<BoolExpr>(&predicate.node)) {
    CollectReachabilityPatterns(*boolean->left, out);
    CollectReachabilityPatterns(*boolean->right, out);
  } else if (const auto* negation = std::get_if<NotExpr>(&predicate.node)) {
    CollectReachabilityPatterns(*negation->inner, out);
  }
}

bool MatchTriesCsrClosure(const Database& db, const ExecOptions& options,
                          const Query& query, size_t clause_index) {
  const std::vector<PatternChain>& chains =
      std::get<MatchClause>(query.clauses[clause_index]).chains;
  return UseReachKernel(db, options) && chains.size() == 1 &&
         ChainEligibleForCsrClosure(query, clause_index, chains[0]).eligible;
}

std::optional<size_t> ClosureSeed(const PatternChain& chain, bool bound0,
                                  bool bound1) {
  if (bound0 == bound1 || chain.nodes[bound0 ? 1 : 0].var.empty()) {
    return std::nullopt;
  }
  return bound0 ? 0 : 1;
}

}  // namespace frappe::query
