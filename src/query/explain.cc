#include "query/explain.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

#include "query/fast_path.h"

namespace frappe::query {

namespace {

std::string DescribeLiteral(const Literal& lit) {
  switch (lit.kind) {
    case Literal::Kind::kNull:
      return "null";
    case Literal::Kind::kBool:
      return lit.bool_value ? "true" : "false";
    case Literal::Kind::kInt:
      return std::to_string(lit.int_value);
    case Literal::Kind::kDouble: {
      std::ostringstream out;
      out << lit.double_value;
      return out.str();
    }
    case Literal::Kind::kString:
      return "'" + lit.string_value + "'";
  }
  return "?";
}

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

// Appends a pattern's property map, "{key: literal, ...}", after a space
// unless it opens the pattern.
void AppendPropMap(const std::vector<PropConstraint>& props,
                   std::string* out) {
  if (props.empty()) return;
  if (!out->empty() && out->back() != '(') *out += ' ';
  *out += '{';
  for (size_t i = 0; i < props.size(); ++i) {
    if (i > 0) *out += ", ";
    *out += props[i].key + ": " + DescribeLiteral(props[i].value);
  }
  *out += '}';
}

std::string DescribeNodePattern(const NodePattern& node) {
  std::string out = "(" + node.var;
  for (const std::string& label : node.labels) out += ":" + label;
  AppendPropMap(node.props, &out);
  return out + ")";
}

std::string DescribeRelPattern(const RelPattern& rel) {
  std::string detail = rel.var;
  if (!rel.types.empty()) {
    detail += ":";
    for (size_t i = 0; i < rel.types.size(); ++i) {
      if (i > 0) detail += "|";
      detail += rel.types[i];
    }
  }
  if (rel.var_length) {
    detail += "*";
    if (rel.min_length != 1 || rel.max_length != kUnboundedLength) {
      detail += std::to_string(rel.min_length) + "..";
      if (rel.max_length != kUnboundedLength) {
        detail += std::to_string(rel.max_length);
      }
    }
  }
  AppendPropMap(rel.props, &detail);
  std::string body = detail.empty() ? "" : "[" + detail + "]";
  switch (rel.direction) {
    case graph::Direction::kOut:
      return "-" + body + "->";
    case graph::Direction::kIn:
      return "<-" + body + "-";
    default:
      return "-" + body + "-";
  }
}

std::string DescribeChain(const PatternChain& chain) {
  std::string out = chain.shortest ? "shortestPath(" : "";
  for (size_t i = 0; i < chain.nodes.size(); ++i) {
    if (i > 0) out += " " + DescribeRelPattern(chain.rels[i - 1]) + " ";
    out += DescribeNodePattern(chain.nodes[i]);
  }
  if (chain.shortest) out += ")";
  return out;
}

// Estimated start-candidate count for an unbound node pattern.
std::string AnchorEstimate(const Database& db, const NodePattern& node) {
  const UnboundAnchor anchor = AnchorFor(db, node);
  if (anchor.tier == AnchorTier::kIndexed) {
    size_t hits =
        db.name_index->Lookup(anchor.field->name, anchor.value).size();
    return "NodeIndexSeek(" + anchor.field->name + " = '" +
           std::string(anchor.value) + "') (~" + std::to_string(hits) +
           " candidates)";
  }
  if (node.labels.empty()) {
    return "AllNodesScan (~" + std::to_string(db.view->NodeCount()) +
           " candidates)";
  }
  size_t total = 0;
  bool have_index = db.label_index != nullptr && db.resolve_label;
  if (have_index) {
    for (const std::string& label : node.labels) {
      size_t best = 0;
      for (graph::TypeId type : db.resolve_label(label)) {
        best += db.label_index->Nodes(type).size();
      }
      total = total == 0 ? best : std::min(total, best);
    }
    return "NodeByLabelScan(:" + node.labels[0] + ") (~" +
           std::to_string(total) + " candidates)";
  }
  return "FilteredAllNodesScan(:" + node.labels[0] + ")";
}

}  // namespace

std::string DescribeExpr(const Expr& expr) {
  if (const auto* lit = std::get_if<LiteralExpr>(&expr.node)) {
    return DescribeLiteral(lit->value);
  }
  if (const auto* var = std::get_if<VarExpr>(&expr.node)) return var->name;
  if (const auto* prop = std::get_if<PropExpr>(&expr.node)) {
    return prop->var + "." + prop->key;
  }
  if (const auto* cmp = std::get_if<CompareExpr>(&expr.node)) {
    return DescribeExpr(*cmp->left) + " " + CompareOpName(cmp->op) + " " +
           DescribeExpr(*cmp->right);
  }
  if (const auto* boolean = std::get_if<BoolExpr>(&expr.node)) {
    return "(" + DescribeExpr(*boolean->left) +
           (boolean->op == BoolOp::kAnd ? " AND " : " OR ") +
           DescribeExpr(*boolean->right) + ")";
  }
  if (const auto* negation = std::get_if<NotExpr>(&expr.node)) {
    return "NOT " + DescribeExpr(*negation->inner);
  }
  if (const auto* pattern = std::get_if<PatternExpr>(&expr.node)) {
    return "exists(" + DescribeChain(pattern->chain) + ")";
  }
  if (const auto* call = std::get_if<CallExpr>(&expr.node)) {
    std::string out = call->function + "(";
    if (call->star) out += "*";
    if (call->distinct) out += "distinct ";
    for (size_t i = 0; i < call->args.size(); ++i) {
      if (i > 0) out += ", ";
      out += DescribeExpr(*call->args[i]);
    }
    return out + ")";
  }
  return "?";
}

Result<std::vector<PlanStep>> BuildPlan(const Database& db,
                                        const Query& query,
                                        const ExecOptions& options) {
  if (db.view == nullptr) {
    return Status::InvalidArgument("database has no graph view");
  }
  std::vector<PlanStep> out;
  std::set<std::string> bound;
  size_t current_clause = 0;
  bool first_in_clause = true;
  auto line = [&](const std::string& text) {
    PlanStep step;
    step.text = text;
    step.clause_index = current_clause;
    step.primary = first_in_clause;
    first_in_clause = false;
    out.push_back(std::move(step));
  };
  auto is_bound = [&](const NodePattern& node) {
    return !node.var.empty() && bound.count(node.var) != 0;
  };

  for (size_t clause_index = 0; clause_index < query.clauses.size();
       ++clause_index) {
    current_clause = clause_index;
    first_in_clause = true;
    const Clause& clause = query.clauses[clause_index];
    if (const auto* start = std::get_if<StartClause>(&clause)) {
      for (const StartItem& item : start->items) {
        switch (item.kind) {
          case StartItem::Kind::kIndexQuery:
            line("NodeByIndexSeek " + item.var + " = node_auto_index('" +
                 item.index_query + "')");
            break;
          case StartItem::Kind::kByIds:
            line("NodeByIdSeek " + item.var + " (" +
                 std::to_string(item.ids.size()) + " id(s))");
            break;
          case StartItem::Kind::kAllNodes:
            line("AllNodesScan " + item.var + " (~" +
                 std::to_string(db.view->NodeCount()) + " rows)");
            break;
        }
        bound.insert(item.var);
      }
    } else if (const auto* match = std::get_if<MatchClause>(&clause)) {
      for (const PatternChain& chain : match->chains) {
        if (chain.shortest) {
          line("ShortestPath " + DescribeChain(chain) +
               " (bidirectional BFS between bound endpoints)");
        } else {
          const size_t pivot = PickAnchor(chain.nodes.size(), [&](size_t i) {
            const NodePattern& node = chain.nodes[i];
            return is_bound(node) ? AnchorTier::kBound
                                  : AnchorFor(db, node).tier;
          });
          const NodePattern& anchor = chain.nodes[pivot];
          const std::string anchor_desc =
              is_bound(anchor) ? "anchored on bound '" + anchor.var + "'"
                               : "anchored by " + AnchorEstimate(db, anchor);
          const bool closure =
              MatchTriesCsrClosure(db, options, query, clause_index) &&
              ClosureSeed(chain, is_bound(chain.nodes[0]),
                          is_bound(chain.nodes[1]))
                  .has_value();
          std::string expansion;
          for (const ExpandStep& step :
               ExpansionOrder(chain.nodes.size(), pivot)) {
            const RelPattern& rel = chain.rels[step.rel];
            expansion += std::string(step.reversed ? " Expand(reversed)"
                                                   : " Expand") +
                         DescribeRelPattern(rel);
            if (rel.var_length) {
              expansion += closure
                               ? " [CSR closure fast path: frontier traversal]"
                               : " [path enumeration]";
            }
          }
          line("Match " + DescribeChain(chain) + " — " + anchor_desc +
               (expansion.empty() ? "" : ";" + expansion));
        }
        for (const NodePattern& node : chain.nodes) {
          if (!node.var.empty()) bound.insert(node.var);
        }
        for (const RelPattern& rel : chain.rels) {
          if (!rel.var.empty()) bound.insert(rel.var);
        }
      }
    } else if (const auto* where = std::get_if<WhereClause>(&clause)) {
      std::vector<const PatternChain*> reach;
      CollectReachabilityPatterns(*where->predicate, &reach);
      const bool reach_kernel =
          UseReachKernel(db, options) &&
          std::any_of(reach.begin(), reach.end(), [&](const PatternChain* c) {
            return is_bound(c->nodes[0]) && is_bound(c->nodes[1]);
          });
      line("Filter " + DescribeExpr(*where->predicate) +
           (reach_kernel ? " [reachability kernel]" : ""));
    } else if (const auto* with = std::get_if<WithClause>(&clause)) {
      std::string items;
      bound.clear();
      for (size_t i = 0; i < with->items.size(); ++i) {
        if (i > 0) items += ", ";
        items += DescribeExpr(*with->items[i].expr) + " AS " +
                 with->items[i].alias;
        bound.insert(with->items[i].alias);
      }
      line(std::string("Project") + (with->distinct ? " DISTINCT " : " ") +
           items);
    } else if (const auto* ret = std::get_if<ReturnClause>(&clause)) {
      std::string items;
      bool aggregated = false;
      for (size_t i = 0; i < ret->items.size(); ++i) {
        if (i > 0) items += ", ";
        items += DescribeExpr(*ret->items[i].expr) + " AS " +
                 ret->items[i].alias;
        if (std::get_if<CallExpr>(&ret->items[i].expr->node) != nullptr &&
            std::get<CallExpr>(ret->items[i].expr->node).function ==
                "count") {
          aggregated = true;
        }
      }
      line(std::string(aggregated ? "Aggregate" : "Produce") +
           (ret->distinct ? " DISTINCT " : " ") + items);
      if (!ret->order_by.empty()) {
        std::string keys;
        for (size_t i = 0; i < ret->order_by.size(); ++i) {
          if (i > 0) keys += ", ";
          keys += DescribeExpr(*ret->order_by[i].expr) +
                  (ret->order_by[i].ascending ? "" : " DESC");
        }
        line("Sort " + keys);
      }
      if (ret->skip > 0) line("Skip " + std::to_string(ret->skip));
      if (ret->limit >= 0) line("Limit " + std::to_string(ret->limit));
    }
  }
  return out;
}

std::string RenderPlan(const std::vector<PlanStep>& steps,
                       const ExecStats* stats) {
  // Pad every annotated line to one shared annotation column so PROFILE
  // emits a stably-parseable layout.
  size_t annotation_col = 0;
  {
    int number = 1;
    for (const PlanStep& step : steps) {
      size_t width = std::to_string(number++).size() + 2 + step.text.size();
      annotation_col = std::max(annotation_col, width);
    }
  }
  std::string out;
  int number = 1;
  for (const PlanStep& step : steps) {
    std::string line = std::to_string(number++) + ". " + step.text;
    const OperatorStats* op = nullptr;
    if (stats != nullptr && step.primary) {
      for (const OperatorStats& candidate : stats->operators) {
        if (candidate.clause_index == step.clause_index) {
          op = &candidate;
          break;
        }
      }
    }
    if (op != nullptr && line.size() < annotation_col) {
      line.append(annotation_col - line.size(), ' ');
    }
    out += line;
    if (op != nullptr) {
      out += " //";
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    " rows=%llu db_hits=%llu steps=%llu time=%.3fms",
                    static_cast<unsigned long long>(op->rows),
                    static_cast<unsigned long long>(op->db_hits.Total()),
                    static_cast<unsigned long long>(op->steps),
                    op->time_ms);
      out += buf;
      if (op->fast_path) {
        out += " frontier=[";
        for (size_t i = 0; i < op->frontier_sizes.size(); ++i) {
          if (i > 0) out += ",";
          out += std::to_string(op->frontier_sizes[i]);
        }
        out += "] dag_scans=" + std::to_string(op->dag_scans);
      }
      if (op->reach_kernel) {
        out += std::string(" [reachability kernel: side=") +
               (op->reach_from_target ? "target" : "source") +
               " anchors=" + std::to_string(op->reach_anchors) +
               " early_exits=" + std::to_string(op->reach_early_exits) +
               " scc=" + std::to_string(op->reach_scc) +
               " order=" + std::to_string(op->reach_order) +
               " dag_scans=" + std::to_string(op->dag_scans) + "]";
      }
    }
    out += "\n";
  }
  return out;
}

Result<std::string> Explain(const Database& db, const Query& query,
                            const ExecOptions& options) {
  FRAPPE_ASSIGN_OR_RETURN(std::vector<PlanStep> steps,
                          BuildPlan(db, query, options));
  return RenderPlan(steps, nullptr);
}

Result<std::string> ProfilePlan(const Database& db, const Query& query,
                                const ExecOptions& options,
                                const ExecStats& stats) {
  FRAPPE_ASSIGN_OR_RETURN(std::vector<PlanStep> steps,
                          BuildPlan(db, query, options));
  return RenderPlan(steps, &stats);
}

}  // namespace frappe::query
