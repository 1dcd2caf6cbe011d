#ifndef FRAPPE_QUERY_AST_H_
#define FRAPPE_QUERY_AST_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "graph/graph_view.h"

namespace frappe::query {

// FQL (Frappé Query Language) abstract syntax. FQL is a Cypher-1.x/2.x
// style language covering everything the paper's Figures 3-6 and Table 6
// use: START index lookups, MATCH patterns with variable-length
// relationships, WHERE expressions (including pattern predicates),
// WITH [DISTINCT] pipelines and RETURN [DISTINCT] ... ORDER BY ... LIMIT.

// ---------------------------------------------------------------------------
// Literals and expressions
// ---------------------------------------------------------------------------

struct Literal {
  enum class Kind { kNull, kBool, kInt, kDouble, kString };
  Kind kind = Kind::kNull;
  bool bool_value = false;
  int64_t int_value = 0;
  double double_value = 0.0;
  std::string string_value;

  static Literal Null() { return {}; }
  static Literal Bool(bool b) {
    Literal l;
    l.kind = Kind::kBool;
    l.bool_value = b;
    return l;
  }
  static Literal Int(int64_t v) {
    Literal l;
    l.kind = Kind::kInt;
    l.int_value = v;
    return l;
  }
  static Literal Double(double v) {
    Literal l;
    l.kind = Kind::kDouble;
    l.double_value = v;
    return l;
  }
  static Literal String(std::string v) {
    Literal l;
    l.kind = Kind::kString;
    l.string_value = std::move(v);
    return l;
  }
};

// One `key: value` entry of a `{...}` property map in a pattern.
struct PropConstraint {
  std::string key;  // raw name; canonicalized at bind time
  Literal value;
};

// ---------------------------------------------------------------------------
// Patterns
// ---------------------------------------------------------------------------

struct NodePattern {
  std::string var;                  // empty when anonymous: ()
  std::vector<std::string> labels;  // concrete types or group labels
  std::vector<PropConstraint> props;
};

inline constexpr uint32_t kUnboundedLength =
    std::numeric_limits<uint32_t>::max();

struct RelPattern {
  std::string var;                 // empty when anonymous
  std::vector<std::string> types;  // alternation; empty = any type
  graph::Direction direction = graph::Direction::kOut;
  bool var_length = false;  // `*`, `*2`, `*1..3`
  uint32_t min_length = 1;
  uint32_t max_length = 1;  // kUnboundedLength for `*`
  std::vector<PropConstraint> props;
};

// node (rel node)*  — rels.size() == nodes.size() - 1.
struct PatternChain {
  std::vector<NodePattern> nodes;
  std::vector<RelPattern> rels;
  // shortestPath((a)-[:t*]->(b)): instead of enumerating paths, bind the
  // single fewest-edges path between the (bound) endpoints.
  bool shortest = false;
};

// ---------------------------------------------------------------------------
// Expressions (WHERE / WITH / RETURN)
// ---------------------------------------------------------------------------

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct LiteralExpr {
  Literal value;
};
struct VarExpr {
  std::string name;
};
struct PropExpr {
  std::string var;
  std::string key;
};
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
struct CompareExpr {
  CompareOp op;
  ExprPtr left;
  ExprPtr right;
};
enum class BoolOp { kAnd, kOr };
struct BoolExpr {
  BoolOp op;
  ExprPtr left;
  ExprPtr right;
};
struct NotExpr {
  ExprPtr inner;
};
// Existential pattern check, e.g. `direct -[:calls*]-> writer` (Figure 5)
// or `(n) <-[{...}]- ()` (Figure 4).
struct PatternExpr {
  PatternChain chain;
};
// count(*), count(x), count(distinct x), id(x), has(x.key)/exists(x.key).
struct CallExpr {
  std::string function;  // lowercased
  bool distinct = false;
  bool star = false;  // count(*)
  std::vector<ExprPtr> args;
};

struct Expr {
  std::variant<LiteralExpr, VarExpr, PropExpr, CompareExpr, BoolExpr, NotExpr,
               PatternExpr, CallExpr>
      node;
};

// ---------------------------------------------------------------------------
// Clauses
// ---------------------------------------------------------------------------

struct StartItem {
  enum class Kind {
    kIndexQuery,  // n=node:node_auto_index('short_name: foo')
    kByIds,       // n=node(3) or n=node(3, 5, 7)
    kAllNodes,    // n=node(*)
  };
  std::string var;
  Kind kind = Kind::kIndexQuery;
  std::string index_query;        // lucene-style payload
  std::vector<uint64_t> ids;      // for kByIds
};

struct StartClause {
  std::vector<StartItem> items;
};
struct MatchClause {
  std::vector<PatternChain> chains;
};
struct WhereClause {
  ExprPtr predicate;
};

struct ProjectionItem {
  ExprPtr expr;
  std::string alias;  // explicit AS, or derived name
};

struct WithClause {
  bool distinct = false;
  std::vector<ProjectionItem> items;
};

struct OrderItem {
  ExprPtr expr;
  bool ascending = true;
};

struct ReturnClause {
  bool distinct = false;
  std::vector<ProjectionItem> items;
  std::vector<OrderItem> order_by;
  int64_t limit = -1;  // -1 = no limit
  int64_t skip = 0;
};

using Clause = std::variant<StartClause, MatchClause, WhereClause, WithClause,
                            ReturnClause>;

// Prefix keyword ahead of the first clause: `EXPLAIN <query>` renders the
// plan without executing; `PROFILE <query>` executes for real and annotates
// the same plan with per-operator runtime stats.
enum class QueryMode {
  kNormal,
  kExplain,
  kProfile,
};

struct Query {
  QueryMode mode = QueryMode::kNormal;
  std::vector<Clause> clauses;
};

}  // namespace frappe::query

#endif  // FRAPPE_QUERY_AST_H_
