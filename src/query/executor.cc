#include "query/executor.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"
#include "graph/analytics.h"
#include "graph/traversal.h"
#include "obs/metrics.h"
#include "obs/query_registry.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "query/fast_path.h"

namespace frappe::query {

// ---------------------------------------------------------------------------
// ResultValue
// ---------------------------------------------------------------------------

namespace {

int CompareScalars(const graph::Value& a, const graph::Value& b,
                   const graph::StringPool* pool) {
  using graph::ValueType;
  if (a.is_numeric() && b.is_numeric()) {
    double x = a.NumericValue(), y = b.NumericValue();
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }
  if (a.type() != b.type()) {
    return static_cast<int>(a.type()) < static_cast<int>(b.type()) ? -1 : 1;
  }
  switch (a.type()) {
    case ValueType::kBool:
      return (a.AsBool() ? 1 : 0) - (b.AsBool() ? 1 : 0);
    case ValueType::kString: {
      if (pool != nullptr) {
        return pool->Resolve(a.AsString())
            .compare(pool->Resolve(b.AsString()));
      }
      // Without a pool fall back to interning order (stable, not
      // lexicographic) — sufficient for DISTINCT / grouping.
      if (a.AsString().id < b.AsString().id) return -1;
      if (a.AsString().id > b.AsString().id) return 1;
      return 0;
    }
    default:
      return 0;
  }
}

int ComparePools(const ResultValue& a, const ResultValue& b,
                 const graph::StringPool* pool) {
  using Kind = ResultValue::Kind;
  // Nulls last.
  if (a.kind == Kind::kNull || b.kind == Kind::kNull) {
    if (a.kind == b.kind) return 0;
    return a.kind == Kind::kNull ? 1 : -1;
  }
  if (a.kind != b.kind) {
    return static_cast<int>(a.kind) < static_cast<int>(b.kind) ? -1 : 1;
  }
  switch (a.kind) {
    case Kind::kNode:
      return a.node < b.node ? -1 : (a.node > b.node ? 1 : 0);
    case Kind::kEdge:
      return a.edge < b.edge ? -1 : (a.edge > b.edge ? 1 : 0);
    case Kind::kValue:
      return CompareScalars(a.value, b.value, pool);
    case Kind::kEdgeList: {
      if (a.edges != b.edges) return a.edges < b.edges ? -1 : 1;
      return 0;
    }
    default:
      return 0;
  }
}

}  // namespace

int ResultValue::Compare(const ResultValue& a, const ResultValue& b) {
  return ComparePools(a, b, nullptr);
}

bool ResultValue::operator==(const ResultValue& other) const {
  return Compare(*this, other) == 0;
}

std::string ResultValue::ToString(const Database& db) const {
  const graph::GraphView& view = *db.view;
  switch (kind) {
    case Kind::kNull:
      return "null";
    case Kind::kNode: {
      std::string out = "(#" + std::to_string(node);
      if (view.NodeExists(node)) {
        out += ":" + std::string(view.NodeTypeName(node));
        if (db.display_name_key != graph::kInvalidKey) {
          std::string_view name = view.GetNodeString(node,
                                                     db.display_name_key);
          if (!name.empty()) out += " " + std::string(name);
        }
      }
      return out + ")";
    }
    case Kind::kEdge: {
      if (!view.EdgeExists(edge)) return "[#" + std::to_string(edge) + "]";
      graph::Edge e = view.GetEdge(edge);
      return "[#" + std::to_string(edge) + ":" +
             std::string(view.EdgeTypeName(edge)) + " " +
             std::to_string(e.src) + "->" + std::to_string(e.dst) + "]";
    }
    case Kind::kValue:
      return value.ToString(view.strings());
    case Kind::kEdgeList:
      return "[" + std::to_string(edges.size()) + " rels]";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

namespace {

using graph::Direction;
using graph::EdgeId;
using graph::KeyId;
using graph::NodeId;
using graph::TypeId;

using Row = std::vector<ResultValue>;

// Lexicographic total order over rows, used for DISTINCT and grouping.
struct RowLess {
  bool operator()(const Row& a, const Row& b) const {
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      int c = ResultValue::Compare(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

graph::Direction Flip(graph::Direction dir) {
  switch (dir) {
    case Direction::kOut:
      return Direction::kIn;
    case Direction::kIn:
      return Direction::kOut;
    default:
      return Direction::kBoth;
  }
}

// A node pattern with names resolved against the database.
struct BoundNodePattern {
  int slot = -1;                // row slot for named vars, -1 if anonymous
  bool any_type = true;
  std::vector<TypeId> types;    // allowed types when !any_type
  bool impossible = false;      // unknown label / un-internable string prop
  std::vector<std::pair<KeyId, graph::Value>> props;
};

struct BoundRelPattern {
  int slot = -1;
  bool any_type = true;
  std::vector<TypeId> types;
  bool impossible = false;
  Direction direction = Direction::kOut;
  bool var_length = false;
  uint32_t min_length = 1;
  uint32_t max_length = 1;
  std::vector<std::pair<KeyId, graph::Value>> props;

  bool AllowsType(TypeId t) const {
    if (any_type) return true;
    for (TypeId allowed : types) {
      if (allowed == t) return true;
    }
    return false;
  }
};

struct BoundChain {
  std::vector<BoundNodePattern> nodes;
  std::vector<BoundRelPattern> rels;
  bool shortest = false;
};

// One expansion step in the chosen matching order.
struct MatchStep {
  size_t from_node;  // index into BoundChain::nodes, already bound
  size_t to_node;    // index to bind
  size_t rel;        // index into BoundChain::rels
  bool flipped;      // expansion runs against the pattern's direction
};

// A pattern predicate bound once per clause. For the reachability shape
// (see CollectReachabilityPatterns) it also caches one closure: the kernel runs
// from one endpoint, the anchor, and keeps only the latest anchor's member
// set, so rows evaluated in anchor-grouped order pay one closure per
// distinct anchor while memory stays O(nodes).
struct PatternProbe {
  BoundChain chain;
  // Closures run from the pattern's target endpoint, against the arrow.
  bool reversed = false;
  // Per anchor, the sorted other endpoints its rows ask about: the
  // kernel's early-exit targets. Filled by the WHERE pre-scan only.
  std::unordered_map<NodeId, std::vector<NodeId>> wanted;
  NodeId anchor = graph::kInvalidNode;  // whose closure `members` holds
  // False when the closure stopped early: then only endpoints in its
  // early-exit targets are known to be members.
  bool complete = false;
  std::vector<NodeId> members;  // sorted
};

class Engine {
 public:
  Engine(const Database& db, const Query& query, const ExecOptions& options)
      : db_(db),
        query_(query),
        options_(options),
        tracker_(obs::ResourceTracker::Current()) {
    if (options_.deadline_ms > 0) {
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(options_.deadline_ms);
      has_deadline_ = true;
    }
  }

  Result<QueryResult> Run() {
    const auto run_start = std::chrono::steady_clock::now();
    rows_.push_back(Row(width_));
    QueryResult out;
    bool returned = false;
    for (size_t clause_index = 0; clause_index < query_.clauses.size();
         ++clause_index) {
      const Clause& clause = query_.clauses[clause_index];
      // Span names are literals, picked by clause kind ahead of the visit.
      const char* span_name = std::visit(
          [](const auto& c) -> const char* {
            using T = std::decay_t<decltype(c)>;
            if constexpr (std::is_same_v<T, StartClause>) {
              return "executor.start";
            } else if constexpr (std::is_same_v<T, MatchClause>) {
              return "executor.match";
            } else if constexpr (std::is_same_v<T, WhereClause>) {
              return "executor.where";
            } else if constexpr (std::is_same_v<T, WithClause>) {
              return "executor.with";
            } else {
              return "executor.return";
            }
          },
          clause);
      obs::Span clause_span(span_name);
      // Bound patterns hold row slots, which a WITH renumbers.
      pattern_probes_.clear();
      if (options_.progress != nullptr) {
        options_.progress->op.store(span_name, std::memory_order_relaxed);
        PublishProgress();
      }
      const bool profile = options_.profile;
      const uint64_t steps_before = steps_;
      const DbHits hits_before = hits_;
      std::chrono::steady_clock::time_point clause_start;
      if (profile) {
        fast_path_op_ = false;
        fp_frontier_sizes_.clear();
        fp_level_pull_.clear();
        fp_level_bitmap_.clear();
        fp_direction_switches_ = 0;
        reach_op_ = {};
        clause_start = std::chrono::steady_clock::now();
      }
      Status status = std::visit(
          [&](const auto& c) -> Status {
            using T = std::decay_t<decltype(c)>;
            if constexpr (std::is_same_v<T, StartClause>) {
              return ExecStart(c);
            } else if constexpr (std::is_same_v<T, MatchClause>) {
              return ExecMatch(c, clause_index);
            } else if constexpr (std::is_same_v<T, WhereClause>) {
              return ExecWhere(c);
            } else if constexpr (std::is_same_v<T, WithClause>) {
              return ExecWith(c);
            } else {
              returned = true;
              return ExecReturn(c, &out);
            }
          },
          clause);
      FRAPPE_RETURN_IF_ERROR(status);
      if (profile) {
        OperatorStats op;
        op.clause_index = clause_index;
        // After RETURN ran, `rows_` is stale — the projected rows moved
        // into the result.
        op.rows = returned ? out.rows.size() : rows_.size();
        op.steps = steps_ - steps_before;
        op.db_hits = hits_ - hits_before;
        op.time_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - clause_start)
                         .count();
        op.fast_path = fast_path_op_;
        op.frontier_sizes = fp_frontier_sizes_;
        op.level_pull = fp_level_pull_;
        op.level_bitmap = fp_level_bitmap_;
        op.direction_switches = fp_direction_switches_;
        op.reach_kernel = reach_op_.anchors > 0;
        op.reach_from_target = reach_op_.from_target;
        op.reach_anchors = reach_op_.anchors;
        op.reach_early_exits = reach_op_.early_exits;
        out.stats.operators.push_back(std::move(op));
      }
    }
    if (!returned) {
      return Status::InvalidArgument("query has no RETURN clause");
    }
    out.steps = steps_;
    out.stats.steps = steps_;
    out.stats.db_hits = hits_;
    out.stats.fast_path_taken = fast_path_taken_;
    // Bytes read from graph storage: the CSR kernels report exact packed
    // bytes; the enumerating path is approximated from db-hit counts times
    // the packed record widths each hit touches.
    constexpr uint64_t kNodeScanBytes = 8;
    constexpr uint64_t kEdgeScanBytes = 16;
    constexpr uint64_t kPropScanBytes = 16;
    out.stats.scanned_bytes =
        csr_scanned_bytes_ + hits_.nodes * kNodeScanBytes +
        (hits_.edges - csr_edge_hits_) * kEdgeScanBytes +
        hits_.properties * kPropScanBytes;
    if (tracker_ != nullptr) {
      tracker_->AddScannedBytes(out.stats.scanned_bytes);
    }
    out.stats.elapsed_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - run_start)
                               .count();
    return out;
  }

 private:
  // --- budget ---

  // The deadline clock is read once every this many steps, not per
  // candidate row — steady_clock::now() is far too expensive for the inner
  // match loop. Power of two so the test is a mask, and small enough that
  // enforcement lags the deadline by at most one interval of cheap work
  // (the regression test pins the observed tolerance).
  static constexpr uint64_t kDeadlineCheckInterval = 1024;

  Status Tick() {
    ++steps_;
    if (options_.max_steps > 0 && steps_ > options_.max_steps) {
      return Status::ResourceExhausted(
          "query exceeded step budget of " +
          std::to_string(options_.max_steps));
    }
    // Progress publication, the cancel token, and the deadline clock all
    // share one cadence: cheap inner-loop work pays only the mask test.
    if ((steps_ & (kDeadlineCheckInterval - 1)) == 0) {
      if (options_.progress != nullptr) PublishProgress();
      if (options_.cancel != nullptr &&
          options_.cancel->load(std::memory_order_relaxed)) {
        return Status::Cancelled("query cancelled");
      }
      if (has_deadline_ && std::chrono::steady_clock::now() > deadline_) {
        return DeadlineError();
      }
      if (tracker_ != nullptr && tracker_->OverBudget()) {
        return Status::ResourceExhausted(
            "query exceeded memory budget of " +
            std::to_string(tracker_->budget_bytes()) + " bytes");
      }
    }
    return Status::OK();
  }

  Status DeadlineError() const {
    return Status::DeadlineExceeded("query exceeded deadline of " +
                                    std::to_string(options_.deadline_ms) +
                                    "ms");
  }

  void PublishProgress() {
    obs::QueryProgress& p = *options_.progress;
    p.steps.store(steps_, std::memory_order_relaxed);
    p.db_hits.store(hits_.Total(), std::memory_order_relaxed);
    p.rows.store(rows_.size(), std::memory_order_relaxed);
  }

  // --- variable slots ---

  int SlotOf(const std::string& var) {
    auto it = slots_.find(var);
    if (it != slots_.end()) return static_cast<int>(it->second);
    size_t slot = width_++;
    slots_.emplace(var, slot);
    for (Row& row : rows_) row.resize(width_);
    return static_cast<int>(slot);
  }
  int FindSlot(const std::string& var) const {
    auto it = slots_.find(var);
    return it == slots_.end() ? -1 : static_cast<int>(it->second);
  }

  // --- clause execution ---

  Status ExecStart(const StartClause& clause) {
    for (const StartItem& item : clause.items) {
      std::vector<NodeId> nodes;
      switch (item.kind) {
        case StartItem::Kind::kIndexQuery: {
          if (db_.name_index == nullptr) {
            return Status::FailedPrecondition(
                "START index lookup requires a name index");
          }
          FRAPPE_ASSIGN_OR_RETURN(nodes,
                                  db_.name_index->Query(item.index_query));
          break;
        }
        case StartItem::Kind::kByIds:
          for (uint64_t id : item.ids) {
            NodeId node = static_cast<NodeId>(id);
            if (!db_.view->NodeExists(node)) {
              return Status::NotFound("node " + std::to_string(id) +
                                      " does not exist");
            }
            nodes.push_back(node);
          }
          break;
        case StartItem::Kind::kAllNodes:
          db_.view->ForEachNode([&](NodeId id) { nodes.push_back(id); });
          break;
      }
      hits_.nodes += nodes.size();
      int slot = SlotOf(item.var);
      std::vector<Row> next;
      next.reserve(rows_.size() * nodes.size());
      for (const Row& row : rows_) {
        for (NodeId node : nodes) {
          FRAPPE_RETURN_IF_ERROR(Tick());
          Row extended = row;
          extended[slot] = ResultValue::Node(node);
          next.push_back(std::move(extended));
        }
      }
      rows_ = std::move(next);
    }
    return Status::OK();
  }

  Status ExecMatch(const MatchClause& clause, size_t clause_index) {
    // Resolve all chains once.
    std::vector<BoundChain> chains;
    for (const PatternChain& chain : clause.chains) {
      FRAPPE_ASSIGN_OR_RETURN(BoundChain bound, BindChain(chain));
      chains.push_back(std::move(bound));
    }
    // CSR closure fast path: a lone deep variable-length hop whose path
    // multiplicity is collapsed downstream can be answered with the
    // frontier kernel instead of enumerating every path. Only for a
    // single-chain MATCH — multiple chains share edge-distinctness via
    // `used`, which the closure does not model.
    bool try_fast_path =
        options_.use_csr_fast_path && db_.csr != nullptr &&
        clause.chains.size() == 1 &&
        ChainEligibleForCsrClosure(query_, clause_index, clause.chains[0])
            .eligible;
    std::vector<Row> next;
    for (Row& row : rows_) {
      if (try_fast_path) {
        FRAPPE_ASSIGN_OR_RETURN(bool handled,
                                TryCsrClosure(chains[0], &row, &next));
        if (handled) continue;
      }
      std::unordered_set<EdgeId> used;
      FRAPPE_RETURN_IF_ERROR(MatchChainList(
          chains, 0, &row, &used, [&](const Row& matched) {
            next.push_back(matched);
            return Status::OK();
          }));
    }
    rows_ = std::move(next);
    return Status::OK();
  }

  // Attempts to answer an eligible variable-length chain for one row with
  // the CSR closure kernel. Returns true when the row was handled
  // (its result rows, possibly none, were appended to `out`); false falls
  // back to path enumeration — used whenever the runtime binding shape is
  // not the "exactly one endpoint bound, target unbound and named" form
  // the kernel answers.
  Result<bool> TryCsrClosure(const BoundChain& chain, Row* row,
                             std::vector<Row>* out) {
    const BoundNodePattern& a = chain.nodes[0];
    const BoundNodePattern& b = chain.nodes[1];
    const BoundRelPattern& rel = chain.rels[0];
    if (rel.impossible || a.impossible || b.impossible) return false;

    // -1 = unbound slot, kInvalidNode-as-weird handled via the bool.
    auto slot_node = [&](const BoundNodePattern& p, bool* weird) -> NodeId {
      if (p.slot < 0 || p.slot >= static_cast<int>(row->size())) {
        return graph::kInvalidNode;
      }
      const ResultValue& v = (*row)[p.slot];
      if (v.is_null()) return graph::kInvalidNode;
      if (v.kind != ResultValue::Kind::kNode) *weird = true;
      return v.node;
    };
    bool weird = false;
    NodeId from = slot_node(a, &weird);
    NodeId to = slot_node(b, &weird);
    if (weird) return false;  // non-node binding: let the slow path decide

    bool reversed;
    if (from != graph::kInvalidNode && to == graph::kInvalidNode) {
      reversed = false;
    } else if (to != graph::kInvalidNode && from == graph::kInvalidNode) {
      reversed = true;
    } else {
      return false;  // both or neither endpoint bound
    }
    const BoundNodePattern& anchor = reversed ? b : a;
    const BoundNodePattern& target = reversed ? a : b;
    if (target.slot < 0) return false;  // anonymous target
    NodeId seed = reversed ? to : from;

    FRAPPE_RETURN_IF_ERROR(Tick());
    if (!NodeSatisfies(anchor, seed)) return true;  // handled: no rows

    graph::EdgeFilter filter;
    filter.direction = reversed ? Flip(rel.direction) : rel.direction;
    if (!rel.any_type) filter.types = rel.types;

    graph::analytics::Metrics metrics;
    FRAPPE_ASSIGN_OR_RETURN(
        std::vector<NodeId> members,
        CsrClosure(seed, filter, rel.max_length, nullptr, &metrics));
    fast_path_taken_ = true;
    fast_path_op_ = true;
    // Frontier trajectory of the widest run this clause dispatched (one
    // kernel call per input row; typically exactly one).
    if (metrics.frontier_sizes.size() > fp_frontier_sizes_.size()) {
      fp_frontier_sizes_ = metrics.frontier_sizes;
      // Direction decisions ride with the frontier trajectory they
      // annotate, so PROFILE shows one consistent run.
      fp_level_pull_ = metrics.level_pull;
      fp_level_bitmap_ = metrics.level_bitmap;
      fp_direction_switches_ = metrics.direction_switches;
    }

    auto emit = [&](NodeId node) -> Status {
      if (!NodeSatisfies(target, node)) return Status::OK();
      FRAPPE_RETURN_IF_ERROR(Tick());
      Row extended = *row;
      extended[target.slot] = ResultValue::Node(node);
      out->push_back(std::move(extended));
      return Status::OK();
    };
    // `*0..` includes the zero-length path unless the closure already
    // reached the seed through a cycle.
    if (rel.min_length == 0 &&
        !std::binary_search(members.begin(), members.end(), seed)) {
      FRAPPE_RETURN_IF_ERROR(emit(seed));
    }
    for (NodeId node : members) {
      FRAPPE_RETURN_IF_ERROR(emit(node));
    }
    return true;
  }

  // Runs the CSR closure kernel from `seed` under what is left of the
  // query's budgets: remaining steps, the deadline and the cancel token
  // go into the kernel, which also polls the memory budget of the query's
  // resource tracker. Its edge scans are charged to steps, db_hits and
  // scanned_bytes, and its budget errors come back in the executor's
  // wording.
  Result<std::vector<NodeId>> CsrClosure(
      NodeId seed, const graph::EdgeFilter& filter, uint32_t max_length,
      const std::vector<NodeId>* stop_targets,
      graph::analytics::Metrics* metrics) {
    graph::analytics::Options opt;
    opt.cancel = options_.cancel;
    opt.stop_targets = stop_targets;
    if (max_length != kUnboundedLength) opt.max_depth = max_length;
    if (options_.max_steps > 0) {
      opt.max_steps =
          options_.max_steps > steps_ ? options_.max_steps - steps_ : 1;
    }
    if (has_deadline_) {
      const auto now = std::chrono::steady_clock::now();
      // A passed deadline fails here: a fresh minimum for every kernel call
      // would let a run of short closures outlive it.
      if (now > deadline_) return DeadlineError();
      int64_t remaining_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline_ -
                                                                now)
              .count();
      opt.deadline_ms = std::max<int64_t>(remaining_ms, 1);
    }

    const graph::CsrView& csr = db_.csr->Get(*db_.view);
    auto members = [&] {
      FRAPPE_TRACE_SPAN("executor.csr_closure");
      return graph::analytics::ParallelClosure(csr, {seed}, filter, opt,
                                               metrics);
    }();
    steps_ += metrics->steps;
    hits_.edges += metrics->steps;  // each kernel step scans one edge
    csr_edge_hits_ += metrics->steps;
    csr_scanned_bytes_ += metrics->scanned_bytes;
    if (members.ok()) return members;
    // Memory-budget breaches pass through untouched: their message already
    // names the cap, and rewriting them as a step-budget error would
    // misattribute the failure.
    const Status& status = members.status();
    if (status.code() == StatusCode::kResourceExhausted) {
      if (status.message().find("memory") != std::string::npos) {
        return status;
      }
      return Status::ResourceExhausted("query exceeded step budget of " +
                                       std::to_string(options_.max_steps));
    }
    if (status.code() == StatusCode::kDeadlineExceeded) {
      return DeadlineError();
    }
    if (status.code() == StatusCode::kCancelled) {
      return Status::Cancelled("query cancelled");
    }
    return status;
  }

  Status ExecWhere(const WhereClause& clause) {
    // Reachability predicates on the CSR kernel evaluate rows grouped by
    // anchor, so each anchor's closure runs once; rows keep their order.
    // A predicate without one skips the pre-scan entirely.
    std::vector<size_t> order;
    if (UseReachKernel()) {
      std::vector<const PatternChain*> patterns;
      CollectReachabilityPatterns(*clause.predicate, &patterns);
      if (!patterns.empty()) {
        FRAPPE_RETURN_IF_ERROR(PlanReachProbes(patterns, &order));
      }
    }
    std::vector<char> keep(rows_.size(), 0);
    for (size_t i = 0; i < rows_.size(); ++i) {
      size_t row = order.empty() ? i : order[i];
      FRAPPE_ASSIGN_OR_RETURN(bool pass,
                              EvalPredicate(*clause.predicate, rows_[row]));
      keep[row] = pass ? 1 : 0;
    }
    std::vector<Row> next;
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (keep[i] != 0) next.push_back(std::move(rows_[i]));
    }
    rows_ = std::move(next);
    return Status::OK();
  }

  bool UseReachKernel() const {
    return options_.use_csr_fast_path && db_.csr != nullptr;
  }

  // The WHERE pre-scan. For each reachability pattern, anchors on the
  // endpoint with fewer distinct bound nodes across the rows and records,
  // per anchor, the other endpoints its rows ask about. `order` receives
  // the row indices grouped by the first pattern's anchor (rows it cannot
  // answer last), stable within a group.
  Status PlanReachProbes(const std::vector<const PatternChain*>& patterns,
                         std::vector<size_t>* order) {
    for (const PatternChain* chain : patterns) {
      FRAPPE_ASSIGN_OR_RETURN(PatternProbe * probe, ProbeFor(*chain));
      if (!IsReachKernelShape(probe->chain)) continue;
      const int from_slot = probe->chain.nodes[0].slot;
      const int to_slot = probe->chain.nodes[1].slot;
      std::vector<std::pair<NodeId, NodeId>> pairs;  // (from, to) per row
      pairs.reserve(rows_.size());
      for (const Row& row : rows_) {
        pairs.emplace_back(BoundNodeOf(row, from_slot),
                           BoundNodeOf(row, to_slot));
      }
      auto distinct = [&](bool second) {
        std::vector<NodeId> nodes;
        for (const auto& [from, to] : pairs) {
          if (from != graph::kInvalidNode && to != graph::kInvalidNode) {
            nodes.push_back(second ? to : from);
          }
        }
        std::sort(nodes.begin(), nodes.end());
        return std::unique(nodes.begin(), nodes.end()) - nodes.begin();
      };
      probe->reversed = distinct(true) < distinct(false);
      std::vector<NodeId> anchors;
      anchors.reserve(pairs.size());
      for (const auto& [from, to] : pairs) {
        const bool both = from != graph::kInvalidNode &&
                          to != graph::kInvalidNode;
        NodeId anchor = both ? (probe->reversed ? to : from)
                             : graph::kInvalidNode;
        anchors.push_back(anchor);
        if (both) probe->wanted[anchor].push_back(probe->reversed ? from : to);
      }
      for (auto& [anchor, others] : probe->wanted) {
        std::sort(others.begin(), others.end());
        others.erase(std::unique(others.begin(), others.end()),
                     others.end());
      }
      if (order->empty()) {
        order->resize(rows_.size());
        for (size_t i = 0; i < order->size(); ++i) (*order)[i] = i;
        std::stable_sort(order->begin(), order->end(),
                         [&](size_t a, size_t b) {
                           return anchors[a] < anchors[b];
                         });
      }
    }
    return Status::OK();
  }

  Status ExecWith(const WithClause& clause) {
    std::vector<std::string> columns;
    std::vector<Row> projected;
    FRAPPE_RETURN_IF_ERROR(
        Project(clause.items, clause.distinct, &columns, &projected));
    // The projected columns become the new variable universe.
    slots_.clear();
    width_ = 0;
    for (const std::string& name : columns) SlotOf(name);
    rows_ = std::move(projected);
    for (Row& row : rows_) row.resize(width_);
    return Status::OK();
  }

  Status ExecReturn(const ReturnClause& clause, QueryResult* out) {
    std::vector<Row> projected;
    FRAPPE_RETURN_IF_ERROR(
        Project(clause.items, clause.distinct, &out->columns, &projected));
    if (!clause.order_by.empty()) {
      FRAPPE_RETURN_IF_ERROR(
          OrderRows(clause.order_by, out->columns, &projected));
    }
    // SKIP / LIMIT.
    size_t begin = std::min(projected.size(),
                            static_cast<size_t>(std::max<int64_t>(
                                clause.skip, 0)));
    size_t end = projected.size();
    if (clause.limit >= 0) {
      end = std::min(end, begin + static_cast<size_t>(clause.limit));
    }
    out->rows.assign(std::make_move_iterator(projected.begin() + begin),
                     std::make_move_iterator(projected.begin() + end));
    return Status::OK();
  }

  // --- projection / aggregation ---

  static bool IsCountCall(const Expr& expr) {
    const auto* call = std::get_if<CallExpr>(&expr.node);
    return call != nullptr && call->function == "count";
  }

  Status Project(const std::vector<ProjectionItem>& items, bool distinct,
                 std::vector<std::string>* columns, std::vector<Row>* out) {
    columns->clear();
    bool has_aggregate = false;
    for (const ProjectionItem& item : items) {
      columns->push_back(item.alias);
      if (IsCountCall(*item.expr)) has_aggregate = true;
    }

    if (!has_aggregate) {
      out->clear();
      out->reserve(rows_.size());
      for (const Row& row : rows_) {
        FRAPPE_RETURN_IF_ERROR(Tick());
        Row projected;
        projected.reserve(items.size());
        for (const ProjectionItem& item : items) {
          FRAPPE_ASSIGN_OR_RETURN(ResultValue v, Eval(*item.expr, row));
          projected.push_back(std::move(v));
        }
        out->push_back(std::move(projected));
      }
      if (distinct) DedupeRows(out);
      return Status::OK();
    }

    // Aggregation: group rows by the non-aggregate items (implicit Cypher
    // grouping), compute counts per group.
    struct Group {
      Row key;                        // values of non-aggregate items
      uint64_t star_count = 0;
      std::vector<uint64_t> arg_counts;                   // per aggregate item
      std::vector<std::set<Row, RowLess>> distinct_sets;  // count(distinct x)
    };
    std::map<Row, Group, RowLess> groups;

    std::vector<size_t> agg_positions;
    for (size_t i = 0; i < items.size(); ++i) {
      if (IsCountCall(*items[i].expr)) agg_positions.push_back(i);
    }

    for (const Row& row : rows_) {
      FRAPPE_RETURN_IF_ERROR(Tick());
      Row key;
      for (const ProjectionItem& item : items) {
        if (IsCountCall(*item.expr)) continue;
        FRAPPE_ASSIGN_OR_RETURN(ResultValue v, Eval(*item.expr, row));
        key.push_back(std::move(v));
      }
      Group& group = groups[key];
      if (group.arg_counts.empty()) {
        group.key = key;
        group.arg_counts.resize(agg_positions.size(), 0);
        group.distinct_sets.resize(agg_positions.size());
      }
      ++group.star_count;
      for (size_t a = 0; a < agg_positions.size(); ++a) {
        const auto& call =
            std::get<CallExpr>(items[agg_positions[a]].expr->node);
        if (call.star) continue;
        if (call.args.size() != 1) {
          return Status::InvalidArgument("count() takes one argument or *");
        }
        FRAPPE_ASSIGN_OR_RETURN(ResultValue v, Eval(*call.args[0], row));
        if (v.is_null()) continue;
        if (call.distinct) {
          group.distinct_sets[a].insert(Row{v});
        } else {
          ++group.arg_counts[a];
        }
      }
    }

    // Cypher semantics: a global aggregate (no grouping keys) over zero
    // input rows still yields one row of zero counts.
    if (groups.empty() && agg_positions.size() == items.size()) {
      Row zeros(items.size(),
                ResultValue::Scalar(graph::Value::Int(0)));
      out->clear();
      out->push_back(std::move(zeros));
      return Status::OK();
    }
    out->clear();
    for (auto& [key, group] : groups) {
      Row row(items.size());
      size_t key_idx = 0, agg_idx = 0;
      for (size_t i = 0; i < items.size(); ++i) {
        const auto* call = std::get_if<CallExpr>(&items[i].expr->node);
        if (call != nullptr && call->function == "count") {
          uint64_t count;
          if (call->star) {
            count = group.star_count;
          } else if (call->distinct) {
            count = group.distinct_sets[agg_idx].size();
          } else {
            count = group.arg_counts[agg_idx];
          }
          ++agg_idx;
          row[i] = ResultValue::Scalar(
              graph::Value::Int(static_cast<int64_t>(count)));
        } else {
          row[i] = group.key[key_idx++];
        }
      }
      out->push_back(std::move(row));
    }
    if (distinct) DedupeRows(out);
    return Status::OK();
  }

  void DedupeRows(std::vector<Row>* rows) {
    std::sort(rows->begin(), rows->end(), RowLess());
    rows->erase(std::unique(rows->begin(), rows->end(),
                            [](const Row& a, const Row& b) {
                              if (a.size() != b.size()) return false;
                              for (size_t i = 0; i < a.size(); ++i) {
                                if (!(a[i] == b[i])) return false;
                              }
                              return true;
                            }),
                rows->end());
  }

  Status OrderRows(const std::vector<OrderItem>& order,
                   const std::vector<std::string>& columns,
                   std::vector<Row>* rows) {
    // Each order expression must reference an output column (optionally a
    // property of one).
    struct SortKey {
      int column;
      std::string prop;  // empty: the column value itself
      bool ascending;
    };
    std::vector<SortKey> keys;
    for (const OrderItem& item : order) {
      SortKey key;
      key.ascending = item.ascending;
      if (const auto* var = std::get_if<VarExpr>(&item.expr->node)) {
        key.column = ColumnIndex(columns, var->name);
        if (key.column < 0) {
          return Status::InvalidArgument("ORDER BY references '" + var->name +
                                         "' which is not a returned column");
        }
      } else if (const auto* prop = std::get_if<PropExpr>(&item.expr->node)) {
        key.column = ColumnIndex(columns, prop->var);
        if (key.column < 0) {
          // Maybe the whole `var.key` string is itself a column alias.
          key.column = ColumnIndex(columns, prop->var + "." + prop->key);
          if (key.column < 0) {
            return Status::InvalidArgument(
                "ORDER BY references '" + prop->var +
                "' which is not a returned column");
          }
        } else {
          key.prop = prop->key;
        }
      } else {
        return Status::InvalidArgument(
            "ORDER BY supports column and property references only");
      }
      keys.push_back(std::move(key));
    }
    const graph::StringPool* pool = &db_.view->strings();
    auto key_value = [&](const Row& row, const SortKey& key) -> ResultValue {
      const ResultValue& base = row[key.column];
      if (key.prop.empty()) return base;
      return GetPropertyOf(base, key.prop);
    };
    std::stable_sort(rows->begin(), rows->end(),
                     [&](const Row& a, const Row& b) {
                       for (const SortKey& key : keys) {
                         int c = ComparePools(key_value(a, key),
                                              key_value(b, key), pool);
                         if (c != 0) return key.ascending ? c < 0 : c > 0;
                       }
                       return false;
                     });
    return Status::OK();
  }

  static int ColumnIndex(const std::vector<std::string>& columns,
                         const std::string& name) {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (columns[i] == name) return static_cast<int>(i);
    }
    return -1;
  }

  // --- pattern binding ---

  Result<graph::Value> LiteralToValue(const Literal& lit, bool* impossible) {
    switch (lit.kind) {
      case Literal::Kind::kNull:
        return graph::Value::Null();
      case Literal::Kind::kBool:
        return graph::Value::Bool(lit.bool_value);
      case Literal::Kind::kInt:
        return graph::Value::Int(lit.int_value);
      case Literal::Kind::kDouble:
        return graph::Value::Double(lit.double_value);
      case Literal::Kind::kString: {
        auto ref = db_.view->strings().Find(lit.string_value);
        if (!ref.has_value()) {
          // String never interned: no stored property can equal it.
          *impossible = true;
          return graph::Value::Null();
        }
        return graph::Value::String(*ref);
      }
    }
    return graph::Value::Null();
  }

  Result<BoundNodePattern> BindNode(const NodePattern& pattern) {
    BoundNodePattern bound;
    if (!pattern.var.empty()) bound.slot = SlotOf(pattern.var);
    if (!pattern.labels.empty()) {
      bound.any_type = false;
      // Multiple labels intersect: (n:container:symbol).
      bool first = true;
      for (const std::string& label : pattern.labels) {
        std::vector<TypeId> resolved = db_.resolve_label
                                           ? db_.resolve_label(label)
                                           : std::vector<TypeId>();
        std::sort(resolved.begin(), resolved.end());
        if (first) {
          bound.types = std::move(resolved);
          first = false;
        } else {
          std::vector<TypeId> intersection;
          std::set_intersection(bound.types.begin(), bound.types.end(),
                                resolved.begin(), resolved.end(),
                                std::back_inserter(intersection));
          bound.types = std::move(intersection);
        }
      }
      if (bound.types.empty()) bound.impossible = true;
    }
    for (const PropConstraint& prop : pattern.props) {
      std::optional<KeyId> key = db_.resolve_property
                                     ? db_.resolve_property(prop.key)
                                     : std::nullopt;
      if (!key.has_value()) {
        bound.impossible = true;
        continue;
      }
      bool impossible = false;
      FRAPPE_ASSIGN_OR_RETURN(graph::Value value,
                              LiteralToValue(prop.value, &impossible));
      if (impossible) {
        bound.impossible = true;
        continue;
      }
      bound.props.emplace_back(*key, value);
    }
    return bound;
  }

  Result<BoundRelPattern> BindRel(const RelPattern& pattern) {
    BoundRelPattern bound;
    if (!pattern.var.empty()) bound.slot = SlotOf(pattern.var);
    bound.direction = pattern.direction;
    bound.var_length = pattern.var_length;
    bound.min_length = pattern.min_length;
    bound.max_length = pattern.max_length;
    if (!pattern.types.empty()) {
      bound.any_type = false;
      for (const std::string& type : pattern.types) {
        std::optional<TypeId> id = db_.resolve_edge_type
                                       ? db_.resolve_edge_type(type)
                                       : std::nullopt;
        if (id.has_value()) bound.types.push_back(*id);
      }
      if (bound.types.empty()) bound.impossible = true;
    }
    for (const PropConstraint& prop : pattern.props) {
      std::optional<KeyId> key = db_.resolve_property
                                     ? db_.resolve_property(prop.key)
                                     : std::nullopt;
      if (!key.has_value()) {
        bound.impossible = true;
        continue;
      }
      bool impossible = false;
      FRAPPE_ASSIGN_OR_RETURN(graph::Value value,
                              LiteralToValue(prop.value, &impossible));
      if (impossible) {
        bound.impossible = true;
        continue;
      }
      bound.props.emplace_back(*key, value);
    }
    return bound;
  }

  Result<BoundChain> BindChain(const PatternChain& chain) {
    BoundChain bound;
    bound.shortest = chain.shortest;
    for (const NodePattern& node : chain.nodes) {
      FRAPPE_ASSIGN_OR_RETURN(BoundNodePattern b, BindNode(node));
      bound.nodes.push_back(std::move(b));
    }
    for (const RelPattern& rel : chain.rels) {
      FRAPPE_ASSIGN_OR_RETURN(BoundRelPattern b, BindRel(rel));
      bound.rels.push_back(std::move(b));
    }
    return bound;
  }

  // --- pattern matching ---

  bool NodeSatisfies(const BoundNodePattern& pattern, NodeId node) const {
    if (pattern.impossible) return false;
    ++hits_.nodes;
    if (!pattern.any_type) {
      TypeId type = db_.view->NodeType(node);
      bool ok = false;
      for (TypeId t : pattern.types) {
        if (t == type) {
          ok = true;
          break;
        }
      }
      if (!ok) return false;
    }
    for (const auto& [key, value] : pattern.props) {
      ++hits_.properties;
      if (!(db_.view->GetNodeProperty(node, key) == value)) return false;
    }
    return true;
  }

  bool EdgeSatisfies(const BoundRelPattern& pattern, EdgeId edge) const {
    if (pattern.impossible) return false;
    ++hits_.edges;
    if (!pattern.AllowsType(db_.view->GetEdge(edge).type)) return false;
    for (const auto& [key, value] : pattern.props) {
      ++hits_.properties;
      if (!(db_.view->GetEdgeProperty(edge, key) == value)) return false;
    }
    return true;
  }

  // If one of the pattern's property constraints is backed by the auto
  // name index (a string-valued indexed key), returns the exact candidate
  // set instead of scanning — Neo4j 2.x's index-backed MATCH.
  std::optional<std::vector<NodeId>> IndexCandidates(
      const BoundNodePattern& pattern) const {
    if (db_.name_index == nullptr || pattern.impossible) return std::nullopt;
    for (const auto& [key, value] : pattern.props) {
      if (value.type() != graph::ValueType::kString) continue;
      for (const auto& spec : db_.name_index->fields()) {
        if (!spec.is_type_field && spec.key == key) {
          return db_.name_index->Lookup(
              spec.name, db_.view->strings().Resolve(value.AsString()));
        }
      }
    }
    return std::nullopt;
  }

  bool HasIndexableProp(const BoundNodePattern& pattern) const {
    if (db_.name_index == nullptr) return false;
    for (const auto& [key, value] : pattern.props) {
      if (value.type() != graph::ValueType::kString) continue;
      for (const auto& spec : db_.name_index->fields()) {
        if (!spec.is_type_field && spec.key == key) return true;
      }
    }
    return false;
  }

  using RowSink = std::function<Status(const Row&)>;

  Status MatchChainList(const std::vector<BoundChain>& chains, size_t index,
                        Row* row, std::unordered_set<EdgeId>* used,
                        const RowSink& sink) {
    if (index == chains.size()) return sink(*row);
    return MatchChain(chains[index], row, used, [&](Row* matched) {
      return MatchChainList(chains, index + 1, matched, used, sink);
    });
  }

  using ChainSink = std::function<Status(Row*)>;

  // Matches one chain against the row, invoking `sink` for every complete
  // assignment. `row` is restored on return.
  Status MatchChain(const BoundChain& chain, Row* row,
                    std::unordered_set<EdgeId>* used, const ChainSink& sink) {
    if (chain.shortest) return MatchShortestPath(chain, row, sink);
    // Pick the cheapest anchor node:
    // bound var < index-backed property < labeled < full scan.
    size_t pivot = 0;
    int best_score = 100;
    for (size_t i = 0; i < chain.nodes.size(); ++i) {
      const BoundNodePattern& p = chain.nodes[i];
      int score = 3;
      if (p.slot >= 0 && !(*row)[p.slot].is_null()) {
        score = 0;
      } else if (HasIndexableProp(p)) {
        score = 1;
      } else if (!p.any_type) {
        score = 2;
      }
      if (score < best_score) {
        best_score = score;
        pivot = i;
      }
    }
    // Build the expansion order: rightward from the pivot, then leftward.
    std::vector<MatchStep> steps;
    for (size_t i = pivot; i + 1 < chain.nodes.size(); ++i) {
      steps.push_back(MatchStep{i, i + 1, i, /*flipped=*/false});
    }
    for (size_t i = pivot; i > 0; --i) {
      steps.push_back(MatchStep{i, i - 1, i - 1, /*flipped=*/true});
    }

    std::vector<NodeId> binding(chain.nodes.size(), graph::kInvalidNode);
    const BoundNodePattern& anchor = chain.nodes[pivot];
    if (anchor.slot >= 0 && !(*row)[anchor.slot].is_null()) {
      const ResultValue& v = (*row)[anchor.slot];
      if (v.kind != ResultValue::Kind::kNode) {
        return Status::InvalidArgument(
            "pattern variable is bound to a non-node value");
      }
      FRAPPE_RETURN_IF_ERROR(Tick());
      if (!NodeSatisfies(anchor, v.node)) return Status::OK();
      return BindAndStep(chain, steps, 0, pivot, v.node, &binding, row, used,
                         sink);
    }
    // Enumerate candidates: label index when available, full scan otherwise.
    Status status = Status::OK();
    auto try_candidate = [&](NodeId node) -> bool {
      status = Tick();
      if (!status.ok()) return false;
      if (!NodeSatisfies(anchor, node)) return true;
      status = BindAndStep(chain, steps, 0, pivot, node, &binding, row, used,
                           sink);
      return status.ok();
    };
    if (std::optional<std::vector<NodeId>> seek = IndexCandidates(anchor)) {
      for (NodeId node : *seek) {
        if (!try_candidate(node)) return status;
      }
    } else if (!anchor.any_type && db_.label_index != nullptr) {
      for (TypeId type : anchor.types) {
        for (NodeId node : db_.label_index->Nodes(type)) {
          if (!try_candidate(node)) return status;
        }
      }
    } else if (!anchor.impossible) {
      for (NodeId node = 0; node < db_.view->NodeIdUpperBound(); ++node) {
        if (!db_.view->NodeExists(node)) continue;
        if (!try_candidate(node)) return status;
      }
    }
    return status;
  }

  // shortestPath((a)-[:t*]->(b)): both endpoints must already be bound;
  // binds the relationship variable (if named) to the fewest-edges path.
  Status MatchShortestPath(const BoundChain& chain, Row* row,
                           const ChainSink& sink) {
    const BoundNodePattern& a = chain.nodes[0];
    const BoundNodePattern& b = chain.nodes[1];
    const BoundRelPattern& rel = chain.rels[0];
    if (rel.impossible || a.impossible || b.impossible) return Status::OK();
    auto bound_node = [&](const BoundNodePattern& p) -> NodeId {
      if (p.slot >= 0 && p.slot < static_cast<int>(row->size()) &&
          (*row)[p.slot].kind == ResultValue::Kind::kNode) {
        return (*row)[p.slot].node;
      }
      return graph::kInvalidNode;
    };
    NodeId from = bound_node(a);
    NodeId to = bound_node(b);
    if (from == graph::kInvalidNode || to == graph::kInvalidNode) {
      return Status::InvalidArgument(
          "shortestPath requires both endpoints to be bound");
    }
    FRAPPE_RETURN_IF_ERROR(Tick());
    if (!NodeSatisfies(a, from) || !NodeSatisfies(b, to)) return Status::OK();
    graph::EdgeFilter filter;
    filter.direction = rel.direction;
    if (!rel.any_type) filter.types = rel.types;
    std::optional<graph::Path> path =
        graph::ShortestPath(*db_.view, from, to, filter);
    if (!path.has_value() || path->Length() < rel.min_length ||
        path->Length() > rel.max_length) {
      return Status::OK();
    }
    if (!rel.props.empty()) {
      for (EdgeId e : path->edges) {
        if (!EdgeSatisfies(rel, e)) return Status::OK();
      }
    }
    bool rel_was_null = false;
    if (rel.slot >= 0) {
      ResultValue& slot = (*row)[rel.slot];
      if (slot.is_null()) {
        slot = ResultValue::EdgeList(path->edges);
        rel_was_null = true;
      }
    }
    Status status = sink(row);
    if (rel.slot >= 0 && rel_was_null) {
      (*row)[rel.slot] = ResultValue::Null();
    }
    return status;
  }

  // Binds chain node `node_idx` to `node` (checking row consistency), then
  // runs match step `step_idx`.
  Status BindAndStep(const BoundChain& chain,
                     const std::vector<MatchStep>& steps, size_t step_idx,
                     size_t node_idx, NodeId node,
                     std::vector<NodeId>* binding, Row* row,
                     std::unordered_set<EdgeId>* used, const ChainSink& sink) {
    const BoundNodePattern& pattern = chain.nodes[node_idx];
    if (!NodeSatisfies(pattern, node)) return Status::OK();
    bool row_was_null = false;
    if (pattern.slot >= 0) {
      ResultValue& slot = (*row)[pattern.slot];
      if (!slot.is_null()) {
        if (slot.kind != ResultValue::Kind::kNode || slot.node != node) {
          return Status::OK();  // inconsistent binding
        }
      } else {
        slot = ResultValue::Node(node);
        row_was_null = true;
      }
    }
    (*binding)[node_idx] = node;

    Status status = RunStep(chain, steps, step_idx, binding, row, used, sink);

    (*binding)[node_idx] = graph::kInvalidNode;
    if (pattern.slot >= 0 && row_was_null) {
      (*row)[pattern.slot] = ResultValue::Null();
    }
    return status;
  }

  Status RunStep(const BoundChain& chain, const std::vector<MatchStep>& steps,
                 size_t step_idx, std::vector<NodeId>* binding, Row* row,
                 std::unordered_set<EdgeId>* used, const ChainSink& sink) {
    if (step_idx == steps.size()) return sink(row);
    const MatchStep& step = steps[step_idx];
    const BoundRelPattern& rel = chain.rels[step.rel];
    if (rel.impossible) return Status::OK();
    NodeId from = (*binding)[step.from_node];
    Direction dir = step.flipped ? Flip(rel.direction) : rel.direction;

    if (!rel.var_length) {
      Status status = Status::OK();
      db_.view->ForEachEdge(from, dir, [&](EdgeId edge, NodeId neighbor) {
        status = Tick();
        if (!status.ok()) return false;
        if (used->count(edge) != 0 || !EdgeSatisfies(rel, edge)) return true;
        // Bind the relationship variable if named.
        bool rel_was_null = false;
        if (rel.slot >= 0) {
          ResultValue& slot = (*row)[rel.slot];
          if (!slot.is_null()) {
            if (slot.kind != ResultValue::Kind::kEdge || slot.edge != edge) {
              return true;
            }
          } else {
            slot = ResultValue::EdgeRef(edge);
            rel_was_null = true;
          }
        }
        used->insert(edge);
        status = BindAndStep(chain, steps, step_idx + 1, step.to_node,
                             neighbor, binding, row, used, sink);
        used->erase(edge);
        if (rel.slot >= 0 && rel_was_null) {
          (*row)[rel.slot] = ResultValue::Null();
        }
        return status.ok();
      });
      return status;
    }

    // Variable-length relationship: enumerate every edge-distinct path of
    // length in [min, max]. This is Cypher's relationship-isomorphism
    // semantics, and precisely what makes Figure 6's `-[:calls*]->`
    // intractable on a kernel-sized graph (Section 6.1). Iterative DFS —
    // path depth can reach the graph's edge count, far beyond any call
    // stack.
    std::vector<EdgeId> path;
    auto close_path = [&](NodeId current) -> Status {
      if (path.size() < rel.min_length) return Status::OK();
      bool rel_was_null = false;
      if (rel.slot >= 0) {
        ResultValue& slot = (*row)[rel.slot];
        if (slot.is_null()) {
          slot = ResultValue::EdgeList(path);
          rel_was_null = true;
        }
      }
      Status status = BindAndStep(chain, steps, step_idx + 1, step.to_node,
                                  current, binding, row, used, sink);
      if (rel.slot >= 0 && rel_was_null) {
        (*row)[rel.slot] = ResultValue::Null();
      }
      return status;
    };

    struct Frame {
      EdgeId in_edge;  // edge taken to reach this frame (kInvalidEdge=root)
      std::vector<std::pair<EdgeId, NodeId>> edges;
      size_t next = 0;
    };
    auto make_frame = [&](NodeId node, EdgeId in_edge) {
      Frame frame;
      frame.in_edge = in_edge;
      if (path.size() < rel.max_length) {
        db_.view->ForEachEdge(node, dir, [&](EdgeId e, NodeId n) {
          if (used->count(e) == 0 && EdgeSatisfies(rel, e)) {
            frame.edges.emplace_back(e, n);
          }
          return true;
        });
      }
      return frame;
    };

    FRAPPE_RETURN_IF_ERROR(close_path(from));
    std::vector<Frame> stack;
    stack.push_back(make_frame(from, graph::kInvalidEdge));
    while (!stack.empty()) {
      Frame& top = stack.back();
      if (top.next >= top.edges.size()) {
        if (top.in_edge != graph::kInvalidEdge) {
          used->erase(top.in_edge);
          path.pop_back();
        }
        stack.pop_back();
        continue;
      }
      auto [edge, neighbor] = top.edges[top.next++];
      FRAPPE_RETURN_IF_ERROR(Tick());
      used->insert(edge);
      path.push_back(edge);
      FRAPPE_RETURN_IF_ERROR(close_path(neighbor));
      stack.push_back(make_frame(neighbor, edge));
    }
    return Status::OK();
  }

  // --- expressions ---

  Result<bool> EvalPredicate(const Expr& expr, const Row& row) {
    if (const auto* pattern = std::get_if<PatternExpr>(&expr.node)) {
      return EvalPatternExists(pattern->chain, row);
    }
    if (const auto* boolean = std::get_if<BoolExpr>(&expr.node)) {
      FRAPPE_ASSIGN_OR_RETURN(bool left, EvalPredicate(*boolean->left, row));
      if (boolean->op == BoolOp::kAnd) {
        if (!left) return false;
        return EvalPredicate(*boolean->right, row);
      }
      if (left) return true;
      return EvalPredicate(*boolean->right, row);
    }
    if (const auto* negation = std::get_if<NotExpr>(&expr.node)) {
      FRAPPE_ASSIGN_OR_RETURN(bool inner,
                              EvalPredicate(*negation->inner, row));
      return !inner;
    }
    FRAPPE_ASSIGN_OR_RETURN(ResultValue v, Eval(expr, row));
    if (v.is_null()) return false;
    if (v.kind == ResultValue::Kind::kValue &&
        v.value.type() == graph::ValueType::kBool) {
      return v.value.AsBool();
    }
    return Status::InvalidArgument("expression is not a boolean predicate");
  }

  // The clause's bound copy of `chain`, created on first use.
  Result<PatternProbe*> ProbeFor(const PatternChain& chain) {
    auto it = pattern_probes_.find(&chain);
    if (it == pattern_probes_.end()) {
      FRAPPE_ASSIGN_OR_RETURN(BoundChain bound, BindChain(chain));
      it = pattern_probes_.emplace(&chain, PatternProbe{}).first;
      it->second.chain = std::move(bound);
    }
    return &it->second;
  }

  // Bound form of the CollectReachabilityPatterns shape: a pattern that
  // asks only "is there a path" once both endpoints are bound. (Any BFS
  // path is also edge-distinct, so reachability is sound under
  // relationship-isomorphism semantics.)
  static bool IsReachKernelShape(const BoundChain& chain) {
    if (chain.rels.size() != 1) return false;
    const BoundRelPattern& rel = chain.rels[0];
    return rel.var_length && rel.slot < 0 && rel.props.empty() &&
           !rel.impossible && rel.min_length <= 1;
  }

  static NodeId BoundNodeOf(const Row& row, int slot) {
    if (slot >= 0 && slot < static_cast<int>(row.size()) &&
        row[slot].kind == ResultValue::Kind::kNode) {
      return row[slot].node;
    }
    return graph::kInvalidNode;
  }

  Result<bool> EvalPatternExists(const PatternChain& chain, const Row& row) {
    FRAPPE_ASSIGN_OR_RETURN(PatternProbe * probe, ProbeFor(chain));
    const BoundChain& bound = probe->chain;
    // Reachability short-circuit: answer `bound -[:t*]-> bound` without
    // path enumeration.
    if (IsReachKernelShape(bound)) {
      const BoundNodePattern& a = bound.nodes[0];
      const BoundNodePattern& b = bound.nodes[1];
      NodeId from = BoundNodeOf(row, a.slot);
      NodeId to = BoundNodeOf(row, b.slot);
      if (from != graph::kInvalidNode && to != graph::kInvalidNode &&
          NodeSatisfies(a, from) && NodeSatisfies(b, to)) {
        if (UseReachKernel()) return ProbeReach(probe, from, to);
        return ProbeReachPerRow(bound.rels[0], from, to);
      }
    }
    Row scratch = row;
    scratch.resize(width_);
    std::unordered_set<EdgeId> used;
    bool found = false;
    Status status = MatchChain(bound, &scratch, &used, [&](Row*) {
      found = true;
      // Surface "found" through an error-free early stop: returning a
      // sentinel status stops the search; it is translated below.
      return Status::FailedPrecondition("__pattern_found__");
    });
    if (!status.ok() && status.message() != "__pattern_found__") {
      return status;
    }
    return found;
  }

  // Is there a path of the probe's relationship from `from` to `to`,
  // answered from the cached closure of the anchor endpoint when it can be.
  // Reachability over >= 1 edges decides, except that `*0..` also accepts
  // `from == to`; with min length 1, `from == to` needs a cycle.
  Result<bool> ProbeReach(PatternProbe* probe, NodeId from, NodeId to) {
    const BoundRelPattern& rel = probe->chain.rels[0];
    if (from == to && rel.min_length == 0) return db_.view->NodeExists(from);
    const NodeId anchor = probe->reversed ? to : from;
    const NodeId other = probe->reversed ? from : to;
    auto member = [&] {
      return std::binary_search(probe->members.begin(), probe->members.end(),
                                other);
    };
    if (probe->anchor == anchor && (probe->complete || member())) {
      return member();
    }
    // Stop as soon as every endpoint this anchor's rows want is reached;
    // outside a WHERE pre-scan that is just this row's.
    std::vector<NodeId> single{other};
    const std::vector<NodeId>* targets = &single;
    auto it = probe->wanted.find(anchor);
    if (it != probe->wanted.end() &&
        std::binary_search(it->second.begin(), it->second.end(), other)) {
      targets = &it->second;
    }
    graph::EdgeFilter filter;
    filter.direction =
        probe->reversed ? Flip(rel.direction) : rel.direction;
    if (!rel.any_type) filter.types = rel.types;
    graph::analytics::Metrics metrics;
    probe->anchor = graph::kInvalidNode;  // stale until the kernel succeeds
    FRAPPE_ASSIGN_OR_RETURN(
        probe->members,
        CsrClosure(anchor, filter, rel.max_length, targets, &metrics));
    probe->anchor = anchor;
    probe->complete = !metrics.stopped_early;
    reach_op_.from_target = probe->reversed;
    ++reach_op_.anchors;
    if (metrics.stopped_early) ++reach_op_.early_exits;
    return member();
  }

  // The store-walking answer to ProbeReach, one BFS per row: used when the
  // CSR fast path is off or the database has no CSR.
  bool ProbeReachPerRow(const BoundRelPattern& rel, NodeId from, NodeId to) {
    graph::EdgeFilter filter;
    filter.direction = rel.direction;
    if (!rel.any_type) filter.types = rel.types;
    steps_ += 1;
    if (from == to && rel.min_length >= 1) {
      auto closure =
          graph::TransitiveClosure(*db_.view, from, filter, rel.max_length);
      return std::binary_search(closure.begin(), closure.end(), to);
    }
    return graph::IsReachable(*db_.view, from, to, filter, rel.max_length);
  }

  Result<ResultValue> Eval(const Expr& expr, const Row& row) {
    if (const auto* lit = std::get_if<LiteralExpr>(&expr.node)) {
      bool impossible = false;
      FRAPPE_ASSIGN_OR_RETURN(graph::Value v,
                              LiteralToValue(lit->value, &impossible));
      if (impossible) {
        // A string constant absent from the pool equals nothing, but it can
        // still be returned; represent it as null for comparisons.
        return ResultValue::Null();
      }
      return ResultValue::Scalar(v);
    }
    if (const auto* var = std::get_if<VarExpr>(&expr.node)) {
      int slot = FindSlot(var->name);
      if (slot < 0) {
        return Status::InvalidArgument("undefined variable '" + var->name +
                                       "'");
      }
      return row[slot];
    }
    if (const auto* prop = std::get_if<PropExpr>(&expr.node)) {
      int slot = FindSlot(prop->var);
      if (slot < 0) {
        return Status::InvalidArgument("undefined variable '" + prop->var +
                                       "'");
      }
      return GetPropertyOf(row[slot], prop->key);
    }
    if (const auto* cmp = std::get_if<CompareExpr>(&expr.node)) {
      FRAPPE_ASSIGN_OR_RETURN(ResultValue left, Eval(*cmp->left, row));
      FRAPPE_ASSIGN_OR_RETURN(ResultValue right, Eval(*cmp->right, row));
      if (left.is_null() || right.is_null()) {
        return ResultValue::Null();  // SQL/Cypher null semantics
      }
      int c = ComparePools(left, right, &db_.view->strings());
      bool result = false;
      switch (cmp->op) {
        case CompareOp::kEq:
          result = (c == 0);
          break;
        case CompareOp::kNe:
          result = (c != 0);
          break;
        case CompareOp::kLt:
          result = (c < 0);
          break;
        case CompareOp::kLe:
          result = (c <= 0);
          break;
        case CompareOp::kGt:
          result = (c > 0);
          break;
        case CompareOp::kGe:
          result = (c >= 0);
          break;
      }
      return ResultValue::Scalar(graph::Value::Bool(result));
    }
    if (std::get_if<BoolExpr>(&expr.node) != nullptr ||
        std::get_if<NotExpr>(&expr.node) != nullptr ||
        std::get_if<PatternExpr>(&expr.node) != nullptr) {
      FRAPPE_ASSIGN_OR_RETURN(bool b, EvalPredicate(expr, row));
      return ResultValue::Scalar(graph::Value::Bool(b));
    }
    if (const auto* call = std::get_if<CallExpr>(&expr.node)) {
      return EvalCall(*call, row);
    }
    return Status::Internal("unhandled expression node");
  }

  Result<ResultValue> EvalCall(const CallExpr& call, const Row& row) {
    if (call.function == "count") {
      return Status::InvalidArgument(
          "count() is only valid in WITH/RETURN items");
    }
    if (call.function == "id") {
      if (call.args.size() != 1) {
        return Status::InvalidArgument("id() takes one argument");
      }
      FRAPPE_ASSIGN_OR_RETURN(ResultValue v, Eval(*call.args[0], row));
      if (v.kind == ResultValue::Kind::kNode) {
        return ResultValue::Scalar(graph::Value::Int(v.node));
      }
      if (v.kind == ResultValue::Kind::kEdge) {
        return ResultValue::Scalar(graph::Value::Int(v.edge));
      }
      return ResultValue::Null();
    }
    if (call.function == "length") {
      if (call.args.size() != 1) {
        return Status::InvalidArgument("length() takes one argument");
      }
      FRAPPE_ASSIGN_OR_RETURN(ResultValue v, Eval(*call.args[0], row));
      if (v.kind == ResultValue::Kind::kEdgeList) {
        return ResultValue::Scalar(
            graph::Value::Int(static_cast<int64_t>(v.edges.size())));
      }
      if (v.kind == ResultValue::Kind::kValue &&
          v.value.type() == graph::ValueType::kString) {
        return ResultValue::Scalar(graph::Value::Int(static_cast<int64_t>(
            db_.view->strings().Resolve(v.value.AsString()).size())));
      }
      return ResultValue::Null();
    }
    if (call.function == "has" || call.function == "exists") {
      if (call.args.size() != 1) {
        return Status::InvalidArgument(call.function +
                                       "() takes one argument");
      }
      FRAPPE_ASSIGN_OR_RETURN(ResultValue v, Eval(*call.args[0], row));
      return ResultValue::Scalar(graph::Value::Bool(!v.is_null()));
    }
    if (call.function == "type") {
      if (call.args.size() != 1) {
        return Status::InvalidArgument("type() takes one argument");
      }
      FRAPPE_ASSIGN_OR_RETURN(ResultValue v, Eval(*call.args[0], row));
      if (v.kind == ResultValue::Kind::kEdge &&
          db_.view->EdgeExists(v.edge)) {
        auto ref = db_.view->strings().Find(
            std::string(db_.view->EdgeTypeName(v.edge)));
        if (ref.has_value()) {
          return ResultValue::Scalar(graph::Value::String(*ref));
        }
        return ResultValue::Null();
      }
      return ResultValue::Null();
    }
    if (call.function == "labels") {
      if (call.args.size() != 1) {
        return Status::InvalidArgument("labels() takes one argument");
      }
      FRAPPE_ASSIGN_OR_RETURN(ResultValue v, Eval(*call.args[0], row));
      if (v.kind == ResultValue::Kind::kNode &&
          db_.view->NodeExists(v.node)) {
        auto ref = db_.view->strings().Find(
            std::string(db_.view->NodeTypeName(v.node)));
        if (ref.has_value()) {
          return ResultValue::Scalar(graph::Value::String(*ref));
        }
      }
      return ResultValue::Null();
    }
    return Status::InvalidArgument("unknown function '" + call.function +
                                   "'");
  }

  ResultValue GetPropertyOf(const ResultValue& base,
                            const std::string& key) const {
    std::optional<KeyId> key_id =
        db_.resolve_property ? db_.resolve_property(key) : std::nullopt;
    if (!key_id.has_value()) return ResultValue::Null();
    ++hits_.properties;
    if (base.kind == ResultValue::Kind::kNode &&
        db_.view->NodeExists(base.node)) {
      return ResultValue::Scalar(db_.view->GetNodeProperty(base.node,
                                                           *key_id));
    }
    if (base.kind == ResultValue::Kind::kEdge &&
        db_.view->EdgeExists(base.edge)) {
      return ResultValue::Scalar(db_.view->GetEdgeProperty(base.edge,
                                                           *key_id));
    }
    return ResultValue::Null();
  }

  const Database& db_;
  const Query& query_;
  ExecOptions options_;

  std::unordered_map<std::string, size_t> slots_;
  size_t width_ = 0;
  std::vector<Row> rows_;

  uint64_t steps_ = 0;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_;

  // The query's resource tracker (installed by the session's ResourceScope),
  // captured once at construction: Tick() polls its memory budget on the
  // deadline cadence, and Run() credits it with bytes scanned.
  obs::ResourceTracker* tracker_ = nullptr;
  uint64_t csr_edge_hits_ = 0;
  uint64_t csr_scanned_bytes_ = 0;

  // Db-hit accounting. Mutable: NodeSatisfies/EdgeSatisfies/GetPropertyOf
  // are logically const reads whose cost we still want on the books.
  mutable DbHits hits_;
  // Set when any MATCH dispatched to the CSR closure kernel, plus the
  // per-operator detail the current clause accumulated (reset per clause
  // by Run when profiling).
  bool fast_path_taken_ = false;
  bool fast_path_op_ = false;
  std::vector<uint64_t> fp_frontier_sizes_;
  std::vector<uint8_t> fp_level_pull_;
  std::vector<uint8_t> fp_level_bitmap_;
  size_t fp_direction_switches_ = 0;
  // The current clause's bound pattern predicates, keyed by AST node.
  std::unordered_map<const PatternChain*, PatternProbe> pattern_probes_;
  // Reachability-kernel detail of the current clause (PROFILE).
  struct {
    bool from_target = false;
    uint64_t anchors = 0;
    uint64_t early_exits = 0;
  } reach_op_;
};

}  // namespace

Result<QueryResult> Execute(const Database& db, const Query& query,
                            const ExecOptions& options) {
  if (db.view == nullptr) {
    return Status::InvalidArgument("database has no graph view");
  }
  FRAPPE_TRACE_SPAN("query.execute");
  Engine engine(db, query, options);
  Result<QueryResult> result = engine.Run();
  static obs::Counter& executions =
      obs::Registry::Global().GetCounter("query.executions");
  static obs::Counter& failures =
      obs::Registry::Global().GetCounter("query.failures");
  static obs::Counter& fast_paths =
      obs::Registry::Global().GetCounter("query.fast_path_taken");
  static obs::Histogram& latency =
      obs::Registry::Global().GetHistogram("query.latency_us");
  static obs::Histogram& db_hits =
      obs::Registry::Global().GetHistogram("query.db_hits");
  executions.Add();
  if (result.ok()) {
    latency.Record(static_cast<uint64_t>(result->stats.elapsed_ms * 1000.0));
    db_hits.Record(result->stats.db_hits.Total());
    if (result->stats.fast_path_taken) fast_paths.Add();
  } else {
    failures.Add();
  }
  return result;
}

}  // namespace frappe::query
