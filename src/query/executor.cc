#include "query/executor.h"

#include <algorithm>
#include <charconv>
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
      if (a.edges() != b.edges()) return a.edges() < b.edges() ? -1 : 1;
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

const std::vector<graph::EdgeId>& ResultValue::edges() const {
  static const std::vector<graph::EdgeId> kNone;
  return edge_list_ != nullptr ? *edge_list_ : kNone;
}

namespace {

// The one display renderer behind ToString and AppendTo. Appends `v`'s
// display form to `out`; with `json` set, the text taken from the graph
// (type names, names, string values) is JSON-escaped as it is appended.
// The fixed punctuation and the numbers never need escaping, so the
// result equals escaping the whole display form afterwards.
void AppendDisplay(const ResultValue& v, const Database& db, bool json,
                   std::string* out) {
  using Kind = ResultValue::Kind;
  const graph::GraphView& view = *db.view;
  auto text = [&](std::string_view s) {
    if (json) {
      AppendJsonEscaped(out, s);
    } else {
      out->append(s);
    }
  };
  auto number = [&](uint64_t n) {
    char buf[24];
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), n);
    out->append(buf, end);
  };
  switch (v.kind) {
    case Kind::kNull:
      out->append("null");
      return;
    case Kind::kNode:
      out->append("(#");
      number(v.node);
      if (view.NodeExists(v.node)) {
        out->push_back(':');
        text(view.NodeTypeName(v.node));
        if (db.display_name_key != graph::kInvalidKey) {
          std::string_view name =
              view.GetNodeString(v.node, db.display_name_key);
          if (!name.empty()) {
            out->push_back(' ');
            text(name);
          }
        }
      }
      out->push_back(')');
      return;
    case Kind::kEdge:
      out->append("[#");
      number(v.edge);
      if (view.EdgeExists(v.edge)) {
        graph::Edge e = view.GetEdge(v.edge);
        out->push_back(':');
        text(view.EdgeTypeName(v.edge));
        out->push_back(' ');
        number(e.src);
        out->append("->");
        number(e.dst);
      }
      out->push_back(']');
      return;
    case Kind::kValue:
      if (v.value.type() == graph::ValueType::kString) {
        out->push_back('\'');
        text(view.strings().Resolve(v.value.AsString()));
        out->push_back('\'');
      } else {
        out->append(v.value.ToString(view.strings()));
      }
      return;
    case Kind::kEdgeList:
      out->push_back('[');
      number(v.edges().size());
      out->append(" rels]");
      return;
  }
  out->push_back('?');
}

}  // namespace

std::string ResultValue::ToString(const Database& db) const {
  std::string out;
  AppendDisplay(*this, db, /*json=*/false, &out);
  return out;
}

void ResultValue::AppendTo(std::string* out, const Database& db) const {
  out->push_back('"');
  AppendDisplay(*this, db, /*json=*/true, out);
  out->push_back('"');
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
  UnboundAnchor anchor;         // tier and index seek while unbound
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

// A pattern predicate bound once per clause. For the reachability shape
// (see CollectReachabilityPatterns) it also caches what answers it. An
// unbounded directed pattern keeps its edge types' condensation when one
// is built. Otherwise it keeps one closure: the kernel runs from one
// endpoint, the anchor, and keeps only the latest anchor's member set, so
// rows evaluated in anchor-grouped order pay one closure per distinct
// anchor while memory stays O(nodes).
struct PatternProbe {
  BoundChain chain;
  // IsReachabilityPattern, over edge types the graph has.
  bool reach = false;
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
  // Set by ProbeFor when the view has one, or by PlanReachProbes's build.
  const graph::Condensation* condensation = nullptr;
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
        dag_scans_ = 0;
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
        op.dag_scans = dag_scans_;
        op.reach_kernel =
            reach_op_.anchors + reach_op_.scc + reach_op_.order > 0;
        op.reach_from_target = reach_op_.from_target;
        op.reach_anchors = reach_op_.anchors;
        op.reach_early_exits = reach_op_.early_exits;
        op.reach_scc = reach_op_.scc;
        op.reach_order = reach_op_.order;
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
    // frontier kernel instead of enumerating every path.
    const bool try_fast_path =
        MatchTriesCsrClosure(db_, options_, query_, clause_index);
    std::vector<Row> next;
    for (Row& row : rows_) {
      if (try_fast_path) {
        FRAPPE_ASSIGN_OR_RETURN(
            bool handled,
            TryCsrClosure(chains[0], clause.chains[0], &row, &next));
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

  // Answers an eligible variable-length chain (`pattern`, bound as
  // `chain`) for one row on the CSR closure kernel, appending its result
  // rows (possibly none) to `out` and returning true; false leaves the row
  // to path enumeration (ClosureSeed finds no endpoint to seed from).
  Result<bool> TryCsrClosure(const BoundChain& chain,
                             const PatternChain& pattern, Row* row,
                             std::vector<Row>* out) {
    NodeId ends[2];
    for (size_t i = 0; i < 2; ++i) {
      const int slot = chain.nodes[i].slot;
      ends[i] = BoundNodeOf(*row, slot);
      // A non-node binding is left to the enumerator to report.
      if (ends[i] == graph::kInvalidNode && slot >= 0 &&
          !(*row)[slot].is_null()) {
        return false;
      }
    }
    const std::optional<size_t> seed_end =
        ClosureSeed(pattern, ends[0] != graph::kInvalidNode,
                    ends[1] != graph::kInvalidNode);
    if (!seed_end.has_value()) return false;
    const bool reversed = *seed_end == 1;
    const BoundNodePattern& anchor = chain.nodes[*seed_end];
    const BoundNodePattern& target = chain.nodes[1 - *seed_end];
    const BoundRelPattern& rel = chain.rels[0];
    if (rel.impossible || anchor.impossible || target.impossible) return false;
    const NodeId seed = ends[*seed_end];

    FRAPPE_RETURN_IF_ERROR(Tick());
    if (!NodeSatisfies(anchor, seed)) return true;  // handled: no rows

    graph::EdgeFilter filter;
    filter.direction = reversed ? Flip(rel.direction) : rel.direction;
    if (!rel.any_type) filter.types = rel.types;

    graph::analytics::Metrics metrics;
    std::vector<NodeId> members;
    if (const graph::Condensation* condensation = BuiltCondensation(rel)) {
      FRAPPE_ASSIGN_OR_RETURN(
          members, CondensedClosure(*condensation, seed, filter.direction,
                                    &metrics));
    } else {
      FRAPPE_ASSIGN_OR_RETURN(
          members,
          CsrClosure(seed, filter, rel.max_length, nullptr, &metrics));
    }
    fast_path_taken_ = true;
    fast_path_op_ = true;
    // Frontier trajectory of the widest run this clause dispatched (one
    // kernel call per input row; typically exactly one).
    if (metrics.frontier_sizes.size() > fp_frontier_sizes_.size()) {
      fp_frontier_sizes_ = metrics.frontier_sizes;
    }

    auto emit = [&](NodeId node) -> Status {
      if (!NodeSatisfies(target, node)) return Status::OK();
      FRAPPE_RETURN_IF_ERROR(Tick());
      Row& extended = out->emplace_back(*row);
      extended[target.slot] = ResultValue::Node(node);
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

  // What is left of the query's budgets, as kernel options: remaining
  // steps, the deadline and the cancel token (the kernel also polls the
  // memory budget of the query's resource tracker).
  Result<graph::analytics::Options> KernelOptions() const {
    graph::analytics::Options opt;
    opt.cancel = options_.cancel;
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
    return opt;
  }

  // Charges a kernel call's edge scans to steps, db_hits and
  // scanned_bytes, and returns its budget errors in the executor's
  // wording.
  Status Charge(const graph::analytics::Metrics& metrics,
                const Status& status) {
    steps_ += metrics.steps;
    hits_.edges += metrics.steps;  // each kernel step scans one edge
    csr_edge_hits_ += metrics.steps;
    csr_scanned_bytes_ += metrics.scanned_bytes;
    if (status.ok()) return status;
    // Memory-budget breaches pass through untouched: their message already
    // names the cap, and rewriting them as a step-budget error would
    // misattribute the failure.
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

  // Runs the CSR closure kernel from `seed` under what is left of the
  // query's budgets.
  Result<std::vector<NodeId>> CsrClosure(
      NodeId seed, const graph::EdgeFilter& filter, uint32_t max_length,
      const std::vector<NodeId>* stop_targets,
      graph::analytics::Metrics* metrics) {
    FRAPPE_ASSIGN_OR_RETURN(graph::analytics::Options opt, KernelOptions());
    opt.stop_targets = stop_targets;
    if (max_length != kUnboundedLength) opt.max_depth = max_length;
    const graph::CsrView& csr = db_.csr->Get(*db_.view);
    auto members = [&] {
      FRAPPE_TRACE_SPAN("executor.csr_closure");
      return graph::analytics::ParallelClosure(csr, {seed}, filter, opt,
                                               metrics);
    }();
    FRAPPE_RETURN_IF_ERROR(Charge(*metrics, members.status()));
    return members;
  }

  // Unbounded directed reachability can run on the condensation of the
  // relationship's edge types; bounded patterns need path lengths and
  // undirected ones ignore the arrows, so both stay on the kernel.
  static bool Condensable(const BoundRelPattern& rel) {
    return rel.max_length == kUnboundedLength &&
           rel.direction != Direction::kBoth;
  }

  static std::vector<TypeId> TypesOf(const BoundRelPattern& rel) {
    return rel.any_type ? std::vector<TypeId>{} : rel.types;
  }

  // The view's condensation for a condensable `rel`, when one is built.
  const graph::Condensation* BuiltCondensation(const BoundRelPattern& rel) {
    if (!UseReachKernel(db_, options_) || !Condensable(rel)) return nullptr;
    return graph::analytics::FindCondensation(db_.csr->Get(*db_.view),
                                              TypesOf(rel));
  }

  // Builds the condensation for a condensable `rel` and charges the build
  // to this query; nullptr means "answer on the kernel". The build scans
  // every edge twice whatever the answer needs, so a query with a step cap
  // never starts one: the cap was set against the kernel's work. The
  // build gets half the time left, so one that overruns leaves the kernel
  // the other half. A build stopped by the deadline or the memory budget
  // caches nothing and the query goes on on the kernel; a cancelled one
  // fails the query. Also nullptr when the view's condensation slots are
  // taken by other type sets.
  Result<const graph::Condensation*> BuildCondensation(
      const BoundRelPattern& rel) {
    if (options_.max_steps > 0) return nullptr;
    FRAPPE_ASSIGN_OR_RETURN(graph::analytics::Options opt, KernelOptions());
    if (opt.deadline_ms > 0) {
      opt.deadline_ms = std::max<int64_t>(opt.deadline_ms / 2, 1);
    }
    graph::analytics::Metrics metrics;
    auto condensation = graph::analytics::Condense(
        db_.csr->Get(*db_.view), TypesOf(rel), opt, &metrics);
    if (!condensation.ok() &&
        condensation.status().code() != StatusCode::kCancelled) {
      FRAPPE_RETURN_IF_ERROR(Charge(metrics, Status::OK()));
      return nullptr;
    }
    FRAPPE_RETURN_IF_ERROR(Charge(metrics, condensation.status()));
    return condensation;
  }

  // The Fig. 6 closure on the condensation: the members of the components
  // `seed` reaches along `direction`.
  Result<std::vector<NodeId>> CondensedClosure(
      const graph::Condensation& condensation, NodeId seed,
      Direction direction, graph::analytics::Metrics* metrics) {
    FRAPPE_ASSIGN_OR_RETURN(graph::analytics::Options opt, KernelOptions());
    auto members = [&] {
      FRAPPE_TRACE_SPAN("executor.csr_closure");
      return graph::analytics::CondensedClosure(condensation, {seed},
                                                direction, opt, metrics);
    }();
    FRAPPE_RETURN_IF_ERROR(Charge(*metrics, members.status()));
    dag_scans_ += metrics->steps;
    return members;
  }

  Status ExecWhere(const WhereClause& clause) {
    // Reachability predicates on the closure kernel evaluate rows grouped
    // by anchor, so each anchor's closure runs once; rows keep their
    // order. A predicate without one skips the pre-scan entirely.
    std::vector<size_t> order;
    if (UseReachKernel(db_, options_)) {
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

  // The WHERE pre-scan. A condensable pattern with a row to probe runs
  // on its condensation, built here when the view has none (see
  // BuildCondensation), and needs nothing more. For each pattern left to
  // kernel closures, anchors on the endpoint with fewer distinct bound
  // nodes across the rows and records, per anchor, the other endpoints its
  // rows ask about. `order` receives the row indices grouped by the first
  // such pattern's anchor (rows it cannot answer last), stable within a
  // group.
  Status PlanReachProbes(const std::vector<const PatternChain*>& patterns,
                         std::vector<size_t>* order) {
    for (const PatternChain* chain : patterns) {
      FRAPPE_ASSIGN_OR_RETURN(PatternProbe * probe, ProbeFor(*chain));
      if (!probe->reach) continue;
      const int from_slot = probe->chain.nodes[0].slot;
      const int to_slot = probe->chain.nodes[1].slot;
      std::vector<std::pair<NodeId, NodeId>> pairs;  // (from, to) per row
      pairs.reserve(rows_.size());
      bool any_probe = false;
      for (const Row& row : rows_) {
        const auto& pair = pairs.emplace_back(BoundNodeOf(row, from_slot),
                                              BoundNodeOf(row, to_slot));
        any_probe = any_probe || (pair.first != graph::kInvalidNode &&
                                  pair.second != graph::kInvalidNode);
      }
      const BoundRelPattern& rel = probe->chain.rels[0];
      if (any_probe && probe->condensation == nullptr && Condensable(rel)) {
        FRAPPE_ASSIGN_OR_RETURN(probe->condensation, BuildCondensation(rel));
      }
      if (probe->condensation != nullptr) continue;
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
      // The clause's input rows are not read after this projection, so
      // each projected row is assembled in `cells` and then stored in its
      // input row's own storage, and a bare variable item moves its cell
      // once the row's other items are evaluated. Only the last bare item
      // on a slot moves; earlier ones copy.
      std::vector<int> var_slot(items.size(), -1);
      std::vector<char> last_use(items.size(), 0);
      for (size_t i = items.size(); i-- > 0;) {
        const auto* var = std::get_if<VarExpr>(&items[i].expr->node);
        if (var == nullptr) continue;
        var_slot[i] = FindSlot(var->name);
        last_use[i] = std::find(var_slot.begin() + i + 1, var_slot.end(),
                                var_slot[i]) == var_slot.end();
      }
      out->clear();
      out->reserve(rows_.size());
      Row cells(items.size());
      for (Row& row : rows_) {
        FRAPPE_RETURN_IF_ERROR(Tick());
        for (size_t i = 0; i < items.size(); ++i) {
          if (var_slot[i] >= 0) continue;
          FRAPPE_ASSIGN_OR_RETURN(cells[i], Eval(*items[i].expr, row));
        }
        for (size_t i = 0; i < items.size(); ++i) {
          if (var_slot[i] < 0) continue;
          ResultValue& cell = row[var_slot[i]];
          cells[i] = last_use[i] != 0 ? std::move(cell) : cell;
        }
        row.resize(items.size());
        std::move(cells.begin(), cells.end(), row.begin());
        out->push_back(std::move(row));
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

  // Sorts and dedupes `rows`. Rows that are already strictly increasing
  // are distinct and in output order, so one O(n) pass spares the sort:
  // the closure fast path emits its rows that way.
  void DedupeRows(std::vector<Row>* rows) {
    if (std::adjacent_find(rows->begin(), rows->end(),
                           [](const Row& a, const Row& b) {
                             return !RowLess()(a, b);
                           }) == rows->end()) {
      return;
    }
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

  // Resolves a pattern's property map into `bound->props`; a key or a
  // string the graph lacks makes the pattern impossible.
  template <typename Bound>
  Status BindProps(const std::vector<PropConstraint>& props, Bound* bound) {
    for (const PropConstraint& prop : props) {
      std::optional<KeyId> key = db_.resolve_property
                                     ? db_.resolve_property(prop.key)
                                     : std::nullopt;
      bool impossible = !key.has_value();
      FRAPPE_ASSIGN_OR_RETURN(graph::Value value,
                              LiteralToValue(prop.value, &impossible));
      if (impossible) {
        bound->impossible = true;
      } else {
        bound->props.emplace_back(*key, value);
      }
    }
    return Status::OK();
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
    FRAPPE_RETURN_IF_ERROR(BindProps(pattern.props, &bound));
    bound.anchor = AnchorFor(db_, pattern);
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
    FRAPPE_RETURN_IF_ERROR(BindProps(pattern.props, &bound));
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
    const size_t pivot = PickAnchor(chain.nodes.size(), [&](size_t i) {
      const BoundNodePattern& p = chain.nodes[i];
      return p.slot >= 0 && !(*row)[p.slot].is_null() ? AnchorTier::kBound
                                                       : p.anchor.tier;
    });
    const std::vector<ExpandStep> steps =
        ExpansionOrder(chain.nodes.size(), pivot);

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
    // An unbound anchor that can match nothing enumerates nothing.
    if (anchor.impossible) return Status::OK();
    // Enumerate candidates: the index seek, else the label index when
    // available, else a full scan.
    Status status = Status::OK();
    auto try_candidate = [&](NodeId node) -> bool {
      status = Tick();
      if (!status.ok()) return false;
      if (!NodeSatisfies(anchor, node)) return true;
      status = BindAndStep(chain, steps, 0, pivot, node, &binding, row, used,
                           sink);
      return status.ok();
    };
    if (anchor.anchor.field != nullptr) {
      for (NodeId node : db_.name_index->Lookup(anchor.anchor.field->name,
                                                anchor.anchor.value)) {
        if (!try_candidate(node)) return status;
      }
    } else if (!anchor.any_type && db_.label_index != nullptr) {
      for (TypeId type : anchor.types) {
        for (NodeId node : db_.label_index->Nodes(type)) {
          if (!try_candidate(node)) return status;
        }
      }
    } else {
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
    NodeId from = BoundNodeOf(*row, a.slot);
    NodeId to = BoundNodeOf(*row, b.slot);
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
                     const std::vector<ExpandStep>& steps, size_t step_idx,
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

  Status RunStep(const BoundChain& chain, const std::vector<ExpandStep>& steps,
                 size_t step_idx, std::vector<NodeId>* binding, Row* row,
                 std::unordered_set<EdgeId>* used, const ChainSink& sink) {
    if (step_idx == steps.size()) return sink(row);
    const ExpandStep& step = steps[step_idx];
    const BoundRelPattern& rel = chain.rels[step.rel];
    if (rel.impossible) return Status::OK();
    NodeId from = (*binding)[step.from_node];
    Direction dir = step.reversed ? Flip(rel.direction) : rel.direction;

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
      PatternProbe& probe = it->second;
      probe.reach = IsReachabilityPattern(chain) && !bound.rels[0].impossible;
      if (probe.reach) probe.condensation = BuiltCondensation(bound.rels[0]);
      probe.chain = std::move(bound);
    }
    return &it->second;
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
    if (probe->reach) {
      const BoundNodePattern& a = bound.nodes[0];
      const BoundNodePattern& b = bound.nodes[1];
      NodeId from = BoundNodeOf(row, a.slot);
      NodeId to = BoundNodeOf(row, b.slot);
      if (from != graph::kInvalidNode && to != graph::kInvalidNode &&
          NodeSatisfies(a, from) && NodeSatisfies(b, to)) {
        if (UseReachKernel(db_, options_)) {
          return ProbeReach(probe, from, to);
        }
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
    if (probe->condensation != nullptr) {
      return ProbeCondensed(probe, from, to);
    }
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

  // ProbeReach on the condensation: endpoints in one component reach each
  // other exactly when it is cyclic, and Tarjan's ids rule out every pair
  // whose source id is the smaller. Only the rest search the DAG.
  Result<bool> ProbeCondensed(PatternProbe* probe, NodeId from, NodeId to) {
    const graph::Condensation& condensation = *probe->condensation;
    if (probe->chain.rels[0].direction == Direction::kIn) {
      std::swap(from, to);
    }
    const uint32_t source = condensation.component[from];
    const uint32_t target = condensation.component[to];
    if (source == target) {
      ++reach_op_.scc;
      return condensation.cyclic[source] != 0;
    }
    if (source < target) {
      ++reach_op_.order;
      return false;
    }
    FRAPPE_ASSIGN_OR_RETURN(graph::analytics::Options opt, KernelOptions());
    graph::analytics::Metrics metrics;
    Result<bool> reached = graph::analytics::DagReaches(
        condensation, source, target, opt, &metrics);
    FRAPPE_RETURN_IF_ERROR(Charge(metrics, reached.status()));
    ++reach_op_.anchors;
    dag_scans_ += metrics.steps;
    if (*reached) ++reach_op_.early_exits;
    return reached;
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
            graph::Value::Int(static_cast<int64_t>(v.edges().size())));
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
  // DAG edges the current clause scanned on a condensation (PROFILE).
  uint64_t dag_scans_ = 0;
  // The current clause's bound pattern predicates, keyed by AST node.
  std::unordered_map<const PatternChain*, PatternProbe> pattern_probes_;
  // Reachability-kernel detail of the current clause (PROFILE).
  struct {
    bool from_target = false;
    uint64_t anchors = 0;
    uint64_t early_exits = 0;
    uint64_t scc = 0;
    uint64_t order = 0;
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
