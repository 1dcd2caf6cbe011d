#include "graph/analytics.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <functional>
#include <limits>
#include <string>

#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace frappe::graph::analytics {

void VisitedBitmap::Reset(size_t universe) {
  size_t words = (universe + kBitsPerWord - 1) / kBitsPerWord;
  if (words > capacity_words_) {
    // Value-initialization zeroes the words; tag 0 is never a live epoch.
    words_ = std::make_unique<uint64_t[]>(words);
    capacity_words_ = words;
    epoch_ = 1;
  } else if (epoch_ == std::numeric_limits<uint16_t>::max()) {
    std::fill_n(words_.get(), capacity_words_, uint64_t{0});
    epoch_ = 1;
  } else {
    ++epoch_;
  }
  size_ = universe;
}

void VisitedBitmap::AppendSetBits(std::vector<NodeId>* out) const {
  constexpr uint64_t kPayloadMask = (uint64_t{1} << kBitsPerWord) - 1;
  size_t words = (size_ + kBitsPerWord - 1) / kBitsPerWord;
  for (size_t w = 0; w < words; ++w) {
    uint64_t cur = words_[w];
    if ((cur >> kBitsPerWord) != epoch_) continue;
    uint64_t payload = cur & kPayloadMask;
    while (payload != 0) {
      int bit = std::countr_zero(payload);
      payload &= payload - 1;
      NodeId id = static_cast<NodeId>(w * kBitsPerWord + bit);
      if (id < size_) out->push_back(id);
    }
  }
}

namespace {

using Clock = std::chrono::steady_clock;

// Edges between budget polls. Small enough that a deadline or step-budget
// breach is noticed promptly, large enough to keep the clock read and the
// tracker load out of the hot loop.
constexpr uint64_t kPollInterval = 4096;

enum CancelReason : int { kNone = 0, kSteps = 1, kDeadline = 2,
                          kExternal = 3, kMemory = 4 };

Status StatusFor(int reason, const Options& options,
                 const obs::ResourceTracker* tracker) {
  switch (reason) {
    case kSteps:
      return Status::ResourceExhausted(
          "traversal exceeded step budget of " +
          std::to_string(options.max_steps));
    case kDeadline:
      return Status::DeadlineExceeded("traversal exceeded deadline of " +
                                      std::to_string(options.deadline_ms) +
                                      "ms");
    case kExternal:
      return Status::Cancelled("traversal cancelled");
    case kMemory:
      // "memory" in the message keeps the executor from re-phrasing this
      // as a step-budget failure (see Executor::CsrClosure).
      return Status::ResourceExhausted(
          "traversal exceeded memory budget of " +
          std::to_string(tracker != nullptr ? tracker->budget_bytes() : 0) +
          " bytes");
    default:
      return Status::OK();
  }
}

// Budget bookkeeping shared by every kernel below: counts edge scans
// and polls the cancel token, step budget, deadline and memory budget every
// kPollInterval edges. `reason` stays kNone until one of them trips.
struct Budget {
  Budget(const Options& options, const obs::ResourceTracker* tracker)
      : options(options), tracker(tracker) {
    if (options.deadline_ms > 0) {
      deadline = Clock::now() + std::chrono::milliseconds(options.deadline_ms);
    }
  }

  void Poll() {
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      reason = kExternal;
    } else if (options.max_steps > 0 && steps > options.max_steps) {
      reason = kSteps;
    } else if (options.deadline_ms > 0 && Clock::now() > deadline) {
      reason = kDeadline;
    } else if (tracker != nullptr && tracker->OverBudget()) {
      reason = kMemory;
    }
  }
  // Counts one edge scan; true when the traversal must stop.
  bool Step() {
    if (++steps % kPollInterval == 0) Poll();
    return stopped();
  }
  bool stopped() const { return reason != kNone; }

  const Options& options;
  const obs::ResourceTracker* tracker;  // null when untracked
  Clock::time_point deadline;
  uint64_t steps = 0;
  int reason = kNone;
};

}  // namespace

Result<std::vector<NodeId>> FrontierEngine::Closure(
    const CsrView& csr, const std::vector<NodeId>& seeds,
    const EdgeFilter& filter, const Options& options, Metrics* metrics) {
  FRAPPE_TRACE_SPAN("analytics.run");
  // The query's tracker (if one is installed), polled for its memory budget.
  const obs::ResourceTracker* tracker = obs::ResourceTracker::Current();
  size_t upper = csr.NodeIdUpperBound();

  // Metrics structs are reusable across runs: every field resets here so
  // nothing (frontier_sizes in particular) accumulates stale entries.
  if (metrics != nullptr) *metrics = Metrics{};

  visited_.Reset(upper);
  member_.Reset(upper);

  const bool scan_out = filter.direction == Direction::kOut ||
                        filter.direction == Direction::kBoth;
  const bool scan_in = filter.direction == Direction::kIn ||
                       filter.direction == Direction::kBoth;

  frontier_.clear();
  for (NodeId seed : seeds) {
    if (!csr.NodeExists(seed)) continue;
    if (visited_.TestAndSet(seed)) frontier_.push_back(seed);
  }

  Budget budget(options, tracker);
  const bool typed = !filter.types.empty();
  // The overwhelmingly common filter is a single edge type (calls,
  // includes); hoist it so the inner loop compares one register.
  const TypeId single_type =
      filter.types.size() == 1 ? filter.types[0] : kInvalidType;
  auto type_allowed = [&](TypeId t) {
    return filter.types.size() == 1 ? t == single_type : filter.Allows(t);
  };

  // Early-exit targets not yet in the result; checked between levels.
  std::vector<NodeId> pending;
  if (options.stop_targets != nullptr) pending = *options.stop_targets;
  const bool stop_armed = !pending.empty();

  // A pre-tripped cancel token expands nothing.
  if (!frontier_.empty()) budget.Poll();
  size_t depth = 0;
  while (!frontier_.empty() && depth < options.max_depth &&
         !budget.stopped()) {
    if (stop_armed) {
      std::erase_if(pending, [&](NodeId t) {
        return t < upper && member_.Test(t);
      });
      if (pending.empty()) {
        if (metrics != nullptr) metrics->stopped_early = true;
        break;
      }
    }
    // One span per BFS level, parented under the executor's span: the
    // per-level breakdown a retained trace shows.
    FRAPPE_TRACE_SPAN("analytics.level");
    if (metrics != nullptr) {
      metrics->frontier_peak = std::max(metrics->frontier_peak,
                                        frontier_.size());
      metrics->frontier_sizes.push_back(frontier_.size());
      metrics->lanes_used = 1;
    }

    next_.clear();
    for (size_t i = 0; i < frontier_.size() && !budget.stopped(); ++i) {
      NodeId node = frontier_[i];
      auto scan = [&](CsrView::Neighbors nbrs) {
        for (size_t j = 0; j < nbrs.count; ++j) {
          if (budget.Step()) return;
          if (typed && !type_allowed(nbrs.begin_types[j])) continue;
          NodeId neighbor = nbrs.begin_nodes[j];
          member_.Set(neighbor);
          if (visited_.TestAndSet(neighbor)) next_.push_back(neighbor);
        }
      };
      if (scan_out) scan(csr.Out(node));
      if (scan_in) scan(csr.In(node));
    }
    frontier_.swap(next_);
    ++depth;
    if (metrics != nullptr) metrics->levels = depth;
    budget.Poll();
  }

  if (metrics != nullptr) {
    metrics->steps = budget.steps;
    metrics->scanned_bytes = metrics->steps * CsrView::kBytesPerEdgeScan;
  }
  static obs::Counter& runs_counter =
      obs::Registry::Global().GetCounter("analytics.runs");
  static obs::Counter& steps_counter =
      obs::Registry::Global().GetCounter("analytics.steps");
  static obs::Histogram& levels_hist =
      obs::Registry::Global().GetHistogram("analytics.levels");
  runs_counter.Add();
  steps_counter.Add(budget.steps);
  levels_hist.Record(depth);
  FRAPPE_RETURN_IF_ERROR(StatusFor(budget.reason, options, tracker));
  std::vector<NodeId> out;
  member_.AppendSetBits(&out);
  return out;
}

namespace {

FrontierEngine& LocalEngine() {
  thread_local FrontierEngine engine;
  return engine;
}

}  // namespace

Result<std::vector<NodeId>> ParallelClosure(const CsrView& csr,
                                            const std::vector<NodeId>& seeds,
                                            const EdgeFilter& filter,
                                            const Options& options,
                                            Metrics* metrics) {
  return LocalEngine().Closure(csr, seeds, filter, options, metrics);
}

namespace {

// Bytes one DAG edge scan reads: a component id.
constexpr uint64_t kBytesPerDagScan = sizeof(uint32_t);

void FinishMetrics(const Budget& budget, uint64_t bytes_per_step,
                   Metrics* metrics) {
  if (metrics == nullptr) return;
  metrics->steps = budget.steps;
  metrics->scanned_bytes = budget.steps * bytes_per_step;
}

void NormalizeTypes(std::vector<TypeId>* types) {
  std::sort(types->begin(), types->end());
  types->erase(std::unique(types->begin(), types->end()), types->end());
}

// Tarjan's algorithm without recursion (the call graph's giant component
// would overflow the stack), then the members and the DAG of the
// components it found.
Result<Condensation> BuildCondensation(const CsrView& csr,
                                       const std::vector<TypeId>& types,
                                       const Options& options,
                                       Metrics* metrics) {
  FRAPPE_TRACE_SPAN("analytics.condense");
  Budget budget(options, obs::ResourceTracker::Current());
  budget.Poll();
  const EdgeFilter filter{types, Direction::kOut};
  const TypeId single_type = types.size() == 1 ? types[0] : kInvalidType;
  auto allowed = [&](TypeId t) {
    return types.size() == 1 ? t == single_type : filter.Allows(t);
  };
  constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
  const size_t upper = csr.NodeIdUpperBound();
  // Fills `metrics`; the status is OK unless a budget tripped.
  auto finish = [&] {
    FinishMetrics(budget, CsrView::kBytesPerEdgeScan, metrics);
    return StatusFor(budget.reason, options, budget.tracker);
  };

  Condensation c;
  c.types = types;
  c.component.assign(upper, kNone);
  std::vector<uint32_t> index(upper, kNone);
  std::vector<uint32_t> low(upper);
  std::vector<NodeId> stack;
  struct Frame {
    NodeId node;
    size_t next;  // the next out-edge of `node` to scan
  };
  std::vector<Frame> calls;
  uint32_t next_index = 0;
  uint32_t components = 0;
  auto visit = [&](NodeId v) {
    index[v] = low[v] = next_index++;
    stack.push_back(v);
    calls.push_back({v, 0});
  };
  for (NodeId root = 0; root < upper && !budget.stopped(); ++root) {
    if (index[root] != kNone) continue;
    visit(root);
    while (!calls.empty() && !budget.stopped()) {
      const NodeId v = calls.back().node;
      const CsrView::Neighbors nbrs = csr.Out(v);
      bool descended = false;
      while (!descended && calls.back().next < nbrs.count) {
        const size_t j = calls.back().next++;
        if (budget.Step()) break;
        if (!allowed(nbrs.begin_types[j])) continue;
        const NodeId w = nbrs.begin_nodes[j];
        if (index[w] == kNone) {
          visit(w);
          descended = true;
        } else if (c.component[w] == kNone) {  // w is on the stack
          low[v] = std::min(low[v], index[w]);
        }
      }
      if (descended || budget.stopped()) continue;
      if (low[v] == index[v]) {
        NodeId member;
        do {
          member = stack.back();
          stack.pop_back();
          c.component[member] = components;
        } while (member != v);
        ++components;
      }
      calls.pop_back();
      if (!calls.empty()) {
        NodeId parent = calls.back().node;
        low[parent] = std::min(low[parent], low[v]);
      }
    }
  }
  if (budget.stopped()) return finish();
  index = {};
  low = {};

  // Members, grouped by component and ascending within each.
  c.member_offsets.assign(components + 1, 0);
  for (uint32_t comp : c.component) ++c.member_offsets[comp + 1];
  for (uint32_t k = 0; k < components; ++k) {
    c.member_offsets[k + 1] += c.member_offsets[k];
  }
  c.members.resize(upper);
  {
    std::vector<uint64_t> cursor(c.member_offsets.begin(),
                                 c.member_offsets.end() - 1);
    for (NodeId v = 0; v < upper; ++v) {
      c.members[cursor[c.component[v]]++] = v;
    }
  }

  // The DAG: each component's distinct successors, and its cyclic flag
  // from any edge that stays inside it.
  c.cyclic.assign(components, 0);
  c.out_offsets.assign(components + 1, 0);
  std::vector<uint32_t> linked_from(components, kNone);
  for (uint32_t k = 0; k < components && !budget.stopped(); ++k) {
    const size_t begin = c.out.size();
    for (uint64_t m = c.member_offsets[k]; m < c.member_offsets[k + 1]; ++m) {
      const CsrView::Neighbors nbrs = csr.Out(c.members[m]);
      for (size_t j = 0; j < nbrs.count; ++j) {
        if (budget.Step()) break;
        if (!allowed(nbrs.begin_types[j])) continue;
        const uint32_t d = c.component[nbrs.begin_nodes[j]];
        if (d == k) {
          c.cyclic[k] = 1;
        } else if (linked_from[d] != k) {
          linked_from[d] = k;
          c.out.push_back(d);
        }
      }
    }
    std::sort(c.out.begin() + begin, c.out.end(), std::greater<uint32_t>());
    c.out_offsets[k + 1] = c.out.size();
  }
  if (budget.stopped()) return finish();

  // The reverse DAG, a transpose that scans no graph edge. Walking sources
  // in ascending order leaves each predecessor list ascending.
  c.in_offsets.assign(components + 1, 0);
  for (uint32_t d : c.out) ++c.in_offsets[d + 1];
  for (uint32_t k = 0; k < components; ++k) {
    c.in_offsets[k + 1] += c.in_offsets[k];
  }
  c.in.resize(c.out.size());
  {
    std::vector<uint64_t> cursor(c.in_offsets.begin(),
                                 c.in_offsets.end() - 1);
    for (uint32_t k = 0; k < components; ++k) {
      for (uint64_t e = c.out_offsets[k]; e < c.out_offsets[k + 1]; ++e) {
        c.in[cursor[c.out[e]]++] = k;
      }
    }
  }
  FRAPPE_RETURN_IF_ERROR(finish());
  static obs::Counter& builds_counter =
      obs::Registry::Global().GetCounter("analytics.condensations");
  builds_counter.Add();
  return c;
}

}  // namespace

Result<const Condensation*> Condense(const CsrView& csr,
                                     std::vector<TypeId> types,
                                     const Options& options,
                                     Metrics* metrics) {
  NormalizeTypes(&types);
  if (metrics != nullptr) *metrics = Metrics{};
  return csr.Condensed(types, [&] {
    return BuildCondensation(csr, types, options, metrics);
  });
}

const Condensation* FindCondensation(const CsrView& csr,
                                     std::vector<TypeId> types) {
  NormalizeTypes(&types);
  return csr.FindCondensation(types);
}

Result<bool> DagReaches(const Condensation& condensation, uint32_t from,
                        uint32_t to, const Options& options,
                        Metrics* metrics) {
  if (metrics != nullptr) *metrics = Metrics{};
  Budget budget(options, obs::ResourceTracker::Current());
  budget.Poll();
  thread_local VisitedBitmap visited;  // scratch reused across calls
  visited.Reset(condensation.ComponentCount());
  std::vector<uint32_t> stack{from};
  visited.Set(from);
  bool reached = false;
  while (!stack.empty() && !reached && !budget.stopped()) {
    const uint32_t c = stack.back();
    stack.pop_back();
    // Successors are descending: the first one below `to` ends the scan.
    for (uint64_t e = condensation.out_offsets[c];
         e < condensation.out_offsets[c + 1]; ++e) {
      if (budget.Step()) break;
      const uint32_t d = condensation.out[e];
      if (d <= to) {
        reached = d == to;
        break;
      }
      if (visited.TestAndSet(d)) stack.push_back(d);
    }
  }
  FinishMetrics(budget, kBytesPerDagScan, metrics);
  FRAPPE_RETURN_IF_ERROR(StatusFor(budget.reason, options, budget.tracker));
  return reached;
}

Result<std::vector<NodeId>> CondensedClosure(const Condensation& condensation,
                                             const std::vector<NodeId>& seeds,
                                             Direction direction,
                                             const Options& options,
                                             Metrics* metrics) {
  FRAPPE_TRACE_SPAN("analytics.run");
  if (metrics != nullptr) *metrics = Metrics{};
  Budget budget(options, obs::ResourceTracker::Current());
  budget.Poll();
  const bool forward = direction == Direction::kOut;
  const std::vector<uint64_t>& offsets =
      forward ? condensation.out_offsets : condensation.in_offsets;
  const std::vector<uint32_t>& next_of =
      forward ? condensation.out : condensation.in;
  const size_t upper = condensation.component.size();
  thread_local VisitedBitmap visited;  // components; scratch reused
  thread_local VisitedBitmap member;   // nodes
  visited.Reset(condensation.ComponentCount());
  member.Reset(upper);

  auto add_members = [&](uint32_t c) {
    for (uint64_t m = condensation.member_offsets[c];
         m < condensation.member_offsets[c + 1]; ++m) {
      member.Set(condensation.members[m]);
    }
  };
  // The seeds' components are expanded first but not marked visited: one
  // that another seed's search reaches is then marked, joins the result
  // and is expanded again (finding its successors already visited).
  std::vector<uint32_t> frontier;
  std::vector<uint32_t> next;
  for (NodeId seed : seeds) {
    if (seed < upper) frontier.push_back(condensation.component[seed]);
  }
  std::sort(frontier.begin(), frontier.end());
  frontier.erase(std::unique(frontier.begin(), frontier.end()),
                 frontier.end());
  for (uint32_t start : frontier) {
    if (condensation.cyclic[start] != 0) add_members(start);
  }
  while (!frontier.empty() && !budget.stopped()) {
    FRAPPE_TRACE_SPAN("analytics.level");
    if (metrics != nullptr) {
      metrics->frontier_peak = std::max(metrics->frontier_peak,
                                        frontier.size());
      metrics->frontier_sizes.push_back(frontier.size());
      metrics->lanes_used = 1;
      ++metrics->levels;
    }
    next.clear();
    for (uint32_t c : frontier) {
      for (uint64_t e = offsets[c]; e < offsets[c + 1]; ++e) {
        if (budget.Step()) break;
        const uint32_t d = next_of[e];
        if (visited.TestAndSet(d)) {
          next.push_back(d);
          add_members(d);
        }
      }
      if (budget.stopped()) break;
    }
    frontier.swap(next);
  }
  FinishMetrics(budget, kBytesPerDagScan, metrics);
  FRAPPE_RETURN_IF_ERROR(StatusFor(budget.reason, options, budget.tracker));
  std::vector<NodeId> out;
  member.AppendSetBits(&out);
  return out;
}

}  // namespace frappe::graph::analytics
