#include "graph/analytics.h"

#include <algorithm>
#include <bit>
#include <chrono>
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

// Budget bookkeeping shared by the push and pull loops: counts edge scans
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

Status FrontierEngine::Run(const CsrView& csr,
                           const std::vector<NodeId>& seeds,
                           const EdgeFilter& filter, const Options& options,
                           bool track_member, std::vector<uint32_t>* depths,
                           Metrics* metrics) {
  FRAPPE_TRACE_SPAN("analytics.run");
  // The query's tracker (if one is installed), polled for its memory budget.
  const obs::ResourceTracker* tracker = obs::ResourceTracker::Current();
  size_t upper = csr.NodeIdUpperBound();

  // Metrics structs are reusable across runs: every field resets here so
  // nothing (frontier_sizes in particular) accumulates stale entries.
  if (metrics != nullptr) *metrics = Metrics{};

  visited_.Reset(upper);
  if (track_member) member_.Reset(upper);
  if (depths != nullptr) depths->assign(upper, kUnreachedDepth);

  const bool scan_out = filter.direction == Direction::kOut ||
                        filter.direction == Direction::kBoth;
  const bool scan_in = filter.direction == Direction::kIn ||
                       filter.direction == Direction::kBoth;
  // Scan-direction degree of a node: how many edges a push expansion of it
  // reads. Drives the Beamer heuristic; uses untyped degrees (type filters
  // shrink push and pull costs roughly proportionally). Never touches
  // InDegree unless push itself would scan in-edges, so pure-out
  // traversals defer the reverse-CSR build until the first pull level.
  auto scan_degree = [&](NodeId id) -> uint64_t {
    uint64_t deg = 0;
    if (scan_out) deg += csr.OutDegree(id);
    if (scan_in) deg += csr.InDegree(id);
    return deg;
  };

  frontier_.clear();
  uint64_t frontier_deg = 0;
  for (NodeId seed : seeds) {
    if (!csr.NodeExists(seed)) continue;
    if (visited_.TestAndSet(seed)) {
      frontier_.push_back(seed);
      frontier_deg += scan_degree(seed);
      if (depths != nullptr) (*depths)[seed] = 0;
    }
  }

  Budget budget(options, tracker);
  const bool typed = !filter.types.empty();
  // The overwhelmingly common filter is a single edge type (calls,
  // includes); hoist it so the inner loops compare one register.
  const TypeId single_type =
      filter.types.size() == 1 ? filter.types[0] : kInvalidType;
  auto type_allowed = [&](TypeId t) {
    return filter.types.size() == 1 ? t == single_type : filter.Allows(t);
  };

  // Inputs for the per-level push/pull cost model (see the direction
  // decision below). `scannable` is the total edge count a direction scan
  // can touch; `selectivity` the fraction of edges a typed filter accepts
  // — a selective filter delays pull's first-parent early exit by
  // ~1/selectivity, which the model charges pull for.
  const double scannable =
      static_cast<double>(csr.LiveEdgeCount()) *
      ((scan_out ? 1 : 0) + (scan_in ? 1 : 0));
  double selectivity = 1.0;
  if (typed && csr.LiveEdgeCount() > 0) {
    uint64_t matching = 0;
    for (TypeId t : filter.types) matching += csr.EdgeTypeCount(t);
    selectivity = static_cast<double>(matching) /
                  static_cast<double>(csr.LiveEdgeCount());
  }
  const double avg_degree =
      upper > 0 ? scannable / static_cast<double>(upper) : 0.0;
  size_t visited_total = frontier_.size();

  size_t frontier_count = frontier_.size();
  bool frontier_is_bitmap = false;
  bool pull_mode = false;

  // Early-exit targets not yet in the result; checked between levels.
  std::vector<NodeId> pending;
  if (options.stop_targets != nullptr) pending = *options.stop_targets;
  const bool stop_armed = !pending.empty();
  const VisitedBitmap& reached = track_member ? member_ : visited_;

  // A pre-tripped cancel token expands nothing.
  if (frontier_count > 0) budget.Poll();
  size_t depth = 0;
  while (frontier_count > 0 && depth < options.max_depth &&
         !budget.stopped()) {
    if (stop_armed) {
      std::erase_if(pending, [&](NodeId t) {
        return t < upper && reached.Test(t);
      });
      if (pending.empty()) {
        if (metrics != nullptr) metrics->stopped_early = true;
        break;
      }
    }
    // One span per BFS level, parented under the executor's span: the
    // per-level breakdown a retained trace shows.
    FRAPPE_TRACE_SPAN("analytics.level");

    // --- direction decision ---
    // Beamer-style switching, but via an explicit cost model rather than
    // the mf > mu/alpha rule: classic BFS eventually visits every node, so
    // mu ("unexplored edges") approximates bottom-up's work. A filtered
    // closure reaching a fraction of the graph breaks that — the
    // forever-unreached majority rescans its whole in-bucket on every pull
    // level. Model both sides directly instead:
    //
    //   push  ~ frontier_deg            (scan each frontier edge once)
    //   pull  ~ unvisited * (E[probes until a matching frontier parent]
    //                        + 1)       (+1 = per-node bitmap overhead)
    //
    // where the expected probe count is scannable / (frontier_deg *
    // selectivity) — the chance a random in-edge hits a frontier parent
    // through a matching type — capped by the average degree (a node with
    // no frontier parent scans its whole bucket). Pull is taken when its
    // modelled cost is under alpha * push (alpha>1 credits pull's
    // sequential, read-mostly, early-exiting scan); beta adds hysteresis
    // so a marginal flip doesn't thrash the frontier representation.
    bool want_pull;
    {
      double unvisited = static_cast<double>(
          upper > visited_total ? upper - visited_total : 0);
      double hit_rate =
          std::max(static_cast<double>(frontier_deg) * selectivity, 1.0);
      double expected_probes =
          std::min(avg_degree, scannable / hit_rate);
      double pull_cost = unvisited * (expected_probes + 1.0);
      double push_cost = static_cast<double>(frontier_deg);
      switch (options.mode) {
        case DirectionMode::kPushOnly:
          want_pull = false;
          break;
        case DirectionMode::kPullOnly:
          want_pull = true;
          break;
        default:
          want_pull = pull_cost < options.alpha * push_cost;
          if (pull_mode && !want_pull) {
            want_pull = static_cast<double>(frontier_count) >=
                        static_cast<double>(upper) / options.beta;
          }
          break;
      }
    }
    if (depth > 0 && want_pull != pull_mode && metrics != nullptr) {
      ++metrics->direction_switches;
    }
    pull_mode = want_pull;

    // --- frontier representation conversion ---
    if (pull_mode && !frontier_is_bitmap) {
      frontier_bits_.Reset(upper);
      for (NodeId id : frontier_) frontier_bits_.Set(id);
      frontier_is_bitmap = true;
    } else if (!pull_mode && frontier_is_bitmap) {
      frontier_.clear();
      frontier_bits_.AppendSetBits(&frontier_);
      frontier_is_bitmap = false;
    }

    if (metrics != nullptr) {
      metrics->frontier_peak = std::max(metrics->frontier_peak,
                                        frontier_count);
      metrics->frontier_sizes.push_back(frontier_count);
      metrics->level_pull.push_back(pull_mode ? 1 : 0);
      metrics->level_bitmap.push_back(frontier_is_bitmap ? 1 : 0);
      metrics->lanes_used = 1;
    }

    obs::Span level_span(pull_mode ? "analytics.level.pull"
                                   : "analytics.level.push");
    uint32_t next_depth = static_cast<uint32_t>(depth) + 1;
    uint64_t next_count = 0;
    uint64_t next_deg = 0;

    if (!pull_mode) {
      // ---- push (top-down): scan each frontier node's edges ----
      next_.clear();
      for (size_t i = 0; i < frontier_count && !budget.stopped(); ++i) {
        NodeId node = frontier_[i];
        auto scan = [&](CsrView::Neighbors nbrs) {
          for (size_t j = 0; j < nbrs.count; ++j) {
            if (budget.Step()) return;
            if (typed && !type_allowed(nbrs.begin_types[j])) continue;
            NodeId neighbor = nbrs.begin_nodes[j];
            if (track_member) member_.Set(neighbor);
            if (visited_.TestAndSet(neighbor)) {
              if (depths != nullptr) (*depths)[neighbor] = next_depth;
              next_deg += scan_degree(neighbor);
              next_.push_back(neighbor);
            }
          }
        };
        if (scan_out) scan(csr.Out(node));
        if (scan_in) scan(csr.In(node));
      }
      frontier_.swap(next_);
      next_count = frontier_.size();
      frontier_is_bitmap = false;
    } else {
      // ---- pull (bottom-up): every unvisited node looks for a parent ----
      // The frontier bitmap is read-only here; discoveries go to next_bits_.
      next_bits_.Reset(upper);
      constexpr uint64_t kFullWord =
          (uint64_t{1} << VisitedBitmap::kBitsPerWord) - 1;
      NodeId v = 0;
      while (v < upper && !budget.stopped()) {
        if ((v % VisitedBitmap::kBitsPerWord) == 0 &&
            v + VisitedBitmap::kBitsPerWord <= upper) {
          // Whole-word skip: 48 ids at a time where every node is already
          // visited (and, for closures, already a member).
          uint64_t done = visited_.WordPayload(v);
          if (track_member) done &= member_.WordPayload(v);
          if (done == kFullWord) {
            v += VisitedBitmap::kBitsPerWord;
            continue;
          }
        }
        bool vis = visited_.Test(v);
        bool memb = track_member && member_.Test(v);
        if (vis && (!track_member || memb)) {
          ++v;
          continue;
        }
        // Scan v's reverse-direction adjacency for a frontier parent.
        bool hit = false;
        auto probe = [&](CsrView::Neighbors nbrs) {
          for (size_t j = 0; j < nbrs.count; ++j) {
            if (budget.Step()) return;
            if (typed && !type_allowed(nbrs.begin_types[j])) continue;
            if (frontier_bits_.Test(nbrs.begin_nodes[j])) {
              hit = true;
              return;
            }
          }
        };
        // A traversal that follows out-edges discovers v from its
        // in-neighbors, and vice versa.
        if (scan_out) probe(csr.In(v));
        if (scan_in && !hit) probe(csr.Out(v));
        if (hit) {
          if (track_member) member_.Set(v);
          if (!vis) {
            visited_.Set(v);
            next_bits_.Set(v);
            if (depths != nullptr) (*depths)[v] = next_depth;
            ++next_count;
            next_deg += scan_degree(v);
          }
        }
        ++v;
      }
      std::swap(frontier_bits_, next_bits_);
      frontier_is_bitmap = true;
    }

    frontier_count = next_count;
    frontier_deg = next_deg;
    visited_total += next_count;
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
  return StatusFor(budget.reason, options, tracker);
}

Result<std::vector<NodeId>> FrontierEngine::Closure(
    const CsrView& csr, const std::vector<NodeId>& seeds,
    const EdgeFilter& filter, const Options& options, Metrics* metrics) {
  FRAPPE_RETURN_IF_ERROR(Run(csr, seeds, filter, options,
                             /*track_member=*/true, /*depths=*/nullptr,
                             metrics));
  std::vector<NodeId> out;
  member_.AppendSetBits(&out);
  return out;
}

Result<std::vector<NodeId>> FrontierEngine::Reachable(
    const CsrView& csr, const std::vector<NodeId>& seeds,
    const EdgeFilter& filter, const Options& options, Metrics* metrics) {
  FRAPPE_RETURN_IF_ERROR(Run(csr, seeds, filter, options,
                             /*track_member=*/false, /*depths=*/nullptr,
                             metrics));
  std::vector<NodeId> out;
  visited_.AppendSetBits(&out);
  return out;
}

Result<std::vector<uint32_t>> FrontierEngine::BfsDepths(
    const CsrView& csr, const std::vector<NodeId>& seeds,
    const EdgeFilter& filter, const Options& options, Metrics* metrics) {
  std::vector<uint32_t> depths;
  FRAPPE_RETURN_IF_ERROR(Run(csr, seeds, filter, options,
                             /*track_member=*/false, &depths, metrics));
  return depths;
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

Result<std::vector<NodeId>> ParallelReachable(
    const CsrView& csr, const std::vector<NodeId>& seeds,
    const EdgeFilter& filter, const Options& options, Metrics* metrics) {
  return LocalEngine().Reachable(csr, seeds, filter, options, metrics);
}

Result<std::vector<uint32_t>> ParallelBfsDepths(
    const CsrView& csr, const std::vector<NodeId>& seeds,
    const EdgeFilter& filter, const Options& options, Metrics* metrics) {
  return LocalEngine().BfsDepths(csr, seeds, filter, options, metrics);
}

}  // namespace frappe::graph::analytics
