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
    words_ = std::make_unique<std::atomic<uint64_t>[]>(words);
    capacity_words_ = words;
    epoch_ = 1;
  } else if (epoch_ == std::numeric_limits<uint16_t>::max()) {
    for (size_t i = 0; i < capacity_words_; ++i) {
      words_[i].store(0, std::memory_order_relaxed);
    }
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
    uint64_t cur = words_[w].load(std::memory_order_relaxed);
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

// Flush/poll interval for the per-lane step counters. Small enough that a
// deadline or step-budget breach is noticed promptly, large enough that the
// shared atomic stays out of the hot loop.
constexpr uint64_t kFlushInterval = 4096;

enum CancelReason : int { kNone = 0, kSteps = 1, kDeadline = 2,
                          kExternal = 3, kMemory = 4 };

struct SharedState {
  std::atomic<uint64_t> steps{0};
  std::atomic<bool> cancelled{false};
  std::atomic<int> reason{kNone};

  void Cancel(int why) {
    reason.store(why, std::memory_order_relaxed);
    cancelled.store(true, std::memory_order_relaxed);
  }
};

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
      // as a step-budget failure (see TryCsrClosure).
      return Status::ResourceExhausted(
          "traversal exceeded memory budget of " +
          std::to_string(tracker != nullptr ? tracker->budget_bytes() : 0) +
          " bytes");
    default:
      return Status::OK();
  }
}

// Per-lane budget bookkeeping shared by the push and pull loops: counts
// edge scans locally and flushes them (with the cancel-token, step-budget
// and deadline polls) every kFlushInterval edges.
struct LaneBudget {
  SharedState* shared;
  const Options* options;
  const Clock::time_point* deadline;           // null when no deadline
  const obs::ResourceTracker* tracker = nullptr;  // null when untracked
  uint64_t local_steps = 0;

  void Flush() {
    uint64_t total = shared->steps.fetch_add(local_steps,
                                             std::memory_order_relaxed) +
                     local_steps;
    local_steps = 0;
    if (options->cancel != nullptr &&
        options->cancel->load(std::memory_order_relaxed)) {
      shared->Cancel(kExternal);
    } else if (options->max_steps > 0 && total > options->max_steps) {
      shared->Cancel(kSteps);
    } else if (deadline != nullptr && Clock::now() > *deadline) {
      shared->Cancel(kDeadline);
    } else if (tracker != nullptr && tracker->OverBudget()) {
      shared->Cancel(kMemory);
    }
  }
  // Returns true when the traversal was cancelled and the lane must stop.
  bool Step() {
    if (++local_steps >= kFlushInterval) {
      Flush();
      return shared->cancelled.load(std::memory_order_relaxed);
    }
    return false;
  }
};

}  // namespace

Status FrontierEngine::Run(const CsrView& csr,
                           const std::vector<NodeId>& seeds,
                           const EdgeFilter& filter, const Options& options,
                           bool track_member, std::vector<uint32_t>* depths,
                           Metrics* metrics) {
  FRAPPE_TRACE_SPAN("analytics.run");
  // The coordinating thread's tracker (if a query installed one): pool
  // lanes attach to it below so their CPU time and allocations land on the
  // query that dispatched them, and every lane polls its memory budget.
  obs::ResourceTracker* tracker = obs::ResourceTracker::Current();
  size_t upper = csr.NodeIdUpperBound();
  size_t threads = ThreadPool::ResolveThreads(options.threads);
  ThreadPool& pool =
      options.pool != nullptr ? *options.pool : ThreadPool::Shared();

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
    if (visited_.TestAndSetSeq(seed)) {
      frontier_.push_back(seed);
      frontier_deg += scan_degree(seed);
      if (depths != nullptr) (*depths)[seed] = 0;
    }
  }

  SharedState shared;
  const bool typed = !filter.types.empty();
  // The overwhelmingly common filter is a single edge type (calls,
  // includes); hoist it so the inner loops compare one register.
  const TypeId single_type =
      filter.types.size() == 1 ? filter.types[0] : kInvalidType;
  auto type_allowed = [&](TypeId t) {
    return filter.types.size() == 1 ? t == single_type : filter.Allows(t);
  };

  Clock::time_point deadline;
  const Clock::time_point* deadline_ptr = nullptr;
  if (options.deadline_ms > 0) {
    deadline = Clock::now() + std::chrono::milliseconds(options.deadline_ms);
    deadline_ptr = &deadline;
  }

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

  // Early-exit targets not yet in the result; checked between levels, when
  // no lane is writing the bitmaps.
  std::vector<NodeId> pending;
  if (options.stop_targets != nullptr) pending = *options.stop_targets;
  const bool stop_armed = !pending.empty();
  const VisitedBitmap& reached = track_member ? member_ : visited_;

  size_t depth = 0;
  while (frontier_count > 0 && depth < options.max_depth &&
         !shared.cancelled.load(std::memory_order_relaxed)) {
    if (stop_armed) {
      std::erase_if(pending, [&](NodeId t) {
        return t < upper && reached.Test(t);
      });
      if (pending.empty()) {
        if (metrics != nullptr) metrics->stopped_early = true;
        break;
      }
    }
    // One span per BFS level, parented under the executor's span on this
    // (worker) thread: the per-level breakdown a retained trace shows.
    // Pool-lane work inside the level stays un-parented — lanes run on
    // their own threads without the request context.
    FRAPPE_TRACE_SPAN("analytics.level");
    // Poll the external token once per level as well: small frontiers may
    // run many levels between step-counter flushes.
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      shared.Cancel(kExternal);
      break;
    }

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
      for (NodeId id : frontier_) frontier_bits_.SetSeq(id);
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
    }

    obs::Span level_span(pull_mode ? "analytics.level.pull"
                                   : "analytics.level.push");
    uint32_t next_depth = static_cast<uint32_t>(depth) + 1;
    uint64_t next_count = 0;
    uint64_t next_deg = 0;

    if (!pull_mode) {
      // ---- push (top-down): lanes split the frontier array ----
      size_t lanes = std::min(threads, frontier_count);
      if (metrics != nullptr) {
        metrics->lanes_used = std::max(metrics->lanes_used, lanes);
      }
      size_t chunk = (frontier_count + lanes - 1) / lanes;
      lane_next_.resize(std::max(lane_next_.size(), lanes));
      std::vector<uint64_t> lane_deg(lanes, 0);
      const bool seq = lanes <= 1;

      auto expand_lane = [&](size_t lane) {
        obs::ResourceLaneScope lane_scope(tracker);
        std::vector<NodeId>& next = lane_next_[lane];
        next.clear();
        uint64_t deg = 0;
        LaneBudget budget{&shared, &options, deadline_ptr, tracker};
        size_t begin = lane * chunk;
        size_t end = std::min(begin + chunk, frontier_count);
        for (size_t i = begin; i < end; ++i) {
          if (shared.cancelled.load(std::memory_order_relaxed)) break;
          NodeId node = frontier_[i];
          auto scan = [&](CsrView::Neighbors nbrs) {
            for (size_t j = 0; j < nbrs.count; ++j) {
              if (budget.Step()) return;
              if (typed && !type_allowed(nbrs.begin_types[j])) continue;
              NodeId neighbor = nbrs.begin_nodes[j];
              if (track_member) {
                // Test-before-set keeps the common already-a-member case
                // to a plain load (no lock-prefixed RMW).
                if (seq) {
                  member_.SetSeq(neighbor);
                } else if (!member_.Test(neighbor)) {
                  member_.Set(neighbor);
                }
              }
              bool first = seq ? visited_.TestAndSetSeq(neighbor)
                               : visited_.TestAndSet(neighbor);
              if (first) {
                // Sole winner of the bit: no write race on depths.
                if (depths != nullptr) (*depths)[neighbor] = next_depth;
                deg += scan_degree(neighbor);
                next.push_back(neighbor);
              }
            }
          };
          if (scan_out) scan(csr.Out(node));
          if (scan_in) scan(csr.In(node));
        }
        budget.Flush();
        lane_deg[lane] = deg;
      };

      if (seq) {
        expand_lane(0);
      } else {
        FRAPPE_TRACE_SPAN("analytics.run_lanes");
        pool.RunLanes(lanes, expand_lane);
      }

      // Barrier passed: merge per-lane discoveries into the next frontier.
      // Lane order keeps the merge deterministic for a given thread count;
      // the *set* per level is thread-count independent.
      frontier_.clear();
      for (size_t lane = 0; lane < lanes; ++lane) {
        frontier_.insert(frontier_.end(), lane_next_[lane].begin(),
                         lane_next_[lane].end());
        next_deg += lane_deg[lane];
      }
      next_count = frontier_.size();
      frontier_is_bitmap = false;
    } else {
      // ---- pull (bottom-up): lanes split the node id space ----
      // Each lane owns a contiguous id range, so depth writes and the
      // visited/member updates of a node have exactly one writer; only
      // the 48-bit words straddling a chunk boundary are shared, which the
      // atomic bitmap ops handle. The frontier bitmap is read-only here.
      size_t lanes = std::max<size_t>(1, std::min(threads, upper));
      if (metrics != nullptr) {
        metrics->lanes_used = std::max(metrics->lanes_used, lanes);
      }
      size_t chunk = (upper + lanes - 1) / lanes;
      next_bits_.Reset(upper);
      std::vector<uint64_t> lane_new(lanes, 0);
      std::vector<uint64_t> lane_deg(lanes, 0);
      const bool seq = lanes <= 1;
      constexpr uint64_t kFullWord =
          (uint64_t{1} << VisitedBitmap::kBitsPerWord) - 1;

      auto pull_lane = [&](size_t lane) {
        obs::ResourceLaneScope lane_scope(tracker);
        uint64_t found = 0;
        uint64_t deg = 0;
        LaneBudget budget{&shared, &options, deadline_ptr, tracker};
        NodeId begin = static_cast<NodeId>(lane * chunk);
        NodeId end = static_cast<NodeId>(
            std::min<size_t>(begin + chunk, upper));
        NodeId v = begin;
        while (v < end) {
          if ((v % VisitedBitmap::kBitsPerWord) == 0 &&
              v + VisitedBitmap::kBitsPerWord <= end) {
            // Whole-word skip: 48 ids at a time where every node is
            // already visited (and, for closures, already a member).
            uint64_t done = visited_.WordPayload(v);
            if (track_member) done &= member_.WordPayload(v);
            if (done == kFullWord) {
              v += VisitedBitmap::kBitsPerWord;
              if (shared.cancelled.load(std::memory_order_relaxed)) return;
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
          if (shared.cancelled.load(std::memory_order_relaxed)) return;
          if (hit) {
            if (track_member && !memb) {
              if (seq) {
                member_.SetSeq(v);
              } else {
                member_.Set(v);
              }
            }
            if (!vis) {
              if (seq) {
                visited_.SetSeq(v);
                next_bits_.SetSeq(v);
              } else {
                visited_.Set(v);
                next_bits_.Set(v);
              }
              if (depths != nullptr) (*depths)[v] = next_depth;
              ++found;
              deg += scan_degree(v);
            }
          }
          ++v;
        }
        budget.Flush();
        lane_new[lane] = found;
        lane_deg[lane] = deg;
      };

      if (seq) {
        pull_lane(0);
      } else {
        FRAPPE_TRACE_SPAN("analytics.run_lanes");
        pool.RunLanes(lanes, pull_lane);
      }

      for (size_t lane = 0; lane < lanes; ++lane) {
        next_count += lane_new[lane];
        next_deg += lane_deg[lane];
      }
      std::swap(frontier_bits_, next_bits_);
      frontier_is_bitmap = true;
    }

    frontier_count = next_count;
    frontier_deg = next_deg;
    visited_total += next_count;
    ++depth;
    if (metrics != nullptr) metrics->levels = depth;
  }

  if (metrics != nullptr) {
    metrics->steps = shared.steps.load(std::memory_order_relaxed);
    metrics->scanned_bytes = metrics->steps * CsrView::kBytesPerEdgeScan;
  }
  static obs::Counter& runs_counter =
      obs::Registry::Global().GetCounter("analytics.runs");
  static obs::Counter& steps_counter =
      obs::Registry::Global().GetCounter("analytics.steps");
  static obs::Histogram& levels_hist =
      obs::Registry::Global().GetHistogram("analytics.levels");
  runs_counter.Add();
  steps_counter.Add(shared.steps.load(std::memory_order_relaxed));
  levels_hist.Record(depth);
  return StatusFor(shared.reason.load(std::memory_order_relaxed), options,
                   tracker);
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
