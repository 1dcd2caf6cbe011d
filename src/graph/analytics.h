#ifndef FRAPPE_GRAPH_ANALYTICS_H_
#define FRAPPE_GRAPH_ANALYTICS_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/status.h"
#include "graph/csr_view.h"
#include "graph/traversal.h"

namespace frappe::graph::analytics {

// Direction-optimizing frontier analytics over the packed CsrView arrays —
// the PGX/LLAMA-style fast path the paper points at in Section 7, with the
// Beamer-style push/pull switch layered on top. The kernels are
// level-synchronous and run on the calling thread; each level runs in one
// of two directions:
//
//   push (top-down)   the frontier is a flat NodeId array; each frontier
//                     node's edges are scanned and discoveries marked in
//                     the VisitedBitmap. Cheap while the frontier is sparse.
//
//   pull (bottom-up)  the frontier is a bitmap; every still-unvisited node
//                     scans its reverse edges (the lazily-built transpose
//                     CSR), stopping at the first parent found in the
//                     frontier. Wins on dense levels, where push would
//                     re-scan a majority of already-visited targets and the
//                     early exit skips most of each in-edge bucket.
//
// The per-level choice is heuristic (see Options::alpha / beta) and is
// recorded in Metrics for PROFILE / bench output. Results are identical
// for every direction policy: the newly-visited set of a level is
// frontier-neighbors minus already-visited, independent of scan direction.

// Reusable visited set: one bit per NodeId, cleared in O(1) by bumping an
// epoch. Each 64-bit word packs 48 payload bits with a 16-bit epoch tag, so
// a word whose tag is stale reads as all-zeros and is refreshed by the
// first write — no O(n) clear between queries. Single-writer: one thread
// may use a bitmap at a time.
class VisitedBitmap {
 public:
  static constexpr uint32_t kBitsPerWord = 48;

  // Prepares the bitmap for ids in [0, universe): reuses the allocation and
  // bumps the epoch; reallocates (or hard-clears on epoch wraparound) only
  // when needed.
  void Reset(size_t universe);

  // Sets the bit; returns true when it was not set before.
  bool TestAndSet(NodeId id) {
    uint64_t& word = words_[id / kBitsPerWord];
    uint64_t bit = uint64_t{1} << (id % kBitsPerWord);
    if ((word >> kBitsPerWord) != epoch_) {
      word = (uint64_t{epoch_} << kBitsPerWord) | bit;
      return true;
    }
    if ((word & bit) != 0) return false;
    word |= bit;
    return true;
  }
  void Set(NodeId id) { TestAndSet(id); }

  bool Test(NodeId id) const {
    return (WordPayload(id) & (uint64_t{1} << (id % kBitsPerWord))) != 0;
  }

  size_t universe() const { return size_; }

  // Payload bits of the word containing `id` (0 when the word's epoch is
  // stale). Lets dense scans skip 48 ids at a time when all are set.
  uint64_t WordPayload(NodeId id) const {
    uint64_t cur = words_[id / kBitsPerWord];
    if ((cur >> kBitsPerWord) != epoch_) return 0;
    return cur & ((uint64_t{1} << kBitsPerWord) - 1);
  }

  // Appends every set id in ascending order.
  void AppendSetBits(std::vector<NodeId>* out) const;

 private:
  std::unique_ptr<uint64_t[]> words_;
  size_t capacity_words_ = 0;
  size_t size_ = 0;
  uint16_t epoch_ = 0;
};

// Per-level traversal direction policy.
enum class DirectionMode : uint8_t {
  kAuto,      // Beamer-style heuristic switching (the default)
  kPushOnly,  // always top-down (the pre-direction-optimizing kernel)
  kPullOnly,  // always bottom-up (reference / testing)
};

struct Options {
  // Ignored: the kernel runs on the calling thread. Kept because the
  // benchmark under perfbench/ still sets it.
  size_t threads = 1;
  size_t max_depth = std::numeric_limits<size_t>::max();
  // Budget over edge expansions, mirroring query::ExecOptions: on breach
  // the kernel returns ResourceExhausted / DeadlineExceeded. Budgets are
  // polled every few thousand edges, so a breach is detected within one
  // poll interval.
  uint64_t max_steps = 0;   // 0 = unlimited
  int64_t deadline_ms = 0;  // 0 = none
  // External cancel token, polled on the same cadence as the budgets (in
  // both directions) and once per level; reading true aborts the traversal
  // with Status::Cancelled. The kernel never writes the token.
  std::atomic<bool>* cancel = nullptr;
  // Target-aware early exit: when set and non-empty, the run stops at the
  // end of the first level after which every listed node is in its result
  // (a closure member for Closure, visited otherwise). The result is then
  // partial but exact for the listed nodes; Metrics::stopped_early says so.
  const std::vector<NodeId>* stop_targets = nullptr;

  // Direction policy. kAuto compares per-level cost estimates — push ~
  // frontier edge sum, pull ~ unvisited nodes x expected in-edge probes
  // until a matching frontier parent — and takes pull when its estimate is
  // below alpha x push (alpha > 1 credits pull's sequential, read-mostly,
  // early-exiting scan; see analytics.cc for the full model). beta is
  // hysteresis: once in pull mode, stay while the frontier still holds >=
  // universe/beta nodes even if the estimate flips marginally, avoiding
  // frontier-representation thrash. kPushOnly reproduces the previous
  // kernel's behavior exactly.
  DirectionMode mode = DirectionMode::kAuto;
  double alpha = 1.5;
  double beta = 24.0;
};

struct Metrics {
  uint64_t steps = 0;   // edges scanned (both directions count)
  size_t levels = 0;    // BFS levels expanded
  size_t frontier_peak = 0;
  // Observability detail (PROFILE): frontier size at the start of each
  // expanded level (direction independent). All fields are cleared at
  // traversal entry, so a Metrics struct can be reused across runs without
  // stale accumulation.
  std::vector<uint64_t> frontier_sizes;
  // Parallel to frontier_sizes: 1 when the level ran bottom-up (pull over
  // the reverse CSR), 0 top-down; and 1 when the level consumed a bitmap
  // frontier, 0 a flat array.
  std::vector<uint8_t> level_pull;
  std::vector<uint8_t> level_bitmap;
  // Number of push<->pull transitions across the run.
  size_t direction_switches = 0;
  // 1 once a level is expanded, else 0. Kept for the benchmark's
  // graph.analytics.lanes_used metric.
  size_t lanes_used = 0;
  // Bytes of packed CSR adjacency the run read: steps (edge scans) times
  // the per-edge scan width (CsrView::kBytesPerEdgeScan). Feeds the
  // per-query scanned_bytes attribution in ExecStats.
  uint64_t scanned_bytes = 0;
  // True when Options::stop_targets ended the run while its frontier was
  // still non-empty and max_depth not yet reached.
  bool stopped_early = false;
};

inline constexpr uint32_t kUnreachedDepth =
    std::numeric_limits<uint32_t>::max();

// Scratch-owning engine: the bitmaps and frontier buffers persist across
// calls, so repeated queries pay no per-query allocation beyond frontier
// growth. One engine must not be used from two threads at once.
class FrontierEngine {
 public:
  // Multi-source transitive closure: every node reached over >= 1 matching
  // edge within max_depth steps — seeds included only when re-reached
  // through a cycle. Sorted ascending; semantics identical to
  // graph::TransitiveClosure.
  Result<std::vector<NodeId>> Closure(const CsrView& csr,
                                      const std::vector<NodeId>& seeds,
                                      const EdgeFilter& filter,
                                      const Options& options = {},
                                      Metrics* metrics = nullptr);

  // Multi-source reachability: every node reachable over >= 0 edges (live
  // seeds always included). Sorted ascending.
  Result<std::vector<NodeId>> Reachable(const CsrView& csr,
                                        const std::vector<NodeId>& seeds,
                                        const EdgeFilter& filter,
                                        const Options& options = {},
                                        Metrics* metrics = nullptr);

  // Level-synchronous BFS: minimal depth per node id (kUnreachedDepth when
  // unreached), over the whole id universe of the view.
  Result<std::vector<uint32_t>> BfsDepths(const CsrView& csr,
                                          const std::vector<NodeId>& seeds,
                                          const EdgeFilter& filter,
                                          const Options& options = {},
                                          Metrics* metrics = nullptr);

 private:
  Status Run(const CsrView& csr, const std::vector<NodeId>& seeds,
             const EdgeFilter& filter, const Options& options,
             bool track_member, std::vector<uint32_t>* depths,
             Metrics* metrics);

  VisitedBitmap visited_;
  VisitedBitmap member_;
  std::vector<NodeId> frontier_;
  VisitedBitmap frontier_bits_;
  VisitedBitmap next_bits_;
  std::vector<NodeId> next_;
};

// Convenience wrappers over a thread-local FrontierEngine (scratch reuse
// across calls without threading an engine through every call site).
Result<std::vector<NodeId>> ParallelClosure(const CsrView& csr,
                                            const std::vector<NodeId>& seeds,
                                            const EdgeFilter& filter,
                                            const Options& options = {},
                                            Metrics* metrics = nullptr);
Result<std::vector<NodeId>> ParallelReachable(
    const CsrView& csr, const std::vector<NodeId>& seeds,
    const EdgeFilter& filter, const Options& options = {},
    Metrics* metrics = nullptr);
Result<std::vector<uint32_t>> ParallelBfsDepths(
    const CsrView& csr, const std::vector<NodeId>& seeds,
    const EdgeFilter& filter, const Options& options = {},
    Metrics* metrics = nullptr);

// --- Reachability on the condensation (see graph::Condensation) ---

// The condensation of `csr` under `types` (any order; empty: every type),
// cached on the view: built on the first call for that type set, returned
// as is afterwards. The build runs an iterative Tarjan over the matching
// out-edges, then collects the component DAG, under `options`' budgets
// polled at the kernel's cadence. metrics->steps counts its edge scans
// (every live edge twice, once in Tarjan and once collecting the DAG,
// whatever the type set) and stays 0 when the condensation was already
// built. An aborted build caches nothing. Returns nullptr,
// building nothing, when the view already holds
// CsrView::kMaxCondensations other type sets.
Result<const Condensation*> Condense(const CsrView& csr,
                                     std::vector<TypeId> types,
                                     const Options& options = {},
                                     Metrics* metrics = nullptr);

// The condensation of `csr` under `types` when one is built, else nullptr.
const Condensation* FindCondensation(const CsrView& csr,
                                     std::vector<TypeId> types);

// Whether component `from` reaches component `to` on the DAG, for
// from > to: a depth-first search that skips every component below `to`
// (ids fall along DAG edges) and stops once `to` is reached.
// metrics->steps counts the DAG edges it scanned.
Result<bool> DagReaches(const Condensation& condensation, uint32_t from,
                        uint32_t to, const Options& options = {},
                        Metrics* metrics = nullptr);

// Unbounded transitive closure of `seed` along `direction` (kOut or kIn):
// the members of every component a level-synchronous search reaches on
// the DAG, plus the seed's own component when it is cyclic. Sorted
// ascending; the same set as Closure without max_depth. metrics->steps
// counts DAG edge scans and frontier_sizes the components per level.
Result<std::vector<NodeId>> CondensedClosure(const Condensation& condensation,
                                             NodeId seed, Direction direction,
                                             const Options& options = {},
                                             Metrics* metrics = nullptr);

}  // namespace frappe::graph::analytics

#endif  // FRAPPE_GRAPH_ANALYTICS_H_
