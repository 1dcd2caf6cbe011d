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

// Frontier analytics over the packed CsrView arrays — the PGX/LLAMA-style
// fast path the paper points at in Section 7. The kernels are
// level-synchronous and run on the calling thread: each level scans the
// edges of every node in the frontier (a flat NodeId array) along the
// filter's direction and marks discoveries in a VisitedBitmap, so each
// reached node's edges are read once. An out-direction run never touches
// the reverse CSR.

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
    uint64_t word = words_[id / kBitsPerWord];
    return (word >> kBitsPerWord) == epoch_ &&
           (word & (uint64_t{1} << (id % kBitsPerWord))) != 0;
  }

  size_t universe() const { return size_; }

  // Appends every set id in ascending order.
  void AppendSetBits(std::vector<NodeId>* out) const;

 private:
  std::unique_ptr<uint64_t[]> words_;
  size_t capacity_words_ = 0;
  size_t size_ = 0;
  uint16_t epoch_ = 0;
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
  // External cancel token, polled on the same cadence as the budgets and
  // once per level; reading true aborts the traversal with
  // Status::Cancelled. The kernel never writes the token.
  std::atomic<bool>* cancel = nullptr;
  // Target-aware early exit: when set and non-empty, the run stops at the
  // end of the first level after which every listed node is in the
  // closure. The result is then partial but exact for the listed nodes;
  // Metrics::stopped_early says so.
  const std::vector<NodeId>* stop_targets = nullptr;
};

struct Metrics {
  uint64_t steps = 0;   // edges scanned (in and out, for kBoth)
  size_t levels = 0;    // BFS levels expanded
  size_t frontier_peak = 0;
  // Observability detail (PROFILE): frontier size at the start of each
  // expanded level. All fields are cleared at traversal entry, so a Metrics
  // struct can be reused across runs without stale accumulation.
  std::vector<uint64_t> frontier_sizes;
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

 private:
  VisitedBitmap visited_;
  VisitedBitmap member_;
  std::vector<NodeId> frontier_;
  std::vector<NodeId> next_;
};

// Closure on a thread-local FrontierEngine (scratch reuse across calls
// without threading an engine through every call site).
Result<std::vector<NodeId>> ParallelClosure(const CsrView& csr,
                                            const std::vector<NodeId>& seeds,
                                            const EdgeFilter& filter,
                                            const Options& options = {},
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

// Unbounded multi-source transitive closure of `seeds` along `direction`
// (kOut or kIn): the members of every component a level-synchronous
// search from the seeds' components reaches over >= 1 DAG edge, plus each
// cyclic seed component. Sorted ascending; the same set as Closure
// without max_depth: ids past the condensed view are skipped, a dead id is
// a component with no DAG edge, and duplicates collapse. metrics->steps
// counts DAG edge scans and frontier_sizes the components per level.
Result<std::vector<NodeId>> CondensedClosure(const Condensation& condensation,
                                             const std::vector<NodeId>& seeds,
                                             Direction direction,
                                             const Options& options = {},
                                             Metrics* metrics = nullptr);

}  // namespace frappe::graph::analytics

#endif  // FRAPPE_GRAPH_ANALYTICS_H_
