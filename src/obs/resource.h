// Per-query resource attribution: thread-CPU time, allocation count/bytes,
// live/peak heap bytes, and bytes scanned, for one query.
//
// Model (mirrors trace.h): a query installs a ResourceScope around its whole
// lifetime, which publishes a ResourceTracker through a thread-local slot.
// The global operator new/delete replacements (resource.cc) consult that slot
// on every allocation — one TLS load and a null check when no query is being
// tracked. When one is, the hook accumulates into plain (non-atomic)
// thread-local delta counters and only folds them into the tracker's atomics
// when the thread's live-byte delta crosses a flush threshold or its scope
// closes, which keeps per-allocation atomics off the hot path. The
// threshold shrinks to budget/4 when a memory budget is set, so
// enforcement stays timely.
//
// The tracker also carries the per-query memory budget (FRAPPE_QUERY_MEM_BYTES):
// the executor polls OverBudget() on its 1024-step cadence and fails the
// query with kResourceExhausted instead of letting it OOM the process.

#ifndef FRAPPE_OBS_RESOURCE_H_
#define FRAPPE_OBS_RESOURCE_H_

#include <atomic>
#include <cstdint>

namespace frappe {
namespace obs {

class ResourceTracker {
 public:
  ResourceTracker() = default;
  ResourceTracker(const ResourceTracker&) = delete;
  ResourceTracker& operator=(const ResourceTracker&) = delete;

  // --- allocation seam (called from operator new/delete) ---------------
  // Bytes are malloc_usable_size() on both sides, so frees are symmetric
  // with allocations even when the allocator rounds sizes up.
  void OnAlloc(uint64_t bytes) {
    alloc_count_.fetch_add(1, std::memory_order_relaxed);
    alloc_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    int64_t live = live_bytes_.fetch_add(static_cast<int64_t>(bytes),
                                         std::memory_order_relaxed) +
                   static_cast<int64_t>(bytes);
    int64_t peak = peak_bytes_.load(std::memory_order_relaxed);
    while (live > peak && !peak_bytes_.compare_exchange_weak(
                              peak, live, std::memory_order_relaxed)) {
    }
  }
  // Live bytes can go negative when a query frees memory allocated before
  // its scope opened (caches, previous results); peak_bytes() clamps at 0.
  void OnFree(uint64_t bytes) {
    freed_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    live_bytes_.fetch_sub(static_cast<int64_t>(bytes),
                          std::memory_order_relaxed);
  }

  // Folds a thread's buffered deltas in at once (the allocation hook's
  // flush path). `live_peak` is the highest value the thread's buffered
  // live delta reached since its last flush — an alloc+free pair nets a
  // zero delta but still raised live in between, and the peak must see it.
  void AddAllocDeltas(uint64_t count, uint64_t alloc_bytes,
                      uint64_t freed_bytes, int64_t live_delta,
                      int64_t live_peak) {
    if (count != 0) alloc_count_.fetch_add(count, std::memory_order_relaxed);
    if (alloc_bytes != 0) {
      alloc_bytes_.fetch_add(alloc_bytes, std::memory_order_relaxed);
    }
    if (freed_bytes != 0) {
      freed_bytes_.fetch_add(freed_bytes, std::memory_order_relaxed);
    }
    int64_t base =
        live_bytes_.fetch_add(live_delta, std::memory_order_relaxed);
    int64_t grew = live_peak > live_delta ? live_peak : live_delta;
    if (grew > 0) {
      int64_t candidate = base + grew;
      int64_t peak = peak_bytes_.load(std::memory_order_relaxed);
      while (candidate > peak &&
             !peak_bytes_.compare_exchange_weak(peak, candidate,
                                                std::memory_order_relaxed)) {
      }
    }
  }

  void AddCpuNs(uint64_t ns) {
    cpu_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  void AddScannedBytes(uint64_t bytes) {
    scanned_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }

  // --- budget ----------------------------------------------------------
  void set_budget_bytes(uint64_t bytes) { budget_bytes_ = bytes; }
  uint64_t budget_bytes() const { return budget_bytes_; }
  bool OverBudget() const {
    return budget_bytes_ > 0 &&
           live_bytes_.load(std::memory_order_relaxed) >
               static_cast<int64_t>(budget_bytes_);
  }

  // --- snapshots (relaxed reads; exact once all scopes have closed) ----
  uint64_t cpu_us() const {
    return cpu_ns_.load(std::memory_order_relaxed) / 1000;
  }
  uint64_t alloc_count() const {
    return alloc_count_.load(std::memory_order_relaxed);
  }
  uint64_t alloc_bytes() const {
    return alloc_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t freed_bytes() const {
    return freed_bytes_.load(std::memory_order_relaxed);
  }
  int64_t live_bytes() const {
    return live_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t peak_bytes() const {
    int64_t peak = peak_bytes_.load(std::memory_order_relaxed);
    return peak > 0 ? static_cast<uint64_t>(peak) : 0;
  }
  uint64_t scanned_bytes() const {
    return scanned_bytes_.load(std::memory_order_relaxed);
  }

  // The tracker installed on the calling thread, or nullptr.
  static ResourceTracker* Current();

  // Process-wide kill switch, checked at scope install (not per allocation):
  // with accounting off a ResourceScope is inert and the allocation hook
  // stays on its one-TLS-load fast path. Defaults to enabled.
  static void SetEnabled(bool enabled);
  static bool Enabled();

 private:
  std::atomic<uint64_t> cpu_ns_{0};
  std::atomic<uint64_t> alloc_count_{0};
  std::atomic<uint64_t> alloc_bytes_{0};
  std::atomic<uint64_t> freed_bytes_{0};
  std::atomic<int64_t> live_bytes_{0};
  std::atomic<int64_t> peak_bytes_{0};
  std::atomic<uint64_t> scanned_bytes_{0};
  uint64_t budget_bytes_ = 0;  // 0 = unlimited; set before the scope opens
};

// RAII install of a tracker on the current thread for the life of a query.
// Captures CLOCK_THREAD_CPUTIME_ID at open and folds the delta into the
// tracker at close (or at SyncCpu(), for reading totals mid-scope). Inert
// when accounting is disabled or another tracker is already installed.
class ResourceScope {
 public:
  explicit ResourceScope(ResourceTracker* tracker);
  ~ResourceScope();
  ResourceScope(const ResourceScope&) = delete;
  ResourceScope& operator=(const ResourceScope&) = delete;

  // Flushes this thread's CPU delta so tracker reads are current, and
  // re-bases the clock so the remainder is not double counted at close.
  void SyncCpu();
  bool active() const { return active_; }

 private:
  ResourceTracker* tracker_ = nullptr;
  ResourceTracker* prev_ = nullptr;
  uint64_t cpu_base_ns_ = 0;
  bool active_ = false;
};

// Current thread CPU time (CLOCK_THREAD_CPUTIME_ID), nanoseconds.
uint64_t ThreadCpuNs();

}  // namespace obs
}  // namespace frappe

#endif  // FRAPPE_OBS_RESOURCE_H_
