#ifndef FRAPPE_OBS_QUERY_REGISTRY_H_
#define FRAPPE_OBS_QUERY_REGISTRY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace frappe::obs {

// Live progress counters published by the executor on its existing
// kDeadlineCheckInterval cadence (and read by /debug/queryz and the
// stuck-query watchdog). All relaxed: the values are monotonic progress
// telemetry, not synchronization.
struct QueryProgress {
  std::atomic<uint64_t> steps{0};
  std::atomic<uint64_t> db_hits{0};
  std::atomic<uint64_t> rows{0};
  // Current plan operator, a string literal ("executor.match", ...).
  std::atomic<const char*> op{nullptr};
};

// In-flight query table. Session::Run registers an entry before executing
// and removes it (via the RAII Handle) when the query finishes on any path.
// The table itself is a small mutex-guarded map — registration is twice per
// query, not per tuple — while the hot per-step progress/cancel state lives
// in lock-free atomics inside the entry.
class QueryRegistry {
 public:
  struct Entry {
    uint64_t id = 0;
    uint64_t fingerprint = 0;
    std::string normalized;  // fingerprint-normalized text
    std::string raw;         // query as typed
    uint64_t start_unix_us = 0;
    std::chrono::steady_clock::time_point start_steady;
    // Request identity, set at registration (immutable after): the 128-bit
    // trace id and how long the query waited in the admission queue.
    uint64_t trace_hi = 0;
    uint64_t trace_lo = 0;
    uint64_t queue_wait_us = 0;
    QueryProgress progress;
    // Cancellation: `cancel_token` points at the caller-supplied token when
    // one was passed through ExecOptions, else at `own_cancel`. Cancel(id)
    // stores true through the pointer; the executor polls it.
    std::atomic<bool> own_cancel{false};
    std::atomic<bool>* cancel_token = nullptr;
    std::atomic<bool> cancel_requested{false};  // Cancel(id) was called
    std::atomic<bool> stuck_warned{false};      // watchdog warned already
  };

  // Read-only copy served by /debug/queryz and the watchdog.
  struct Snapshot {
    uint64_t id = 0;
    uint64_t fingerprint = 0;
    std::string normalized;
    std::string raw;
    uint64_t start_unix_us = 0;
    double elapsed_ms = 0;
    uint64_t steps = 0;
    uint64_t db_hits = 0;
    uint64_t rows = 0;
    const char* op = nullptr;
    bool cancel_requested = false;
    uint64_t trace_hi = 0;
    uint64_t trace_lo = 0;
    uint64_t queue_wait_us = 0;
  };

  // RAII registration: unregisters on destruction. A default-constructed /
  // moved-from Handle (or one from a disabled registry) holds no entry.
  class Handle {
   public:
    Handle() = default;
    Handle(QueryRegistry* registry, std::shared_ptr<Entry> entry)
        : registry_(registry), entry_(std::move(entry)) {}
    ~Handle() { Release(); }
    Handle(Handle&& other) noexcept
        : registry_(other.registry_), entry_(std::move(other.entry_)) {
      other.registry_ = nullptr;
      other.entry_ = nullptr;
    }
    Handle& operator=(Handle&& other) noexcept {
      if (this != &other) {
        Release();
        registry_ = other.registry_;
        entry_ = std::move(other.entry_);
        other.registry_ = nullptr;
        other.entry_ = nullptr;
      }
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

    Entry* entry() const { return entry_.get(); }

   private:
    void Release();
    QueryRegistry* registry_ = nullptr;
    std::shared_ptr<Entry> entry_;
  };

  // Registers the `query.active` gauge (frappe_query_active on /metrics).
  QueryRegistry();

  static QueryRegistry& Global();

  // Registers an in-flight query. `external_token` is the caller's cancel
  // token from ExecOptions (may be null — the entry then owns its token).
  // The trailing trace identity (trace id + admission queue wait) is
  // snapshotted into the entry for /debug/queryz. Returns an empty Handle
  // when the registry is disabled.
  Handle Register(uint64_t fingerprint, std::string normalized,
                  std::string raw, std::atomic<bool>* external_token,
                  uint64_t trace_hi = 0, uint64_t trace_lo = 0,
                  uint64_t queue_wait_us = 0);

  // Trips the cancel token of query `id`. Returns false if no such
  // in-flight query exists.
  bool Cancel(uint64_t id);

  std::vector<Snapshot> SnapshotAll() const;
  size_t size() const;
  // {"now_us": N, "queries": [{...}, ...]}
  std::string DumpJson() const;

  // Kill switch for the overhead benchmark A/B lanes.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Stuck-query watchdog: a background thread that scans the table every
  // `interval_ms` and, per query whose elapsed time exceeds `threshold_ms`,
  // either logs one warning (kWarn) or additionally trips the query's
  // cancel token (kCancel — enforcement, counted in
  // query.watchdog_cancelled). Both act once per query, not once per scan.
  // MaybeStartWatchdogFromEnv takes the threshold and action from
  // Config() (FRAPPE_STUCK_QUERY_MS, FRAPPE_STUCK_QUERY_ACTION); an
  // unset or invalid threshold leaves the watchdog off.
  enum class WatchdogAction { kWarn, kCancel };
  void StartWatchdog(uint64_t threshold_ms, uint64_t interval_ms = 250,
                     WatchdogAction action = WatchdogAction::kWarn);
  void StopWatchdog();
  bool MaybeStartWatchdogFromEnv();
  bool watchdog_running() const { return watchdog_.joinable(); }

  ~QueryRegistry() { StopWatchdog(); }

 private:
  void Unregister(uint64_t id);
  void WatchdogLoop(uint64_t threshold_ms, uint64_t interval_ms,
                    WatchdogAction action);

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<Entry>> entries_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<bool> enabled_{true};

  std::thread watchdog_;
  std::atomic<bool> watchdog_stop_{false};
};

}  // namespace frappe::obs

#endif  // FRAPPE_OBS_QUERY_REGISTRY_H_
