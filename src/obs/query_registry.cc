#include "obs/query_registry.h"

#include <algorithm>
#include <cstdio>

#include "common/string_util.h"
#include "obs/config.h"
#include "obs/fingerprint.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace frappe::obs {
namespace {

Gauge& ActiveGauge() {
  static Gauge& g = Registry::Global().GetGauge("query.active");
  return g;
}

Counter& CancelCounter() {
  static Counter& c = Registry::Global().GetCounter("query.cancelled");
  return c;
}

Counter& WatchdogCancelCounter() {
  static Counter& c =
      Registry::Global().GetCounter("query.watchdog_cancelled");
  return c;
}

}  // namespace

QueryRegistry::QueryRegistry() { ActiveGauge(); }

QueryRegistry& QueryRegistry::Global() {
  static QueryRegistry* instance = new QueryRegistry();
  return *instance;
}

void QueryRegistry::Handle::Release() {
  if (registry_ != nullptr && entry_ != nullptr) {
    registry_->Unregister(entry_->id);
  }
  registry_ = nullptr;
  entry_ = nullptr;
}

QueryRegistry::Handle QueryRegistry::Register(
    uint64_t fingerprint, std::string normalized, std::string raw,
    std::atomic<bool>* external_token, uint64_t trace_hi, uint64_t trace_lo,
    uint64_t queue_wait_us) {
  if (!enabled()) return Handle();
  auto entry = std::make_shared<Entry>();
  entry->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  entry->fingerprint = fingerprint;
  entry->normalized = std::move(normalized);
  entry->raw = std::move(raw);
  entry->start_unix_us = Trace::UnixMicros();
  entry->start_steady = std::chrono::steady_clock::now();
  entry->trace_hi = trace_hi;
  entry->trace_lo = trace_lo;
  entry->queue_wait_us = queue_wait_us;
  entry->cancel_token =
      external_token != nullptr ? external_token : &entry->own_cancel;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.emplace(entry->id, entry);
  }
  ActiveGauge().Add(1);
  return Handle(this, std::move(entry));
}

void QueryRegistry::Unregister(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.erase(id) > 0) ActiveGauge().Add(-1);
}

bool QueryRegistry::Cancel(uint64_t id) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end()) return false;
    entry = it->second;
  }
  entry->cancel_requested.store(true, std::memory_order_relaxed);
  entry->cancel_token->store(true, std::memory_order_relaxed);
  CancelCounter().Add(1);
  LogInfo("registry", "cancel requested for query id=" + std::to_string(id) +
                          " fp=" + FingerprintHex(entry->fingerprint));
  return true;
}

std::vector<QueryRegistry::Snapshot> QueryRegistry::SnapshotAll() const {
  std::vector<std::shared_ptr<Entry>> live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    live.reserve(entries_.size());
    for (const auto& [id, entry] : entries_) live.push_back(entry);
  }
  auto now = std::chrono::steady_clock::now();
  std::vector<Snapshot> out;
  out.reserve(live.size());
  for (const auto& entry : live) {
    Snapshot s;
    s.id = entry->id;
    s.fingerprint = entry->fingerprint;
    s.normalized = entry->normalized;
    s.raw = entry->raw;
    s.start_unix_us = entry->start_unix_us;
    s.elapsed_ms = std::chrono::duration<double, std::milli>(
                       now - entry->start_steady)
                       .count();
    s.steps = entry->progress.steps.load(std::memory_order_relaxed);
    s.db_hits = entry->progress.db_hits.load(std::memory_order_relaxed);
    s.rows = entry->progress.rows.load(std::memory_order_relaxed);
    s.op = entry->progress.op.load(std::memory_order_relaxed);
    s.cancel_requested =
        entry->cancel_requested.load(std::memory_order_relaxed);
    s.trace_hi = entry->trace_hi;
    s.trace_lo = entry->trace_lo;
    s.queue_wait_us = entry->queue_wait_us;
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const Snapshot& a, const Snapshot& b) { return a.id < b.id; });
  return out;
}

size_t QueryRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::string QueryRegistry::DumpJson() const {
  std::vector<Snapshot> snaps = SnapshotAll();
  std::string out = "{\n  \"now_us\": " + std::to_string(Trace::UnixMicros());
  out += ",\n  \"queries\": [";
  bool first = true;
  for (const Snapshot& s : snaps) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"id\": " + std::to_string(s.id);
    out += ", \"fp\": \"" + FingerprintHex(s.fingerprint) + "\"";
    out += ", \"query\": " + JsonQuote(s.normalized);
    out += ", \"raw\": " + JsonQuote(s.raw);
    out += ", \"start_unix_us\": " + std::to_string(s.start_unix_us);
    char elapsed[32];
    std::snprintf(elapsed, sizeof(elapsed), "%.3f", s.elapsed_ms);
    out += ", \"elapsed_ms\": ";
    out += elapsed;
    out += ", \"steps\": " + std::to_string(s.steps);
    out += ", \"db_hits\": " + std::to_string(s.db_hits);
    out += ", \"rows\": " + std::to_string(s.rows);
    out += ", \"operator\": ";
    out += s.op != nullptr ? JsonQuote(s.op) : "null";
    out += ", \"cancel_requested\": ";
    out += s.cancel_requested ? "true" : "false";
    out += ", \"trace_id\": \"" + TraceIdHex(s.trace_hi, s.trace_lo) + "\"";
    out += ", \"queue_wait_us\": " + std::to_string(s.queue_wait_us);
    out += "}";
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

void QueryRegistry::StartWatchdog(uint64_t threshold_ms, uint64_t interval_ms,
                                  WatchdogAction action) {
  StopWatchdog();
  if (threshold_ms == 0) return;
  if (interval_ms == 0) interval_ms = 250;
  watchdog_stop_.store(false, std::memory_order_relaxed);
  watchdog_ = std::thread(
      [this, threshold_ms, interval_ms, action] {
        WatchdogLoop(threshold_ms, interval_ms, action);
      });
}

void QueryRegistry::StopWatchdog() {
  if (!watchdog_.joinable()) return;
  watchdog_stop_.store(true, std::memory_order_relaxed);
  watchdog_.join();
}

bool QueryRegistry::MaybeStartWatchdogFromEnv() {
  const RuntimeConfig& config = Config();
  if (config.stuck_query_ms == 0) return false;
  const WatchdogAction action = config.stuck_query_cancel
                                    ? WatchdogAction::kCancel
                                    : WatchdogAction::kWarn;
  StartWatchdog(config.stuck_query_ms, 250, action);
  LogInfo("watchdog",
          "stuck-query watchdog armed at " +
              std::to_string(config.stuck_query_ms) + "ms action=" +
              (action == WatchdogAction::kCancel ? "cancel" : "warn"));
  return true;
}

void QueryRegistry::WatchdogLoop(uint64_t threshold_ms, uint64_t interval_ms,
                                 WatchdogAction action) {
  while (!watchdog_stop_.load(std::memory_order_relaxed)) {
    std::vector<std::shared_ptr<Entry>> live;
    {
      std::lock_guard<std::mutex> lock(mu_);
      live.reserve(entries_.size());
      for (const auto& [id, entry] : entries_) live.push_back(entry);
    }
    auto now = std::chrono::steady_clock::now();
    for (const auto& entry : live) {
      double elapsed_ms = std::chrono::duration<double, std::milli>(
                              now - entry->start_steady)
                              .count();
      if (elapsed_ms < static_cast<double>(threshold_ms)) continue;
      // One warning per query, not one per scan.
      bool expected = false;
      if (!entry->stuck_warned.compare_exchange_strong(
              expected, true, std::memory_order_relaxed)) {
        continue;
      }
      const char* op = entry->progress.op.load(std::memory_order_relaxed);
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.0f", elapsed_ms);
      LogWarn("watchdog",
              "stuck query id=" + std::to_string(entry->id) +
                  " fp=" + FingerprintHex(entry->fingerprint) +
                  " elapsed_ms=" + buf + " steps=" +
                  std::to_string(entry->progress.steps.load(
                      std::memory_order_relaxed)) +
                  " operator=" + (op != nullptr ? op : "?") +
                  " query=" + entry->normalized);
      if (action == WatchdogAction::kCancel) {
        // Enforcement: trip the same token /debug/cancel would. The
        // stuck_warned CAS above already guarantees once-per-query.
        entry->cancel_requested.store(true, std::memory_order_relaxed);
        entry->cancel_token->store(true, std::memory_order_relaxed);
        WatchdogCancelCounter().Add(1);
        LogWarn("watchdog", "cancelled stuck query id=" +
                                std::to_string(entry->id) +
                                " (FRAPPE_STUCK_QUERY_ACTION=cancel)");
      }
    }
    // Sleep in small slices so StopWatchdog returns promptly.
    uint64_t slept = 0;
    while (slept < interval_ms &&
           !watchdog_stop_.load(std::memory_order_relaxed)) {
      uint64_t slice = std::min<uint64_t>(50, interval_ms - slept);
      std::this_thread::sleep_for(std::chrono::milliseconds(slice));
      slept += slice;
    }
  }
}

}  // namespace frappe::obs
