#include "obs/fingerprint.h"

#include <algorithm>
#include <cstdio>

#include "common/string_util.h"

namespace frappe::obs {

uint64_t Fingerprint64(std::string_view text) {
  // FNV-1a 64-bit.
  uint64_t hash = 0xcbf29ce484222325ull;
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string FingerprintHex(uint64_t fingerprint) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buf;
}

// ---------------------------------------------------------------------------
// QueryStats

QueryStats& QueryStats::Global() {
  static QueryStats* table = new QueryStats();  // never destroyed
  return *table;
}

void QueryStats::Entry::Record(bool ok, uint64_t latency, uint64_t row_count,
                               uint64_t hit_count) {
  calls.fetch_add(1, std::memory_order_relaxed);
  if (!ok) errors.fetch_add(1, std::memory_order_relaxed);
  total_latency_us.fetch_add(latency, std::memory_order_relaxed);
  rows.fetch_add(row_count, std::memory_order_relaxed);
  db_hits.fetch_add(hit_count, std::memory_order_relaxed);
  latency_us.Record(latency);
  uint64_t seen = max_latency_us.load(std::memory_order_relaxed);
  while (latency > seen &&
         !max_latency_us.compare_exchange_weak(seen, latency,
                                               std::memory_order_relaxed)) {
  }
}

void QueryStats::Entry::RecordTimeline(uint64_t queue_us, uint64_t parse_us,
                                       uint64_t plan_us, uint64_t exec_us) {
  queue_us_total.fetch_add(queue_us, std::memory_order_relaxed);
  parse_us_total.fetch_add(parse_us, std::memory_order_relaxed);
  plan_us_total.fetch_add(plan_us, std::memory_order_relaxed);
  exec_us_total.fetch_add(exec_us, std::memory_order_relaxed);
}

void QueryStats::Entry::RecordResources(uint64_t cpu_us,
                                        uint64_t alloc_bytes,
                                        uint64_t peak_bytes) {
  cpu_us_total.fetch_add(cpu_us, std::memory_order_relaxed);
  alloc_bytes_total.fetch_add(alloc_bytes, std::memory_order_relaxed);
  uint64_t seen = peak_bytes_max.load(std::memory_order_relaxed);
  while (peak_bytes > seen &&
         !peak_bytes_max.compare_exchange_weak(seen, peak_bytes,
                                               std::memory_order_relaxed)) {
  }
}

QueryStats::Entry& QueryStats::GetOrCreate(uint64_t fingerprint,
                                           std::string_view normalized) {
  Shard& shard = shards_[fingerprint % kTableShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(fingerprint);
  if (it == shard.entries.end()) {
    auto entry = std::make_unique<Entry>();
    entry->fingerprint = fingerprint;
    entry->normalized = std::string(normalized);
    it = shard.entries.emplace(fingerprint, std::move(entry)).first;
  }
  return *it->second;
}

std::vector<QueryStats::Snapshot> QueryStats::SnapshotAll() const {
  std::vector<Snapshot> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [fp, entry] : shard.entries) {
      Snapshot s;
      s.fingerprint = entry->fingerprint;
      s.normalized = entry->normalized;
      s.calls = entry->calls.load(std::memory_order_relaxed);
      s.errors = entry->errors.load(std::memory_order_relaxed);
      s.total_latency_us =
          entry->total_latency_us.load(std::memory_order_relaxed);
      s.max_latency_us = entry->max_latency_us.load(std::memory_order_relaxed);
      s.rows = entry->rows.load(std::memory_order_relaxed);
      s.db_hits = entry->db_hits.load(std::memory_order_relaxed);
      s.queue_us_total = entry->queue_us_total.load(std::memory_order_relaxed);
      s.parse_us_total = entry->parse_us_total.load(std::memory_order_relaxed);
      s.plan_us_total = entry->plan_us_total.load(std::memory_order_relaxed);
      s.exec_us_total = entry->exec_us_total.load(std::memory_order_relaxed);
      s.cpu_us_total = entry->cpu_us_total.load(std::memory_order_relaxed);
      s.alloc_bytes_total =
          entry->alloc_bytes_total.load(std::memory_order_relaxed);
      s.peak_bytes_max = entry->peak_bytes_max.load(std::memory_order_relaxed);
      s.latency = entry->latency_us.Snap();
      out.push_back(std::move(s));
    }
  }
  return out;
}

std::vector<QueryStats::Snapshot> QueryStats::Top(size_t n) const {
  std::vector<Snapshot> all = SnapshotAll();
  std::sort(all.begin(), all.end(),
            [](const Snapshot& a, const Snapshot& b) {
              if (a.total_latency_us != b.total_latency_us) {
                return a.total_latency_us > b.total_latency_us;
              }
              return a.fingerprint < b.fingerprint;  // deterministic ties
            });
  if (n > 0 && all.size() > n) all.resize(n);
  return all;
}

std::string QueryStats::DumpJson(size_t top_n) const {
  std::vector<Snapshot> top = Top(top_n);
  std::string out = "[";
  for (size_t i = 0; i < top.size(); ++i) {
    const Snapshot& s = top[i];
    uint64_t avg = s.calls == 0 ? 0 : s.total_latency_us / s.calls;
    out += std::string(i == 0 ? "" : ",") + "\n    {\"fp\": " +
           JsonQuote(FingerprintHex(s.fingerprint)) +
           ", \"query\": " + JsonQuote(s.normalized) +
           ", \"calls\": " + std::to_string(s.calls) +
           ", \"errors\": " + std::to_string(s.errors) +
           ", \"total_latency_us\": " + std::to_string(s.total_latency_us) +
           ", \"avg_latency_us\": " + std::to_string(avg) +
           ", \"max_latency_us\": " + std::to_string(s.max_latency_us) +
           ", \"p99_latency_us\": " +
           std::to_string(
               static_cast<uint64_t>(s.latency.Quantile(0.99))) +
           ", \"rows\": " + std::to_string(s.rows) +
           ", \"db_hits\": " + std::to_string(s.db_hits) +
           ", \"cpu_us_total\": " + std::to_string(s.cpu_us_total) +
           ", \"alloc_bytes_total\": " +
           std::to_string(s.alloc_bytes_total) +
           ", \"peak_bytes\": " + std::to_string(s.peak_bytes_max) +
           ", \"timeline\": {\"queue_us\": " +
           std::to_string(s.calls == 0 ? 0 : s.queue_us_total / s.calls) +
           ", \"parse_us\": " +
           std::to_string(s.calls == 0 ? 0 : s.parse_us_total / s.calls) +
           ", \"plan_us\": " +
           std::to_string(s.calls == 0 ? 0 : s.plan_us_total / s.calls) +
           ", \"exec_us\": " +
           std::to_string(s.calls == 0 ? 0 : s.exec_us_total / s.calls) +
           "}}";
  }
  out += top.empty() ? "]" : "\n  ]";
  return out;
}

size_t QueryStats::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.entries.size();
  }
  return total;
}

uint64_t QueryStats::ApproxBytes() const {
  uint64_t total = sizeof(*this);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [fp, entry] : shard.entries) {
      total += sizeof(Entry) + entry->normalized.capacity();
    }
  }
  return total;
}

void QueryStats::ResetForTesting() {
  static std::vector<std::unique_ptr<Entry>>* graveyard =
      new std::vector<std::unique_ptr<Entry>>();
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto& [fp, entry] : shard.entries) {
      graveyard->push_back(std::move(entry));
    }
    shard.entries.clear();
  }
}

// ---------------------------------------------------------------------------
// SlowQueryRing

SlowQueryRing& SlowQueryRing::Global() {
  static SlowQueryRing* ring = new SlowQueryRing();  // never destroyed
  return *ring;
}

void SlowQueryRing::Push(Record record) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.Push(std::move(record));
}

std::vector<SlowQueryRing::Record> SlowQueryRing::SnapshotAll() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.Snapshot();
}

std::string SlowQueryRing::DumpJson() const {
  std::vector<Record> records = SnapshotAll();
  std::string out = "[";
  char num[32];
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::snprintf(num, sizeof(num), "%.3f", r.latency_ms);
    out += std::string(i == 0 ? "" : ",") + "\n    {\"ts_us\": " +
           std::to_string(r.ts_us) +
           ", \"fp\": " + JsonQuote(FingerprintHex(r.fingerprint)) +
           ", \"trace_id\": " + JsonQuote(r.trace_id) +
           ", \"query\": " + JsonQuote(r.normalized) +
           ", \"latency_ms\": " + num +
           ", \"threshold_ms\": " + std::to_string(r.threshold_ms) +
           ", \"status\": " + JsonQuote(r.status) + "}";
  }
  out += records.empty() ? "]" : "\n  ]";
  return out;
}

void SlowQueryRing::ResetForTesting() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.Clear();
}

}  // namespace frappe::obs
