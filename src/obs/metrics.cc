#include "obs/metrics.h"

#include <atomic>
#include <bit>
#include <cstdio>
#include <limits>
#include <vector>

#include "common/string_util.h"
#include "obs/trace.h"

namespace frappe::obs {

size_t ShardIndex() {
  // Sequential thread numbering beats std::hash<thread::id>: consecutive
  // worker threads land in distinct shards instead of colliding by chance.
  static std::atomic<size_t> next{0};
  thread_local size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return index;
}

size_t Histogram::BucketOf(uint64_t value) {
  if (value == 0) return 0;
  size_t b = static_cast<size_t>(std::bit_width(value));
  return b < kBuckets ? b : kBuckets - 1;
}

uint64_t Histogram::BucketUpperBound(size_t b) {
  if (b == 0) return 0;
  if (b >= 63) return std::numeric_limits<uint64_t>::max();
  return (uint64_t{1} << b) - 1;
}

void Histogram::RecordWithExemplar(uint64_t value, uint64_t trace_hi,
                                   uint64_t trace_lo) {
  Record(value);
  if ((trace_hi | trace_lo) == 0) return;
  const uint64_t now_us = Trace::UnixMicros();
  std::lock_guard<std::mutex> lock(exemplar_mu_);
  Exemplar& slot = exemplars_[BucketOf(value)];
  slot.value = value;
  slot.trace_hi = trace_hi;
  slot.trace_lo = trace_lo;
  slot.ts_us = now_us;
  has_exemplars_.store(true, std::memory_order_relaxed);
}

std::vector<Histogram::Exemplar> Histogram::SnapshotExemplars() const {
  std::lock_guard<std::mutex> lock(exemplar_mu_);
  return std::vector<Exemplar>(exemplars_, exemplars_ + kBuckets);
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot out;
  for (const Shard& s : shards_) {
    out.count += s.count.load(std::memory_order_relaxed);
    out.sum += s.sum.load(std::memory_order_relaxed);
    for (size_t b = 0; b < kBuckets; ++b) {
      out.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

double Histogram::Snapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Continuous rank in [0, count]: the sample the q-quantile "lands on".
  double target = q * static_cast<double>(count);
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    double in_bucket = static_cast<double>(buckets[b]);
    if (static_cast<double>(seen) + in_bucket >= target) {
      double lower = b == 0 ? 0.0 : static_cast<double>(uint64_t{1} << (b - 1));
      double upper = static_cast<double>(BucketUpperBound(b));
      double fraction = (target - static_cast<double>(seen)) / in_bucket;
      if (fraction < 0) fraction = 0;
      return lower + fraction * (upper - lower);
    }
    seen += buckets[b];
  }
  return static_cast<double>(BucketUpperBound(kBuckets - 1));
}

uint64_t Histogram::Snapshot::PercentileUpperBound(double p) const {
  if (count == 0) return 0;
  if (p < 0) p = 0;
  if (p > 1) p = 1;
  uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(count));
  if (rank >= count) rank = count - 1;
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    seen += buckets[b];
    if (seen > rank) return BucketUpperBound(b);
  }
  return BucketUpperBound(kBuckets - 1);
}

Registry& Registry::Global() {
  static Registry* registry = new Registry();  // never destroyed
  return *registry;
}

namespace {

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

Counter& Registry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

std::string Registry::DumpJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out += std::string(first ? "" : ",") + "\n    " + JsonQuote(name) + ": " +
           std::to_string(counter->Value());
    first = false;
  }
  out += first ? "}" : "\n  }";
  out += ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out += std::string(first ? "" : ",") + "\n    " + JsonQuote(name) + ": " +
           std::to_string(gauge->Value());
    first = false;
  }
  out += first ? "}" : "\n  }";
  out += ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    Histogram::Snapshot s = histogram->Snap();
    out += std::string(first ? "" : ",") + "\n    " + JsonQuote(name) +
           ": {\"count\": " + std::to_string(s.count) +
           ", \"sum\": " + std::to_string(s.sum) +
           ", \"mean\": " + Num(s.Mean()) +
           ", \"p50\": " + Num(s.Quantile(0.50)) +
           ", \"p95\": " + Num(s.Quantile(0.95)) +
           ", \"p99\": " + Num(s.Quantile(0.99)) +
           ", \"p50_le\": " + std::to_string(s.PercentileUpperBound(0.50)) +
           ", \"p90_le\": " + std::to_string(s.PercentileUpperBound(0.90)) +
           ", \"p99_le\": " + std::to_string(s.PercentileUpperBound(0.99)) +
           "}";
    first = false;
  }
  out += first ? "}" : "\n  }";
  out += "\n}\n";
  return out;
}

std::vector<std::pair<std::string, uint64_t>> Registry::SnapshotCounters()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->Value());
  }
  return out;
}

std::vector<std::pair<std::string, int64_t>> Registry::SnapshotGauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.emplace_back(name, gauge->Value());
  }
  return out;
}

std::vector<std::pair<std::string, Histogram::Snapshot>>
Registry::SnapshotHistograms() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, Histogram::Snapshot>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    Histogram::Snapshot snap = histogram->Snap();
    if (histogram->has_exemplars()) {
      snap.exemplars = histogram->SnapshotExemplars();
    }
    out.emplace_back(name, std::move(snap));
  }
  return out;
}

void Registry::ResetForTesting() {
  // Instruments must outlive references already handed out; park them in a
  // process-lifetime graveyard instead of destroying them.
  static std::vector<std::unique_ptr<Counter>>* counter_graveyard =
      new std::vector<std::unique_ptr<Counter>>();
  static std::vector<std::unique_ptr<Gauge>>* gauge_graveyard =
      new std::vector<std::unique_ptr<Gauge>>();
  static std::vector<std::unique_ptr<Histogram>>* histogram_graveyard =
      new std::vector<std::unique_ptr<Histogram>>();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) {
    counter_graveyard->push_back(std::move(counter));
  }
  for (auto& [name, gauge] : gauges_) {
    gauge_graveyard->push_back(std::move(gauge));
  }
  for (auto& [name, histogram] : histograms_) {
    histogram_graveyard->push_back(std::move(histogram));
  }
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace frappe::obs
