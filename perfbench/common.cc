#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <thread>

#include "common/rng.h"
#include "obs/http_listener.h"

namespace frappe::perfbench {

// ---------------------------------------------------------------------------
// Samples and metrics.

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double Samples::Sum() const {
  double sum = 0;
  for (double v : values_) sum += v;
  return sum;
}

double Samples::Mean() const {
  return values_.empty() ? 0 : Sum() / static_cast<double>(values_.size());
}

double Samples::TailRank() const {
  const double n = static_cast<double>(values_.size());
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (n * (1 - p / 100.0) >= 10) return p;
  }
  return 50;
}

Samples Samples::Scaled(double factor) const {
  Samples out;
  out.values_.reserve(values_.size());
  for (double v : values_) out.values_.push_back(v * factor);
  return out;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  values_[name] = {value, unit};
}

std::vector<std::string> MetricSet::NonFinite() const {
  std::vector<std::string> names;
  for (const auto& [name, entry] : values_) {
    if (!std::isfinite(entry.first)) names.push_back(name);
  }
  return names;
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, entry] : values_) {
    if (!first) out += ", ";
    first = false;
    const double value = std::isfinite(entry.first)
                             ? entry.first
                             : std::numeric_limits<double>::max();
    out += "\"" + name + "\": {\"value\": " + Fmt(value) +
           ", \"unit\": \"" + entry.second + "\"}";
  }
  return out + "}";
}

void Note(const std::string& key, const std::string& value) {
  std::fprintf(stderr, "[perfbench] %-34s %s\n", key.c_str(), value.c_str());
}

void NoteLatency(const std::string& name, const Samples& samples) {
  double tail = samples.TailRank();
  Note(name, "n=" + std::to_string(samples.size()) +
                 " p50=" + Fmt(samples.Median()) + " p" + Fmt(tail) + "=" +
                 Fmt(samples.Percentile(tail)));
}

double PeakRssMb() {
  rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

// ---------------------------------------------------------------------------
// Host probe.

namespace {
constexpr uint32_t kProbeNodes = 1u << 17;
constexpr uint32_t kProbeDegree = 8;
}  // namespace

HostProbe::HostProbe() {
  Rng rng(0x9b0be);
  offsets_.resize(kProbeNodes + 1);
  targets_.resize(static_cast<size_t>(kProbeNodes) * kProbeDegree);
  for (uint32_t n = 0; n <= kProbeNodes; ++n) offsets_[n] = n * kProbeDegree;
  for (uint32_t& t : targets_) {
    t = static_cast<uint32_t>(rng.Uniform(kProbeNodes));
  }
  queue_.reserve(kProbeNodes);
}

double HostProbe::RunMs() {
  Clock::time_point start = Clock::now();
  seen_.assign(kProbeNodes, 0);
  queue_.assign(1, next_source_);
  seen_[next_source_] = 1;
  next_source_ = (next_source_ + 7919) % kProbeNodes;
  for (size_t head = 0; head < queue_.size(); ++head) {
    const uint32_t n = queue_[head];
    for (uint32_t i = offsets_[n]; i < offsets_[n + 1]; ++i) {
      const uint32_t t = targets_[i];
      if (!seen_[t]) {
        seen_[t] = 1;
        queue_.push_back(t);
      }
    }
  }
  return MsSince(start);
}

double HostProbe::Scale(int runs) {
  Samples ms;
  for (int i = 0; i < runs; ++i) ms.Add(RunMs());
  return kProbeRefMs / ms.Median();
}

// ---------------------------------------------------------------------------
// Tracer.

namespace {

thread_local int64_t tl_current_span = -1;
thread_local uint64_t tl_request = 0;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::SetRequest(uint64_t id) { tl_request = id; }

int64_t Tracer::Begin(std::string_view name) {
  SpanRecord record;
  record.name = std::string(name);
  record.parent = tl_current_span;
  record.request = tl_request;
  std::lock_guard<std::mutex> lock(mu_);
  record.start_ns = NowNs();
  spans_.push_back(std::move(record));
  tl_current_span = static_cast<int64_t>(spans_.size()) - 1;
  return tl_current_span;
}

void Tracer::End(int64_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord& record = spans_[static_cast<size_t>(index)];
  record.end_ns = NowNs();
  tl_current_span = record.parent;
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::string layer = s.name.substr(0, s.name.find('.'));
    self[layer] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) /
                   1e6;
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << (i > 0 ? ",\n" : "") << "{\"id\": " << i << ", \"name\": \""
        << JsonEscape(s.name) << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// HTTP.

HttpReply PostQuery(uint16_t port, std::string_view fql, int timeout_ms) {
  HttpReply reply;
  Clock::time_point start = Clock::now();
  std::string raw = obs::HttpFetch(port, "POST", "/query", fql, timeout_ms, "");
  reply.wall_ms = MsSince(start);
  reply.code = obs::HttpStatusOf(raw);
  reply.body = std::string(obs::HttpBodyOf(raw));
  return reply;
}

int64_t JsonField(std::string_view body, std::string_view name) {
  std::string key = "\"";
  key.append(name).append("\": ");
  size_t pos = body.rfind(key);
  if (pos == std::string_view::npos) return -1;
  pos += key.size();
  int64_t value = 0;
  bool any = false;
  while (pos < body.size() && body[pos] >= '0' && body[pos] <= '9') {
    value = value * 10 + (body[pos] - '0');
    ++pos;
    any = true;
  }
  return any ? value : -1;
}

// ---------------------------------------------------------------------------
// Open-loop generator.

LoadResult RunOpenLoop(uint16_t port, const std::vector<Request>& mix,
                       double rate, double seconds, size_t threads,
                       uint64_t seed) {
  LoadResult result;
  result.offered_rate = rate;
  const uint64_t total =
      std::max<uint64_t>(1, static_cast<uint64_t>(rate * seconds));
  threads = std::max<size_t>(1, std::min<size_t>(threads, total));
  const double interval_ns = 1e9 / rate;
  // Start slightly in the future so every sender is ready at t=0.
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);
  std::vector<LoadResult> parts(threads);
  std::vector<std::thread> senders;
  senders.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    senders.emplace_back([&, t] {
      LoadResult& part = parts[t];
      Rng rng(seed * 1000003 + t);
      // Sender t owns arrivals t, t+threads, t+2*threads, ...
      for (uint64_t i = t; i < total; i += threads) {
        const Clock::time_point due =
            start + std::chrono::nanoseconds(static_cast<int64_t>(
                        static_cast<double>(i) * interval_ns));
        std::this_thread::sleep_until(due);
        const Request& request = mix[rng.Uniform(mix.size())];
        const Clock::time_point sent = Clock::now();
        part.late_ms.Add(
            std::chrono::duration<double, std::milli>(sent - due).count());
        Tracer::SetRequest(i + 1);
        HttpReply reply;
        {
          Span span("server.http_request");
          reply = PostQuery(port, request.text, 10000);
        }
        const double latency_ms = MsSince(due);
        ++part.attempted;
        if (part.class_latency_ms.size() <= size_t(request.klass)) {
          part.class_latency_ms.resize(request.klass + 1);
        }
        if (reply.code != 200) {
          part.latency_ms.Add(INFINITY);
          part.class_latency_ms[request.klass].Add(INFINITY);
          ++part.failed;
          if (reply.code == 429) {
            ++part.shed;
          } else if (reply.code == 408) {
            ++part.timeouts;
          } else {
            ++part.errors;
          }
          continue;
        }
        int64_t rows = JsonField(reply.body, "rows");
        if (request.expected_rows >= 0 && rows != request.expected_rows) {
          ++part.wrong_rows;
        }
        part.latency_ms.Add(latency_ms);
        part.class_latency_ms[request.klass].Add(latency_ms);
        int64_t total_us = JsonField(reply.body, "total_us");
        part.queue_us.Add(static_cast<double>(JsonField(reply.body,
                                                        "queue_us")));
        part.serialize_us.Add(static_cast<double>(
            JsonField(reply.body, "serialize_us")));
        part.http_us.Add(reply.wall_ms * 1000.0 -
                         static_cast<double>(total_us));
      }
    });
  }
  for (std::thread& sender : senders) sender.join();
  const double elapsed_s = MsSince(start) / 1000.0;

  for (const LoadResult& part : parts) {
    result.attempted += part.attempted;
    result.failed += part.failed;
    result.shed += part.shed;
    result.timeouts += part.timeouts;
    result.errors += part.errors;
    result.wrong_rows += part.wrong_rows;
    result.latency_ms.Append(part.latency_ms);
    if (result.class_latency_ms.size() < part.class_latency_ms.size()) {
      result.class_latency_ms.resize(part.class_latency_ms.size());
    }
    for (size_t k = 0; k < part.class_latency_ms.size(); ++k) {
      result.class_latency_ms[k].Append(part.class_latency_ms[k]);
    }
    result.late_ms.Append(part.late_ms);
    result.queue_us.Append(part.queue_us);
    result.serialize_us.Append(part.serialize_us);
    result.http_us.Append(part.http_us);
  }
  result.achieved_rate =
      elapsed_s > 0 ? static_cast<double>(result.attempted) / elapsed_s : 0;
  // Backlog: lateness of the last sends against the first ones. Each
  // sender's samples are in schedule order.
  Samples head, tail;
  for (const LoadResult& part : parts) {
    const std::vector<double>& late = part.late_ms.values();
    size_t quarter = late.size() / 4;
    for (size_t i = 0; i < quarter; ++i) {
      head.Add(late[i]);
      tail.Add(late[late.size() - 1 - i]);
    }
  }
  result.backlog_growth_ms = tail.Median() - head.Median();
  return result;
}

}  // namespace frappe::perfbench
