#ifndef FRAPPE_PERFBENCH_COMMON_H_
#define FRAPPE_PERFBENCH_COMMON_H_

// Shared plumbing of the end-to-end benchmark: run configuration, sample
// statistics, the metric set printed as the result line, the in-memory span
// tracer of traced runs, a minimal HTTP/1.0 client for the query server and
// the open-loop load generator.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace frappe::perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Everything a workload needs from the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 0;          // 0 = the workload's default
  std::string cache_dir;     // generated inputs, per (scale, seed)
  std::string work_dir;      // snapshots written while running
  std::string trace_path;    // where a traced run writes its spans
  size_t nproc = 1;
  uint64_t drop_requests = 0;  // point-serve: requests to drop after set-up
};

// ---------------------------------------------------------------------------
// Samples and metrics.

// A latency sample set. Summary statistics use nearest-rank percentiles.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Percentile(double p) const;
  double Median() const { return Percentile(50); }
  double Mean() const;
  double Sum() const;
  // The highest of p99.9 / p99 / p95 / p90 / p75 with at least ten samples
  // above it; 50 when the set is smaller than that.
  double TailRank() const;
  // The same samples, each multiplied by `factor`.
  Samples Scaled(double factor) const;
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

// The named metrics of one run, printed in the result line. Side notes
// (sample counts, tail percentiles, provenance) go to a separate report on
// stderr so the result line holds exactly the declared metrics.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  // Printed as the largest double, so a lower-is-better metric reads as
  // its worst value; the run must also be marked incorrect (see NonFinite).
  std::string ToJson() const;
  // Names of metrics set to an infinite or NaN value, e.g. a tail
  // percentile that falls on failed requests.
  std::vector<std::string> NonFinite() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

// Free-form run report (stderr): provenance, per-metric sample counts and
// tail percentiles, oracle outcomes.
void Note(const std::string& key, const std::string& value);
void NoteLatency(const std::string& name, const Samples& samples);
std::string Fmt(double v);

// Peak resident set of this process, MB.
double PeakRssMb();

// Host-speed normalization. On a shared virtual machine the speed at which
// the host runs memory-bound code drifts by up to 1.5x over minutes, and
// every timing of a run moves with it. So a run also times a fixed
// reference workload, a HostProbe, right before each unit of its own work,
// and reports each timing scaled to a host on which the probe takes
// kProbeRefMs: sample * kProbeRefMs / probe_ms. The probe uses none of the
// library's code, so a change to the library moves the scaled timings as
// much as the raw ones. Raw medians go to the stderr report.
inline constexpr double kProbeRefMs = 8.0;

// One breadth-first search over a seeded random graph held as packed
// adjacency arrays (about 5 MB), starting from a different node each time.
class HostProbe {
 public:
  HostProbe();
  // Runs one search and returns its wall time in ms.
  double RunMs();
  // kProbeRefMs over the median of `runs` searches: the factor that scales
  // a timing taken now to the reference host.
  double Scale(int runs = 1);

 private:
  std::vector<uint32_t> offsets_, targets_, queue_;
  std::vector<uint8_t> seen_;
  uint32_t next_source_ = 0;
};

// ---------------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around its calls into each layer.
// Disabled (the default), a Span costs one relaxed load.

class Tracer {
 public:
  struct SpanRecord {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;  // index into spans(), -1 for a root
    uint64_t request = 0;
  };

  static Tracer& Global();
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  int64_t Begin(std::string_view name);
  void End(int64_t index);

  // Sum of each layer's self time (span duration minus the time its child
  // spans cover), keyed by the span name's first component.
  std::map<std::string, double> SelfMsByLayer() const;
  bool WriteJson(const std::string& path) const;

  // Per-thread request id stamped on every span the thread opens.
  static void SetRequest(uint64_t id);

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

class Span {
 public:
  explicit Span(std::string_view name)
      : index_(Tracer::Global().enabled() ? Tracer::Global().Begin(name)
                                          : -1) {}
  ~Span() {
    if (index_ >= 0) Tracer::Global().End(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t index_;
};

// ---------------------------------------------------------------------------
// HTTP client for POST /query (the server speaks HTTP/1.0, one request per
// connection).

struct HttpReply {
  int code = 0;          // 0 = connection failed or dropped
  std::string body;
  double wall_ms = 0;    // connect through last byte
};

HttpReply PostQuery(uint16_t port, std::string_view fql, int timeout_ms);

// Integer field of the server's JSON reply (`"name": 123`), or -1.
int64_t JsonField(std::string_view body, std::string_view name);

// ---------------------------------------------------------------------------
// Open-loop load: requests due on an absolute schedule at `rate` per
// second, sent by at most `threads` senders that each keep one connection
// in flight. Latency counts from the due time, so a stall also charges the
// requests queued behind it.

struct Request {
  std::string text;
  int64_t expected_rows = -1;  // in-process answer; -1 = unchecked
  int klass = 0;
};

struct LoadResult {
  double offered_rate = 0;
  double achieved_rate = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;      // non-200 or dropped
  uint64_t shed = 0;        // 429
  uint64_t timeouts = 0;    // 408
  uint64_t errors = 0;      // other non-200, dropped connections
  uint64_t wrong_rows = 0;  // 200 with a row count unlike the oracle
  // From due time; a failed request counts as an infinitely slow sample,
  // so it misses every latency limit and ranks above every success.
  Samples latency_ms;
  std::vector<Samples> class_latency_ms;  // the same, by Request::klass
  Samples late_ms;          // send time minus due time
  // Server timeline of successful requests; http_us is client wall time
  // minus the server's total_us.
  Samples queue_us, serialize_us, http_us;
  // Lateness of the last quarter minus the first: a growing backlog.
  double backlog_growth_ms = 0;
};

LoadResult RunOpenLoop(uint16_t port, const std::vector<Request>& mix,
                       double rate, double seconds, size_t threads,
                       uint64_t seed);

}  // namespace frappe::perfbench

#endif  // FRAPPE_PERFBENCH_COMMON_H_
