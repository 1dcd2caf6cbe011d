#ifndef FRAPPE_PERFBENCH_WORKLOADS_H_
#define FRAPPE_PERFBENCH_WORKLOADS_H_

// The three workloads and the traced layer sweep. Every workload reports
// the same end-to-end metrics (see README.md for what each means per
// workload):
//
//   setup_s        start to ready, median of several set-ups
//   peak_rss_mb    process max RSS
//   q1..q4_p50_ms  median latency of the workload's four request classes;
//                  a failed request counts as an infinitely slow sample
//
// setup_s and q1..q4 are scaled to the reference host speed (HostProbe in
// common.h); the unscaled medians go to the stderr report.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "inputs.h"
#include "server/epoch.h"
#include "server/query_server.h"

namespace frappe::perfbench {

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSet metrics;
  std::vector<std::string> errors;

  // Records a failed correctness oracle; the run then reports
  // correct=false.
  void Fail(const std::string& what) {
    correct = false;
    errors.push_back(what);
  }
  void Count(const LoadResult& load) {
    attempted += load.attempted;
    failed += load.failed;
    if (load.wrong_rows > 0) {
      Fail(std::to_string(load.wrong_rows) +
           " HTTP 200 answers disagree with the in-process row count");
    }
  }
};

// A query server over one published epoch manager.
struct Serving {
  std::unique_ptr<server::EpochManager> epochs;
  std::unique_ptr<server::QueryServer> server;
  uint16_t port() const { return server->port(); }
  ~Serving() {
    if (server) server->Stop();
  }
};

// Starts a server with `workers` workers; publishes `snapshot` when set.
std::unique_ptr<Serving> StartServing(const std::string& snapshot,
                                      size_t workers, Outcome* outcome);

// Point-read requests (Fig. 3 search, Fig. 4 x-ref, exact index lookup,
// Table 6 group label) with their in-process row counts.
std::vector<Request> PointMix(const Instances& instances,
                              const query::Database& db, Outcome* outcome);

// Default graph scale of each workload (README.md gives the reasons).
double DefaultScale(const std::string& workload);

// Number of set-ups per run; setup_s is their median. Each set-up after
// the first tears the previous one down and returns its freed heap to the
// system (malloc_trim) first, so peak RSS does not depend on how the
// allocator kept an earlier epoch's pages.
inline constexpr int kSetups = 5;

struct NamedSamples {
  std::string name;
  Samples samples;
};

// Sets q1..q4_p50_ms from four named classes (noting each's tail) and
// setup_s from the set-up samples.
void ReportClasses(const std::vector<NamedSamples>& classes,
                   const Samples& setups, Outcome* out);
// Notes the unscaled medians of the same classes and set-ups.
void NoteUnscaled(const std::vector<Samples>& classes, const Samples& setups);

// Geometric mean of the classes' medians: the figure the traced and
// untraced halves of a traced run compare for obs.trace_overhead_pct.
double GeoMeanP50(const std::vector<NamedSamples>& classes);
void ReportTraceOverhead(double untraced, double traced, Outcome* out);

// One ingest cycle: the source tree through BuildDriver::Run, the name
// index and ANALYZE catalog, a checksummed atomic SaveSnapshot to `path`,
// EpochManager::PublishSnapshotFile into `serving`, and `probe` answered
// over HTTP on the new epoch.
struct CycleTimes {
  double compile_ms = 0, link_ms = 0, index_ms = 0, analyze_ms = 0,
         save_ms = 0, publish_ms = 0, first_query_ms = 0, total_ms = 0;
  uint64_t snapshot_bytes = 0;
  size_t units = 0, unresolved = 0;
};
bool IngestCycle(const SourceInput& source, Serving* serving,
                 const std::string& path, const Request& probe,
                 CycleTimes* times, Outcome* out);

void RunPaperQueries(const RunConfig& config, Outcome* out);
void RunPointServe(const RunConfig& config, Outcome* out);
void RunIngestPublish(const RunConfig& config, Outcome* out);

// The traced run's per-layer metrics: one pass over every layer's public
// calls on the run's seeded inputs, each call inside a span.
void RunLayerSweep(const RunConfig& config, Outcome* out);

// The point-read stream beside ingest-publish: one sender at a low fixed
// rate (req/s), so it observes the writer rather than competing with it for
// cores.
inline constexpr double kReadRate = 200;
inline constexpr size_t kReadSenders = 1;
// Offered rates (req/s) of the serve ladder.
std::vector<double> ServeLadder();

}  // namespace frappe::perfbench

#endif  // FRAPPE_PERFBENCH_WORKLOADS_H_
