// ingest-publish: writes beside reads. A writer takes the seeded C source
// tree through extraction, ANALYZE, a checksummed atomic save and an epoch
// publish into the live server, then asks the new epoch a first query,
// cycle after cycle; a point-read stream hits the same server at a low
// fixed rate. Every cycle republishes identical content, so every read must
// match the first epoch. This is the only workload that runs the extractor
// and the write side of the snapshot, index and epoch layers.

#include <malloc.h>

#include <thread>

#include "extractor/build_model.h"
#include "graph/snapshot.h"
#include "graph/stats_catalog.h"
#include "query/session.h"
#include "workloads.h"

namespace frappe::perfbench {

bool IngestCycle(const SourceInput& source, Serving* serving,
                 const std::string& path, const Request& probe,
                 CycleTimes* t, Outcome* out) {
  Clock::time_point start = Clock::now();
  model::CodeGraph graph;
  extractor::BuildDriver driver(&source.vfs, &graph);
  for (const std::string& command : source.build_commands) {
    const bool compile = command.find(" -c ") != std::string::npos;
    Clock::time_point step = Clock::now();
    Status status;
    {
      Span span(compile ? "extractor.compile" : "extractor.link");
      status = driver.Run(command);
    }
    (compile ? t->compile_ms : t->link_ms) += MsSince(step);
    if (!status.ok()) {
      out->Fail("extract `" + command + "`: " + status.ToString());
      return false;
    }
  }
  t->units = driver.stats().units_compiled;
  t->unresolved = driver.stats().symbols_unresolved;

  Clock::time_point step = Clock::now();
  graph::NameIndex index;
  {
    Span span("graph.index.build");
    index = graph.BuildNameIndex();
  }
  t->index_ms = MsSince(step);
  step = Clock::now();
  graph::StatsCatalog catalog;
  {
    Span span("graph.stats.analyze");
    catalog = graph::BuildStatsCatalog(graph.view(), &index);
  }
  t->analyze_ms = MsSince(step);
  step = Clock::now();
  graph::SnapshotOptions options;
  options.catalog = &catalog;
  Result<graph::SnapshotSizes> saved = [&] {
    Span span("graph.snapshot.save");
    return graph::SaveSnapshot(graph.view(), path, &index, options);
  }();
  t->save_ms = MsSince(step);
  if (!saved.ok()) {
    out->Fail("save: " + saved.status().ToString());
    return false;
  }
  t->snapshot_bytes = saved->total();

  step = Clock::now();
  Result<std::shared_ptr<const server::Epoch>> published = [&] {
    Span span("server.epoch.publish");
    return serving->epochs->PublishSnapshotFile(path);
  }();
  t->publish_ms = MsSince(step);
  if (!published.ok()) {
    out->Fail("publish: " + published.status().ToString());
    return false;
  }
  step = Clock::now();
  HttpReply reply = [&] {
    Span span("server.post");
    return PostQuery(serving->port(), probe.text, 60000);
  }();
  t->first_query_ms = MsSince(step);
  t->total_ms = MsSince(start);
  ++out->attempted;
  if (reply.code != 200) {
    ++out->failed;
    return false;
  }
  if (JsonField(reply.body, "epoch") !=
          static_cast<int64_t>((*published)->sequence) ||
      (probe.expected_rows >= 0 &&
       JsonField(reply.body, "rows") != probe.expected_rows)) {
    out->Fail("first query on epoch " +
              std::to_string((*published)->sequence) +
              " does not match the first epoch");
  }
  return true;
}

namespace {

// The four classes' timings scaled to the reference host (see HostProbe),
// the same unscaled, and the read stream's load.
struct Phase {
  std::vector<NamedSamples> classes = {{"cycle: source tree to first answer",
                                        {}},
                                       {"extraction", {}},
                                       {"save, publish and first query", {}},
                                       {"point reads beside ingest", {}}};
  std::vector<Samples> raw = std::vector<Samples>(4);
  LoadResult reads;
};

// Runs ingest cycles for `seconds` beside the read stream, timing the host
// probe before each cycle.
Phase RunPhase(const RunConfig& config, const SourceInput& source,
               Serving* serving, const std::string& path,
               const std::vector<Request>& mix, double seconds,
               HostProbe* probe, Outcome* out) {
  Phase phase;
  std::thread reader([&] {
    phase.reads = RunOpenLoop(serving->port(), mix, kReadRate, seconds,
                              kReadSenders, config.seed);
  });
  Samples scales;
  Clock::time_point start = Clock::now();
  for (uint64_t cycle = 1; MsSince(start) < seconds * 1000; ++cycle) {
    const double scale = probe->Scale();
    Tracer::SetRequest(cycle);
    CycleTimes t;
    if (!IngestCycle(source, serving, path, mix.front(), &t, out)) break;
    scales.Add(scale);
    const double ms[] = {t.total_ms, t.compile_ms + t.link_ms,
                         t.save_ms + t.publish_ms + t.first_query_ms};
    for (size_t k = 0; k < 3; ++k) {
      phase.classes[k].samples.Add(ms[k] * scale);
      phase.raw[k].Add(ms[k]);
    }
  }
  reader.join();
  out->Count(phase.reads);
  // The reads run beside every cycle, so they take the median factor.
  phase.classes[3].samples = phase.reads.latency_ms.Scaled(scales.Median());
  phase.raw[3] = phase.reads.latency_ms;
  return phase;
}

}  // namespace

void RunIngestPublish(const RunConfig& config, Outcome* out) {
  SourceInput source;
  if (!EnsureSourceTree(config.cache_dir, config.scale, config.seed,
                        &source)) {
    out->Fail("cannot prepare the source tree");
    return;
  }
  const std::string path = config.work_dir + "/ingest.fsnap";

  // The first epoch: extracted and saved before set-up, then published by
  // each set-up. Its in-process answers are the oracle for every read.
  std::vector<Request> mix;
  {
    model::CodeGraph graph;
    extractor::BuildDriver driver(&source.vfs, &graph);
    for (const std::string& command : source.build_commands) {
      if (Status s = driver.Run(command); !s.ok()) {
        out->Fail("extract `" + command + "`: " + s.ToString());
        return;
      }
    }
    graph::NameIndex index = graph.BuildNameIndex();
    if (!graph::SaveSnapshot(graph.view(), path, &index).ok()) {
      out->Fail("cannot save the first epoch");
      return;
    }
    Instances inst = ChooseInstances(graph.store(), graph.schema(), index,
                                     config.seed, 0, 16, false);
    auto session = query::SnapshotSession::Open(path);
    if (!session.ok()) {
      out->Fail("cannot open the first epoch");
      return;
    }
    mix = PointMix(inst, (*session)->database(), out);
  }
  if (mix.empty()) {
    out->Fail("no point-read instances in the ingest graph");
    return;
  }

  // A set-up here takes a fifth of a second, so take more of them.
  HostProbe probe;
  Samples setups, raw_setups;
  std::unique_ptr<Serving> serving;
  for (int i = 0; i < 3 * kSetups; ++i) {
    serving.reset();
    malloc_trim(0);
    const double scale = probe.Scale(3);
    Clock::time_point start = Clock::now();
    serving = StartServing(path, config.nproc, out);
    if (serving == nullptr) return;
    const double setup_s = MsSince(start) / 1000.0;
    setups.Add(setup_s * scale);
    raw_setups.Add(setup_s);
  }

  if (config.trace) {
    Phase untraced = RunPhase(config, source, serving.get(), path, mix,
                              config.seconds / 2, &probe, out);
    Tracer::Global().Enable(true);
    Phase traced = RunPhase(config, source, serving.get(), path, mix,
                            config.seconds / 2, &probe, out);
    Tracer::Global().Enable(false);
    ReportTraceOverhead(GeoMeanP50(untraced.classes),
                        GeoMeanP50(traced.classes), out);
    return;
  }
  Phase phase = RunPhase(config, source, serving.get(), path, mix,
                         config.seconds, &probe, out);
  ReportClasses(phase.classes, setups, out);
  NoteUnscaled(phase.raw, raw_setups);
  Note("source tree", std::to_string(source.total_lines) + " lines, " +
                          std::to_string(source.build_commands.size()) +
                          " build commands");
  Note("read p90 / p99 (failures as misses)",
       Fmt(phase.reads.latency_ms.Percentile(90)) + " / " +
           Fmt(phase.reads.latency_ms.Percentile(99)));
}

}  // namespace frappe::perfbench
