// point-serve: open-loop POST /query traffic of indexed point queries
// against the kernel snapshot, at a fixed nominal rate. Each query does
// microseconds of executor work, so HTTP, admission, session telemetry,
// parse, plan and index lookups dominate; the traversal kernels stay idle.

#include <malloc.h>

#include <algorithm>
#include <cmath>

#include "common/fault_injector.h"
#include "query/session.h"
#include "workloads.h"

namespace frappe::perfbench {

namespace {

// Nominal offered rate of point-serve, req/s: well inside the serving
// capacity of a 4-core host, so latency reflects per-request cost rather
// than queueing.
constexpr double kServeRate = 1000;

// The load runs in segments of about this many seconds, each scaled by the
// host probe timed right before it.
constexpr double kSegmentSeconds = 1.0;

}  // namespace

double DefaultScale(const std::string& workload) {
  if (workload == "paper-queries") return 0.25;
  if (workload == "point-serve") return 0.25;
  if (workload == "ingest-publish") return 1.0;
  return 0;
}

std::vector<double> ServeLadder() {
  return {1000,  1500,  2000,  3000,  4000,  5000,  6000,  7000,  8000,
          10000, 12000, 14000, 16000, 18000, 20000, 24000, 28000};
}

std::unique_ptr<Serving> StartServing(const std::string& snapshot,
                                      size_t workers, Outcome* outcome) {
  auto serving = std::make_unique<Serving>();
  serving->epochs = std::make_unique<server::EpochManager>();
  if (!snapshot.empty()) {
    Span span("server.epoch.publish");
    auto published = serving->epochs->PublishSnapshotFile(snapshot);
    if (!published.ok()) {
      outcome->Fail("publish " + snapshot + ": " +
                    published.status().ToString());
      return nullptr;
    }
  }
  server::QueryServer::Options options;
  options.workers = workers;
  auto started = server::QueryServer::Start(options, serving->epochs.get());
  if (!started.ok()) {
    outcome->Fail("server start: " + started.status().ToString());
    return nullptr;
  }
  serving->server = std::move(*started);
  return serving;
}

std::vector<Request> PointMix(const Instances& instances,
                              const query::Database& db, Outcome* outcome) {
  std::vector<Request> mix;
  auto add = [&](std::string text, int klass) {
    auto result = query::RunQuery(db, text);
    if (!result.ok()) {
      outcome->Fail("in-process " + text + ": " +
                    result.status().ToString());
      return;
    }
    mix.push_back({std::move(text), static_cast<int64_t>(result->size()),
                   klass});
  };
  for (const auto& i : instances.search) add(SearchQuery(i), 0);
  for (const auto& i : instances.xref) add(XrefQuery(i), 1);
  for (const auto& n : instances.lookup) add(LookupQuery(n), 2);
  for (const auto& n : instances.group) add(GroupQuery(n), 3);
  return mix;
}

double GeoMeanP50(const std::vector<NamedSamples>& classes) {
  double log_sum = 0;
  for (const NamedSamples& c : classes) {
    log_sum += std::log(std::max(1e-9, c.samples.Median()));
  }
  return std::exp(log_sum / static_cast<double>(classes.size()));
}

void ReportClasses(const std::vector<NamedSamples>& classes,
                   const Samples& setups, Outcome* out) {
  for (size_t k = 0; k < classes.size(); ++k) {
    const Samples& samples = classes[k].samples;
    const std::string metric = "q" + std::to_string(k + 1) + "_p50_ms";
    NoteLatency(metric + " (" + classes[k].name + ")", samples);
    if (samples.empty()) {
      out->Fail("no successful samples of " + classes[k].name);
    }
    out->metrics.Set(metric, samples.Median(), "ms");
  }
  NoteLatency("setup_s", setups);
  out->metrics.Set("setup_s", setups.Median(), "s");
}

void NoteUnscaled(const std::vector<Samples>& classes,
                  const Samples& setups) {
  std::string medians;
  for (const Samples& s : classes) medians += Fmt(s.Median()) + " ";
  Note("unscaled q1..q4 p50 ms, setup_s",
       medians + "/ " + Fmt(setups.Median()));
}

void ReportTraceOverhead(double untraced, double traced, Outcome* out) {
  out->metrics.Set("obs.trace_overhead_pct",
                   untraced > 0 ? (traced / untraced - 1) * 100 : 0, "%");
}

void RunPointServe(const RunConfig& config, Outcome* out) {
  KernelInput input;
  if (!EnsureKernel(config.cache_dir, config.scale, config.seed, &input)) {
    out->Fail("cannot prepare the kernel input");
    return;
  }
  const Instances& inst = input.instances;
  const std::vector<std::string> warmups = {
      SearchQuery(inst.search.at(0)), XrefQuery(inst.xref.at(0)),
      LookupQuery(inst.lookup.at(0)), GroupQuery(inst.group.at(0))};

  HostProbe probe;
  Samples setups, raw_setups;
  std::unique_ptr<Serving> serving;
  for (int i = 0; i < kSetups; ++i) {
    serving.reset();
    malloc_trim(0);
    const double scale = probe.Scale(3);
    Clock::time_point start = Clock::now();
    serving = StartServing(input.snapshot_path, config.nproc, out);
    if (serving == nullptr) return;
    for (const std::string& text : warmups) {
      if (PostQuery(serving->port(), text, 60000).code != 200) {
        out->Fail("warm-up failed: " + text);
      }
    }
    const double setup_s = MsSince(start) / 1000.0;
    setups.Add(setup_s * scale);
    raw_setups.Add(setup_s);
  }
  std::vector<Request> mix =
      PointMix(inst, serving->epochs->Current()->db, out);
  if (mix.empty()) return;
  if (config.drop_requests > 0) {
    common::FaultInjector::Global().Arm(
        "server.enqueue", 100, static_cast<int64_t>(config.drop_requests));
  }

  // Each class's latencies scaled by the probe timed before their
  // segment, the same unscaled, and the unscaled load of all segments.
  struct Served {
    std::vector<NamedSamples> classes = {{"Fig. 3 code search", {}},
                                         {"Fig. 4 go-to-definition", {}},
                                         {"exact node_auto_index lookup", {}},
                                         {"Table 6 group label", {}}};
    std::vector<Samples> raw = std::vector<Samples>(4);
    Samples latency_ms, late_ms;
    double achieved_rate = 0;
  };
  uint64_t segment = 0;
  auto phase = [&](double seconds) {
    Served served;
    const int segments = std::max(
        1, static_cast<int>(std::lround(seconds / kSegmentSeconds)));
    for (int i = 0; i < segments; ++i) {
      const double scale = probe.Scale(3);
      LoadResult load =
          RunOpenLoop(serving->port(), mix, kServeRate, seconds / segments,
                      config.nproc, config.seed * 1000 + segment++);
      out->Count(load);
      load.class_latency_ms.resize(4);
      for (size_t k = 0; k < 4; ++k) {
        served.classes[k].samples.Append(
            load.class_latency_ms[k].Scaled(scale));
        served.raw[k].Append(load.class_latency_ms[k]);
      }
      served.latency_ms.Append(load.latency_ms);
      served.late_ms.Append(load.late_ms);
      served.achieved_rate += load.achieved_rate / segments;
    }
    return served;
  };

  if (config.trace) {
    Served untraced = phase(config.seconds / 2);
    Tracer::Global().Enable(true);
    Served traced = phase(config.seconds / 2);
    Tracer::Global().Enable(false);
    ReportTraceOverhead(GeoMeanP50(untraced.classes),
                        GeoMeanP50(traced.classes), out);
    return;
  }
  Served served = phase(config.seconds);
  ReportClasses(served.classes, setups, out);
  NoteUnscaled(served.raw, raw_setups);
  NoteLatency("read latency (all classes, unscaled)", served.latency_ms);
  NoteLatency("generator lateness", served.late_ms);
  Note("offered / achieved rate", Fmt(kServeRate) + " / " +
                                      Fmt(served.achieved_rate) + " req/s");
  Note("read p90 / p99 (failures as misses, unscaled)",
       Fmt(served.latency_ms.Percentile(90)) + " / " +
           Fmt(served.latency_ms.Percentile(99)));
}

}  // namespace frappe::perfbench
