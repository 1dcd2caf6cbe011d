// Frappé end-to-end benchmark binary. Usually started by run.py,
// which builds it and checks its result line against BENCHMARK.json:
//
//   frappe_perfbench --workload paper-queries|point-serve|ingest-publish
//                    --seed N --seconds S --trace 0|1
//                    [--scale F] [--cache-dir D] [--work-dir D]
//                    [--trace-out FILE] [--prepare 1] [--drop-requests N]
//
// --prepare 1 only generates the run's seeded inputs into the cache (run.py
// does this in a separate process first, so generation never counts
// towards the measured run's time or peak RSS). --drop-requests N makes
// point-serve's server drop N requests after set-up (its server.enqueue
// fault site), to check that failed requests fail the run.
//
// The last stdout line is the result: {"correct", "attempted", "failed",
// "metrics"}. The line before it is the run's provenance; stderr carries a
// human-readable report (sample counts, tail percentiles, oracle notes).

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common.h"
#include "workloads.h"

namespace frappe::perfbench {
namespace {

std::string ReadProcField(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      size_t start = line.find_first_not_of(" \t", colon + 1);
      return start == std::string::npos ? "" : line.substr(start);
    }
  }
  return "unknown";
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void PrintProvenance(const RunConfig& c) {
  std::string ladder;
  for (double rate : ServeLadder()) {
    ladder += (ladder.empty() ? "" : ", ") + Fmt(rate);
  }
  std::printf(
      "{\"provenance\": {\"workload\": %s, \"seed\": %llu, \"scale\": %s, "
      "\"seconds\": %s, \"trace\": %d, \"nproc\": %zu, \"cpu_model\": %s, "
      "\"mem_total\": %s, \"git_sha\": %s, \"src_digest\": %s, "
      "\"build_type\": %s, \"sender_threads\": %zu, \"read_rate\": %s, "
      "\"serve_ladder\": [%s]}}\n",
      Quote(c.workload).c_str(), static_cast<unsigned long long>(c.seed),
      Fmt(c.scale).c_str(), Fmt(c.seconds).c_str(), c.trace ? 1 : 0,
      c.nproc, Quote(ReadProcField("/proc/cpuinfo", "model name")).c_str(),
      Quote(ReadProcField("/proc/meminfo", "MemTotal")).c_str(),
      Quote(EnvOr("FRAPPE_GIT_SHA", "unknown")).c_str(),
      Quote(EnvOr("PERFBENCH_SRC_DIGEST", "unknown")).c_str(),
      Quote(PERFBENCH_BUILD_TYPE).c_str(),
      c.workload == "point-serve"      ? c.nproc
      : c.workload == "ingest-publish" ? 1 + kReadSenders
                                       : size_t{1},
      Fmt(kReadRate).c_str(), ladder.c_str());
}

// Generates the inputs a run of `config` reads: the kernel snapshot for
// the kernel workloads, the source tree for ingest-publish, and both for a
// traced run's layer sweep.
bool PrepareInputs(const RunConfig& config) {
  const bool ingest = config.workload == "ingest-publish";
  if (!ingest || config.trace) {
    KernelInput kernel;
    if (!EnsureKernel(config.cache_dir,
                      ingest ? DefaultScale("paper-queries") : config.scale,
                      config.seed, &kernel)) {
      return false;
    }
  }
  if (ingest || config.trace) {
    SourceInput source;
    if (!EnsureSourceTree(config.cache_dir,
                          ingest ? config.scale
                                 : DefaultScale("ingest-publish"),
                          config.seed, &source)) {
      return false;
    }
  }
  return true;
}

int Usage(const char* msg) {
  std::fprintf(stderr, "frappe_perfbench: %s\n", msg);
  return 2;
}

}  // namespace
}  // namespace frappe::perfbench

int main(int argc, char** argv) {
  using namespace frappe::perfbench;
  RunConfig config;
  config.cache_dir = ".bench_build/perfbench-cache";
  config.work_dir = ".bench_build/perfbench-work";
  config.nproc = std::max(1u, std::thread::hardware_concurrency());
  int trace = -1;
  bool prepare = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (arg == "--scale") {
      config.scale = std::atof(value.c_str());
    } else if (arg == "--cache-dir") {
      config.cache_dir = value;
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else if (arg == "--trace-out") {
      config.trace_path = value;
    } else if (arg == "--prepare") {
      prepare = value == "1";
    } else if (arg == "--drop-requests") {
      config.drop_requests = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (trace != 0 && trace != 1) return Usage("--trace must be 0 or 1");
  if (config.seconds <= 0) return Usage("--seconds must be positive");
  config.trace = trace == 1;
  if (config.scale <= 0) config.scale = DefaultScale(config.workload);
  if (config.scale <= 0) return Usage("unknown --workload");
  std::error_code ignored;
  std::filesystem::create_directories(config.cache_dir, ignored);
  std::filesystem::create_directories(config.work_dir, ignored);

  if (prepare) return PrepareInputs(config) ? 0 : 1;
  PrintProvenance(config);
  std::fflush(stdout);

  Outcome out;
  if (config.workload == "paper-queries") {
    RunPaperQueries(config, &out);
  } else if (config.workload == "point-serve") {
    RunPointServe(config, &out);
  } else {
    RunIngestPublish(config, &out);
  }
  if (config.trace) {
    Tracer::Global().Enable(true);
    RunLayerSweep(config, &out);
    Tracer::Global().Enable(false);
    for (const auto& [layer, ms] : Tracer::Global().SelfMsByLayer()) {
      out.metrics.Set(layer + ".self_ms", ms, "ms");
    }
    if (!config.trace_path.empty() &&
        !Tracer::Global().WriteJson(config.trace_path)) {
      out.Fail("cannot write spans to " + config.trace_path);
    }
    out.metrics.Set("fail_ratio",
                    out.attempted == 0
                        ? 0.0
                        : static_cast<double>(out.failed) /
                              static_cast<double>(out.attempted),
                    "ratio");
  } else {
    out.metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
  }
  for (const std::string& name : out.metrics.NonFinite()) {
    out.Fail(name + " is not finite: it falls on failed requests");
  }
  for (const std::string& error : out.errors) Note("ORACLE FAILED", error);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(
                  1, out.attempted)),
              static_cast<unsigned long long>(out.failed),
              out.metrics.ToJson().c_str());
  std::fflush(stdout);
  // Skip static destructors of the libraries' global registries: the
  // servers are already stopped and joined.
  std::_Exit(0);
}
