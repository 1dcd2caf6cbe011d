#include "obs/log.h"

#include <atomic>
#include <cstdio>
#include <ctime>
#include <mutex>

#include "common/log_hook.h"
#include "common/string_util.h"
#include "obs/config.h"
#include "obs/ring.h"
#include "obs/trace.h"

namespace frappe::obs {
namespace {

constexpr int kThresholdUnset = -1;

struct LogState {
  std::mutex mu;
  Ring<LogEntry> ring{Log::kRingCapacity};  // recent entries for /debug/logz
  std::FILE* file = nullptr;  // FRAPPE_LOG_FILE sink, nullptr => stderr
  bool file_probed = false;
  std::function<void(const LogEntry&)> test_sink;
};

LogState& State() {
  static LogState* state = new LogState();
  return *state;
}

// kThresholdUnset until the first Threshold() call reads the config.
std::atomic<int> g_threshold{kThresholdUnset};

std::FILE* SinkLocked(LogState& state, const std::string& path) {
  if (!state.file_probed) {
    state.file_probed = true;
    if (!path.empty()) {
      state.file = std::fopen(path.c_str(), "a");
      if (state.file == nullptr) {
        std::fprintf(stderr,
                     "level=warn component=log msg=\"cannot open "
                     "FRAPPE_LOG_FILE '%s'; logging to stderr\"\n",
                     path.c_str());
      }
    }
  }
  return state.file != nullptr ? state.file : stderr;
}

// Routes common-layer diagnostics (fault injector, file I/O) through the
// full pipeline. Installed by a static registrar below so any binary that
// links obs gets structured common-layer logs for free.
void CommonLayerHandler(int severity, const char* component,
                        const char* message) {
  LogLevel level = severity >= common::kLogError  ? LogLevel::kError
                   : severity == common::kLogWarn ? LogLevel::kWarn
                   : severity == common::kLogInfo ? LogLevel::kInfo
                                                  : LogLevel::kDebug;
  Log::Write(level, component, message);
}

struct HandlerRegistrar {
  HandlerRegistrar() { common::SetLogHandler(&CommonLayerHandler); }
};
HandlerRegistrar g_registrar;

// Indexed by LogLevel.
constexpr const char* kLevelNames[] = {"debug", "info", "warn", "error",
                                       "off"};

}  // namespace

const char* LogLevelName(LogLevel level) {
  return kLevelNames[static_cast<int>(level)];
}

bool ParseLogLevel(const std::string& text, LogLevel* out) {
  std::string lower = ToLower(text);
  if (lower == "warning") lower = "warn";
  if (lower == "none") lower = "off";
  for (int i = 0; i <= static_cast<int>(LogLevel::kOff); ++i) {
    if (lower == kLevelNames[i]) {
      *out = static_cast<LogLevel>(i);
      return true;
    }
  }
  return false;
}

LogLevel Log::Threshold() {
  int cached = g_threshold.load(std::memory_order_relaxed);
  if (cached == kThresholdUnset) {
    cached = static_cast<int>(Config().log_level);
    g_threshold.store(cached, std::memory_order_relaxed);
  }
  return static_cast<LogLevel>(cached);
}

void Log::SetThreshold(LogLevel level) {
  g_threshold.store(static_cast<int>(level), std::memory_order_relaxed);
}

std::string FormatLogLine(const LogEntry& entry) {
  std::time_t secs = static_cast<std::time_t>(entry.ts_us / 1000000);
  std::tm tm_utc = {};
  gmtime_r(&secs, &tm_utc);
  char ts[40];
  const size_t date_len =
      std::strftime(ts, sizeof(ts), "%Y-%m-%dT%H:%M:%S", &tm_utc);
  std::snprintf(ts + date_len, sizeof(ts) - date_len, ".%06uZ",
                static_cast<unsigned>(entry.ts_us % 1000000));
  std::string line = "ts=";
  line += ts;
  line += " level=";
  line += LogLevelName(entry.level);
  line += " component=";
  line += entry.component;
  line += " msg=";
  line += JsonQuote(entry.message);  // quoted + escaped, key=value friendly
  return line;
}

void Log::Write(LogLevel level, const std::string& component,
                const std::string& message) {
  if (!Enabled(level)) return;
  LogEntry entry;
  entry.ts_us = Trace::UnixMicros();
  entry.level = level;
  entry.component = component;
  entry.message = message;
  std::string line = FormatLogLine(entry);
  // Read before locking: the first Config() call may itself log.
  const std::string& log_file = Config().log_file;

  LogState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  std::FILE* sink = SinkLocked(state, log_file);
  std::fprintf(sink, "%s\n", line.c_str());
  if (sink != stderr) std::fflush(sink);
  state.ring.Push(entry);
  if (state.test_sink) state.test_sink(entry);
}

std::vector<LogEntry> Log::Recent() {
  LogState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.ring.Snapshot();
}

uint64_t Log::Dropped() {
  LogState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.ring.evicted();
}

std::string Log::DumpJson() {
  std::vector<LogEntry> entries = Recent();
  uint64_t dropped = Dropped();
  std::string out = "{\n  \"entries\": [";
  bool first = true;
  for (const LogEntry& e : entries) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"ts_us\": " + std::to_string(e.ts_us);
    out += ", \"level\": \"";
    out += LogLevelName(e.level);
    out += "\", \"component\": " + JsonQuote(e.component);
    out += ", \"message\": " + JsonQuote(e.message) + "}";
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"dropped\": " + std::to_string(dropped) + "\n}\n";
  return out;
}

void Log::ResetForTesting() {
  LogState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  state.ring.Clear();
  state.test_sink = nullptr;
  if (state.file != nullptr) std::fclose(state.file);
  state.file = nullptr;
  state.file_probed = false;
  g_threshold.store(kThresholdUnset, std::memory_order_relaxed);
}

void Log::SetSinkForTesting(std::function<void(const LogEntry&)> sink) {
  LogState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  state.test_sink = std::move(sink);
}

}  // namespace frappe::obs
