#ifndef FRAPPE_OBS_LOG_H_
#define FRAPPE_OBS_LOG_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace frappe::obs {

// Structured, leveled logging for the server-side subsystems. One line per
// event in key=value form:
//
//   ts=2026-08-06T12:34:56.789012Z level=warn component=qlog msg="..."
//
// The sink is stderr by default, or the file named by FRAPPE_LOG_FILE
// (appended). Every emitted entry is also kept in a bounded in-memory ring
// so the stats server can serve the recent tail on /debug/logz without any
// file I/O. The threshold comes from FRAPPE_LOG_LEVEL
// (debug|info|warn|error|off, case-insensitive; default info), both read
// through obs::Config(), and can be overridden programmatically.
//
// Emission below the threshold is a single relaxed atomic load and a
// branch; the mutex is only taken for entries that actually pass.

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,
};

// Stable lowercase name ("debug", "info", "warn", "error", "off").
const char* LogLevelName(LogLevel level);

// Parses a level name (case-insensitive; accepts "warning" for kWarn).
// Returns false and leaves *out untouched on unknown input.
bool ParseLogLevel(const std::string& text, LogLevel* out);

struct LogEntry {
  uint64_t ts_us = 0;  // microseconds since the Unix epoch
  LogLevel level = LogLevel::kInfo;
  std::string component;
  std::string message;
};

class Log {
 public:
  // Entries retained for /debug/logz; older entries are overwritten.
  static constexpr size_t kRingCapacity = 256;

  // The active threshold. First call reads Config().log_level.
  static LogLevel Threshold();
  static void SetThreshold(LogLevel level);

  static bool Enabled(LogLevel level) {
    return static_cast<int>(level) >= static_cast<int>(Threshold()) &&
           Threshold() != LogLevel::kOff;
  }

  // Emits one entry (formats, writes to the sink, appends to the ring) if
  // `level` passes the threshold.
  static void Write(LogLevel level, const std::string& component,
                    const std::string& message);

  // Snapshot of the ring, oldest first.
  static std::vector<LogEntry> Recent();
  // {"entries": [{"ts_us", "level", "component", "message"}, ...],
  //  "dropped": N}
  static std::string DumpJson();
  // Entries evicted from the ring since the last reset.
  static uint64_t Dropped();

  // Clears the ring, drop counter, and test sink; re-reads the threshold
  // and sink from Config() on next use.
  static void ResetForTesting();

  // Mirror every passing entry into `sink` (called under the log mutex);
  // pass nullptr to clear. The normal sink still runs.
  static void SetSinkForTesting(std::function<void(const LogEntry&)> sink);
};

// Formats `entry` as the canonical key=value line (no trailing newline).
std::string FormatLogLine(const LogEntry& entry);

// Convenience wrappers. `component` is a short subsystem tag ("qlog",
// "statsz", "snapshot", "watchdog", ...).
inline void LogDebug(const std::string& component, const std::string& msg) {
  Log::Write(LogLevel::kDebug, component, msg);
}
inline void LogInfo(const std::string& component, const std::string& msg) {
  Log::Write(LogLevel::kInfo, component, msg);
}
inline void LogWarn(const std::string& component, const std::string& msg) {
  Log::Write(LogLevel::kWarn, component, msg);
}
inline void LogError(const std::string& component, const std::string& msg) {
  Log::Write(LogLevel::kError, component, msg);
}

}  // namespace frappe::obs

#endif  // FRAPPE_OBS_LOG_H_
