#ifndef FRAPPE_OBS_CONFIG_H_
#define FRAPPE_OBS_CONFIG_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/log.h"

namespace frappe::obs {

// The runtime knobs of the obs, query and server layers, read from the
// environment once per process. An empty value counts as unset. A value
// that does not parse (e.g. "64MB", a negative count, an unknown level)
// keeps that knob's default and is logged once. Nothing re-reads the
// environment afterwards, so no read can race a setenv; tests swap
// configs with SetConfigForTesting.

inline constexpr uint64_t kDefaultQueryLogMaxBytes = 64ull << 20;

struct RuntimeConfig {
  // FRAPPE_LOG_LEVEL: debug|info|warn|error|off, any case.
  LogLevel log_level = LogLevel::kInfo;
  // FRAPPE_LOG_FILE: append log lines to this file; empty = stderr.
  std::string log_file;
  // FRAPPE_SLOW_QUERY_MS: log queries at or over this many ms; -1 = off.
  int64_t slow_query_ms = -1;
  // FRAPPE_QUERY_MEM_BYTES: per-query memory budget; 0 = unlimited.
  uint64_t query_mem_bytes = 0;
  // FRAPPE_QUERY_LOG: structured query log path; empty = off.
  std::string query_log;
  // FRAPPE_QUERY_LOG_MAX_BYTES: query-log rotation size, > 0.
  uint64_t query_log_max_bytes = kDefaultQueryLogMaxBytes;
  // FRAPPE_STATS_PORT: stats server port, 0-65535 (0 = kernel-assigned);
  // -1 = no server.
  int stats_port = -1;
  // FRAPPE_GIT_SHA: build SHA on /metrics and /stats; empty = the
  // configure-time commit.
  std::string git_sha;
  // FRAPPE_STUCK_QUERY_MS: stuck-query watchdog threshold, > 0; 0 = off.
  uint64_t stuck_query_ms = 0;
  // FRAPPE_STUCK_QUERY_ACTION: warn (default) or cancel.
  bool stuck_query_cancel = false;
};

// Returns the value of an environment variable, or nullptr when unset.
using EnvLookup = std::function<const char*(const char*)>;

// Parses every knob through `lookup`. Each rejected value appends one
// human-readable line to `warnings` and leaves that knob at its default.
RuntimeConfig ParseRuntimeConfig(const EnvLookup& lookup,
                                 std::vector<std::string>* warnings);

// The process's config: the environment parsed on first use, with each
// rejected value logged once. Cheap (two atomic loads); safe from any
// thread. The reference stays valid for the life of the process.
const RuntimeConfig& Config();

// Makes `config` the one Config() returns from now on. Configs handed out
// earlier stay alive, so readers on other threads never race the swap.
void SetConfigForTesting(const RuntimeConfig& config);

// The config as a JSON object (one key per knob), for the /stats body.
std::string RuntimeConfigJson(const RuntimeConfig& config);

}  // namespace frappe::obs

#endif  // FRAPPE_OBS_CONFIG_H_
