#include "obs/config.h"

#include <atomic>
#include <cstdlib>
#include <deque>
#include <limits>
#include <mutex>
#include <string_view>
#include <type_traits>

#include "common/string_util.h"

namespace frappe::obs {

namespace {

struct ConfigState {
  std::mutex mu;  // guards `installed`
  // Every config that was ever current, never freed (a deque keeps their
  // addresses), so a reference from Config() outlives any later swap.
  std::deque<RuntimeConfig> installed;
  std::atomic<const RuntimeConfig*> current{nullptr};
  std::vector<std::string> warnings;  // from the environment parse
  std::atomic<bool> warned{false};

  void Install(const RuntimeConfig& config) {
    std::lock_guard<std::mutex> lock(mu);
    current.store(&installed.emplace_back(config), std::memory_order_release);
  }
};

ConfigState& State() {
  static ConfigState* state = [] {
    auto* s = new ConfigState();  // never destroyed
    s->Install(ParseRuntimeConfig(
        [](const char* name) { return std::getenv(name); }, &s->warnings));
    return s;
  }();
  return *state;
}

}  // namespace

RuntimeConfig ParseRuntimeConfig(const EnvLookup& lookup,
                                 std::vector<std::string>* warnings) {
  RuntimeConfig config;
  auto value = [&](const char* name) {
    const char* raw = lookup(name);
    return raw == nullptr ? std::string_view() : std::string_view(raw);
  };
  auto reject = [&](const char* name, std::string_view raw,
                    const char* want) {
    warnings->push_back(std::string("ignoring ") + name + "='" +
                        std::string(raw) + "' (want " + want +
                        "); using the default");
  };
  // An integer knob within [min, max]; the default stays on anything else.
  auto integer = [&](const char* name, int64_t min, int64_t max,
                     const char* want, auto* out) {
    std::string_view raw = value(name);
    if (raw.empty()) return;
    int64_t parsed = 0;
    if (!ParseInt64(raw, &parsed) || parsed < min || parsed > max) {
      reject(name, raw, want);
      return;
    }
    *out = static_cast<std::remove_pointer_t<decltype(out)>>(parsed);
  };
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

  if (std::string_view raw = value("FRAPPE_LOG_LEVEL");
      !raw.empty() && !ParseLogLevel(std::string(raw), &config.log_level)) {
    reject("FRAPPE_LOG_LEVEL", raw, "debug|info|warn|error|off");
  }
  config.log_file = value("FRAPPE_LOG_FILE");
  integer("FRAPPE_SLOW_QUERY_MS", 0, kMax, "ms >= 0", &config.slow_query_ms);
  integer("FRAPPE_QUERY_MEM_BYTES", 0, kMax, "bytes >= 0",
          &config.query_mem_bytes);
  config.query_log = value("FRAPPE_QUERY_LOG");
  integer("FRAPPE_QUERY_LOG_MAX_BYTES", 1, kMax, "bytes > 0",
          &config.query_log_max_bytes);
  integer("FRAPPE_STATS_PORT", 0, 65535, "a port 0-65535",
          &config.stats_port);
  config.git_sha = value("FRAPPE_GIT_SHA");
  integer("FRAPPE_STUCK_QUERY_MS", 1, kMax, "ms > 0", &config.stuck_query_ms);
  if (std::string_view raw = value("FRAPPE_STUCK_QUERY_ACTION");
      raw == "cancel") {
    config.stuck_query_cancel = true;
  } else if (!raw.empty() && raw != "warn") {
    reject("FRAPPE_STUCK_QUERY_ACTION", raw, "warn|cancel");
  }
  return config;
}

const RuntimeConfig& Config() {
  ConfigState& state = State();
  // Logged here rather than during the parse: the logger reads Config()
  // itself, so it must find the config already installed.
  if (!state.warned.load(std::memory_order_acquire) &&
      !state.warned.exchange(true)) {
    for (const std::string& warning : state.warnings) {
      LogWarn("config", warning);
    }
  }
  return *state.current.load(std::memory_order_acquire);
}

void SetConfigForTesting(const RuntimeConfig& config) {
  State().Install(config);
}

std::string RuntimeConfigJson(const RuntimeConfig& config) {
  return std::string("{\"log_level\": \"") + LogLevelName(config.log_level) +
         "\", \"log_file\": " + JsonQuote(config.log_file) +
         ", \"slow_query_ms\": " + std::to_string(config.slow_query_ms) +
         ", \"query_mem_bytes\": " + std::to_string(config.query_mem_bytes) +
         ", \"query_log\": " + JsonQuote(config.query_log) +
         ", \"query_log_max_bytes\": " +
         std::to_string(config.query_log_max_bytes) +
         ", \"stats_port\": " + std::to_string(config.stats_port) +
         ", \"git_sha\": " + JsonQuote(config.git_sha) +
         ", \"stuck_query_ms\": " + std::to_string(config.stuck_query_ms) +
         ", \"stuck_query_action\": \"" +
         (config.stuck_query_cancel ? "cancel" : "warn") + "\"}";
}

}  // namespace frappe::obs
