// RuntimeConfig: every FRAPPE_* knob parsed through a fake environment
// (valid, invalid, empty and unset values), plus the Config() accessor's
// test setter swapping configs under concurrent readers (run under TSan
// via the `parallel` label).

#include "obs/config.h"

#include <atomic>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace frappe::obs {
namespace {

// A fake environment: names map to values; anything else is unset.
EnvLookup FakeEnv(const std::map<std::string, std::string>& vars) {
  return [vars](const char* name) -> const char* {
    auto it = vars.find(name);
    return it == vars.end() ? nullptr : it->second.c_str();
  };
}

struct KnobCase {
  const char* name;
  const char* valid;
  std::string parsed;   // read(config) after parsing `valid`
  const char* invalid;  // nullptr: every non-empty value is accepted
  std::function<std::string(const RuntimeConfig&)> read;
};

std::vector<KnobCase> Knobs() {
  return {
      {"FRAPPE_LOG_LEVEL", "ERROR", "error", "shouty",
       [](const RuntimeConfig& c) {
         return std::string(LogLevelName(c.log_level));
       }},
      {"FRAPPE_LOG_FILE", "frappe.log", "frappe.log", nullptr,
       [](const RuntimeConfig& c) { return c.log_file; }},
      {"FRAPPE_SLOW_QUERY_MS", "0", "0", "12ms",
       [](const RuntimeConfig& c) {
         return std::to_string(c.slow_query_ms);
       }},
      {"FRAPPE_QUERY_MEM_BYTES", "262144", "262144", "64MB",
       [](const RuntimeConfig& c) {
         return std::to_string(c.query_mem_bytes);
       }},
      {"FRAPPE_QUERY_LOG", "queries.jsonl", "queries.jsonl", nullptr,
       [](const RuntimeConfig& c) { return c.query_log; }},
      {"FRAPPE_QUERY_LOG_MAX_BYTES", "2048", "2048", "0",
       [](const RuntimeConfig& c) {
         return std::to_string(c.query_log_max_bytes);
       }},
      {"FRAPPE_STATS_PORT", "0", "0", "65536",
       [](const RuntimeConfig& c) { return std::to_string(c.stats_port); }},
      {"FRAPPE_GIT_SHA", "abc1234", "abc1234", nullptr,
       [](const RuntimeConfig& c) { return c.git_sha; }},
      {"FRAPPE_STUCK_QUERY_MS", "30000", "30000", "-1",
       [](const RuntimeConfig& c) {
         return std::to_string(c.stuck_query_ms);
       }},
      {"FRAPPE_STUCK_QUERY_ACTION", "cancel", "cancel", "explode",
       [](const RuntimeConfig& c) {
         return std::string(c.stuck_query_cancel ? "cancel" : "warn");
       }},
  };
}

// Every knob of `config` except `skip` holds its default.
void ExpectOthersDefault(const RuntimeConfig& config, const char* skip) {
  const RuntimeConfig defaults;
  for (const KnobCase& knob : Knobs()) {
    if (std::string(knob.name) == skip) continue;
    EXPECT_EQ(knob.read(config), knob.read(defaults)) << knob.name;
  }
}

TEST(RuntimeConfigTest, UnsetKnobsKeepTheirDefaults) {
  std::vector<std::string> warnings;
  RuntimeConfig config = ParseRuntimeConfig(FakeEnv({}), &warnings);
  EXPECT_TRUE(warnings.empty());
  ExpectOthersDefault(config, "");
  EXPECT_EQ(config.slow_query_ms, -1);
  EXPECT_EQ(config.stats_port, -1);
  EXPECT_EQ(config.query_log_max_bytes, kDefaultQueryLogMaxBytes);
}

TEST(RuntimeConfigTest, EveryKnobParsesValidInvalidAndEmptyValues) {
  const RuntimeConfig defaults;
  for (const KnobCase& knob : Knobs()) {
    SCOPED_TRACE(knob.name);
    std::vector<std::string> warnings;

    RuntimeConfig valid =
        ParseRuntimeConfig(FakeEnv({{knob.name, knob.valid}}), &warnings);
    EXPECT_EQ(knob.read(valid), knob.parsed);
    EXPECT_TRUE(warnings.empty());
    ExpectOthersDefault(valid, knob.name);

    // An empty value counts as unset: the default, silently.
    RuntimeConfig empty =
        ParseRuntimeConfig(FakeEnv({{knob.name, ""}}), &warnings);
    EXPECT_EQ(knob.read(empty), knob.read(defaults));
    EXPECT_TRUE(warnings.empty());

    if (knob.invalid == nullptr) continue;
    // An invalid value: the default plus exactly one warning naming it.
    RuntimeConfig invalid =
        ParseRuntimeConfig(FakeEnv({{knob.name, knob.invalid}}), &warnings);
    EXPECT_EQ(knob.read(invalid), knob.read(defaults));
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(warnings[0].find(knob.name), std::string::npos) << warnings[0];
    EXPECT_NE(warnings[0].find(knob.invalid), std::string::npos)
        << warnings[0];
    ExpectOthersDefault(invalid, knob.name);
  }
}

TEST(RuntimeConfigTest, OneWarningPerInvalidKnob) {
  std::map<std::string, std::string> vars;
  size_t invalid = 0;
  for (const KnobCase& knob : Knobs()) {
    if (knob.invalid == nullptr) continue;
    vars[knob.name] = knob.invalid;
    ++invalid;
  }
  std::vector<std::string> warnings;
  ParseRuntimeConfig(FakeEnv(vars), &warnings);
  EXPECT_EQ(warnings.size(), invalid);
}

TEST(RuntimeConfigTest, JsonCarriesEveryKnob) {
  std::string json = RuntimeConfigJson(RuntimeConfig());
  for (const char* key :
       {"log_level", "log_file", "slow_query_ms", "query_mem_bytes",
        "query_log", "query_log_max_bytes", "stats_port", "git_sha",
        "stuck_query_ms", "stuck_query_action"}) {
    EXPECT_NE(json.find(std::string("\"") + key + "\": "), std::string::npos)
        << key << " in " << json;
  }
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(RuntimeConfigTest, SetterSwapsUnderConcurrentReaders) {
  const RuntimeConfig saved = Config();
  SetConfigForTesting(RuntimeConfig());
  const RuntimeConfig& before = Config();
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const RuntimeConfig& config = Config();
        // Every config the setter installs has a matching pair.
        ASSERT_EQ(config.slow_query_ms < 0, config.query_mem_bytes == 0);
      }
    });
  }
  for (int i = 1; i <= 200; ++i) {
    RuntimeConfig config;
    config.slow_query_ms = i;
    config.query_mem_bytes = static_cast<uint64_t>(i);
    SetConfigForTesting(config);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(Config().slow_query_ms, 200);
  // A reference handed out before the swaps is still readable.
  EXPECT_EQ(before.slow_query_ms, -1);
  SetConfigForTesting(saved);
}

}  // namespace
}  // namespace frappe::obs
