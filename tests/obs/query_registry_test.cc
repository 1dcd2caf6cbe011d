#include "obs/query_registry.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/config.h"
#include "obs/fingerprint.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace frappe::obs {
namespace {

// The registry is a process-lifetime singleton; each test leaves it empty
// (handles are scoped) and re-enabled. Logging goes to a scratch file so
// the Cancel/watchdog lines don't interleave with gtest output.
class QueryRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetConfigForTesting(ScratchConfig());
    Log::ResetForTesting();
    registry().set_enabled(true);
    ASSERT_EQ(registry().size(), 0u);
  }
  void TearDown() override {
    registry().StopWatchdog();
    registry().set_enabled(true);
    EXPECT_EQ(registry().size(), 0u);
    SetConfigForTesting(RuntimeConfig());
    Log::ResetForTesting();
    std::remove("registry_test_scratch.log");
  }

  static RuntimeConfig ScratchConfig() {
    RuntimeConfig config;
    config.log_file = "registry_test_scratch.log";
    return config;
  }

  static QueryRegistry& registry() { return QueryRegistry::Global(); }
};

TEST_F(QueryRegistryTest, RegisterSnapshotUnregister) {
  uint64_t id = 0;
  {
    QueryRegistry::Handle handle = registry().Register(
        0xabcdefull, "match (f:function) return f",
        "MATCH (f:function) RETURN f", nullptr);
    ASSERT_NE(handle.entry(), nullptr);
    id = handle.entry()->id;
    EXPECT_GT(id, 0u);
    EXPECT_EQ(registry().size(), 1u);

    std::vector<QueryRegistry::Snapshot> all = registry().SnapshotAll();
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(all[0].id, id);
    EXPECT_EQ(all[0].fingerprint, 0xabcdefull);
    EXPECT_EQ(all[0].normalized, "match (f:function) return f");
    EXPECT_EQ(all[0].raw, "MATCH (f:function) RETURN f");
    EXPECT_GT(all[0].start_unix_us, 0u);
    EXPECT_GE(all[0].elapsed_ms, 0.0);
    EXPECT_EQ(all[0].steps, 0u);
    EXPECT_EQ(all[0].op, nullptr);
    EXPECT_FALSE(all[0].cancel_requested);
  }
  EXPECT_EQ(registry().size(), 0u);
  EXPECT_FALSE(registry().Cancel(id));  // gone
}

TEST_F(QueryRegistryTest, IdsAreUniqueAndIncreasing) {
  QueryRegistry::Handle a = registry().Register(1, "a", "a", nullptr);
  QueryRegistry::Handle b = registry().Register(2, "b", "b", nullptr);
  ASSERT_NE(a.entry(), nullptr);
  ASSERT_NE(b.entry(), nullptr);
  EXPECT_LT(a.entry()->id, b.entry()->id);
  EXPECT_EQ(registry().size(), 2u);
}

TEST_F(QueryRegistryTest, CancelTripsOwnToken) {
  QueryRegistry::Handle handle =
      registry().Register(7, "q", "q", /*external_token=*/nullptr);
  ASSERT_NE(handle.entry(), nullptr);
  // No caller token: the entry owns its own.
  EXPECT_EQ(handle.entry()->cancel_token, &handle.entry()->own_cancel);
  EXPECT_FALSE(handle.entry()->cancel_token->load());

  EXPECT_TRUE(registry().Cancel(handle.entry()->id));
  EXPECT_TRUE(handle.entry()->cancel_token->load());
  std::vector<QueryRegistry::Snapshot> all = registry().SnapshotAll();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_TRUE(all[0].cancel_requested);
}

TEST_F(QueryRegistryTest, CancelAliasesExternalToken) {
  std::atomic<bool> token{false};
  QueryRegistry::Handle handle = registry().Register(7, "q", "q", &token);
  ASSERT_NE(handle.entry(), nullptr);
  EXPECT_EQ(handle.entry()->cancel_token, &token);
  EXPECT_TRUE(registry().Cancel(handle.entry()->id));
  // /debug/cancel and the caller share one switch.
  EXPECT_TRUE(token.load());
}

TEST_F(QueryRegistryTest, CancelUnknownIdFails) {
  EXPECT_FALSE(registry().Cancel(123456789));
}

TEST_F(QueryRegistryTest, DisabledRegistryHandsOutEmptyHandles) {
  registry().set_enabled(false);
  QueryRegistry::Handle handle = registry().Register(1, "q", "q", nullptr);
  EXPECT_EQ(handle.entry(), nullptr);
  EXPECT_EQ(registry().size(), 0u);
  registry().set_enabled(true);
}

TEST_F(QueryRegistryTest, HandleMoveTransfersOwnership) {
  QueryRegistry::Handle a = registry().Register(1, "q", "q", nullptr);
  ASSERT_NE(a.entry(), nullptr);
  QueryRegistry::Handle b = std::move(a);
  EXPECT_EQ(a.entry(), nullptr);
  ASSERT_NE(b.entry(), nullptr);
  EXPECT_EQ(registry().size(), 1u);
  QueryRegistry::Handle c;
  c = std::move(b);
  EXPECT_EQ(registry().size(), 1u);
}

TEST_F(QueryRegistryTest, DumpJsonHasTheQueryzSchema) {
  QueryRegistry::Handle handle = registry().Register(
      0x0123456789abcdefull, "match (f:function) return f",
      "MATCH (f:function) RETURN f", nullptr);
  ASSERT_NE(handle.entry(), nullptr);
  handle.entry()->progress.steps.store(42);
  std::string json = registry().DumpJson();
  EXPECT_NE(json.find("\"now_us\": "), std::string::npos) << json;
  EXPECT_NE(json.find("\"queries\": ["), std::string::npos) << json;
  EXPECT_NE(json.find("\"fp\": \"0123456789abcdef\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"raw\": \"MATCH (f:function) RETURN f\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"steps\": 42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"operator\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cancel_requested\": false"), std::string::npos)
      << json;
}

TEST_F(QueryRegistryTest, WatchdogWarnsOncePerStuckQuery) {
  Log::SetThreshold(LogLevel::kWarn);
  std::vector<LogEntry> warnings;
  std::mutex mu;
  Log::SetSinkForTesting([&](const LogEntry& e) {
    std::lock_guard<std::mutex> lock(mu);
    if (e.component == "watchdog") warnings.push_back(e);
  });

  QueryRegistry::Handle handle =
      registry().Register(9, "slow query", "slow query", nullptr);
  ASSERT_NE(handle.entry(), nullptr);
  registry().StartWatchdog(/*threshold_ms=*/1, /*interval_ms=*/5);
  EXPECT_TRUE(registry().watchdog_running());
  // Several watchdog scan intervals pass; the query stays "stuck".
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  registry().StopWatchdog();
  EXPECT_FALSE(registry().watchdog_running());
  Log::SetSinkForTesting(nullptr);

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(warnings.size(), 1u) << "warn-once per query, not per scan";
  EXPECT_NE(warnings[0].message.find("stuck query"), std::string::npos);
  EXPECT_NE(warnings[0].message.find(
                "id=" + std::to_string(handle.entry()->id)),
            std::string::npos)
      << warnings[0].message;
}

TEST_F(QueryRegistryTest, WatchdogIgnoresFastQueries) {
  Log::SetThreshold(LogLevel::kWarn);
  std::vector<LogEntry> warnings;
  std::mutex mu;
  Log::SetSinkForTesting([&](const LogEntry& e) {
    std::lock_guard<std::mutex> lock(mu);
    if (e.component == "watchdog") warnings.push_back(e);
  });
  registry().StartWatchdog(/*threshold_ms=*/60000, /*interval_ms=*/5);
  {
    QueryRegistry::Handle handle =
        registry().Register(9, "fast", "fast", nullptr);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  registry().StopWatchdog();
  Log::SetSinkForTesting(nullptr);
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_TRUE(warnings.empty());
}

TEST_F(QueryRegistryTest, WatchdogCancelActionTripsTheToken) {
  Log::SetThreshold(LogLevel::kWarn);
  std::vector<LogEntry> warnings;
  std::mutex mu;
  Log::SetSinkForTesting([&](const LogEntry& e) {
    std::lock_guard<std::mutex> lock(mu);
    if (e.component == "watchdog") warnings.push_back(e);
  });
  uint64_t cancelled_before =
      Registry::Global().GetCounter("query.watchdog_cancelled").Value();

  QueryRegistry::Handle handle =
      registry().Register(9, "stuck query", "stuck query", nullptr);
  ASSERT_NE(handle.entry(), nullptr);
  registry().StartWatchdog(/*threshold_ms=*/1, /*interval_ms=*/5,
                           QueryRegistry::WatchdogAction::kCancel);
  // Give the watchdog several scan intervals: it must cancel exactly once.
  for (int i = 0; i < 100 && !handle.entry()->cancel_token->load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  registry().StopWatchdog();
  Log::SetSinkForTesting(nullptr);

  // The stuck query's cancel token is tripped — the executor's next poll
  // ends it with kCancelled, same as /debug/cancel.
  EXPECT_TRUE(handle.entry()->cancel_token->load());
  EXPECT_TRUE(handle.entry()->cancel_requested.load());
  EXPECT_EQ(
      Registry::Global().GetCounter("query.watchdog_cancelled").Value(),
      cancelled_before + 1);

  std::lock_guard<std::mutex> lock(mu);
  // One warn + one cancelled line, both exactly once despite many scans.
  ASSERT_EQ(warnings.size(), 2u);
  EXPECT_NE(warnings[0].message.find("stuck query"), std::string::npos);
  EXPECT_NE(warnings[1].message.find("cancelled"), std::string::npos);
}

// Invalid FRAPPE_STUCK_QUERY_MS / _ACTION values are covered by
// obs_config_test: they parse to the defaults used here.
TEST_F(QueryRegistryTest, WatchdogActionFromConfig) {
  RuntimeConfig config = ScratchConfig();
  config.stuck_query_ms = 30000;
  config.stuck_query_cancel = true;
  SetConfigForTesting(config);
  EXPECT_TRUE(registry().MaybeStartWatchdogFromEnv());
  EXPECT_TRUE(registry().watchdog_running());
  registry().StopWatchdog();

  config.stuck_query_cancel = false;
  SetConfigForTesting(config);
  EXPECT_TRUE(registry().MaybeStartWatchdogFromEnv());
  registry().StopWatchdog();
}

TEST_F(QueryRegistryTest, WatchdogFromConfig) {
  EXPECT_FALSE(registry().MaybeStartWatchdogFromEnv());
  EXPECT_FALSE(registry().watchdog_running());

  RuntimeConfig config = ScratchConfig();
  config.stuck_query_ms = 30000;
  SetConfigForTesting(config);
  EXPECT_TRUE(registry().MaybeStartWatchdogFromEnv());
  EXPECT_TRUE(registry().watchdog_running());
  registry().StopWatchdog();
}

TEST_F(QueryRegistryTest, ConcurrentRegisterCancelSnapshot) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100;
  std::atomic<uint64_t> cancelled{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &cancelled] {
      for (int i = 0; i < kPerThread; ++i) {
        QueryRegistry::Handle handle = registry().Register(
            static_cast<uint64_t>(t), "q", "q" + std::to_string(i), nullptr);
        ASSERT_NE(handle.entry(), nullptr);
        handle.entry()->progress.steps.fetch_add(1);
        if (i % 7 == 0 && registry().Cancel(handle.entry()->id)) {
          cancelled.fetch_add(1);
        }
      }
    });
  }
  // Readers race the writers: snapshots and dumps must stay coherent.
  std::thread reader([this] {
    for (int i = 0; i < 50; ++i) {
      registry().SnapshotAll();
      registry().DumpJson();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  for (std::thread& t : threads) t.join();
  reader.join();
  EXPECT_EQ(registry().size(), 0u);  // every handle released
  EXPECT_GT(cancelled.load(), 0u);
}

}  // namespace
}  // namespace frappe::obs
