#include "obs/log.h"

#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "common/log_hook.h"
#include "gtest/gtest.h"
#include "obs/config.h"

namespace frappe::obs {
namespace {

// Every test routes the file sink to a scratch file so the suite doesn't
// spray structured lines over the gtest output, and resets the singleton
// state (ring, threshold cache, sink probe) around itself.
class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetConfigForTesting(ScratchConfig());
    Log::ResetForTesting();
  }
  void TearDown() override {
    SetConfigForTesting(RuntimeConfig());
    Log::ResetForTesting();
    std::remove(kScratchPath);
  }

  static RuntimeConfig ScratchConfig() {
    RuntimeConfig config;
    config.log_file = kScratchPath;
    return config;
  }

  static constexpr const char* kScratchPath = "log_test_scratch.log";
};

TEST_F(LogTest, LevelNamesAreStable) {
  EXPECT_STREQ(LogLevelName(LogLevel::kDebug), "debug");
  EXPECT_STREQ(LogLevelName(LogLevel::kInfo), "info");
  EXPECT_STREQ(LogLevelName(LogLevel::kWarn), "warn");
  EXPECT_STREQ(LogLevelName(LogLevel::kError), "error");
  EXPECT_STREQ(LogLevelName(LogLevel::kOff), "off");
}

TEST_F(LogTest, ParseLogLevelAcceptsAliasesAndCase) {
  LogLevel level = LogLevel::kOff;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("INFO", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_TRUE(ParseLogLevel("Warning", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(ParseLogLevel("warn", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(ParseLogLevel("ERROR", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_TRUE(ParseLogLevel("off", &level));
  EXPECT_EQ(level, LogLevel::kOff);
  EXPECT_TRUE(ParseLogLevel("none", &level));
  EXPECT_EQ(level, LogLevel::kOff);

  level = LogLevel::kDebug;
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
  EXPECT_EQ(level, LogLevel::kDebug);  // untouched on failure
}

// Unknown FRAPPE_LOG_LEVEL values are covered by obs_config_test.
TEST_F(LogTest, ThresholdComesFromConfig) {
  RuntimeConfig config = ScratchConfig();
  config.log_level = LogLevel::kError;
  SetConfigForTesting(config);
  Log::ResetForTesting();
  EXPECT_EQ(Log::Threshold(), LogLevel::kError);
  EXPECT_FALSE(Log::Enabled(LogLevel::kWarn));
  EXPECT_TRUE(Log::Enabled(LogLevel::kError));

  SetConfigForTesting(ScratchConfig());
  Log::ResetForTesting();
  EXPECT_EQ(Log::Threshold(), LogLevel::kInfo);
  EXPECT_FALSE(Log::Enabled(LogLevel::kDebug));
}

TEST_F(LogTest, WritesBelowThresholdAreDropped) {
  Log::SetThreshold(LogLevel::kWarn);
  LogInfo("test", "too quiet");
  LogWarn("test", "loud enough");
  std::vector<LogEntry> recent = Log::Recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].level, LogLevel::kWarn);
  EXPECT_EQ(recent[0].component, "test");
  EXPECT_EQ(recent[0].message, "loud enough");
  EXPECT_GT(recent[0].ts_us, 0u);
}

TEST_F(LogTest, OffSuppressesEverything) {
  Log::SetThreshold(LogLevel::kOff);
  LogError("test", "even errors");
  EXPECT_TRUE(Log::Recent().empty());
}

TEST_F(LogTest, FormatLogLineIsCanonicalKeyValue) {
  LogEntry entry;
  entry.ts_us = 1234567890123456ull;  // 2009-02-13T23:31:30.123456Z
  entry.level = LogLevel::kWarn;
  entry.component = "qlog";
  entry.message = "rotation failed: \"disk\" full";
  EXPECT_EQ(FormatLogLine(entry),
            "ts=2009-02-13T23:31:30.123456Z level=warn component=qlog "
            "msg=\"rotation failed: \\\"disk\\\" full\"");
}

TEST_F(LogTest, TestSinkMirrorsPassingEntries) {
  Log::SetThreshold(LogLevel::kInfo);
  std::vector<LogEntry> seen;
  Log::SetSinkForTesting([&seen](const LogEntry& e) { seen.push_back(e); });
  LogDebug("test", "filtered");
  LogInfo("test", "mirrored");
  Log::SetSinkForTesting(nullptr);
  LogInfo("test", "after clear");
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].message, "mirrored");
}

TEST_F(LogTest, RingIsBoundedAndOldestFirst) {
  Log::SetThreshold(LogLevel::kInfo);
  const size_t total = Log::kRingCapacity + 44;
  for (size_t i = 0; i < total; ++i) {
    LogInfo("ring", "m" + std::to_string(i));
  }
  std::vector<LogEntry> recent = Log::Recent();
  ASSERT_EQ(recent.size(), Log::kRingCapacity);
  EXPECT_EQ(recent.front().message, "m44");
  EXPECT_EQ(recent.back().message, "m" + std::to_string(total - 1));
  EXPECT_EQ(Log::Dropped(), 44u);
}

TEST_F(LogTest, DumpJsonCarriesEntriesAndDropped) {
  Log::SetThreshold(LogLevel::kInfo);
  LogWarn("dump", "hello \"world\"");
  std::string json = Log::DumpJson();
  EXPECT_NE(json.find("\"entries\": ["), std::string::npos) << json;
  EXPECT_NE(json.find("\"level\": \"warn\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"component\": \"dump\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"message\": \"hello \\\"world\\\"\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"dropped\": 0"), std::string::npos) << json;
}

TEST_F(LogTest, FileSinkAppendsFormattedLines) {
  Log::SetThreshold(LogLevel::kInfo);
  LogWarn("filetest", "to the file");
  // Write() flushes file sinks, so the line is on disk already.
  std::ifstream in(kScratchPath);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("level=warn component=filetest "
                               "msg=\"to the file\""),
            std::string::npos)
      << content.str();
}

// The common-layer hook (fault injector, file I/O) routes through the full
// obs pipeline via the handler the obs library installs at static init.
TEST_F(LogTest, CommonLayerHookReachesTheRing) {
  Log::SetThreshold(LogLevel::kInfo);
  common::LogMessage(common::kLogWarn, "fault_injector", "via the hook");
  std::vector<LogEntry> recent = Log::Recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].level, LogLevel::kWarn);
  EXPECT_EQ(recent[0].component, "fault_injector");
  EXPECT_EQ(recent[0].message, "via the hook");
}

TEST_F(LogTest, ConcurrentWritersNeverTearTheRing) {
  Log::SetThreshold(LogLevel::kInfo);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        LogInfo("t" + std::to_string(t), "m" + std::to_string(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(Log::Recent().size(), Log::kRingCapacity);
  EXPECT_EQ(Log::Dropped(),
            static_cast<uint64_t>(kThreads * kPerThread) - Log::kRingCapacity);
}

}  // namespace
}  // namespace frappe::obs
