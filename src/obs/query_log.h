#ifndef FRAPPE_OBS_QUERY_LOG_H_
#define FRAPPE_OBS_QUERY_LOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/config.h"

namespace frappe::obs {

// Structured query log: one JSON object per executed query, written as
// JSON-lines so the file is greppable, tail-able, and replayable
// (examples/replay_qlog re-executes one against a snapshot;
// tools/qlog_check.py schema-validates it).
//
// The contract that matters is *the query path never blocks on I/O*:
// Record() pushes into a bounded lock-free MPMC ring (Vyukov-style
// sequence slots) and returns; a background writer drains the ring,
// serializes, and appends. A full ring drops the record and counts it
// (dropped()) — load-shedding, not backpressure. Rotation is size-based
// and atomic: when the file would exceed max_bytes it is renamed to
// "<path>.1" via common/file_io (rename + parent fsync) and a fresh file
// starts, so records are never torn mid-line and readers always see a
// complete old or new file.

// One query execution, as logged. Field names match the JSONL keys.
struct QueryLogRecord {
  int64_t ts_us = 0;        // unix epoch microseconds at completion
  uint64_t fingerprint = 0; // obs::Fingerprint64 of `query`
  std::string trace_id;     // 32-hex 128-bit trace id (always present)
  std::string query;        // normalized text (literals stripped)
  std::string raw;          // the executed text verbatim — what replay runs
  std::string status = "ok";  // "ok" or a StatusCode name
  uint64_t latency_us = 0;
  uint64_t rows = 0;
  uint64_t db_hits = 0;
  bool fast_path = false;
  // Latency attribution (the per-query Timeline): where latency_us went.
  // queue_us is 0 for queries that never crossed the server's admission
  // queue (shell, replay, tests).
  uint64_t queue_us = 0;
  uint64_t parse_us = 0;
  uint64_t plan_us = 0;
  uint64_t exec_us = 0;
  // Resource attribution (obs/resource.h): thread-CPU across all threads
  // the query touched, bytes allocated, and the live-heap high-water mark.
  uint64_t cpu_us = 0;
  uint64_t alloc_bytes = 0;
  uint64_t peak_bytes = 0;
};

// `{"ts_us":...,"fp":"0011aabb...","trace_id":"<32 hex>","query":"...",
//   "raw":"...","status":"ok","latency_us":...,"rows":...,"db_hits":...,
//   "fast_path":false,"queue_us":...,"parse_us":...,"plan_us":...,
//   "exec_us":...,"cpu_us":...,"alloc_bytes":...,"peak_bytes":...}\n`
std::string ToJsonLine(const QueryLogRecord& record);

// Parses one line written by ToJsonLine (tolerates unknown keys, enforces
// required ones). Used by the replay tool and tests.
Result<QueryLogRecord> ParseJsonLine(std::string_view line);

// Reads a whole JSONL file; fails on the first malformed line with its
// line number. Blank lines are skipped.
Result<std::vector<QueryLogRecord>> ReadQueryLogFile(const std::string& path);

class QueryLog {
 public:
  struct Options {
    std::string path;
    uint64_t max_bytes = kDefaultQueryLogMaxBytes;  // rotation threshold
    size_t ring_capacity = 4096;       // rounded up to a power of two
  };

  static QueryLog& Global();

  // Opens `options.path` for append and starts the writer thread.
  // FailedPrecondition if already enabled.
  Status Enable(Options options);

  // Enables the log at Config().query_log (FRAPPE_QUERY_LOG; empty ->
  // returns false, log stays off), rotating at
  // Config().query_log_max_bytes. True when the log was enabled.
  Result<bool> EnableFromEnv();

  // Drains the ring, flushes, joins the writer, closes the file. Safe to
  // call when not enabled.
  void Disable();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Lock-free; drops (and counts) when the ring is full or the log is
  // disabled mid-flight.
  void Record(QueryLogRecord record);

  // Blocks until every record pushed before the call is on disk (fflush
  // included). Only meaningful once producers quiesce.
  Status Flush();

  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  uint64_t written() const { return written_.load(std::memory_order_relaxed); }
  uint64_t rotations() const {
    return rotations_.load(std::memory_order_relaxed);
  }

  // Approximate heap bytes held by the in-memory ring (slot structs; the
  // variable-length strings inside records are not walked), reported by
  // /debug/memz.
  uint64_t ApproxRingBytes();

  // Stalls the writer thread so tests can fill the ring deterministically.
  // Pausing blocks until the writer has parked (so nothing pushed after
  // the call is drained until unpause).
  void PauseWriterForTesting(bool paused);

 private:
  QueryLog() = default;

  // Bounded MPMC ring (Vyukov): each slot carries a sequence number the
  // producers/consumer use to claim it without locks.
  struct Slot {
    std::atomic<size_t> seq{0};
    QueryLogRecord record;
  };

  bool TryPush(QueryLogRecord&& record);
  bool TryPop(QueryLogRecord* out);
  bool RingEmpty() const;

  void WriterLoop();
  void WriteRecord(const QueryLogRecord& record);
  void Rotate();

  std::atomic<bool> enabled_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> paused_{false};
  std::atomic<bool> paused_ack_{false};  // the writer is parked
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> written_{0};
  std::atomic<uint64_t> rotations_{0};

  std::vector<std::unique_ptr<Slot>> slots_;
  size_t ring_mask_ = 0;
  std::atomic<size_t> head_{0};  // producers claim here
  std::atomic<size_t> tail_{0};  // the writer consumes here

  Options options_;
  std::mutex file_mu_;         // guards the file_ pointer swap in Rotate
  std::FILE* file_ = nullptr;  // written by the writer thread only
  uint64_t file_bytes_ = 0;    // writer thread only
  std::atomic<bool> writer_idle_{false};
  std::thread writer_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;

  std::mutex lifecycle_mu_;  // serializes Enable/Disable/Flush
};

}  // namespace frappe::obs

#endif  // FRAPPE_OBS_QUERY_LOG_H_
