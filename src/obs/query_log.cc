#include "obs/query_log.h"

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/file_io.h"
#include "common/string_util.h"
#include "obs/fingerprint.h"
#include "obs/log.h"

namespace frappe::obs {

// ---------------------------------------------------------------------------
// JSONL (de)serialization

std::string ToJsonLine(const QueryLogRecord& record) {
  std::string out = "{\"ts_us\":" + std::to_string(record.ts_us) +
                    ",\"fp\":\"" + FingerprintHex(record.fingerprint) +
                    "\",\"trace_id\":" + JsonQuote(record.trace_id) +
                    ",\"query\":" + JsonQuote(record.query) +
                    ",\"raw\":" + JsonQuote(record.raw) +
                    ",\"status\":" + JsonQuote(record.status) +
                    ",\"latency_us\":" + std::to_string(record.latency_us) +
                    ",\"rows\":" + std::to_string(record.rows) +
                    ",\"db_hits\":" + std::to_string(record.db_hits) +
                    ",\"fast_path\":" +
                    (record.fast_path ? "true" : "false") +
                    ",\"queue_us\":" + std::to_string(record.queue_us) +
                    ",\"parse_us\":" + std::to_string(record.parse_us) +
                    ",\"plan_us\":" + std::to_string(record.plan_us) +
                    ",\"exec_us\":" + std::to_string(record.exec_us) +
                    ",\"cpu_us\":" + std::to_string(record.cpu_us) +
                    ",\"alloc_bytes\":" + std::to_string(record.alloc_bytes) +
                    ",\"peak_bytes\":" + std::to_string(record.peak_bytes) +
                    "}\n";
  return out;
}

namespace {

// Minimal parser for the flat JSON objects ToJsonLine emits. `pos` is
// advanced past whatever was consumed; errors carry the byte offset.
struct LineParser {
  std::string_view line;
  size_t pos = 0;

  void SkipWs() {
    while (pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[pos]))) {
      ++pos;
    }
  }

  Status Fail(const std::string& what) const {
    return Status::Corruption("query log line, offset " +
                              std::to_string(pos) + ": " + what);
  }

  Status Expect(char c) {
    SkipWs();
    if (pos >= line.size() || line[pos] != c) {
      return Fail(std::string("expected '") + c + "'");
    }
    ++pos;
    return Status::OK();
  }

  bool Peek(char c) {
    SkipWs();
    return pos < line.size() && line[pos] == c;
  }

  Result<std::string> ParseString() {
    FRAPPE_RETURN_IF_ERROR(Expect('"'));
    std::string out;
    while (pos < line.size() && line[pos] != '"') {
      char c = line[pos];
      if (c == '\\') {
        if (pos + 1 >= line.size()) return Fail("truncated escape");
        char e = line[pos + 1];
        pos += 2;
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos + 4 > line.size()) return Fail("truncated \\u escape");
            unsigned value = 0;
            for (int i = 0; i < 4; ++i) {
              char h = line[pos + static_cast<size_t>(i)];
              value <<= 4;
              if (h >= '0' && h <= '9') value |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                value |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                value |= static_cast<unsigned>(h - 'A' + 10);
              else
                return Fail("bad \\u escape");
            }
            pos += 4;
            // The writer only \u-escapes control bytes; anything else is
            // preserved best-effort as '?'.
            out += value < 0x80 ? static_cast<char>(value) : '?';
            break;
          }
          default:
            return Fail("unknown escape");
        }
        continue;
      }
      out += c;
      ++pos;
    }
    if (pos >= line.size()) return Fail("unterminated string");
    ++pos;  // closing quote
    return out;
  }

  Result<int64_t> ParseInt() {
    SkipWs();
    size_t start = pos;
    if (pos < line.size() && line[pos] == '-') ++pos;
    while (pos < line.size() &&
           std::isdigit(static_cast<unsigned char>(line[pos]))) {
      ++pos;
    }
    int64_t value = 0;
    if (!ParseInt64(line.substr(start, pos - start), &value)) {
      return Fail("expected integer");
    }
    return value;
  }
};

}  // namespace

Result<QueryLogRecord> ParseJsonLine(std::string_view line) {
  LineParser p{line};
  FRAPPE_RETURN_IF_ERROR(p.Expect('{'));
  QueryLogRecord record;
  bool saw_fp = false, saw_query = false;
  if (!p.Peek('}')) {
    while (true) {
      FRAPPE_ASSIGN_OR_RETURN(std::string key, p.ParseString());
      FRAPPE_RETURN_IF_ERROR(p.Expect(':'));
      if (key == "fp") {
        FRAPPE_ASSIGN_OR_RETURN(std::string hex, p.ParseString());
        char* end = nullptr;
        record.fingerprint = std::strtoull(hex.c_str(), &end, 16);
        if (end != hex.c_str() + hex.size() || hex.empty()) {
          return p.Fail("fp is not a hex string");
        }
        saw_fp = true;
      } else if (key == "trace_id") {
        FRAPPE_ASSIGN_OR_RETURN(record.trace_id, p.ParseString());
      } else if (key == "query") {
        FRAPPE_ASSIGN_OR_RETURN(record.query, p.ParseString());
        saw_query = true;
      } else if (key == "raw") {
        FRAPPE_ASSIGN_OR_RETURN(record.raw, p.ParseString());
      } else if (key == "status") {
        FRAPPE_ASSIGN_OR_RETURN(record.status, p.ParseString());
      } else if (key == "ts_us") {
        FRAPPE_ASSIGN_OR_RETURN(record.ts_us, p.ParseInt());
      } else if (key == "latency_us") {
        FRAPPE_ASSIGN_OR_RETURN(int64_t v, p.ParseInt());
        record.latency_us = static_cast<uint64_t>(v);
      } else if (key == "rows") {
        FRAPPE_ASSIGN_OR_RETURN(int64_t v, p.ParseInt());
        record.rows = static_cast<uint64_t>(v);
      } else if (key == "db_hits") {
        FRAPPE_ASSIGN_OR_RETURN(int64_t v, p.ParseInt());
        record.db_hits = static_cast<uint64_t>(v);
      } else if (key == "queue_us") {
        FRAPPE_ASSIGN_OR_RETURN(int64_t v, p.ParseInt());
        record.queue_us = static_cast<uint64_t>(v);
      } else if (key == "parse_us") {
        FRAPPE_ASSIGN_OR_RETURN(int64_t v, p.ParseInt());
        record.parse_us = static_cast<uint64_t>(v);
      } else if (key == "plan_us") {
        FRAPPE_ASSIGN_OR_RETURN(int64_t v, p.ParseInt());
        record.plan_us = static_cast<uint64_t>(v);
      } else if (key == "exec_us") {
        FRAPPE_ASSIGN_OR_RETURN(int64_t v, p.ParseInt());
        record.exec_us = static_cast<uint64_t>(v);
      } else if (key == "cpu_us") {
        FRAPPE_ASSIGN_OR_RETURN(int64_t v, p.ParseInt());
        record.cpu_us = static_cast<uint64_t>(v);
      } else if (key == "alloc_bytes") {
        FRAPPE_ASSIGN_OR_RETURN(int64_t v, p.ParseInt());
        record.alloc_bytes = static_cast<uint64_t>(v);
      } else if (key == "peak_bytes") {
        FRAPPE_ASSIGN_OR_RETURN(int64_t v, p.ParseInt());
        record.peak_bytes = static_cast<uint64_t>(v);
      } else if (key == "fast_path") {
        if (p.Peek('t')) {
          p.pos += 4;
          record.fast_path = true;
        } else if (p.Peek('f')) {
          p.pos += 5;
          record.fast_path = false;
        } else {
          return p.Fail("fast_path is not a bool");
        }
      } else {
        // Unknown key: skip a string or a scalar (forward compatibility).
        if (p.Peek('"')) {
          FRAPPE_RETURN_IF_ERROR(p.ParseString().status());
        } else {
          while (p.pos < p.line.size() && p.line[p.pos] != ',' &&
                 p.line[p.pos] != '}') {
            ++p.pos;
          }
        }
      }
      if (p.Peek(',')) {
        ++p.pos;
        continue;
      }
      break;
    }
  }
  FRAPPE_RETURN_IF_ERROR(p.Expect('}'));
  if (!saw_fp || !saw_query) {
    return Status::Corruption("query log line missing fp/query");
  }
  return record;
}

Result<std::vector<QueryLogRecord>> ReadQueryLogFile(const std::string& path) {
  std::string content;
  FRAPPE_RETURN_IF_ERROR(common::ReadFile(path, &content, "qlog"));
  std::vector<QueryLogRecord> out;
  size_t line_no = 0;
  for (std::string_view line : Split(content, '\n')) {
    ++line_no;
    if (StripWhitespace(line).empty()) continue;
    Result<QueryLogRecord> record = ParseJsonLine(line);
    if (!record.ok()) {
      return Status::Corruption(path + ":" + std::to_string(line_no) + ": " +
                                record.status().message());
    }
    out.push_back(std::move(*record));
  }
  return out;
}

// ---------------------------------------------------------------------------
// QueryLog

QueryLog& QueryLog::Global() {
  static QueryLog* log = new QueryLog();  // never destroyed
  return *log;
}

Status QueryLog::Enable(Options options) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (enabled()) {
    return Status::FailedPrecondition("query log already enabled");
  }
  if (options.path.empty()) {
    return Status::InvalidArgument("query log path is empty");
  }
  size_t capacity = 1;
  while (capacity < options.ring_capacity) capacity <<= 1;
  slots_.clear();
  slots_.reserve(capacity);
  for (size_t i = 0; i < capacity; ++i) {
    auto slot = std::make_unique<Slot>();
    slot->seq.store(i, std::memory_order_relaxed);
    slots_.push_back(std::move(slot));
  }
  ring_mask_ = capacity - 1;
  head_.store(0, std::memory_order_relaxed);
  tail_.store(0, std::memory_order_relaxed);

  file_ = std::fopen(options.path.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::Internal("query log open " + options.path + ": " +
                            std::strerror(errno));
  }
  std::fseek(file_, 0, SEEK_END);
  long at = std::ftell(file_);
  file_bytes_ = at > 0 ? static_cast<uint64_t>(at) : 0;

  options_ = std::move(options);
  stop_.store(false, std::memory_order_relaxed);
  paused_.store(false, std::memory_order_relaxed);
  writer_idle_.store(false, std::memory_order_relaxed);
  writer_ = std::thread([this] { WriterLoop(); });
  enabled_.store(true, std::memory_order_release);
  return Status::OK();
}

Result<bool> QueryLog::EnableFromEnv() {
  const RuntimeConfig& config = Config();
  if (config.query_log.empty()) return false;
  Options options;
  options.path = config.query_log;
  options.max_bytes = config.query_log_max_bytes;
  FRAPPE_RETURN_IF_ERROR(Enable(std::move(options)));
  return true;
}

void QueryLog::Disable() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (!enabled()) return;
  // Stop intake first so the writer's final drain actually finishes.
  enabled_.store(false, std::memory_order_relaxed);
  stop_.store(true, std::memory_order_relaxed);
  wake_cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  if (file_ != nullptr) {
    std::fflush(file_);
    std::fclose(file_);
    file_ = nullptr;
  }
}

void QueryLog::Record(QueryLogRecord record) {
  if (!enabled()) return;
  if (!TryPush(std::move(record))) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool QueryLog::TryPush(QueryLogRecord&& record) {
  size_t pos = head_.load(std::memory_order_relaxed);
  for (;;) {
    Slot& slot = *slots_[pos & ring_mask_];
    size_t seq = slot.seq.load(std::memory_order_acquire);
    intptr_t dif = static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
    if (dif == 0) {
      if (head_.compare_exchange_weak(pos, pos + 1,
                                      std::memory_order_relaxed)) {
        slot.record = std::move(record);
        slot.seq.store(pos + 1, std::memory_order_release);
        return true;
      }
    } else if (dif < 0) {
      return false;  // full
    } else {
      pos = head_.load(std::memory_order_relaxed);
    }
  }
}

bool QueryLog::TryPop(QueryLogRecord* out) {
  // Single consumer (the writer thread; Disable joins it before anyone
  // else touches the ring), so a plain tail store suffices.
  size_t pos = tail_.load(std::memory_order_relaxed);
  Slot& slot = *slots_[pos & ring_mask_];
  size_t seq = slot.seq.load(std::memory_order_acquire);
  intptr_t dif =
      static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1);
  if (dif != 0) return false;  // empty (or producer mid-publish)
  *out = std::move(slot.record);
  slot.record = QueryLogRecord();  // release the strings
  slot.seq.store(pos + ring_mask_ + 1, std::memory_order_release);
  tail_.store(pos + 1, std::memory_order_relaxed);
  return true;
}

bool QueryLog::RingEmpty() const {
  return tail_.load(std::memory_order_relaxed) ==
         head_.load(std::memory_order_relaxed);
}

void QueryLog::WriterLoop() {
  QueryLogRecord record;
  for (;;) {
    if (paused_.load(std::memory_order_relaxed) &&
        !stop_.load(std::memory_order_relaxed)) {
      paused_ack_.store(true, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    paused_ack_.store(false, std::memory_order_relaxed);
    bool wrote = false;
    while (TryPop(&record)) {
      writer_idle_.store(false, std::memory_order_relaxed);
      WriteRecord(record);
      wrote = true;
    }
    if (wrote) std::fflush(file_);
    writer_idle_.store(true, std::memory_order_release);
    if (stop_.load(std::memory_order_relaxed) && RingEmpty()) break;
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait_for(lock, std::chrono::milliseconds(5));
  }
  std::fflush(file_);
}

void QueryLog::WriteRecord(const QueryLogRecord& record) {
  std::string line = ToJsonLine(record);
  // Rotate *before* the write that would breach the cap, so the live file
  // never exceeds max_bytes and no record is split across files.
  if (file_bytes_ > 0 && file_bytes_ + line.size() > options_.max_bytes) {
    Rotate();
  }
  if (std::fwrite(line.data(), 1, line.size(), file_) == line.size()) {
    file_bytes_ += line.size();
    written_.fetch_add(1, std::memory_order_relaxed);
  } else {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

void QueryLog::Rotate() {
  std::lock_guard<std::mutex> lock(file_mu_);  // vs Flush's fflush
  std::fflush(file_);
  std::fclose(file_);
  // Atomic swap: readers of "<path>.1" see a complete old file or none.
  Status renamed =
      common::RenameFile(options_.path, options_.path + ".1", "qlog");
  if (renamed.ok()) {
    rotations_.fetch_add(1, std::memory_order_relaxed);
    file_ = std::fopen(options_.path.c_str(), "wb");
    file_bytes_ = 0;
  } else {
    // Degraded mode: keep appending past the cap rather than lose records.
    LogWarn("qlog", "query log rotation failed: " + renamed.ToString());
    file_ = std::fopen(options_.path.c_str(), "ab");
    std::fseek(file_, 0, SEEK_END);
  }
  if (file_ == nullptr) {
    // Last resort so the writer never dereferences null; records will
    // count as dropped.
    file_ = std::tmpfile();
    file_bytes_ = 0;
  }
}

Status QueryLog::Flush() {
  if (!enabled()) return Status::OK();
  wake_cv_.notify_all();
  // Wait for the writer to drain everything pushed before this call and
  // go idle; stdio locking makes the final fflush safe alongside it.
  for (int spins = 0; spins < 10000; ++spins) {
    if (RingEmpty() && writer_idle_.load(std::memory_order_acquire) &&
        !paused_.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lock(file_mu_);
      std::fflush(file_);
      return Status::OK();
    }
    wake_cv_.notify_all();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Status::DeadlineExceeded("query log flush timed out");
}

uint64_t QueryLog::ApproxRingBytes() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  return slots_.size() * (sizeof(Slot) + sizeof(void*));
}

void QueryLog::PauseWriterForTesting(bool paused) {
  paused_.store(paused, std::memory_order_relaxed);
  if (paused && enabled()) {
    // Wait until the writer has parked: anything pushed from here on
    // stays in the ring until unpause.
    while (!paused_ack_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

}  // namespace frappe::obs
