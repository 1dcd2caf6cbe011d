#ifndef FRAPPE_BENCH_BENCH_JSON_H_
#define FRAPPE_BENCH_BENCH_JSON_H_

// Machine-readable companion output for the reproduction benches. Each
// bench_* binary accumulates one entry per measured configuration and
// writes BENCH_<name>.json (label, min/avg/max ms, result counts) next to
// the human-readable table, so the perf trajectory is
// trackable across PRs without scraping stdout.
//
// Output location: $FRAPPE_BENCH_JSON_DIR (default: current directory).
// Files are overwritten on every run.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <utility>
#include <vector>

namespace frappe::bench {

struct JsonEntry {
  std::string label;
  std::vector<double> samples_ms;  // min/avg/max derived at write time
  int64_t results = -1;            // result/row/node count; -1 = omit
  std::string note;                // e.g. "ABORTED: ..."; empty = omit
  // Extra numeric facts (counts, sizes, ratios) specific to one bench.
  std::vector<std::pair<std::string, double>> extra;
  // Extra string facts (e.g. per-level push/pull decisions).
  std::vector<std::pair<std::string, std::string>> extra_str;

  JsonEntry& Sample(double ms) {
    samples_ms.push_back(ms);
    return *this;
  }
  JsonEntry& Samples(const std::vector<double>& ms) {
    samples_ms.insert(samples_ms.end(), ms.begin(), ms.end());
    return *this;
  }
  JsonEntry& Results(int64_t count) {
    results = count;
    return *this;
  }
  JsonEntry& Note(std::string text) {
    note = std::move(text);
    return *this;
  }
  JsonEntry& Extra(std::string key, double value) {
    extra.emplace_back(std::move(key), value);
    return *this;
  }
  JsonEntry& ExtraStr(std::string key, std::string value) {
    extra_str.emplace_back(std::move(key), std::move(value));
    return *this;
  }
};

// Collects entries and writes BENCH_<name>.json when Write() is called (or
// on destruction, for benches that exit through main's tail).
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}
  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;
  ~JsonReport() { Write(); }

  JsonEntry& Add(std::string label) {
    entries_.emplace_back();
    entries_.back().label = std::move(label);
    return entries_.back();
  }

  void Write() {
    if (written_) return;
    written_ = true;
    std::string path = Path();
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "[bench_json] cannot write %s\n", path.c_str());
      return;
    }
    // Provenance stamp: which commit produced the numbers, and when — so
    // BENCH_*.json files from different PRs are comparable as a trajectory.
    // The rusage block records what the run cost the machine: peak RSS and
    // user/system CPU seconds of the whole bench process (getrusage), so a
    // memory regression shows up in the artifact even when latency holds.
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    double user_s = static_cast<double>(usage.ru_utime.tv_sec) +
                    static_cast<double>(usage.ru_utime.tv_usec) / 1e6;
    double sys_s = static_cast<double>(usage.ru_stime.tv_sec) +
                   static_cast<double>(usage.ru_stime.tv_usec) / 1e6;
    std::fprintf(f,
                 "{\n  \"bench\": %s,\n  \"git_sha\": %s,\n"
                 "  \"timestamp\": %s,\n  \"rusage\": {\"max_rss_kb\": %lld,"
                 " \"user_s\": %s, \"sys_s\": %s},\n  \"entries\": [",
                 Quoted(name_).c_str(), Quoted(GitSha()).c_str(),
                 Quoted(TimestampUtc()).c_str(),
                 static_cast<long long>(usage.ru_maxrss),
                 Num(user_s).c_str(), Num(sys_s).c_str());
    for (size_t i = 0; i < entries_.size(); ++i) {
      const JsonEntry& e = entries_[i];
      std::fprintf(f, "%s\n    {\"label\": %s", i == 0 ? "" : ",",
                   Quoted(e.label).c_str());
      if (!e.samples_ms.empty()) {
        double min = *std::min_element(e.samples_ms.begin(),
                                       e.samples_ms.end());
        double max = *std::max_element(e.samples_ms.begin(),
                                       e.samples_ms.end());
        double sum = 0;
        for (double s : e.samples_ms) sum += s;
        std::fprintf(f,
                     ", \"iterations\": %zu, \"min_ms\": %s, \"avg_ms\": %s,"
                     " \"max_ms\": %s",
                     e.samples_ms.size(), Num(min).c_str(),
                     Num(sum / static_cast<double>(e.samples_ms.size()))
                         .c_str(),
                     Num(max).c_str());
      }
      if (e.results >= 0) {
        std::fprintf(f, ", \"results\": %lld",
                     static_cast<long long>(e.results));
      }
      for (const auto& [key, value] : e.extra) {
        std::fprintf(f, ", %s: %s", Quoted(key).c_str(), Num(value).c_str());
      }
      for (const auto& [key, value] : e.extra_str) {
        std::fprintf(f, ", %s: %s", Quoted(key).c_str(),
                     Quoted(value).c_str());
      }
      if (!e.note.empty()) {
        std::fprintf(f, ", \"note\": %s", Quoted(e.note).c_str());
      }
      std::fputc('}', f);
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("\n[bench_json] wrote %s (%zu entries)\n", path.c_str(),
                entries_.size());
  }

  std::string Path() const {
    const char* dir = std::getenv("FRAPPE_BENCH_JSON_DIR");
    std::string prefix = dir != nullptr ? std::string(dir) + "/" : "";
    return prefix + "BENCH_" + name_ + ".json";
  }

 private:
  // Commit SHA baked in at configure time (FRAPPE_GIT_SHA_DEFAULT, see
  // bench/CMakeLists.txt); the FRAPPE_GIT_SHA env var overrides it when the
  // build tree is stale relative to the checkout.
  static std::string GitSha() {
    const char* env = std::getenv("FRAPPE_GIT_SHA");
    if (env != nullptr && *env != '\0') return env;
#ifdef FRAPPE_GIT_SHA_DEFAULT
    return FRAPPE_GIT_SHA_DEFAULT;
#else
    return "unknown";
#endif
  }

  // ISO-8601 UTC, e.g. "2026-08-06T12:34:56Z".
  static std::string TimestampUtc() {
    std::time_t now = std::time(nullptr);
    std::tm tm = {};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
  }

  static std::string Quoted(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += '"';
    return out;
  }

  // %g keeps the file compact while preserving ~6 significant digits.
  static std::string Num(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  }

  std::string name_;
  std::vector<JsonEntry> entries_;
  bool written_ = false;
};

}  // namespace frappe::bench

#endif  // FRAPPE_BENCH_BENCH_JSON_H_
