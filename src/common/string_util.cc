#include "common/string_util.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>

namespace frappe {

std::vector<std::string_view> Split(std::string_view input, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(input.substr(start));
      break;
    }
    out.push_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string_view> SplitSkipEmpty(std::string_view input,
                                             char sep) {
  std::vector<std::string_view> out;
  for (std::string_view piece : Split(input, sep)) {
    if (!piece.empty()) out.push_back(piece);
  }
  return out;
}

namespace {
template <typename Parts>
std::string JoinImpl(const Parts& parts, std::string_view sep) {
  std::string out;
  bool first = true;
  for (const auto& p : parts) {
    if (!first) out.append(sep);
    out.append(p);
    first = false;
  }
  return out;
}
}  // namespace

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  return JoinImpl(parts, sep);
}

std::string Join(const std::vector<std::string_view>& parts,
                 std::string_view sep) {
  return JoinImpl(parts, sep);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

bool WildcardMatch(std::string_view pattern, std::string_view text,
                   bool ignore_case) {
  auto eq = [ignore_case](char a, char b) {
    if (ignore_case) {
      return std::tolower(static_cast<unsigned char>(a)) ==
             std::tolower(static_cast<unsigned char>(b));
    }
    return a == b;
  };
  // Iterative matcher with single-star backtracking (classic glob loop).
  size_t p = 0, t = 0;
  size_t star = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || eq(pattern[p], text[t]))) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_t = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

bool HasWildcards(std::string_view pattern) {
  return pattern.find_first_of("*?") != std::string_view::npos;
}

size_t BoundedEditDistance(std::string_view a, std::string_view b,
                           size_t limit) {
  if (a.size() > b.size()) std::swap(a, b);
  if (b.size() - a.size() > limit) return limit + 1;
  std::vector<size_t> prev(a.size() + 1);
  std::vector<size_t> cur(a.size() + 1);
  for (size_t i = 0; i <= a.size(); ++i) prev[i] = i;
  for (size_t j = 1; j <= b.size(); ++j) {
    cur[0] = j;
    size_t row_min = cur[0];
    for (size_t i = 1; i <= a.size(); ++i) {
      size_t subst = prev[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[i] = std::min({prev[i] + 1, cur[i - 1] + 1, subst});
      row_min = std::min(row_min, cur[i]);
    }
    if (row_min > limit) return limit + 1;
    std::swap(prev, cur);
  }
  return prev[a.size()] > limit ? limit + 1 : prev[a.size()];
}

bool ParseInt64(std::string_view s, int64_t* out) {
  if (s.empty()) return false;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

std::string HumanBytes(uint64_t bytes) {
  static const char* kUnits[] = {"B", "KB", "MB", "GB", "TB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 4) {
    value /= 1024.0;
    ++unit;
  }
  char buf[32];
  if (unit == 0) {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f %s", value, kUnits[unit]);
  }
  return buf;
}

void AppendJsonEscaped(std::string* out, std::string_view s) {
  // Names almost never need an escape: a branch-free scan (which the
  // compiler vectorizes) lets them through in one append.
  uint8_t escapes = 0;
  for (char ch : s) {
    const uint8_t c = static_cast<uint8_t>(ch);
    escapes |= static_cast<uint8_t>((c < 0x20) | (c == '"') | (c == '\\'));
  }
  if (escapes == 0) {
    out->append(s);
    return;
  }
  for (char ch : s) {
    switch (ch) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default: {
        const uint8_t c = static_cast<uint8_t>(ch);
        if (c >= 0x20) {
          out->push_back(ch);
          break;
        }
        static constexpr char kHex[] = "0123456789abcdef";
        const char escaped[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                kHex[c & 0xf]};
        out->append(escaped, sizeof(escaped));
      }
    }
  }
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendJsonEscaped(&out, s);
  return out;
}

std::string JsonQuote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  AppendJsonEscaped(&out, s);
  out += '"';
  return out;
}

}  // namespace frappe
