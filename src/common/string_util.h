#ifndef FRAPPE_COMMON_STRING_UTIL_H_
#define FRAPPE_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace frappe {

// Splits `input` on `sep`, keeping empty pieces.
std::vector<std::string_view> Split(std::string_view input, char sep);

// Splits `input` on `sep`, dropping empty pieces.
std::vector<std::string_view> SplitSkipEmpty(std::string_view input, char sep);

// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);
std::string Join(const std::vector<std::string_view>& parts,
                 std::string_view sep);

// ASCII-only case transforms (identifiers and file names are ASCII here).
std::string ToLower(std::string_view s);
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

// Removes leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

// Glob-style match supporting '*' (any run) and '?' (any single char).
// Case-insensitive when `ignore_case` is set (the name index folds case the
// way Neo4j's lucene auto-index did).
bool WildcardMatch(std::string_view pattern, std::string_view text,
                   bool ignore_case = false);

// Returns true if `pattern` contains glob metacharacters.
bool HasWildcards(std::string_view pattern);

// Levenshtein edit distance, early-exiting with `limit + 1` once the
// distance provably exceeds `limit`. Used for fuzzy name search.
size_t BoundedEditDistance(std::string_view a, std::string_view b,
                           size_t limit);

// Parses a signed decimal integer; returns false on any non-numeric input.
bool ParseInt64(std::string_view s, int64_t* out);

// Formats `bytes` as a human-readable quantity ("1.23 MB").
std::string HumanBytes(uint64_t bytes);

// Escapes `s` for embedding inside a JSON string literal (quotes,
// backslashes, control characters as \uXXXX) and appends it to `out`.
// Does NOT add surrounding quotes; JsonQuote does. JsonEscape returns the
// same escape as a new string.
void AppendJsonEscaped(std::string* out, std::string_view s);
std::string JsonEscape(std::string_view s);
std::string JsonQuote(std::string_view s);

}  // namespace frappe

#endif  // FRAPPE_COMMON_STRING_UTIL_H_
