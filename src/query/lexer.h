#ifndef FRAPPE_QUERY_LEXER_H_
#define FRAPPE_QUERY_LEXER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace frappe::query {

enum class TokenType {
  kEnd,
  kIdent,    // identifiers and keywords (keyword-ness decided by parser)
  kInt,
  kDouble,
  kString,   // quoted with ' or "
  kLParen,   // (
  kRParen,   // )
  kLBracket, // [
  kRBracket, // ]
  kLBrace,   // {
  kRBrace,   // }
  kColon,    // :
  kComma,    // ,
  kDot,      // .
  kDotDot,   // ..
  kPipe,     // |
  kStar,     // *
  kMinus,    // -
  kEq,       // =
  kNe,       // <>
  kLt,       // <
  kLe,       // <=
  kGt,       // >
  kGe,       // >=
};

struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;       // identifier / string payload
  int64_t int_value = 0;
  double double_value = 0.0;
  size_t offset = 0;      // byte offset in the query, for error messages
  size_t end = 0;         // one past the token's last byte in the query

  bool IsKeyword(std::string_view kw) const;  // case-insensitive ident match
};

// Tokenizes an FQL query into `*tokens`, which ends with a kEnd token.
// `<-` and `->` are NOT fused here: the pattern parser combines
// kLt/kMinus/kGt itself so that `a < -5` keeps working in expressions (the
// same choice real Cypher lexers make). On a lex error returns ParseError
// and leaves in `*tokens` the tokens lexed before the error, without kEnd,
// so the caller can still render the query's shape (NormalizeTokens).
Status Lex(std::string_view input, std::vector<Token>* tokens);
Result<std::vector<Token>> Lex(std::string_view input);

// Workload fingerprinting: the *shape* of a query (its literals removed,
// case folded, whitespace and comments collapsed) and the stable 64-bit
// FNV-1a hash of that text (obs::Fingerprint64). /stats, the query log,
// the slow-query log and retained traces all key on it.
struct NormalizedQuery {
  std::string text;
  uint64_t fingerprint = 0;
};

// Renders the shape of `tokens`, lexed from `input`:
//  * identifiers and keywords fold to lower case;
//  * numeric literals become `?`;
//  * string literals become `?`, except index-lookup strings shaped like
//    `'field: value'`, which keep the field: `'field: ?'` (lookups on
//    different index fields stay distinct shapes);
//  * kLt/kMinus and kMinus/kGt at adjacent offsets render as `<-` and
//    `->`; apart (`a < -5`) they stay two tokens;
//  * brackets, `:`, `,`, `.`, `..`, `*`, `-`, `->` and `<-` glue to their
//    neighbours, every other token is separated by one space.
// A token list cut short by a lex error (no kEnd) renders its tokens
// followed by one `?` token for the unlexed rest, so rejected input still
// aggregates by shape and none of its literals reach the telemetry.
NormalizedQuery NormalizeTokens(std::string_view input,
                                const std::vector<Token>& tokens);
// Lex + NormalizeTokens.
NormalizedQuery NormalizeQuery(std::string_view input);

// Query text as an error message quotes it: the first kErrorEchoBytes
// bytes (cut back to a UTF-8 boundary), then "…" when there was more. Error
// messages reach HTTP 400 bodies and the slow-query log, so a megabyte
// literal must not make a megabyte message.
inline constexpr size_t kErrorEchoBytes = 32;
std::string ErrorEcho(std::string_view text);

// Human-readable token description for error messages; its text goes
// through ErrorEcho.
std::string TokenDescription(const Token& token);

}  // namespace frappe::query

#endif  // FRAPPE_QUERY_LEXER_H_
