#include "query/lexer.h"

#include <cctype>
#include <charconv>

#include "common/string_util.h"
#include "obs/fingerprint.h"

namespace frappe::query {

bool Token::IsKeyword(std::string_view kw) const {
  return type == TokenType::kIdent && EqualsIgnoreCase(text, kw);
}

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)); }
bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

// The source text of a punctuation token; empty for kEnd and literals.
std::string_view Spelling(TokenType type) {
  switch (type) {
    case TokenType::kLParen: return "(";
    case TokenType::kRParen: return ")";
    case TokenType::kLBracket: return "[";
    case TokenType::kRBracket: return "]";
    case TokenType::kLBrace: return "{";
    case TokenType::kRBrace: return "}";
    case TokenType::kColon: return ":";
    case TokenType::kComma: return ",";
    case TokenType::kDot: return ".";
    case TokenType::kDotDot: return "..";
    case TokenType::kPipe: return "|";
    case TokenType::kStar: return "*";
    case TokenType::kMinus: return "-";
    case TokenType::kEq: return "=";
    case TokenType::kNe: return "<>";
    case TokenType::kLt: return "<";
    case TokenType::kLe: return "<=";
    case TokenType::kGt: return ">";
    case TokenType::kGe: return ">=";
    default: return "";
  }
}

// Tokens that glue to their neighbours (no space on either side) when the
// normalized text is reassembled. Everything else gets single-space
// separation, which keeps `START n = node:...` and `a <= b` readable.
bool Glues(std::string_view tok) {
  return tok == "(" || tok == ")" || tok == "[" || tok == "]" ||
         tok == "{" || tok == "}" || tok == ":" || tok == "," ||
         tok == "." || tok == ".." || tok == "*" || tok == "-" ||
         tok == "->" || tok == "<-";
}

// `'short_name: sr_media_change'` keeps its field and drops its value:
// the auto-index lookup string is half shape, half parameter. `body` is
// the literal's source text between the quotes.
std::string NormalizeStringLiteral(std::string_view body) {
  size_t i = 0;
  while (i < body.size() && IsSpace(body[i])) ++i;
  size_t field_start = i;
  if (i < body.size() && IsIdentStart(body[i])) {
    while (i < body.size() && IsIdentChar(body[i])) ++i;
    size_t field_end = i;
    while (i < body.size() && IsSpace(body[i])) ++i;
    if (i < body.size() && body[i] == ':') {
      return "'" +
             ToLower(body.substr(field_start, field_end - field_start)) +
             ": ?'";
    }
  }
  return "?";
}

}  // namespace

Status Lex(std::string_view input, std::vector<Token>* tokens) {
  tokens->clear();
  size_t pos = 0;
  auto push = [&](TokenType type, size_t start) -> Token& {
    Token& t = tokens->emplace_back();
    t.type = type;
    t.offset = start;
    t.end = pos;
    return t;
  };

  while (pos < input.size()) {
    char c = input[pos];
    if (IsSpace(c)) {
      ++pos;
      continue;
    }
    // Comments: // to end of line.
    if (c == '/' && pos + 1 < input.size() && input[pos + 1] == '/') {
      while (pos < input.size() && input[pos] != '\n') ++pos;
      continue;
    }
    size_t start = pos;
    if (IsIdentStart(c)) {
      while (pos < input.size() && IsIdentChar(input[pos])) ++pos;
      push(TokenType::kIdent, start).text =
          std::string(input.substr(start, pos - start));
      continue;
    }
    if (IsDigit(c)) {
      while (pos < input.size() && IsDigit(input[pos])) ++pos;
      // A float only if '.' is followed by a digit ("1..3" must lex as
      // 1 .. 3 for range patterns).
      bool is_double = false;
      if (pos + 1 < input.size() && input[pos] == '.' &&
          IsDigit(input[pos + 1])) {
        is_double = true;
        ++pos;
        while (pos < input.size() && IsDigit(input[pos])) ++pos;
      }
      std::string_view text = input.substr(start, pos - start);
      if (is_double) {
        double v = 0.0;
        auto [ptr, ec] =
            std::from_chars(text.data(), text.data() + text.size(), v);
        if (ec != std::errc()) {
          return Status::ParseError("double literal out of range: " +
                                    ErrorEcho(text));
        }
        push(TokenType::kDouble, start).double_value = v;
      } else {
        int64_t v = 0;
        if (!ParseInt64(text, &v)) {
          return Status::ParseError("integer literal out of range: " +
                                    ErrorEcho(text));
        }
        push(TokenType::kInt, start).int_value = v;
      }
      continue;
    }
    if (c == '\'' || c == '"') {
      ++pos;
      std::string text;
      while (pos < input.size() && input[pos] != c) {
        if (input[pos] == '\\' && pos + 1 < input.size()) {
          ++pos;  // simple escape: next char literally
        }
        text.push_back(input[pos++]);
      }
      if (pos >= input.size()) {
        return Status::ParseError("unterminated string literal");
      }
      ++pos;  // closing quote
      push(TokenType::kString, start).text = std::move(text);
      continue;
    }
    auto next_is = [&](char next) {
      return pos + 1 < input.size() && input[pos + 1] == next;
    };
    TokenType type = TokenType::kEnd;
    switch (c) {
      case '(': type = TokenType::kLParen; break;
      case ')': type = TokenType::kRParen; break;
      case '[': type = TokenType::kLBracket; break;
      case ']': type = TokenType::kRBracket; break;
      case '{': type = TokenType::kLBrace; break;
      case '}': type = TokenType::kRBrace; break;
      case ':': type = TokenType::kColon; break;
      case ',': type = TokenType::kComma; break;
      case '|': type = TokenType::kPipe; break;
      case '*': type = TokenType::kStar; break;
      case '-': type = TokenType::kMinus; break;
      case '=': type = TokenType::kEq; break;
      case '.':
        type = next_is('.') ? TokenType::kDotDot : TokenType::kDot;
        break;
      case '<':
        type = next_is('>')   ? TokenType::kNe
               : next_is('=') ? TokenType::kLe
                              : TokenType::kLt;
        break;
      case '>':
        type = next_is('=') ? TokenType::kGe : TokenType::kGt;
        break;
      default:
        return Status::ParseError(std::string("unexpected character '") + c +
                                  "' at offset " + std::to_string(start));
    }
    pos += Spelling(type).size();
    push(type, start);
  }
  push(TokenType::kEnd, input.size());
  return Status::OK();
}

Result<std::vector<Token>> Lex(std::string_view input) {
  std::vector<Token> tokens;
  FRAPPE_RETURN_IF_ERROR(Lex(input, &tokens));
  return tokens;
}

NormalizedQuery NormalizeTokens(std::string_view input,
                                const std::vector<Token>& tokens) {
  std::string out;
  out.reserve(input.size());
  bool prev_glued = true;  // suppress the leading space
  auto emit = [&](std::string_view tok) {
    bool glue = Glues(tok);
    if (!out.empty() && !glue && !prev_glued) out += ' ';
    out += tok;
    prev_glued = glue;
  };

  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    // Consumes the next token when it is `next` and touches this one.
    auto fuse = [&](TokenType next) {
      bool touching = i + 1 < tokens.size() && tokens[i + 1].type == next &&
                      tokens[i + 1].offset == t.end;
      if (touching) ++i;
      return touching;
    };
    switch (t.type) {
      case TokenType::kEnd:
        break;
      case TokenType::kIdent:
        emit(ToLower(t.text));
        break;
      case TokenType::kInt:
      case TokenType::kDouble:
        emit("?");
        break;
      case TokenType::kString:
        emit(NormalizeStringLiteral(
            input.substr(t.offset + 1, t.end - t.offset - 2)));
        break;
      case TokenType::kLt:
        emit(fuse(TokenType::kMinus) ? "<-" : "<");
        break;
      case TokenType::kMinus:
        emit(fuse(TokenType::kGt) ? "->" : "-");
        break;
      default:
        emit(Spelling(t.type));
    }
  }
  if (tokens.empty() || tokens.back().type != TokenType::kEnd) emit("?");

  NormalizedQuery result;
  result.text = std::move(out);
  result.fingerprint = obs::Fingerprint64(result.text);
  return result;
}

NormalizedQuery NormalizeQuery(std::string_view input) {
  std::vector<Token> tokens;
  // A lex error leaves the prefix in `tokens`; NormalizeTokens renders it.
  (void)Lex(input, &tokens);
  return NormalizeTokens(input, tokens);
}

std::string ErrorEcho(std::string_view text) {
  if (text.size() <= kErrorEchoBytes) return std::string(text);
  size_t cut = kErrorEchoBytes;
  // Never split a multi-byte sequence: back off over continuation bytes.
  while (cut > 0 && (static_cast<unsigned char>(text[cut]) & 0xC0) == 0x80) {
    --cut;
  }
  return std::string(text.substr(0, cut)) + "\u2026";
}

std::string TokenDescription(const Token& token) {
  switch (token.type) {
    case TokenType::kEnd:
      return "end of query";
    case TokenType::kIdent:
      return "'" + ErrorEcho(token.text) + "'";
    case TokenType::kInt:
      return std::to_string(token.int_value);
    case TokenType::kDouble:
      return std::to_string(token.double_value);
    case TokenType::kString:
      return "string '" + ErrorEcho(token.text) + "'";
    default:
      return "'" + std::string(Spelling(token.type)) + "'";
  }
}

}  // namespace frappe::query
