#ifndef FRAPPE_EXTRACTOR_C_TOKEN_H_
#define FRAPPE_EXTRACTOR_C_TOKEN_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace frappe::extractor {

// Location of a token in the (virtual) source tree. `file` indexes the
// preprocessing unit's file table; line/col are 1-based.
struct SourceLoc {
  int file = -1;
  int line = 0;
  int col = 0;

  bool valid() const { return file >= 0; }
  bool operator==(const SourceLoc&) const = default;
};

// A token's text is a view, never an owned string. Spelled tokens view the
// source text they were lexed from (a `Vfs` file's content, which must stay
// alive and unmodified while the tokens are read), punctuators view static
// literals, and text the preprocessor synthesizes (`##` pastes, `#`
// strings, `-D` replacement text) views the owning PreprocessedUnit's arena.
struct CToken {
  enum class Kind {
    kIdent,
    kNumber,
    kString,
    kCharLit,
    kPunct,
    kEof,
  };

  Kind kind = Kind::kEof;
  // Macro provenance: set when the token came out of a macro expansion.
  // `macro` names the outermost macro; `loc` then points at the expansion
  // site, which is what the paper's IN_MACRO/USE_* properties record.
  bool in_macro = false;
  int length = 0;  // spelled length, for end-column computation
  SourceLoc loc;
  std::string_view text;
  std::string_view macro;

  bool Is(std::string_view s) const { return text == s; }
  bool IsIdent(std::string_view s) const {
    return kind == Kind::kIdent && text == s;
  }
  bool IsPunct(std::string_view s) const {
    return kind == Kind::kPunct && text == s;
  }
  bool IsEof() const { return kind == Kind::kEof; }

  int end_col() const { return col_end(); }
  int col_end() const { return loc.col + (length > 0 ? length - 1 : 0); }
};

// One file's tokens in a flat array, split into physical lines (the
// preprocessor is line-oriented so directives can be recognized). Tokens
// carry line and column but no file (`loc.file` is -1): a lexed header is
// shared by every unit that includes it, and each unit numbers its files
// itself, so the preprocessor stamps the file index when it emits a token.
struct LexedFile {
  struct Line {
    uint32_t begin = 0;  // token range [begin, end)
    uint32_t end = 0;
    bool is_directive = false;  // tokens follow the '#'
  };
  std::vector<CToken> tokens;
  std::vector<Line> lines;

  std::span<const CToken> TokensOf(const Line& line) const {
    return std::span<const CToken>(tokens).subspan(line.begin,
                                                   line.end - line.begin);
  }
};

// Tokenizes one file. Handles line continuations (backslash newline), //
// and /* */ comments, string/char literals with escapes, numbers
// (including hex/suffixes, lexed as opaque text) and multi-char
// punctuators longest-first. Token text views `content`.
Result<LexedFile> LexCFile(std::string_view content);

}  // namespace frappe::extractor

#endif  // FRAPPE_EXTRACTOR_C_TOKEN_H_
