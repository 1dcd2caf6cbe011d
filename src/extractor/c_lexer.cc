#include <cctype>

#include "extractor/c_token.h"

namespace frappe::extractor {

namespace {

// Multi-character punctuators, longest first so maximal munch works.
constexpr std::string_view kPunctuators[] = {
    "<<=", ">>=", "...", "->", "++", "--", "<<", ">>", "<=", ">=", "==",
    "!=",  "&&",  "||",  "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=",
    "##",  "[",   "]",   "(",  ")",  "{",  "}",  ".",  "&",  "*",  "+",
    "-",   "~",   "!",   "/",  "%",  "<",  ">",  "^",  "|",  "?",  ":",
    ";",   "=",   ",",   "#",
};

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

class Lexer {
 public:
  explicit Lexer(std::string_view content) : content_(content) {}

  Result<LexedFile> Run() {
    LexedFile file;
    LexedFile::Line current;
    bool line_started = false;
    bool directive_possible = true;  // only whitespace so far on this line

    while (pos_ < content_.size()) {
      char c = content_[pos_];
      // Line continuation: splice.
      if (c == '\\' && pos_ + 1 < content_.size() &&
          (content_[pos_ + 1] == '\n' ||
           (content_[pos_ + 1] == '\r' && pos_ + 2 < content_.size() &&
            content_[pos_ + 2] == '\n'))) {
        pos_ += content_[pos_ + 1] == '\n' ? 2 : 3;
        ++line_;
        col_ = 1;
        continue;
      }
      if (c == '\n') {
        ++pos_;
        ++line_;
        col_ = 1;
        if (line_started) {
          EndLine(&file, &current);
          line_started = false;
        }
        directive_possible = true;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        ++col_;
        continue;
      }
      // Comments.
      if (c == '/' && pos_ + 1 < content_.size()) {
        if (content_[pos_ + 1] == '/') {
          while (pos_ < content_.size() && content_[pos_] != '\n') {
            ++pos_;
            ++col_;
          }
          continue;
        }
        if (content_[pos_ + 1] == '*') {
          pos_ += 2;
          col_ += 2;
          while (pos_ + 1 < content_.size() &&
                 !(content_[pos_] == '*' && content_[pos_ + 1] == '/')) {
            if (content_[pos_] == '\n') {
              ++line_;
              col_ = 1;
            } else {
              ++col_;
            }
            ++pos_;
          }
          if (pos_ + 1 >= content_.size()) {
            return Status::ParseError("unterminated block comment");
          }
          pos_ += 2;
          col_ += 2;
          continue;
        }
      }
      // Directive marker.
      if (c == '#' && directive_possible) {
        current.is_directive = true;
        line_started = true;
        directive_possible = false;
        ++pos_;
        ++col_;
        continue;
      }
      directive_possible = false;
      line_started = true;

      CToken token;
      token.loc = SourceLoc{-1, line_, col_};
      if (IsIdentStart(c)) {
        size_t start = pos_;
        while (pos_ < content_.size() && IsIdentChar(content_[pos_])) {
          ++pos_;
          ++col_;
        }
        token.kind = CToken::Kind::kIdent;
        token.text = content_.substr(start, pos_ - start);
      } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                 (c == '.' && pos_ + 1 < content_.size() &&
                  std::isdigit(
                      static_cast<unsigned char>(content_[pos_ + 1])))) {
        size_t start = pos_;
        // pp-number: digits, letters, dots, and exponent signs.
        while (pos_ < content_.size()) {
          char n = content_[pos_];
          if (IsIdentChar(n) || n == '.') {
            ++pos_;
            ++col_;
          } else if ((n == '+' || n == '-') && pos_ > start &&
                     (content_[pos_ - 1] == 'e' || content_[pos_ - 1] == 'E' ||
                      content_[pos_ - 1] == 'p' ||
                      content_[pos_ - 1] == 'P')) {
            ++pos_;
            ++col_;
          } else {
            break;
          }
        }
        token.kind = CToken::Kind::kNumber;
        token.text = content_.substr(start, pos_ - start);
      } else if (c == '"' || c == '\'') {
        char quote = c;
        size_t start = pos_;
        ++pos_;
        ++col_;
        while (pos_ < content_.size() && content_[pos_] != quote) {
          if (content_[pos_] == '\\' && pos_ + 1 < content_.size()) {
            ++pos_;
            ++col_;
          }
          if (content_[pos_] == '\n') {
            return Status::ParseError("newline in literal at line " +
                                      std::to_string(line_));
          }
          ++pos_;
          ++col_;
        }
        if (pos_ >= content_.size()) {
          return Status::ParseError("unterminated literal at line " +
                                    std::to_string(line_));
        }
        ++pos_;
        ++col_;
        token.kind = quote == '"' ? CToken::Kind::kString
                                  : CToken::Kind::kCharLit;
        token.text = content_.substr(start, pos_ - start);
      } else {
        bool matched = false;
        for (std::string_view p : kPunctuators) {
          if (content_.substr(pos_, p.size()) == p) {
            token.kind = CToken::Kind::kPunct;
            token.text = p;
            pos_ += p.size();
            col_ += static_cast<int>(p.size());
            matched = true;
            break;
          }
        }
        if (!matched) {
          return Status::ParseError(std::string("stray character '") + c +
                                    "' at line " + std::to_string(line_));
        }
      }
      token.length = static_cast<int>(token.text.size());
      file.tokens.push_back(token);
    }
    if (line_started) EndLine(&file, &current);
    return file;
  }

 private:
  // Closes `current` at the token array's end and opens the next line.
  static void EndLine(LexedFile* file, LexedFile::Line* current) {
    current->end = static_cast<uint32_t>(file->tokens.size());
    file->lines.push_back(*current);
    *current = LexedFile::Line{current->end, current->end, false};
  }

  std::string_view content_;
  size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

}  // namespace

Result<LexedFile> LexCFile(std::string_view content) {
  return Lexer(content).Run();
}

}  // namespace frappe::extractor
