#include "extractor/preprocessor.h"

#include <algorithm>
#include <functional>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"

namespace frappe::extractor {

namespace {

constexpr int kMaxIncludeDepth = 64;
constexpr int kMaxExpansionDepth = 64;

// With std::equal_to<>, looks a std::string key up by a token's view
// without building a temporary string.
struct TransparentHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

struct Macro {
  MacroDef def;
  bool variadic = false;
  std::vector<CToken> body;
};

// `t`'s location in file `file` of the unit (lexed tokens carry none).
SourceLoc At(const CToken& t, int file) {
  SourceLoc loc = t.loc;
  loc.file = file;
  return loc;
}

class Preprocessor {
 public:
  Preprocessor(const Vfs& vfs, const PreprocessOptions& options,
               HeaderCache* headers)
      : vfs_(vfs), options_(options), headers_(*headers) {}

  Result<PreprocessedUnit> Run(const std::string& main_file) {
    for (const auto& [name, replacement] : options_.defines) {
      Macro macro;
      macro.def.name = name;
      macro.def.loc = SourceLoc{-1, 0, 0};  // builtin
      // The options may not outlive the unit; the body views its copy.
      FRAPPE_ASSIGN_OR_RETURN(LexedFile lexed,
                              LexCFile(unit_.Keep(replacement)));
      macro.body = std::move(lexed.tokens);
      macros_[name] = std::move(macro);
    }
    FRAPPE_RETURN_IF_ERROR(ProcessFile(main_file, 0));
    CToken eof;
    eof.kind = CToken::Kind::kEof;
    unit_.tokens.push_back(eof);
    return std::move(unit_);
  }

 private:
  int FileIndex(const std::string& path) {
    for (size_t i = 0; i < unit_.files.size(); ++i) {
      if (unit_.files[i] == path) return static_cast<int>(i);
    }
    unit_.files.push_back(path);
    return static_cast<int>(unit_.files.size() - 1);
  }

  Status ProcessFile(const std::string& path, int depth) {
    if (depth > kMaxIncludeDepth) {
      return Status::FailedPrecondition("include depth limit at " + path);
    }
    FRAPPE_ASSIGN_OR_RETURN(std::string_view content, vfs_.Read(path));
    int file_index = FileIndex(path);
    if (depth == 0) {  // a main file is read once per build: not cached
      FRAPPE_ASSIGN_OR_RETURN(LexedFile main, LexCFile(content));
      return ProcessLines(main, path, file_index, depth);
    }
    FRAPPE_ASSIGN_OR_RETURN(const LexedFile* header,
                            headers_.Lex(path, content));
    return ProcessLines(*header, path, file_index, depth);
  }

  Status ProcessLines(const LexedFile& file, const std::string& path,
                      int file_index, int depth) {
    for (const LexedFile::Line& line : file.lines) {
      std::span<const CToken> tokens = file.TokensOf(line);
      if (line.is_directive) {
        FRAPPE_RETURN_IF_ERROR(
            HandleDirective(tokens, path, file_index, depth));
      } else if (Active()) {
        FRAPPE_RETURN_IF_ERROR(ExpandInto(tokens, file_index, &unit_.tokens));
      }
    }
    return Status::OK();
  }

  // --- conditionals ---

  struct Cond {
    bool parent_active;
    bool taken;       // some branch already taken
    bool active_now;  // current branch active
  };

  bool Active() const {
    return cond_stack_.empty() || cond_stack_.back().active_now;
  }

  void PushCond(bool condition) {
    bool parent = Active();
    cond_stack_.push_back(Cond{parent, parent && condition,
                               parent && condition});
  }

  // --- directives ---

  Status HandleDirective(std::span<const CToken> tokens,
                         const std::string& path, int file_index,
                         int depth) {
    if (tokens.empty()) return Status::OK();  // null directive
    std::string_view directive = tokens[0].text;

    if (directive == "ifdef" || directive == "ifndef") {
      if (tokens.size() < 2) {
        return Status::ParseError("#" + std::string(directive) +
                                  " without a name");
      }
      const CToken& macro = tokens[1];
      if (Active()) {
        unit_.events.push_back(MacroEvent{MacroEvent::Kind::kInterrogation,
                                          std::string(macro.text),
                                          At(macro, file_index)});
      }
      bool defined = macros_.contains(macro.text);
      PushCond(directive == "ifdef" ? defined : !defined);
      return Status::OK();
    }
    if (directive == "if") {
      bool value = false;
      if (Active()) {
        FRAPPE_ASSIGN_OR_RETURN(value,
                                EvalCondition(tokens.subspan(1), file_index));
      }
      PushCond(value);
      return Status::OK();
    }
    if (directive == "elif") {
      if (cond_stack_.empty()) return Status::ParseError("#elif without #if");
      Cond& cond = cond_stack_.back();
      if (cond.taken || !cond.parent_active) {
        cond.active_now = false;
      } else {
        FRAPPE_ASSIGN_OR_RETURN(
            bool value, EvalCondition(tokens.subspan(1), file_index));
        cond.active_now = value;
        cond.taken = value;
      }
      return Status::OK();
    }
    if (directive == "else") {
      if (cond_stack_.empty()) return Status::ParseError("#else without #if");
      Cond& cond = cond_stack_.back();
      cond.active_now = cond.parent_active && !cond.taken;
      cond.taken = true;
      return Status::OK();
    }
    if (directive == "endif") {
      if (cond_stack_.empty()) {
        return Status::ParseError("#endif without #if");
      }
      cond_stack_.pop_back();
      return Status::OK();
    }

    if (!Active()) return Status::OK();  // skipped region

    if (directive == "define") return HandleDefine(tokens, file_index);
    if (directive == "undef") {
      if (tokens.size() >= 2) {
        auto it = macros_.find(tokens[1].text);
        if (it != macros_.end()) macros_.erase(it);
      }
      return Status::OK();
    }
    if (directive == "include") {
      return HandleInclude(tokens, path, file_index, depth);
    }
    if (directive == "pragma" || directive == "warning") {
      return Status::OK();
    }
    if (directive == "error") {
      std::string message;
      for (size_t i = 1; i < tokens.size(); ++i) {
        if (i > 1) message += " ";
        message += tokens[i].text;
      }
      return Status::FailedPrecondition("#error: " + message);
    }
    // Unknown directive: be lenient (real kernels carry vendor pragmas).
    return Status::OK();
  }

  Status HandleDefine(std::span<const CToken> tokens, int file_index) {
    if (tokens.size() < 2 || tokens[1].kind != CToken::Kind::kIdent) {
      return Status::ParseError("#define without a name");
    }
    Macro macro;
    macro.def.name = tokens[1].text;
    macro.def.loc = At(tokens[1], file_index);
    size_t body_start = 2;
    // Function-like only when '(' immediately follows the name. The lexer
    // drops whitespace, so approximate with column adjacency.
    if (tokens.size() > 2 && tokens[2].IsPunct("(") &&
        tokens[2].loc.col == tokens[1].loc.col + tokens[1].length &&
        tokens[2].loc.line == tokens[1].loc.line) {
      macro.def.function_like = true;
      size_t i = 3;
      while (i < tokens.size() && !tokens[i].IsPunct(")")) {
        if (tokens[i].IsPunct(",")) {
          ++i;
          continue;
        }
        if (tokens[i].IsPunct("...")) {
          macro.variadic = true;
        } else if (tokens[i].kind == CToken::Kind::kIdent) {
          macro.def.params.emplace_back(tokens[i].text);
        }
        ++i;
      }
      if (i >= tokens.size()) {
        return Status::ParseError("unterminated macro parameter list for " +
                                  macro.def.name);
      }
      body_start = i + 1;
    }
    // Body tokens keep no file: an expansion relocates them to its site.
    macro.body.assign(tokens.begin() + body_start, tokens.end());
    unit_.macros.push_back(macro.def);
    macros_[macro.def.name] = std::move(macro);
    return Status::OK();
  }

  Status HandleInclude(std::span<const CToken> tokens,
                       const std::string& path, int file_index, int depth) {
    if (tokens.size() < 2) return Status::ParseError("bare #include");
    std::string name;
    bool angled = false;
    const CToken& first = tokens[1];
    if (first.kind == CToken::Kind::kString) {
      name = first.text.substr(1, first.text.size() - 2);
    } else if (first.IsPunct("<")) {
      angled = true;
      for (size_t i = 2; i < tokens.size(); ++i) {
        if (tokens[i].IsPunct(">")) break;
        name += tokens[i].text;
      }
    } else {
      return Status::ParseError("malformed #include");
    }
    auto resolved =
        vfs_.ResolveInclude(name, path, angled, options_.include_dirs);
    if (!resolved.ok()) {
      // Angle-bracket system headers missing from the VFS are skipped:
      // the extractor models the project tree, not the host toolchain.
      if (angled) return Status::OK();
      return resolved.status();
    }
    int to_index = FileIndex(*resolved);
    unit_.includes.push_back(
        IncludeEvent{file_index, to_index, At(first, file_index)});
    return ProcessFile(*resolved, depth + 1);
  }

  // --- #if expression evaluation ---

  // `tokens` are a directive's lexed tokens in file `file_index`.
  Result<bool> EvalCondition(std::span<const CToken> tokens,
                             int file_index) {
    // Phase 1: handle defined(X) / defined X and record interrogations.
    std::vector<CToken> pre;
    for (size_t i = 0; i < tokens.size(); ++i) {
      if (tokens[i].IsIdent("defined")) {
        size_t j = i + 1;
        bool paren = j < tokens.size() && tokens[j].IsPunct("(");
        if (paren) ++j;
        if (j >= tokens.size() ||
            tokens[j].kind != CToken::Kind::kIdent) {
          return Status::ParseError("malformed defined()");
        }
        unit_.events.push_back(MacroEvent{MacroEvent::Kind::kInterrogation,
                                          std::string(tokens[j].text),
                                          At(tokens[j], file_index)});
        CToken value;
        value.kind = CToken::Kind::kNumber;
        value.text = macros_.contains(tokens[j].text) ? "1" : "0";
        value.loc = At(tokens[i], file_index);
        pre.push_back(value);
        i = paren ? j + 1 : j;  // skip ')' below
        continue;
      }
      pre.push_back(tokens[i]);
      pre.back().loc.file = file_index;
    }
    // Phase 2: expand remaining macros.
    std::vector<CToken> expanded;
    FRAPPE_RETURN_IF_ERROR(ExpandInto(pre, /*file=*/-1, &expanded));
    // Phase 3: identifiers left over evaluate to 0 (C semantics).
    eval_tokens_ = &expanded;
    eval_pos_ = 0;
    FRAPPE_ASSIGN_OR_RETURN(int64_t value, EvalTernary());
    return value != 0;
  }

  const CToken* EvalPeek() {
    if (eval_pos_ >= eval_tokens_->size()) return nullptr;
    return &(*eval_tokens_)[eval_pos_];
  }
  bool EvalAccept(std::string_view p) {
    const CToken* t = EvalPeek();
    if (t != nullptr && t->kind == CToken::Kind::kPunct && t->text == p) {
      ++eval_pos_;
      return true;
    }
    return false;
  }

  Result<int64_t> EvalTernary() {
    FRAPPE_ASSIGN_OR_RETURN(int64_t cond, EvalBinary(0));
    if (EvalAccept("?")) {
      FRAPPE_ASSIGN_OR_RETURN(int64_t then, EvalTernary());
      if (!EvalAccept(":")) return Status::ParseError("expected ':' in #if");
      FRAPPE_ASSIGN_OR_RETURN(int64_t otherwise, EvalTernary());
      return cond != 0 ? then : otherwise;
    }
    return cond;
  }

  static int BinaryPrecedence(std::string_view op) {
    if (op == "||") return 1;
    if (op == "&&") return 2;
    if (op == "|") return 3;
    if (op == "^") return 4;
    if (op == "&") return 5;
    if (op == "==" || op == "!=") return 6;
    if (op == "<" || op == ">" || op == "<=" || op == ">=") return 7;
    if (op == "<<" || op == ">>") return 8;
    if (op == "+" || op == "-") return 9;
    if (op == "*" || op == "/" || op == "%") return 10;
    return 0;
  }

  Result<int64_t> EvalBinary(int min_prec) {
    FRAPPE_ASSIGN_OR_RETURN(int64_t left, EvalUnary());
    while (true) {
      const CToken* t = EvalPeek();
      if (t == nullptr || t->kind != CToken::Kind::kPunct) break;
      int prec = BinaryPrecedence(t->text);
      if (prec == 0 || prec < min_prec) break;
      std::string_view op = t->text;
      ++eval_pos_;
      FRAPPE_ASSIGN_OR_RETURN(int64_t right, EvalBinary(prec + 1));
      if (op == "||") {
        left = (left != 0 || right != 0) ? 1 : 0;
      } else if (op == "&&") {
        left = (left != 0 && right != 0) ? 1 : 0;
      } else if (op == "|") {
        left |= right;
      } else if (op == "^") {
        left ^= right;
      } else if (op == "&") {
        left &= right;
      } else if (op == "==") {
        left = left == right;
      } else if (op == "!=") {
        left = left != right;
      } else if (op == "<") {
        left = left < right;
      } else if (op == ">") {
        left = left > right;
      } else if (op == "<=") {
        left = left <= right;
      } else if (op == ">=") {
        left = left >= right;
      } else if (op == "<<") {
        left = right >= 0 && right < 63 ? (left << right) : 0;
      } else if (op == ">>") {
        left = right >= 0 && right < 63 ? (left >> right) : 0;
      } else if (op == "+") {
        left += right;
      } else if (op == "-") {
        left -= right;
      } else if (op == "*") {
        left *= right;
      } else if (op == "/") {
        if (right == 0) return Status::ParseError("division by zero in #if");
        left /= right;
      } else if (op == "%") {
        if (right == 0) return Status::ParseError("modulo by zero in #if");
        left %= right;
      }
    }
    return left;
  }

  Result<int64_t> EvalUnary() {
    if (EvalAccept("!")) {
      FRAPPE_ASSIGN_OR_RETURN(int64_t v, EvalUnary());
      return v == 0 ? 1 : 0;
    }
    if (EvalAccept("-")) {
      FRAPPE_ASSIGN_OR_RETURN(int64_t v, EvalUnary());
      return -v;
    }
    if (EvalAccept("+")) return EvalUnary();
    if (EvalAccept("~")) {
      FRAPPE_ASSIGN_OR_RETURN(int64_t v, EvalUnary());
      return ~v;
    }
    if (EvalAccept("(")) {
      FRAPPE_ASSIGN_OR_RETURN(int64_t v, EvalTernary());
      if (!EvalAccept(")")) return Status::ParseError("expected ')' in #if");
      return v;
    }
    const CToken* t = EvalPeek();
    if (t == nullptr) return Status::ParseError("truncated #if expression");
    ++eval_pos_;
    if (t->kind == CToken::Kind::kNumber) return ParseNumber(t->text);
    if (t->kind == CToken::Kind::kCharLit) {
      // 'x' evaluates to its first character.
      return t->text.size() > 2 ? static_cast<int64_t>(t->text[1]) : 0;
    }
    if (t->kind == CToken::Kind::kIdent) return 0;  // undefined -> 0
    return Status::ParseError("unexpected token in #if: " +
                              std::string(t->text));
  }

  static int64_t ParseNumber(std::string_view text) {
    // Strip integer suffixes, accept hex/octal.
    size_t end = text.size();
    while (end > 0 && (text[end - 1] == 'u' || text[end - 1] == 'U' ||
                       text[end - 1] == 'l' || text[end - 1] == 'L')) {
      --end;
    }
    std::string digits(text.substr(0, end));
    try {
      return std::stoll(digits, nullptr, 0);
    } catch (...) {
      return 0;
    }
  }

  // --- macro expansion ---

  // Expands `input` into `output`. `file` is the file index to stamp on
  // tokens read from `input` when they come straight from a lexed file,
  // or -1 when they are already located (macro output).
  Status ExpandInto(std::span<const CToken> input, int file,
                    std::vector<CToken>* output) {
    std::unordered_set<std::string_view> active;
    return ExpandRange(input, file, output, /*depth=*/0, &active);
  }

  Status ExpandRange(std::span<const CToken> input, int file,
                     std::vector<CToken>* output, int depth,
                     std::unordered_set<std::string_view>* active) {
    if (depth > kMaxExpansionDepth) {
      return Status::FailedPrecondition("macro expansion depth limit");
    }
    const size_t end = input.size();
    for (size_t i = 0; i < end; ++i) {
      CToken token = input[i];
      if (file >= 0) token.loc.file = file;
      auto found = macros_.end();
      if (token.kind == CToken::Kind::kIdent &&
          !active->contains(token.text)) {
        found = macros_.find(token.text);
      }
      if (found == macros_.end()) {
        output->push_back(token);
        continue;
      }
      const Macro& macro = found->second;
      if (macro.def.function_like) {
        // Needs a '(' to be an invocation.
        size_t j = i + 1;
        if (j >= end || !input[j].IsPunct("(")) {
          output->push_back(token);
          continue;
        }
        // Collect arguments.
        std::vector<std::vector<CToken>> args;
        std::vector<CToken> current;
        int parens = 1;
        ++j;
        while (j < end && parens > 0) {
          const CToken& t = input[j];
          if (t.IsPunct("(")) ++parens;
          if (t.IsPunct(")")) {
            --parens;
            if (parens == 0) break;
          }
          if (t.IsPunct(",") && parens == 1) {
            args.push_back(std::move(current));
            current.clear();
          } else {
            current.push_back(t);
          }
          ++j;
        }
        if (parens != 0) {
          return Status::ParseError("unterminated invocation of macro " +
                                    macro.def.name);
        }
        if (!current.empty() || !args.empty() || !macro.def.params.empty()) {
          args.push_back(std::move(current));
        }
        RecordExpansion(macro, token.loc);
        std::vector<CToken> substituted;
        FRAPPE_RETURN_IF_ERROR(
            Substitute(macro, args, token, &substituted));
        active->insert(macro.def.name);
        FRAPPE_RETURN_IF_ERROR(
            ExpandRange(substituted, -1, output, depth + 1, active));
        active->erase(macro.def.name);
        i = j;  // past ')'
      } else {
        RecordExpansion(macro, token.loc);
        std::vector<CToken> body = macro.body;
        for (CToken& t : body) Reattribute(&t, token);
        active->insert(macro.def.name);
        FRAPPE_RETURN_IF_ERROR(
            ExpandRange(body, -1, output, depth + 1, active));
        active->erase(macro.def.name);
      }
    }
    return Status::OK();
  }

  void RecordExpansion(const Macro& macro, SourceLoc use) {
    unit_.events.push_back(
        MacroEvent{MacroEvent::Kind::kExpansion, macro.def.name, use});
  }

  // Tokens produced by a macro body report the expansion site as their
  // location (the IN_MACRO convention from paper Table 2).
  static void Reattribute(CToken* token, const CToken& invocation) {
    token->loc = invocation.loc;
    token->length = invocation.length;
    token->in_macro = true;
    if (token->macro.empty()) token->macro = invocation.text;
  }

  Status Substitute(const Macro& macro,
                    const std::vector<std::vector<CToken>>& args,
                    const CToken& invocation, std::vector<CToken>* out) {
    auto param_index = [&](std::string_view name) -> int {
      for (size_t p = 0; p < macro.def.params.size(); ++p) {
        if (macro.def.params[p] == name) return static_cast<int>(p);
      }
      return -1;
    };
    auto arg_or_empty =
        [&](int index) -> const std::vector<CToken>& {
      static const std::vector<CToken> kEmpty;
      if (index < 0 || static_cast<size_t>(index) >= args.size()) {
        return kEmpty;
      }
      return args[index];
    };

    for (size_t b = 0; b < macro.body.size(); ++b) {
      const CToken& t = macro.body[b];
      // Token pasting: A ## B.
      if (b + 2 < macro.body.size() && macro.body[b + 1].IsPunct("##")) {
        std::string left_text = SpellForPaste(t, args, param_index);
        std::string right_text =
            SpellForPaste(macro.body[b + 2], args, param_index);
        CToken pasted;
        pasted.kind = CToken::Kind::kIdent;
        pasted.text = unit_.Keep(left_text + right_text);
        Reattribute(&pasted, invocation);
        out->push_back(std::move(pasted));
        b += 2;
        continue;
      }
      // Stringize: # param.
      if (t.IsPunct("#") && b + 1 < macro.body.size() &&
          macro.body[b + 1].kind == CToken::Kind::kIdent) {
        int index = param_index(macro.body[b + 1].text);
        if (index >= 0) {
          std::string text = "\"";
          for (const CToken& a : arg_or_empty(index)) text += a.text;
          text += "\"";
          CToken str;
          str.kind = CToken::Kind::kString;
          str.text = unit_.Keep(std::move(text));
          Reattribute(&str, invocation);
          out->push_back(std::move(str));
          ++b;
          continue;
        }
      }
      if (t.kind == CToken::Kind::kIdent) {
        if (macro.variadic && t.text == "__VA_ARGS__") {
          size_t fixed = macro.def.params.size();
          for (size_t a = fixed; a < args.size(); ++a) {
            if (a > fixed) {
              CToken comma;
              comma.kind = CToken::Kind::kPunct;
              comma.text = ",";
              Reattribute(&comma, invocation);
              out->push_back(std::move(comma));
            }
            for (CToken arg_token : args[a]) {
              Reattribute(&arg_token, invocation);
              out->push_back(std::move(arg_token));
            }
          }
          continue;
        }
        int index = param_index(t.text);
        if (index >= 0) {
          for (CToken arg_token : arg_or_empty(index)) {
            Reattribute(&arg_token, invocation);
            out->push_back(std::move(arg_token));
          }
          continue;
        }
      }
      CToken copy = t;
      Reattribute(&copy, invocation);
      out->push_back(std::move(copy));
    }
    return Status::OK();
  }

  std::string SpellForPaste(
      const CToken& t, const std::vector<std::vector<CToken>>& args,
      const std::function<int(std::string_view)>& param_index) {
    if (t.kind == CToken::Kind::kIdent) {
      int index = param_index(t.text);
      if (index >= 0 && static_cast<size_t>(index) < args.size()) {
        std::string out;
        for (const CToken& a : args[index]) out += a.text;
        return out;
      }
    }
    return std::string(t.text);
  }

  const Vfs& vfs_;
  const PreprocessOptions& options_;
  HeaderCache& headers_;
  PreprocessedUnit unit_;
  std::unordered_map<std::string, Macro, TransparentHash, std::equal_to<>>
      macros_;
  std::vector<Cond> cond_stack_;

  const std::vector<CToken>* eval_tokens_ = nullptr;
  size_t eval_pos_ = 0;
};

}  // namespace

Result<const LexedFile*> HeaderCache::Lex(const std::string& path,
                                          std::string_view content) {
  auto it = files_.find(path);
  if (it != files_.end()) return &it->second;
  FRAPPE_ASSIGN_OR_RETURN(LexedFile lexed, LexCFile(content));
  lexed.tokens.shrink_to_fit();
  lexed.lines.shrink_to_fit();
  return &files_.emplace(path, std::move(lexed)).first->second;
}

Result<PreprocessedUnit> Preprocess(const Vfs& vfs,
                                    const std::string& main_file,
                                    const PreprocessOptions& options,
                                    HeaderCache* headers) {
  HeaderCache unit_headers;
  Preprocessor pp(vfs, options, headers != nullptr ? headers : &unit_headers);
  return pp.Run(NormalizePath(main_file));
}

}  // namespace frappe::extractor
