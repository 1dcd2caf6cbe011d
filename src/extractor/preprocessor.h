#ifndef FRAPPE_EXTRACTOR_PREPROCESSOR_H_
#define FRAPPE_EXTRACTOR_PREPROCESSOR_H_

#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "extractor/c_token.h"
#include "extractor/vfs.h"

namespace frappe::extractor {

// A macro definition captured for the graph (one `macro` node each).
struct MacroDef {
  std::string name;
  bool function_like = false;
  std::vector<std::string> params;
  SourceLoc loc;  // of the name token in the #define
};

// One preprocessor-level dependency event.
struct MacroEvent {
  enum class Kind {
    kExpansion,      // macro expanded at `use` -> expands_macro edge
    kInterrogation,  // #ifdef/#ifndef/defined() -> interrogates_macro edge
  };
  Kind kind;
  std::string name;
  SourceLoc use;
};

struct IncludeEvent {
  int from_file;  // file-table indexes
  int to_file;
  SourceLoc use;  // location of the directive
};

struct PreprocessOptions {
  std::vector<std::string> include_dirs;
  // Predefined object-like macros (name -> replacement text).
  std::map<std::string, std::string> defines;
};

// Result of preprocessing one translation unit. Token text views the Vfs
// the unit was read from (which must outlive the unit and stay unmodified)
// or the unit's own arena. The unit is move-only, so no copy can view
// another unit's arena.
struct PreprocessedUnit {
  PreprocessedUnit() = default;
  PreprocessedUnit(PreprocessedUnit&&) = default;
  PreprocessedUnit& operator=(PreprocessedUnit&&) = default;
  PreprocessedUnit(const PreprocessedUnit&) = delete;
  PreprocessedUnit& operator=(const PreprocessedUnit&) = delete;

  // Stores text the preprocessor synthesized (`##` pastes, `#` strings,
  // `-D` replacement text) and returns a view of it that stays valid for
  // the unit's lifetime, moves included: a deque never relocates its
  // elements on append or move.
  std::string_view Keep(std::string text) {
    return arena.emplace_back(std::move(text));
  }

  std::vector<CToken> tokens;       // expanded stream, kEof-terminated
  std::vector<std::string> files;   // file table; index 0 = main file
  std::vector<MacroDef> macros;
  std::vector<MacroEvent> events;
  std::vector<IncludeEvent> includes;
  std::deque<std::string> arena;    // see Keep()
};

// Lexed headers, keyed by Vfs path, so a header is lexed once however many
// units include it. It holds files reached through #include only: a unit's
// main file is lexed once per build anyway. Entries are pre-expansion
// tokens, so macro state and conditionals stay per unit. Entries view the
// Vfs content, which must outlive the cache and stay unmodified.
class HeaderCache {
 public:
  // The lexed form of the header at `path`, whose text is `content`; lexes
  // it on the first request. A lex error is returned and not cached, so
  // every unit that includes the header fails.
  Result<const LexedFile*> Lex(const std::string& path,
                               std::string_view content);

  size_t size() const { return files_.size(); }

 private:
  std::unordered_map<std::string, LexedFile> files_;
};

// Runs the preprocessor over `main_file`. Supports #include (quote/angle),
// object- and function-like #define (with #, ## and variadic __VA_ARGS__),
// #undef, #if/#ifdef/#ifndef/#elif/#else/#endif with an integer constant
// expression evaluator and defined(). Unknown directives (#pragma, #error
// in inactive regions) are skipped; #error in an active region fails.
// Headers are looked up in `headers`, or in a cache local to this unit
// when it is null.
Result<PreprocessedUnit> Preprocess(const Vfs& vfs,
                                    const std::string& main_file,
                                    const PreprocessOptions& options = {},
                                    HeaderCache* headers = nullptr);

}  // namespace frappe::extractor

#endif  // FRAPPE_EXTRACTOR_PREPROCESSOR_H_
