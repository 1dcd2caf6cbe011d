#include "extractor/preprocessor.h"

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

namespace frappe::extractor {
namespace {

std::string Render(const PreprocessedUnit& unit) {
  std::string out;
  for (const CToken& t : unit.tokens) {
    if (t.IsEof()) break;
    if (!out.empty()) out += " ";
    out += t.text;
  }
  return out;
}

PreprocessedUnit MustPp(Vfs& vfs, const std::string& main,
                        PreprocessOptions options = {}) {
  auto result = Preprocess(vfs, main, options);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? std::move(*result) : PreprocessedUnit{};
}

TEST(PreprocessorTest, PassThrough) {
  Vfs vfs;
  vfs.AddFile("a.c", "int x = 1;\n");
  EXPECT_EQ(Render(MustPp(vfs, "a.c")), "int x = 1 ;");
}

TEST(PreprocessorTest, ObjectMacroExpansion) {
  Vfs vfs;
  vfs.AddFile("a.c", "#define N 16\nint a[N];\n");
  auto unit = MustPp(vfs, "a.c");
  EXPECT_EQ(Render(unit), "int a [ 16 ] ;");
  ASSERT_EQ(unit.macros.size(), 1u);
  EXPECT_EQ(unit.macros[0].name, "N");
  ASSERT_EQ(unit.events.size(), 1u);
  EXPECT_EQ(unit.events[0].kind, MacroEvent::Kind::kExpansion);
  EXPECT_EQ(unit.events[0].use.line, 2);
}

TEST(PreprocessorTest, ExpandedTokensCarryInMacro) {
  Vfs vfs;
  vfs.AddFile("a.c", "#define N 16\nint a = N;\n");
  auto unit = MustPp(vfs, "a.c");
  // Token "16" is macro-produced and located at the expansion site.
  const CToken& sixteen = unit.tokens[3];
  EXPECT_EQ(sixteen.text, "16");
  EXPECT_TRUE(sixteen.in_macro);
  EXPECT_EQ(sixteen.macro, "N");
  EXPECT_EQ(sixteen.loc.line, 2);
}

TEST(PreprocessorTest, FunctionMacro) {
  Vfs vfs;
  vfs.AddFile("a.c", "#define MAX(a, b) ((a) > (b) ? (a) : (b))\n"
                     "int m = MAX(x, y + 1);\n");
  EXPECT_EQ(Render(MustPp(vfs, "a.c")),
            "int m = ( ( x ) > ( y + 1 ) ? ( x ) : ( y + 1 ) ) ;");
}

TEST(PreprocessorTest, FunctionMacroNeedsParens) {
  Vfs vfs;
  vfs.AddFile("a.c", "#define F(x) x\nint F = 3;\n");
  EXPECT_EQ(Render(MustPp(vfs, "a.c")), "int F = 3 ;");
}

TEST(PreprocessorTest, NestedExpansion) {
  Vfs vfs;
  vfs.AddFile("a.c", "#define A B\n#define B 7\nint x = A;\n");
  EXPECT_EQ(Render(MustPp(vfs, "a.c")), "int x = 7 ;");
}

TEST(PreprocessorTest, RecursiveMacroDoesNotLoop) {
  Vfs vfs;
  vfs.AddFile("a.c", "#define X X\nint X;\n");
  EXPECT_EQ(Render(MustPp(vfs, "a.c")), "int X ;");
}

TEST(PreprocessorTest, VariadicMacro) {
  Vfs vfs;
  vfs.AddFile("a.c",
              "#define LOG(fmt, ...) printk(fmt, __VA_ARGS__)\n"
              "void f(void) { LOG(\"%d %d\", a, b); }\n");
  EXPECT_EQ(Render(MustPp(vfs, "a.c")),
            "void f ( void ) { printk ( \"%d %d\" , a , b ) ; }");
}

TEST(PreprocessorTest, TokenPasting) {
  Vfs vfs;
  vfs.AddFile("a.c", "#define GLUE(a, b) a##b\nint GLUE(foo, bar);\n");
  EXPECT_EQ(Render(MustPp(vfs, "a.c")), "int foobar ;");
}

TEST(PreprocessorTest, Stringize) {
  Vfs vfs;
  vfs.AddFile("a.c", "#define STR(x) #x\nchar *s = STR(hello);\n");
  EXPECT_EQ(Render(MustPp(vfs, "a.c")), "char * s = \"hello\" ;");
}

TEST(PreprocessorTest, UndefStopsExpansion) {
  Vfs vfs;
  vfs.AddFile("a.c", "#define N 1\n#undef N\nint x = N;\n");
  EXPECT_EQ(Render(MustPp(vfs, "a.c")), "int x = N ;");
}

TEST(PreprocessorTest, IfdefActiveAndInactive) {
  Vfs vfs;
  vfs.AddFile("a.c",
              "#define CONFIG_A 1\n"
              "#ifdef CONFIG_A\nint a;\n#endif\n"
              "#ifdef CONFIG_B\nint b;\n#endif\n");
  auto unit = MustPp(vfs, "a.c");
  EXPECT_EQ(Render(unit), "int a ;");
  // Both #ifdefs are interrogations, including the undefined one.
  int interrogations = 0;
  for (const auto& e : unit.events) {
    if (e.kind == MacroEvent::Kind::kInterrogation) ++interrogations;
  }
  EXPECT_EQ(interrogations, 2);
}

TEST(PreprocessorTest, IfndefElse) {
  Vfs vfs;
  vfs.AddFile("a.c", "#ifndef X\nint no_x;\n#else\nint has_x;\n#endif\n");
  EXPECT_EQ(Render(MustPp(vfs, "a.c")), "int no_x ;");
}

TEST(PreprocessorTest, IfExpression) {
  Vfs vfs;
  vfs.AddFile("a.c",
              "#define VER 3\n"
              "#if VER >= 2 && defined(VER)\nint modern;\n"
              "#elif VER == 1\nint legacy;\n#else\nint none;\n#endif\n");
  EXPECT_EQ(Render(MustPp(vfs, "a.c")), "int modern ;");
}

TEST(PreprocessorTest, ElifChain) {
  Vfs vfs;
  vfs.AddFile("a.c",
              "#define V 2\n"
              "#if V == 1\nint one;\n#elif V == 2\nint two;\n"
              "#elif V == 2\nint dup;\n#else\nint other;\n#endif\n");
  EXPECT_EQ(Render(MustPp(vfs, "a.c")), "int two ;");
}

TEST(PreprocessorTest, NestedConditionals) {
  Vfs vfs;
  vfs.AddFile("a.c",
              "#if 1\n#if 0\nint dead;\n#else\nint live;\n#endif\n#endif\n");
  EXPECT_EQ(Render(MustPp(vfs, "a.c")), "int live ;");
}

TEST(PreprocessorTest, InactiveRegionsIgnoreDirectives) {
  Vfs vfs;
  vfs.AddFile("a.c",
              "#if 0\n#define HIDDEN 1\n#error should not fire\n#endif\n"
              "#ifdef HIDDEN\nint hidden;\n#endif\n");
  EXPECT_EQ(Render(MustPp(vfs, "a.c")), "");
}

TEST(PreprocessorTest, ErrorDirectiveFails) {
  Vfs vfs;
  vfs.AddFile("a.c", "#error boom\n");
  EXPECT_FALSE(Preprocess(vfs, "a.c").ok());
}

TEST(PreprocessorTest, IncludeQuote) {
  Vfs vfs;
  vfs.AddFile("foo.h", "int bar(int);\n");
  vfs.AddFile("foo.c", "#include \"foo.h\"\nint bar(int input) { return input; }\n");
  auto unit = MustPp(vfs, "foo.c");
  ASSERT_EQ(unit.files.size(), 2u);
  EXPECT_EQ(unit.files[0], "foo.c");
  EXPECT_EQ(unit.files[1], "foo.h");
  ASSERT_EQ(unit.includes.size(), 1u);
  EXPECT_EQ(unit.includes[0].from_file, 0);
  EXPECT_EQ(unit.includes[0].to_file, 1);
}

TEST(PreprocessorTest, IncludeGuardsWork) {
  Vfs vfs;
  vfs.AddFile("g.h", "#ifndef G_H\n#define G_H\nint g;\n#endif\n");
  vfs.AddFile("a.c", "#include \"g.h\"\n#include \"g.h\"\n");
  EXPECT_EQ(Render(MustPp(vfs, "a.c")), "int g ;");
}

TEST(PreprocessorTest, MissingAngledIncludeSkipped) {
  Vfs vfs;
  vfs.AddFile("a.c", "#include <stdio.h>\nint x;\n");
  EXPECT_EQ(Render(MustPp(vfs, "a.c")), "int x ;");
}

TEST(PreprocessorTest, MissingQuotedIncludeFails) {
  Vfs vfs;
  vfs.AddFile("a.c", "#include \"gone.h\"\n");
  EXPECT_FALSE(Preprocess(vfs, "a.c").ok());
}

TEST(PreprocessorTest, IncludeCycleHitsDepthLimit) {
  Vfs vfs;
  vfs.AddFile("a.h", "#include \"b.h\"\n");
  vfs.AddFile("b.h", "#include \"a.h\"\n");
  vfs.AddFile("a.c", "#include \"a.h\"\n");
  EXPECT_FALSE(Preprocess(vfs, "a.c").ok());
}

TEST(PreprocessorTest, PredefinedMacros) {
  Vfs vfs;
  vfs.AddFile("a.c", "#ifdef CONFIG_SMP\nint smp;\n#endif\nint n = NCPU;\n");
  PreprocessOptions options;
  options.defines["CONFIG_SMP"] = "1";
  options.defines["NCPU"] = "8";
  EXPECT_EQ(Render(MustPp(vfs, "a.c", options)), "int smp ; int n = 8 ;");
}

// --- Header cache and token lifetime ---

PreprocessedUnit MustPpWith(const Vfs& vfs, const std::string& main,
                            const PreprocessOptions& options,
                            HeaderCache* headers) {
  auto result = Preprocess(vfs, main, options, headers);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? std::move(*result) : PreprocessedUnit{};
}

std::vector<std::string> EventNames(const PreprocessedUnit& unit) {
  std::vector<std::string> names;
  for (const MacroEvent& e : unit.events) {
    names.push_back((e.kind == MacroEvent::Kind::kExpansion ? "x:" : "?:") +
                    e.name + "@" + std::to_string(e.use.file) + ":" +
                    std::to_string(e.use.line) + ":" +
                    std::to_string(e.use.col));
  }
  return names;
}

// One header, two units, two configurations: the cached tokens are
// pre-expansion, so each unit expands and selects them under its own
// -D values and its own macro state at the #include.
TEST(HeaderCacheTest, SharedHeaderExpandsPerUnit) {
  Vfs vfs;
  vfs.AddFile("cfg.h",
              "#ifdef CONFIG_FAST\nint fast_path = LEVEL;\n"
              "#else\nint slow_path = LEVEL;\n#endif\n"
              "int width = WIDTH;\n");
  vfs.AddFile("a.c", "#define LEVEL 1\n#include \"cfg.h\"\n");
  vfs.AddFile("b.c", "#define LEVEL 2\n#define WIDTH (LEVEL * 8)\n"
                     "#include \"cfg.h\"\n");
  PreprocessOptions fast;
  fast.defines["CONFIG_FAST"] = "1";
  fast.defines["WIDTH"] = "4";
  PreprocessOptions slow;

  HeaderCache headers;
  PreprocessedUnit a = MustPpWith(vfs, "a.c", fast, &headers);
  PreprocessedUnit b = MustPpWith(vfs, "b.c", slow, &headers);
  EXPECT_EQ(headers.size(), 1u);  // cfg.h lexed once for both units
  EXPECT_EQ(Render(a), "int fast_path = 1 ; int width = 4 ;");
  EXPECT_EQ(Render(b), "int slow_path = 2 ; int width = ( 2 * 8 ) ;");

  // The same as each unit preprocessed on its own.
  PreprocessedUnit alone_a = MustPp(vfs, "a.c", fast);
  PreprocessedUnit alone_b = MustPp(vfs, "b.c", slow);
  EXPECT_EQ(Render(a), Render(alone_a));
  EXPECT_EQ(Render(b), Render(alone_b));
  EXPECT_EQ(EventNames(a), EventNames(alone_a));
  EXPECT_EQ(EventNames(b), EventNames(alone_b));
}

// A header without a guard, included twice in one unit, is read twice
// (from one lexed copy), each time under the macro state of its #include.
TEST(HeaderCacheTest, UnguardedHeaderIncludedTwiceInOneUnit) {
  Vfs vfs;
  vfs.AddFile("decl.h", "int T;\n");
  vfs.AddFile("a.c", "#define T first\n#include \"decl.h\"\n#undef T\n"
                     "#define T second\n#include \"decl.h\"\n");
  HeaderCache headers;
  PreprocessedUnit unit = MustPpWith(vfs, "a.c", {}, &headers);
  EXPECT_EQ(Render(unit), "int first ; int second ;");
  EXPECT_EQ(headers.size(), 1u);
  ASSERT_EQ(unit.files.size(), 2u);
  ASSERT_EQ(unit.includes.size(), 2u);
  EXPECT_EQ(unit.includes[0].to_file, 1);
  EXPECT_EQ(unit.includes[1].to_file, 1);
  EXPECT_EQ(unit.includes[0].use.line, 2);
  EXPECT_EQ(unit.includes[1].use.line, 5);
  // The free function's unit-local cache gives the same result.
  EXPECT_EQ(Render(MustPp(vfs, "a.c")), "int first ; int second ;");
}

// Each unit numbers its files itself; a cached header's tokens and events
// carry the including unit's index for it, stamped when emitted.
TEST(HeaderCacheTest, FileIndexesArePerUnit) {
  Vfs vfs;
  vfs.AddFile("common.h",
              "#define ONE 1\n#ifdef EXTRA\n#endif\nint shared = ONE;\n");
  vfs.AddFile("other.h", "int other;\n");
  vfs.AddFile("a.c", "#include \"common.h\"\nint a;\n");
  vfs.AddFile("b.c",
              "#include \"other.h\"\n#include \"common.h\"\nint b;\n");
  HeaderCache headers;
  PreprocessedUnit a = MustPpWith(vfs, "a.c", {}, &headers);
  PreprocessedUnit b = MustPpWith(vfs, "b.c", {}, &headers);
  ASSERT_EQ(a.files, (std::vector<std::string>{"a.c", "common.h"}));
  ASSERT_EQ(b.files,
            (std::vector<std::string>{"b.c", "other.h", "common.h"}));

  auto file_of = [](const PreprocessedUnit& unit, std::string_view text) {
    for (const CToken& t : unit.tokens) {
      if (t.text == text) return t.loc.file;
    }
    return -2;
  };
  EXPECT_EQ(file_of(a, "shared"), 1);
  EXPECT_EQ(file_of(b, "shared"), 2);
  EXPECT_EQ(file_of(b, "other"), 1);
  EXPECT_EQ(file_of(a, "a"), 0);
  EXPECT_EQ(file_of(b, "b"), 0);
  for (const CToken& t : b.tokens) {
    if (!t.IsEof()) {
      EXPECT_GE(t.loc.file, 0) << t.text;
    }
  }

  ASSERT_EQ(b.includes.size(), 2u);
  EXPECT_EQ(b.includes[1].from_file, 0);
  EXPECT_EQ(b.includes[1].to_file, 2);
  EXPECT_EQ(b.includes[1].use.file, 0);
  EXPECT_EQ(b.includes[1].use.line, 2);
  ASSERT_EQ(a.macros.size(), 1u);
  ASSERT_EQ(b.macros.size(), 1u);
  EXPECT_EQ(a.macros[0].loc.file, 1);
  EXPECT_EQ(b.macros[0].loc.file, 2);
  // #ifdef EXTRA (interrogation) and ONE (expansion), both in common.h.
  EXPECT_EQ(EventNames(a), (std::vector<std::string>{"?:EXTRA@1:2:8",
                                                     "x:ONE@1:4:14"}));
  EXPECT_EQ(EventNames(b), (std::vector<std::string>{"?:EXTRA@2:2:8",
                                                     "x:ONE@2:4:14"}));
}

// A lex error is not cached: every unit that includes the header fails.
TEST(HeaderCacheTest, LexErrorFailsEveryIncludingUnit) {
  Vfs vfs;
  vfs.AddFile("bad.h", "char *s = \"unterminated;\n");
  vfs.AddFile("a.c", "#include \"bad.h\"\n");
  vfs.AddFile("b.c", "int b;\n#include \"bad.h\"\n");
  vfs.AddFile("c.c", "int c;\n");
  HeaderCache headers;
  EXPECT_FALSE(Preprocess(vfs, "a.c", {}, &headers).ok());
  EXPECT_FALSE(Preprocess(vfs, "b.c", {}, &headers).ok());
  EXPECT_EQ(headers.size(), 0u);
  EXPECT_TRUE(Preprocess(vfs, "c.c", {}, &headers).ok());
}

// Pasted, stringized and -D tokens view the unit's own arena, so they stay
// readable after the Preprocessor and the options are gone and the unit
// has moved. Spelled tokens view the Vfs.
TEST(HeaderCacheTest, SynthesizedTokensLiveInTheUnit) {
  static_assert(!std::is_copy_constructible_v<PreprocessedUnit>);
  static_assert(std::is_move_constructible_v<PreprocessedUnit>);
  Vfs vfs;
  vfs.AddFile("a.c",
              "#define GLUE(a, b) a##b\n#define STR(x) #x\n"
              "int GLUE(a_rather_long_prefix_, and_a_long_suffix) = "
              "REPLACEMENT;\nchar *s = STR(a_stringized_argument_text);\n");
  PreprocessedUnit unit;
  {
    PreprocessOptions options;
    options.defines["REPLACEMENT"] = "a_replacement_longer_than_sso";
    auto result = Preprocess(vfs, "a.c", options);
    ASSERT_TRUE(result.ok()) << result.status();
    unit = std::move(*result);
  }
  PreprocessedUnit moved = std::move(unit);
  EXPECT_EQ(Render(moved),
            "int a_rather_long_prefix_and_a_long_suffix = "
            "a_replacement_longer_than_sso ; char * s = "
            "\"a_stringized_argument_text\" ;");
  const CToken& pasted = moved.tokens[1];
  EXPECT_TRUE(pasted.in_macro);
  EXPECT_EQ(pasted.macro, "GLUE");
  EXPECT_EQ(moved.tokens[3].macro, "REPLACEMENT");
  std::string_view content = *vfs.Read("a.c");
  EXPECT_EQ(moved.tokens[0].text.data(),
            content.data() + content.find("int GLUE"));
}

}  // namespace
}  // namespace frappe::extractor
