#include <gtest/gtest.h>

#include "extractor/c_token.h"

#include <span>
#include <string>

namespace frappe::extractor {
namespace {

struct Line {
  bool is_directive = false;
  std::vector<CToken> tokens;
};

// The lexed lines of `src`, each with its own copy of its tokens.
std::vector<Line> MustLex(std::string_view src) {
  auto result = LexCFile(src);
  EXPECT_TRUE(result.ok()) << result.status();
  std::vector<Line> lines;
  if (!result.ok()) return lines;
  for (const LexedFile::Line& line : result->lines) {
    std::span<const CToken> tokens = result->TokensOf(line);
    lines.push_back(Line{line.is_directive, {tokens.begin(), tokens.end()}});
  }
  return lines;
}

TEST(CLexerTest, IdentifiersAndNumbers) {
  auto lines = MustLex("int x42 = 0x1F;");
  ASSERT_EQ(lines.size(), 1u);
  const auto& toks = lines[0].tokens;
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_EQ(toks[0].text, "int");
  EXPECT_EQ(toks[1].text, "x42");
  EXPECT_EQ(toks[2].text, "=");
  EXPECT_EQ(toks[3].kind, CToken::Kind::kNumber);
  EXPECT_EQ(toks[3].text, "0x1F");
  EXPECT_EQ(toks[4].text, ";");
}

TEST(CLexerTest, LocationsAreOneBased) {
  auto lines = MustLex("ab cd\n  ef");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].tokens[0].loc.line, 1);
  EXPECT_EQ(lines[0].tokens[0].loc.col, 1);
  EXPECT_EQ(lines[0].tokens[1].loc.col, 4);
  EXPECT_EQ(lines[1].tokens[0].loc.line, 2);
  EXPECT_EQ(lines[1].tokens[0].loc.col, 3);
}

TEST(CLexerTest, MultiCharPunctuators) {
  auto lines = MustLex("a->b >>= c ... ##");
  const auto& toks = lines[0].tokens;
  EXPECT_EQ(toks[1].text, "->");
  EXPECT_EQ(toks[3].text, ">>=");
  EXPECT_EQ(toks[5].text, "...");
  EXPECT_EQ(toks[6].text, "##");
}

TEST(CLexerTest, CommentsAreSkipped) {
  auto lines = MustLex("a // line comment\nb /* block */ c\n/* multi\nline */ d");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].tokens.size(), 1u);
  EXPECT_EQ(lines[1].tokens.size(), 2u);
  EXPECT_EQ(lines[2].tokens[0].text, "d");
  EXPECT_EQ(lines[2].tokens[0].loc.line, 4);
}

TEST(CLexerTest, StringAndCharLiterals) {
  auto lines = MustLex(R"(x = "hello \"world\"" + 'a';)");
  const auto& toks = lines[0].tokens;
  EXPECT_EQ(toks[2].kind, CToken::Kind::kString);
  EXPECT_EQ(toks[4].kind, CToken::Kind::kCharLit);
}

TEST(CLexerTest, UnterminatedLiteralFails) {
  EXPECT_FALSE(LexCFile("\"oops\n").ok());
  EXPECT_FALSE(LexCFile("/* oops").ok());
}

TEST(CLexerTest, LineContinuation) {
  auto lines = MustLex("#define A \\\n 1\nb");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(lines[0].is_directive);
  ASSERT_EQ(lines[0].tokens.size(), 3u);  // define A 1
  EXPECT_EQ(lines[0].tokens[2].text, "1");
  // Continuation advances the physical line counter.
  EXPECT_EQ(lines[1].tokens[0].loc.line, 3);
}

TEST(CLexerTest, DirectiveDetection) {
  auto lines = MustLex("  #include \"a.h\"\nx # y");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(lines[0].is_directive);
  EXPECT_EQ(lines[0].tokens[0].text, "include");
  // '#' mid-line is not a directive.
  EXPECT_FALSE(lines[1].is_directive);
}

TEST(CLexerTest, PpNumberWithExponent) {
  auto lines = MustLex("x = 1.5e-3;");
  EXPECT_EQ(lines[0].tokens[2].text, "1.5e-3");
}

// Spelled tokens view the lexed text rather than copying it; lines index
// one flat token array; no token carries a file (the preprocessor stamps
// the unit's file index when it emits one).
TEST(CLexerTest, TokensViewTheSourceInOneFlatArray) {
  const std::string src = "#define N 16\nint a[N];\n";
  auto lexed = LexCFile(src);
  ASSERT_TRUE(lexed.ok()) << lexed.status();
  ASSERT_EQ(lexed->lines.size(), 2u);
  EXPECT_EQ(lexed->lines[0].begin, 0u);
  EXPECT_EQ(lexed->lines[0].end, 3u);
  EXPECT_EQ(lexed->lines[1].begin, 3u);
  EXPECT_EQ(lexed->lines[1].end, lexed->tokens.size());
  const CToken& n = lexed->tokens[1];
  EXPECT_EQ(n.text, "N");
  EXPECT_EQ(n.text.data(), src.data() + 8);
  for (const CToken& t : lexed->tokens) EXPECT_EQ(t.loc.file, -1);
}

}  // namespace
}  // namespace frappe::extractor
