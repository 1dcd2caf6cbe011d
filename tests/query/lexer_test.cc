#include "query/lexer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/fingerprint.h"

namespace frappe::query {
namespace {

using obs::Fingerprint64;

std::vector<TokenType> Types(std::string_view input) {
  auto tokens = Lex(input);
  EXPECT_TRUE(tokens.ok()) << tokens.status();
  std::vector<TokenType> out;
  for (const Token& t : *tokens) out.push_back(t.type);
  return out;
}

TEST(LexerTest, EmptyInput) {
  auto tokens = Lex("");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 1u);
  EXPECT_EQ((*tokens)[0].type, TokenType::kEnd);
}

TEST(LexerTest, IdentifiersAndKeywords) {
  auto tokens = Lex("START match RETURN pci_read_bases _x9");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 6u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ((*tokens)[i].type, TokenType::kIdent);
  }
  EXPECT_TRUE((*tokens)[0].IsKeyword("start"));
  EXPECT_TRUE((*tokens)[0].IsKeyword("START"));
  EXPECT_FALSE((*tokens)[3].IsKeyword("start"));
  EXPECT_EQ((*tokens)[3].text, "pci_read_bases");
}

TEST(LexerTest, Numbers) {
  auto tokens = Lex("236 3.14 0");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kInt);
  EXPECT_EQ((*tokens)[0].int_value, 236);
  EXPECT_EQ((*tokens)[1].type, TokenType::kDouble);
  EXPECT_DOUBLE_EQ((*tokens)[1].double_value, 3.14);
  EXPECT_EQ((*tokens)[2].int_value, 0);
}

TEST(LexerTest, RangeDoesNotLexAsFloat) {
  // `*1..3` must produce STAR INT DOTDOT INT.
  EXPECT_EQ(Types("*1..3"),
            (std::vector<TokenType>{TokenType::kStar, TokenType::kInt,
                                    TokenType::kDotDot, TokenType::kInt,
                                    TokenType::kEnd}));
}

TEST(LexerTest, Strings) {
  auto tokens = Lex("'single' \"double\" 'wakeup.elf'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kString);
  EXPECT_EQ((*tokens)[0].text, "single");
  EXPECT_EQ((*tokens)[1].text, "double");
  EXPECT_EQ((*tokens)[2].text, "wakeup.elf");
}

TEST(LexerTest, StringEscapes) {
  auto tokens = Lex(R"('it\'s')");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "it's");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Lex("'oops").ok());
}

TEST(LexerTest, RelationshipPatternTokens) {
  // `-[:calls*]->` : MINUS LBRACKET COLON IDENT STAR RBRACKET MINUS GT.
  EXPECT_EQ(Types("-[:calls*]->"),
            (std::vector<TokenType>{
                TokenType::kMinus, TokenType::kLBracket, TokenType::kColon,
                TokenType::kIdent, TokenType::kStar, TokenType::kRBracket,
                TokenType::kMinus, TokenType::kGt, TokenType::kEnd}));
}

TEST(LexerTest, IncomingRelTokens) {
  // `<-[]-` : LT MINUS LBRACKET RBRACKET MINUS.
  EXPECT_EQ(Types("<-[]-"),
            (std::vector<TokenType>{TokenType::kLt, TokenType::kMinus,
                                    TokenType::kLBracket,
                                    TokenType::kRBracket, TokenType::kMinus,
                                    TokenType::kEnd}));
}

TEST(LexerTest, ComparisonOperators) {
  EXPECT_EQ(Types("= <> < <= > >="),
            (std::vector<TokenType>{TokenType::kEq, TokenType::kNe,
                                    TokenType::kLt, TokenType::kLe,
                                    TokenType::kGt, TokenType::kGe,
                                    TokenType::kEnd}));
}

TEST(LexerTest, LessThanNegativeNumberStaysSeparate) {
  // `a < -5` must not fuse `<-` into an arrow.
  EXPECT_EQ(Types("a < -5"),
            (std::vector<TokenType>{TokenType::kIdent, TokenType::kLt,
                                    TokenType::kMinus, TokenType::kInt,
                                    TokenType::kEnd}));
}

TEST(LexerTest, Punctuation) {
  EXPECT_EQ(Types("( ) [ ] { } : , . | *"),
            (std::vector<TokenType>{
                TokenType::kLParen, TokenType::kRParen, TokenType::kLBracket,
                TokenType::kRBracket, TokenType::kLBrace, TokenType::kRBrace,
                TokenType::kColon, TokenType::kComma, TokenType::kDot,
                TokenType::kPipe, TokenType::kStar, TokenType::kEnd}));
}

TEST(LexerTest, LineComments) {
  auto tokens = Lex("a // trailing comment\nb");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 3u);
  EXPECT_EQ((*tokens)[0].text, "a");
  EXPECT_EQ((*tokens)[1].text, "b");
}

TEST(LexerTest, RejectsUnknownCharacter) {
  auto result = Lex("a @ b");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(LexerTest, OutOfRangeDoubleIsAParseError) {
  // std::stod would throw here; the lexer must reject, not abort.
  auto result = Lex("MATCH (n) WHERE n.x > 1" + std::string(400, '0') +
                    ".5 RETURN n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  EXPECT_NE(result.status().message().find("double literal out of range"),
            std::string::npos)
      << result.status();
  // The rejected literal is echoed cut short, not all 400 digits.
  EXPECT_LE(result.status().message().size(), 80u) << result.status();
}

TEST(LexerTest, ErrorEchoKeepsAPrefixOnACharacterBoundary) {
  EXPECT_EQ(ErrorEcho("short"), "short");
  EXPECT_EQ(ErrorEcho(std::string(kErrorEchoBytes, 'x')),
            std::string(kErrorEchoBytes, 'x'));
  EXPECT_EQ(ErrorEcho(std::string(1000, 'x')),
            std::string(kErrorEchoBytes, 'x') + "\u2026");
  // "a" then two-byte characters: byte 32 is the second byte of one, so
  // the cut backs off to byte 31 rather than split it.
  std::string accented = "a";
  for (int i = 0; i < 20; ++i) accented += "\u00e9";
  EXPECT_EQ(ErrorEcho(accented), accented.substr(0, 31) + "\u2026");
}

TEST(LexerTest, ErrorKeepsTheTokensBeforeIt) {
  std::vector<Token> tokens;
  Status status = Lex("RETURN n; x", &tokens);
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  ASSERT_EQ(tokens.size(), 2u);  // RETURN n, no kEnd
  EXPECT_EQ(tokens[1].text, "n");
  EXPECT_EQ(tokens[1].end, 8u);
}

TEST(LexerTest, OffsetsPointIntoInput) {
  auto tokens = Lex("ab  cd");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].offset, 0u);
  EXPECT_EQ((*tokens)[0].end, 2u);
  EXPECT_EQ((*tokens)[1].offset, 4u);
  EXPECT_EQ((*tokens)[1].end, 6u);
}


// ---------------------------------------------------------------------------
// Normalization: the query's *shape* survives, its parameters don't.

TEST(NormalizeQueryTest, CollapsesWhitespaceAndCase) {
  EXPECT_EQ(NormalizeQuery("MATCH   (f:Function)\n\tRETURN f").text,
            "match(f:function)return f");
}

TEST(NormalizeQueryTest, StripsComments) {
  EXPECT_EQ(NormalizeQuery("MATCH (f) // find everything\nRETURN f").text,
            "match(f)return f");
}

TEST(NormalizeQueryTest, NumericLiteralsBecomePlaceholders) {
  EXPECT_EQ(NormalizeQuery("WHERE f.line > 100 AND f.col < 2.5").text,
            "where f.line > ? and f.col < ?");
}

TEST(NormalizeQueryTest, RangeStaysFusedNextToInts) {
  // `1..3` must not lex as the float `1.`: the lexer only consumes '.'
  // when a digit follows.
  EXPECT_EQ(NormalizeQuery("-[:calls*1..3]->").text, "-[:calls*?..?]->");
}

TEST(NormalizeQueryTest, StringLiteralsBecomePlaceholders) {
  EXPECT_EQ(NormalizeQuery("MATCH (n {name: 'vfs_read'}) RETURN n").text,
            "match(n{name:?})return n");
}

TEST(NormalizeQueryTest, IndexLookupStringsKeepTheField) {
  // The Figure 6 START shape: the index field is part of the query shape,
  // the looked-up value is a parameter.
  EXPECT_EQ(
      NormalizeQuery("START n=node:node_auto_index('short_name: cmd')"
                     " MATCH n RETURN n")
          .text,
      "start n = node:node_auto_index('short_name: ?')match n return n");
}

TEST(NormalizeQueryTest, SameShapeDifferentLiteralsSameFingerprint) {
  auto a = NormalizeQuery(
      "START n=node:node_auto_index('short_name: sr_do_ioctl') RETURN n");
  auto b = NormalizeQuery(
      "START n=node:node_auto_index('short_name: vfs_read') RETURN n");
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(NormalizeQueryTest, DifferentIndexFieldsDifferentFingerprint) {
  auto a = NormalizeQuery("START n=node:node_auto_index('short_name: x')");
  auto b = NormalizeQuery("START n=node:node_auto_index('name: x')");
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

TEST(NormalizeQueryTest, DifferentShapesDifferentFingerprint) {
  EXPECT_NE(NormalizeQuery("MATCH (f:function) RETURN f").fingerprint,
            NormalizeQuery("MATCH (f:struct) RETURN f").fingerprint);
}

TEST(NormalizeQueryTest, FingerprintIsStableAcrossRuns) {
  // FNV-1a over the normalized text: pin one value so an accidental change
  // to the hash or the normalizer shows up as a diff, not silent drift
  // (fingerprints are persisted in query logs — they must not change
  // between builds).
  EXPECT_EQ(Fingerprint64("match(f:function)return f"),
            NormalizeQuery("MATCH (f:function) RETURN f").fingerprint);
  EXPECT_EQ(Fingerprint64(""), 14695981039346656037ull);  // FNV offset basis
}

TEST(NormalizeQueryTest, ArrowsFuseOnlyWhereTheTokensTouch) {
  EXPECT_EQ(NormalizeQuery("a<-b").text, "a<-b");
  // `a < -5` is a comparison with a negative number, not an arrow.
  EXPECT_EQ(NormalizeQuery("a < -5").text, "a <-?");
  EXPECT_NE(NormalizeQuery("a<-5").fingerprint,
            NormalizeQuery("a < -5").fingerprint);
  EXPECT_EQ(NormalizeQuery("MATCH (a)-->(b) RETURN b").text,
            "match(a)-->(b)return b");
  // `->=` lexes as MINUS GE; it renders as the same text `->` `=` would.
  EXPECT_EQ(Types("->="), (std::vector<TokenType>{TokenType::kMinus,
                                                  TokenType::kGe,
                                                  TokenType::kEnd}));
  EXPECT_EQ(NormalizeQuery("a ->= b").text, "a->= b");
}

// Input the lexer rejects renders the tokens lexed before the error and one
// `?` for the rest; none of the rejected text reaches the shape.
void ExpectRejectedShape(const std::string& input, const std::string& shape,
                         const std::string& literal) {
  std::vector<Token> tokens;
  EXPECT_FALSE(Lex(input, &tokens).ok()) << input;
  NormalizedQuery normalized = NormalizeQuery(input);
  EXPECT_EQ(normalized.text, shape + " ?");
  EXPECT_EQ(normalized.fingerprint, Fingerprint64(shape + " ?"));
  EXPECT_EQ(normalized.text.find(literal), std::string::npos);
}

TEST(NormalizeQueryTest, StraySemicolonEndsTheShape) {
  ExpectRejectedShape("MATCH (n) RETURN n; MATCH (m) RETURN m",
                      "match(n)return n", ";");
}

TEST(NormalizeQueryTest, UnterminatedStringEndsTheShape) {
  ExpectRejectedShape("MATCH (n) WHERE n.name = 'vfs_re",
                      "match(n)where n.name =", "vfs_re");
}

TEST(NormalizeQueryTest, OutOfRangeIntEndsTheShape) {
  ExpectRejectedShape("MATCH (n) WHERE n.line > 99999999999999999999 RETURN n",
                      "match(n)where n.line >", "9999");
}

TEST(NormalizeQueryTest, OutOfRangeFloatEndsTheShape) {
  ExpectRejectedShape("MATCH (n) WHERE n.x > 1" + std::string(400, '0') +
                          ".5 RETURN n",
                      "match(n)where n.x >", "000");
}

}  // namespace
}  // namespace frappe::query
