#include "common/string_util.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

namespace frappe {
namespace {

TEST(SplitTest, KeepsEmptyPieces) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(SplitTest, EmptyInputYieldsOneEmptyPiece) {
  auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(SplitTest, SkipEmptyDropsBlanks) {
  auto parts = SplitSkipEmpty("/usr//lib/", '/');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "usr");
  EXPECT_EQ(parts[1], "lib");
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join(std::vector<std::string>{"a", "b", "c"}, "/"), "a/b/c");
  EXPECT_EQ(Join(std::vector<std::string>{}, "/"), "");
  EXPECT_EQ(Join(std::vector<std::string>{"only"}, "/"), "only");
}

TEST(CaseTest, ToLowerAsciiOnly) {
  EXPECT_EQ(ToLower("Pci_Read_BASES"), "pci_read_bases");
  EXPECT_EQ(ToLower("already_lower123"), "already_lower123");
}

TEST(CaseTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("SHORT_NAME", "short_name"));
  EXPECT_FALSE(EqualsIgnoreCase("short_name", "short_names"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abd"));
}

TEST(AffixTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("wakeup.elf", "wake"));
  EXPECT_FALSE(StartsWith("wakeup.elf", "elf"));
  EXPECT_TRUE(EndsWith("wakeup.elf", ".elf"));
  EXPECT_FALSE(EndsWith("wakeup.elf", ".o"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(StripTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  foo bar\t\n"), "foo bar");
  EXPECT_EQ(StripWhitespace("\t \n"), "");
  EXPECT_EQ(StripWhitespace("x"), "x");
}

struct WildcardCase {
  const char* pattern;
  const char* text;
  bool expect;
};

class WildcardMatchTest : public ::testing::TestWithParam<WildcardCase> {};

TEST_P(WildcardMatchTest, Matches) {
  const WildcardCase& c = GetParam();
  EXPECT_EQ(WildcardMatch(c.pattern, c.text), c.expect)
      << "pattern=" << c.pattern << " text=" << c.text;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, WildcardMatchTest,
    ::testing::Values(
        WildcardCase{"pci_*", "pci_read_bases", true},
        WildcardCase{"pci_*", "pc_read", false},
        WildcardCase{"*_bases", "pci_read_bases", true},
        WildcardCase{"*read*", "pci_read_bases", true},
        WildcardCase{"pci_?ead_bases", "pci_read_bases", true},
        WildcardCase{"pci_?ead_bases", "pci_rread_bases", false},
        WildcardCase{"*", "", true},
        WildcardCase{"", "", true},
        WildcardCase{"", "x", false},
        WildcardCase{"a*b*c", "aXXbYYc", true},
        WildcardCase{"a*b*c", "aXXcYYb", false},
        WildcardCase{"exact", "exact", true},
        WildcardCase{"exact", "exact!", false},
        WildcardCase{"**", "anything", true},
        WildcardCase{"a**z", "az", true}));

TEST(WildcardTest, CaseInsensitiveFlag) {
  EXPECT_TRUE(WildcardMatch("PCI_*", "pci_read", /*ignore_case=*/true));
  EXPECT_FALSE(WildcardMatch("PCI_*", "pci_read", /*ignore_case=*/false));
}

TEST(WildcardTest, HasWildcards) {
  EXPECT_TRUE(HasWildcards("foo*"));
  EXPECT_TRUE(HasWildcards("f?o"));
  EXPECT_FALSE(HasWildcards("foo"));
}

TEST(EditDistanceTest, ExactAndSimpleEdits) {
  EXPECT_EQ(BoundedEditDistance("abc", "abc", 2), 0u);
  EXPECT_EQ(BoundedEditDistance("abc", "abd", 2), 1u);   // substitution
  EXPECT_EQ(BoundedEditDistance("abc", "abcd", 2), 1u);  // insertion
  EXPECT_EQ(BoundedEditDistance("abc", "ac", 2), 1u);    // deletion
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", 3), 3u);
}

TEST(EditDistanceTest, EarlyExitBeyondLimit) {
  // Distance is 5; with limit 2 the function must report limit+1.
  EXPECT_EQ(BoundedEditDistance("aaaaa", "bbbbb", 2), 3u);
  // Length difference alone exceeds the limit.
  EXPECT_EQ(BoundedEditDistance("a", "abcdefgh", 2), 3u);
}

TEST(EditDistanceTest, EmptyStrings) {
  EXPECT_EQ(BoundedEditDistance("", "", 2), 0u);
  EXPECT_EQ(BoundedEditDistance("", "ab", 2), 2u);
  EXPECT_EQ(BoundedEditDistance("ab", "", 2), 2u);
}

TEST(ParseInt64Test, ValidAndInvalid) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("123", &v));
  EXPECT_EQ(v, 123);
  EXPECT_TRUE(ParseInt64("-45", &v));
  EXPECT_EQ(v, -45);
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("x12", &v));
  EXPECT_FALSE(ParseInt64("1.5", &v));
}

TEST(HumanBytesTest, Formats) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KB");
  EXPECT_EQ(HumanBytes(800ull * 1024 * 1024), "800.00 MB");
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControlBytes) {
  const std::string raw = std::string("a\"b\\c\nd\re\tf") + '\x01' +
                          '\x1f' + " \x7f\xc3\xa9";
  const std::string escaped =
      "a\\\"b\\\\c\\nd\\re\\tf\\u0001\\u001f \x7f\xc3\xa9";
  EXPECT_EQ(JsonEscape(raw), escaped);
  EXPECT_EQ(JsonQuote(raw), "\"" + escaped + "\"");
  EXPECT_EQ(JsonEscape(""), "");
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape(std::string(1, '\0')), "\\u0000");
}

TEST(JsonEscapeTest, AppendKeepsWhatTheBufferHolds) {
  std::string out = "[";
  AppendJsonEscaped(&out, "x\"y");
  AppendJsonEscaped(&out, "");
  AppendJsonEscaped(&out, "\n");
  EXPECT_EQ(out, "[x\\\"y\\n");
}

}  // namespace
}  // namespace frappe
