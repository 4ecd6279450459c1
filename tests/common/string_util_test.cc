#include <gtest/gtest.h>

#include "common/string_util.h"

namespace semtag {
namespace {

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 3, "x", 1.5), "3-x-1.50");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(ToLowerTest, AsciiOnly) {
  EXPECT_EQ(ToLower("HeLLo Web 2.0!"), "hello web 2.0!");
}

TEST(SplitTest, KeepsEmptyPieces) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", ','), (std::vector<std::string>{"x"}));
}

TEST(StripTest, BothEnds) {
  EXPECT_EQ(StripAsciiWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripAsciiWhitespace("   "), "");
  EXPECT_EQ(StripAsciiWhitespace("x"), "x");
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("semantic", "sem"));
  EXPECT_FALSE(StartsWith("sem", "semantic"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(WithCommasTest, GroupsThousands) {
  EXPECT_EQ(WithCommas(0), "0");
  EXPECT_EQ(WithCommas(999), "999");
  EXPECT_EQ(WithCommas(1000), "1,000");
  EXPECT_EQ(WithCommas(4750000), "4,750,000");
  EXPECT_EQ(WithCommas(-17670000), "-17,670,000");
}

TEST(HumanSecondsTest, PicksUnit) {
  EXPECT_EQ(HumanSeconds(0.42), "0.42s");
  EXPECT_EQ(HumanSeconds(75.0), "1.2m");
  EXPECT_EQ(HumanSeconds(13.0 * 3600), "13.00h");
}

}  // namespace
}  // namespace semtag
