#include <gtest/gtest.h>

#include "text/tokenizer.h"

namespace semtag::text {
namespace {

TEST(TokenizerTest, SplitsOnNonAlnum) {
  EXPECT_EQ(Tokenize("Try the cup-cakes, now!"),
            (std::vector<std::string>{"try", "the", "cup", "cakes", "now"}));
}

TEST(TokenizerTest, LowercasesByDefault) {
  EXPECT_EQ(Tokenize("HeLLo World"),
            (std::vector<std::string>{"hello", "world"}));
}

TEST(TokenizerTest, KeepsApostropheInsideWords) {
  EXPECT_EQ(Tokenize("don't stop"),
            (std::vector<std::string>{"don't", "stop"}));
  // A trailing apostrophe is a separator.
  EXPECT_EQ(Tokenize("dogs' toys"),
            (std::vector<std::string>{"dogs", "toys"}));
}

TEST(TokenizerTest, NumbersAreTokens) {
  EXPECT_EQ(Tokenize("20% tip is customary"),
            (std::vector<std::string>{"20", "tip", "is", "customary"}));
}

TEST(TokenizerTest, EmptyAndWhitespaceOnly) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("   \t\n ").empty());
  EXPECT_TRUE(Tokenize("!?.,;:").empty());
}

}  // namespace
}  // namespace semtag::text
