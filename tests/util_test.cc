#include <gtest/gtest.h>

#include "util/check.h"
#include "util/hash.h"
#include "util/result.h"
#include "util/strings.h"

namespace featsep {
namespace {

TEST(CheckTest, PassingChecksAreSilent) {
  FEATSEP_CHECK(true);
  FEATSEP_CHECK_EQ(1, 1);
  FEATSEP_CHECK_LT(1, 2);
  FEATSEP_CHECK_GE(2, 2);
}

TEST(CheckDeathTest, FailingCheckAborts) {
  EXPECT_DEATH(FEATSEP_CHECK(false) << "context " << 42,
               "CHECK failed.*context 42");
  EXPECT_DEATH(FEATSEP_CHECK_EQ(1, 2), "CHECK failed");
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = 42;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);

  Result<int> bad = Error("boom");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message(), "boom");
}

TEST(ResultDeathTest, WrongAccessorAborts) {
  Result<int> bad = Error("boom");
  EXPECT_DEATH(bad.value(), "boom");
  Result<int> ok = 1;
  EXPECT_DEATH(ok.error(), "error\\(\\) on ok result");
}

TEST(HashTest, CombineIsOrderSensitive) {
  std::size_t a = 1;
  std::size_t b = 1;
  HashCombine(a, 2);
  HashCombine(a, 3);
  HashCombine(b, 3);
  HashCombine(b, 2);
  EXPECT_NE(a, b);
}

TEST(HashTest, VectorHashConsistent) {
  VectorHash<int> hasher;
  EXPECT_EQ(hasher({1, 2, 3}), hasher({1, 2, 3}));
  EXPECT_NE(hasher({1, 2, 3}), hasher({3, 2, 1}));
  EXPECT_NE(hasher({}), hasher({0}));
}

TEST(StringsTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
  EXPECT_EQ(StripWhitespace("x"), "x");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("relation R 2", "relation "));
  EXPECT_FALSE(StartsWith("rel", "relation"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(StringsTest, ParseWholeTakesOnlyACompleteNumber) {
  std::size_t count = 7;
  EXPECT_TRUE(ParseWhole("42", &count));
  EXPECT_EQ(count, 42u);
  for (const char* bad : {"", "x", "1x", " 1", "+1", "-1",
                          "18446744073709551616"}) {
    EXPECT_FALSE(ParseWhole(bad, &count)) << "'" << bad << "'";
  }
  long long signed_value = 0;
  EXPECT_TRUE(ParseWhole("-5", &signed_value));
  EXPECT_EQ(signed_value, -5);
  double fraction = 0;
  EXPECT_TRUE(ParseWhole("0.25", &fraction));
  EXPECT_EQ(fraction, 0.25);
  EXPECT_FALSE(ParseWhole("0.25s", &fraction));
}

}  // namespace
}  // namespace featsep
