#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "src/common/loc.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/strings.h"

namespace perfiface {
namespace {

TEST(SplitMix64, DeterministicAcrossInstances) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(SplitMix64, NextBelowRespectsBound) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(SplitMix64, NextBelowCoversRange) {
  SplitMix64 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    seen.insert(rng.NextBelow(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(SplitMix64, NextInRangeInclusive) {
  SplitMix64 rng(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.NextInRange(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    saw_lo = saw_lo || v == 3;
    saw_hi = saw_hi || v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(SplitMix64, DoubleInUnitInterval) {
  SplitMix64 rng(21);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(SplitMix64, GaussianMoments) {
  SplitMix64 rng(31);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.Add(rng.NextGaussian());
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

TEST(SplitMix64, BernoulliProbability) {
  SplitMix64 rng(41);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
}

TEST(DeriveSeed, StreamsAreDistinct) {
  EXPECT_NE(DeriveSeed(1, 0), DeriveSeed(1, 1));
  EXPECT_NE(DeriveSeed(1, 0), DeriveSeed(2, 0));
  EXPECT_EQ(DeriveSeed(5, 3), DeriveSeed(5, 3));
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(ErrorAccumulator, RelativeErrors) {
  ErrorAccumulator acc;
  acc.Add(110, 100);  // 10%
  acc.Add(95, 100);   // 5%
  EXPECT_EQ(acc.count(), 2u);
  EXPECT_NEAR(acc.avg_percent(), 7.5, 1e-9);
  EXPECT_NEAR(acc.max_percent(), 10.0, 1e-9);
}

TEST(Percentile, InterpolatesCorrectly) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 2);
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = SplitString("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("he", "hello"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(Strings, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

// ParseDecimal accepts exactly the text strtod reads whole as a finite
// decimal number, with the same bits; past the range's top it reports
// result_out_of_range (strtod's +-inf). Random text over the number bytes,
// then numbers whose exponents straddle both ends of the double range.
TEST(Strings, ParseDecimalReadsWhatStrtodReadsWhole) {
  SplitMix64 rng(23);
  std::vector<std::string> corpus = {"+5", "-0", ".5", "1.", "00012", "1e", "1e+", "-.5e-3",
                                     "4e-320", "1e-400", "-1e-400", "1e400", "1.5e+3088", "+",
                                     "-", ".", "e5", "--1", "+-1"};
  const char kBytes[] = "0123456789.eE+-";
  while (corpus.size() < 50'000) {
    std::string text(1 + rng.NextBelow(10), ' ');
    for (char& c : text) {
      c = kBytes[rng.NextBelow(sizeof(kBytes) - 1)];
    }
    corpus.push_back(text);
    std::string number = rng.NextBool(0.2) ? "-" : "";
    for (std::size_t d = 1 + rng.NextBelow(25); d > 0; --d) {
      number += static_cast<char>('0' + rng.NextBelow(10));
    }
    number.insert(number.begin() + 1 + rng.NextBelow(number.size()), '.');
    number += 'e';
    number += std::to_string(static_cast<int>(rng.NextBelow(800)) - 400);
    corpus.push_back(number);
  }
  for (const std::string& text : corpus) {
    char* end = nullptr;
    const double want = std::strtod(text.c_str(), &end);
    const bool whole = !text.empty() && end == text.c_str() + text.size();
    double got = 0;
    const std::errc ec = ParseDecimal(text, &got);
    if (!whole) {
      EXPECT_EQ(ec, std::errc::invalid_argument) << text;
    } else if (!std::isfinite(want)) {
      EXPECT_EQ(ec, std::errc::result_out_of_range) << text;
    } else {
      ASSERT_EQ(ec, std::errc()) << text;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want)) << text;
    }
  }
  double unused = 0;
  for (const char* text : {"inf", "-nan", "0x10", " 1", "1 ", ""}) {
    EXPECT_EQ(ParseDecimal(text, &unused), std::errc::invalid_argument) << text;
  }
}

TEST(Strings, ParseDecimalIntegersAreSignedDigitsInRange) {
  int i = 0;
  EXPECT_EQ(ParseDecimal("+42", &i), std::errc());
  EXPECT_EQ(i, 42);
  EXPECT_EQ(ParseDecimal("-0", &i), std::errc());
  EXPECT_EQ(i, 0);
  EXPECT_EQ(ParseDecimal("2147483648", &i), std::errc::result_out_of_range);
  std::uint64_t u = 7;
  EXPECT_EQ(ParseDecimal("18446744073709551615", &u), std::errc());
  EXPECT_EQ(u, UINT64_MAX);
  for (const char* bad : {"-0", "-1", "+-1", "+", "1.0", "1e3", "12x", " 1", ""}) {
    EXPECT_NE(ParseDecimal(bad, &u), std::errc()) << bad;
  }
  EXPECT_EQ(u, UINT64_MAX);  // untouched on failure
}

TEST(Loc, CountsCodeLinesOnly) {
  const char* cpp =
      "// comment\n"
      "\n"
      "int x = 1;  // trailing\n"
      "/* block\n"
      "   still block */\n"
      "int y = 2;\n";
  EXPECT_EQ(CountLoc(cpp, LocSyntax::kCpp), 2u);
}

TEST(Loc, BlockCommentWithTrailingCode) {
  EXPECT_EQ(CountLoc("/* c */ int x;\n", LocSyntax::kCpp), 1u);
  EXPECT_EQ(CountLoc("/* c */ // only comments\n", LocSyntax::kCpp), 0u);
}

TEST(Loc, HashSyntax) {
  const char* pnet =
      "# comment\n"
      "net x\n"
      "\n"
      "place p\n";
  EXPECT_EQ(CountLoc(pnet, LocSyntax::kPnet), 2u);
}

}  // namespace
}  // namespace perfiface
