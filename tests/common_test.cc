#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dmt/common/math.h"
#include "dmt/common/parse.h"
#include "dmt/common/random.h"
#include "dmt/common/stats.h"
#include "dmt/common/table.h"
#include "dmt/common/types.h"

namespace dmt {
namespace {

TEST(MathTest, SigmoidMatchesClosedForm) {
  EXPECT_DOUBLE_EQ(Sigmoid(0.0), 0.5);
  EXPECT_NEAR(Sigmoid(2.0), 1.0 / (1.0 + std::exp(-2.0)), 1e-12);
  EXPECT_NEAR(Sigmoid(-2.0), 1.0 / (1.0 + std::exp(2.0)), 1e-12);
}

TEST(MathTest, SigmoidIsStableAtExtremes) {
  EXPECT_NEAR(Sigmoid(1000.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-1000.0), 0.0, 1e-12);
}

TEST(MathTest, LogSumExpMatchesNaiveOnSmallValues) {
  std::vector<double> z = {0.1, 0.2, 0.3};
  double naive = std::log(std::exp(0.1) + std::exp(0.2) + std::exp(0.3));
  EXPECT_NEAR(LogSumExp(z), naive, 1e-12);
}

TEST(MathTest, LogSumExpStableForLargeValues) {
  std::vector<double> z = {1000.0, 1000.0};
  EXPECT_NEAR(LogSumExp(z), 1000.0 + std::log(2.0), 1e-9);
}

TEST(MathTest, SoftmaxSumsToOneAndPreservesOrder) {
  std::vector<double> z = {1.0, 3.0, 2.0};
  SoftmaxInPlace(z);
  EXPECT_NEAR(z[0] + z[1] + z[2], 1.0, 1e-12);
  EXPECT_GT(z[1], z[2]);
  EXPECT_GT(z[2], z[0]);
}

TEST(MathTest, SafeLogIsFiniteAtZeroAndOne) {
  EXPECT_TRUE(std::isfinite(SafeLog(0.0)));
  EXPECT_TRUE(std::isfinite(SafeLog(1.0)));
}

TEST(MathTest, DotAndNorm) {
  std::vector<double> a = {1.0, 2.0, 3.0};
  std::vector<double> b = {4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(Dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(SquaredNorm(a), 14.0);
}

TEST(RunningStatsTest, MeanAndVarianceMatchClosedForm) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(v);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 4.0, 1e-12);  // population variance
  EXPECT_NEAR(stats.stddev(), 2.0, 1e-12);
}

TEST(RunningStatsTest, EmptyAndSingleValue) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  stats.Add(3.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(SlidingWindowStatsTest, EvictsOldValues) {
  SlidingWindowStats window(3);
  window.Add(1.0);
  window.Add(2.0);
  window.Add(3.0);
  EXPECT_DOUBLE_EQ(window.mean(), 2.0);
  window.Add(10.0);  // evicts 1.0
  EXPECT_DOUBLE_EQ(window.mean(), 5.0);
  EXPECT_EQ(window.count(), 3u);
}

TEST(RngTest, SeedsAreReproducible) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, UniformIntCoversRangeInclusively) {
  Rng rng(1);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.UniformInt(0, 3);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(2);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Categorical(weights), 1);
}

TEST(BatchTest, RowsRoundTrip) {
  Batch batch(2);
  batch.Add(std::vector<double>{1.0, 2.0}, 0);
  batch.Add(std::vector<double>{3.0, 4.0}, 1);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_DOUBLE_EQ(batch.row(1)[0], 3.0);
  EXPECT_EQ(batch.label(0), 0);
  batch.mutable_row(0)[0] = 9.0;
  EXPECT_DOUBLE_EQ(batch.row(0)[0], 9.0);
}

TEST(TableTest, RendersAlignedColumnsAndCsv) {
  TextTable table({"model", "f1"});
  table.AddRow({"DMT", MeanStdCell(0.781, 0.104)});
  const std::string text = table.ToString();
  EXPECT_NE(text.find("DMT"), std::string::npos);
  EXPECT_NE(text.find("0.78 +- 0.10"), std::string::npos);
  EXPECT_NE(table.ToCsv().find("DMT,0.78 +- 0.10"), std::string::npos);
}

// ParseDouble's reference semantics: strtod must consume the whole
// non-empty token, which must not start with whitespace.
std::optional<double> StrtodReference(const std::string& text,
                                      bool require_finite) {
  if (text.empty() || text[0] == ' ' || text[0] == '\t') return std::nullopt;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || end == text.c_str()) {
    return std::nullopt;
  }
  if (require_finite && !std::isfinite(value)) return std::nullopt;
  return value;
}

std::uint64_t BitsOf(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Same acceptance and the same bits as the strtod reference, in both modes.
void ExpectMatchesStrtod(const std::string& text) {
  for (const bool require_finite : {true, false}) {
    const std::optional<double> got = ParseDouble(text, require_finite);
    const std::optional<double> want = StrtodReference(text, require_finite);
    ASSERT_EQ(got.has_value(), want.has_value())
        << "'" << text << "' require_finite=" << require_finite;
    if (got) {
      EXPECT_EQ(BitsOf(*got), BitsOf(*want))
          << "'" << text << "' require_finite=" << require_finite;
    }
  }
}

TEST(ParseDoubleTest, FastPathMatchesStrtodOnEdgeCases) {
  const std::string long_digits = "0." + std::string(200, '0') + "15";
  for (const std::string& text : std::vector<std::string>{
           "+1", "0x1p3", "1e999", "-1e-400", "4.9e-324", "nan", "NAN(abc)",
        "nan(0x5)", "-nan", "inf", "-Infinity", "1.", ".5", "1e", " 1", "1 ",
        "", "--1", "9007199254740993", "0", "-0", "1e-5", "2.5E+10",
        "1.7976931348623157e308", "1.7976931348623159e308",
        "2.2250738585072011e-308", "1.2.3", "1,5", "0x", "e5", "+",
        "\t1", "infinity", "INF", "nan()", "-0.0e0", "1e+", "0x1P-1074",
           "1_000", long_digits, "+" + long_digits, long_digits + "x"}) {
    ExpectMatchesStrtod(text);
  }
}

TEST(ParseDoubleTest, EdgeCaseValues) {
  EXPECT_EQ(ParseDouble("+1"), 1.0);
  EXPECT_EQ(ParseDouble("0x1p3"), 8.0);
  EXPECT_EQ(ParseDouble("9007199254740993"), 9007199254740992.0);
  EXPECT_EQ(ParseDouble("4.9e-324"), 4.9e-324);
  EXPECT_EQ(ParseDouble("1."), 1.0);
  EXPECT_EQ(ParseDouble(".5"), 0.5);
  // Out of range: accepted as what strtod rounds to (-0.0 keeps its sign;
  // the overflow is infinite, so only the data-plane mode accepts it).
  ASSERT_TRUE(ParseDouble("-1e-400").has_value());
  EXPECT_TRUE(std::signbit(*ParseDouble("-1e-400")));
  EXPECT_FALSE(ParseDouble("1e999").has_value());
  EXPECT_EQ(ParseDouble("1e999", false), HUGE_VAL);
  EXPECT_FALSE(ParseDouble("nan").has_value());
  EXPECT_TRUE(std::isnan(*ParseDouble("NAN(abc)", false)));
  EXPECT_EQ(ParseDouble("-Infinity", false), -HUGE_VAL);
  for (const char* bad : {"1e", " 1", "1 ", "", "--1"}) {
    EXPECT_FALSE(ParseDouble(bad, false).has_value()) << "'" << bad << "'";
  }
}

TEST(ParseDoubleTest, FastPathMatchesStrtodOnPrintedValues) {
  // The serve protocol's own traffic: %.9g and %.17g renderings of values
  // across many magnitudes.
  Rng rng(2022);
  char buffer[64];
  for (int i = 0; i < 20000; ++i) {
    const double value = (rng.Uniform() - 0.5) *
                         std::pow(10.0, rng.UniformInt(-320, 300));
    std::snprintf(buffer, sizeof(buffer), i % 2 == 0 ? "%.9g" : "%.17g",
                  value);
    ExpectMatchesStrtod(buffer);
  }
}

}  // namespace
}  // namespace dmt
