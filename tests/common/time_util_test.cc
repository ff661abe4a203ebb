#include "common/time_util.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "common/random.h"

namespace sdps {
namespace {

TEST(TimeUtilTest, Conversions) {
  EXPECT_EQ(Seconds(1), 1000000);
  EXPECT_EQ(Seconds(8), 8000000);
  EXPECT_EQ(Seconds(0.5), 500000);
  EXPECT_EQ(Millis(250), 250000);
  EXPECT_EQ(Minutes(1), 60000000);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(4)), 4.0);
  EXPECT_DOUBLE_EQ(ToMillis(Millis(12)), 12.0);
}

TEST(TimeUtilTest, RoundTripFractional) {
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(2.25)), 2.25);
}

TEST(TimeUtilTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(500), "500us");
  EXPECT_EQ(FormatDuration(Millis(2.5)), "2.500ms");
  EXPECT_EQ(FormatDuration(Seconds(1.5)), "1.500s");
  EXPECT_EQ(FormatDuration(-Seconds(1.5)), "-1.500s");
}

SimTime LlroundReference(double x) {
  return std::max<SimTime>(0, static_cast<SimTime>(std::llround(x)));
}

TEST(TimeUtilTest, RoundUsMatchesLlroundOnEdgeCases) {
  const double edges[] = {0.0,
                          -0.0,
                          0.5,
                          1.5,
                          2.5,
                          1e6 + 0.5,
                          0.49999999999999994,  // largest double below 0.5
                          std::nextafter(0.5, 1.0),
                          std::nextafter(1.5, 1.0),
                          std::numeric_limits<double>::denorm_min(),
                          0x1.0p52 - 0.5,
                          0x1.0p52 - 1.5,
                          std::nextafter(0x1.0p52, 0.0),
                          0x1.0p52,
                          0x1.0p52 + 1.0,
                          0x1.0p53 + 2.0,
                          std::nextafter(0x1.0p62, 0.0),
                          0x1.0p62,
                          std::nextafter(0x1.0p62, 0x1.0p63),
                          std::nextafter(0x1.0p63, 0.0),
                          -0.5,
                          -0.49999999999999994,
                          -1.5,
                          -0x1.0p62};
  for (const double x : edges) {
    EXPECT_EQ(RoundUs(x), LlroundReference(x)) << x;
  }
  EXPECT_EQ(RoundUs(0.49999999999999994), 0);
  EXPECT_EQ(RoundUs(2.5), 3);
  // Outside llround's range the helper still clamps to 0.
  EXPECT_EQ(RoundUs(-1e300), 0);
  EXPECT_EQ(RoundUs(-std::numeric_limits<double>::infinity()), 0);
  EXPECT_EQ(RoundUs(std::numeric_limits<double>::quiet_NaN()), 0);
  EXPECT_EQ(RoundUs(-std::numeric_limits<double>::quiet_NaN()), 0);
}

TEST(TimeUtilTest, RoundUsMatchesLlroundOnRandomDoubles) {
  Rng rng(1234);
  for (int i = 0; i < 200000; ++i) {
    // Any bit pattern of magnitude below 2^63 (negatives included), then values
    // on the scale of the engines' costs, then exact ties at k + 0.5.
    const double bits = std::bit_cast<double>(rng.NextUint64());
    if (std::fabs(bits) < 0x1.0p63) {
      ASSERT_EQ(RoundUs(bits), LlroundReference(bits)) << bits;
    }
    const double cost = rng.Uniform(-10.0, 5000.0);
    ASSERT_EQ(RoundUs(cost), LlroundReference(cost)) << cost;
    const double tie = static_cast<double>(rng.NextBelow(1u << 20)) + 0.5;
    ASSERT_EQ(RoundUs(tie), LlroundReference(tie)) << tie;
  }
}

}  // namespace
}  // namespace sdps
