#include <cstddef>

#include <gtest/gtest.h>

#include "dmt/common/random.h"
#include "dmt/drift/adwin.h"
#include "dmt/drift/page_hinkley.h"

namespace dmt::drift {
namespace {

TEST(AdwinTest, TracksMeanOfStationaryStream) {
  Adwin adwin;
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) adwin.Update(rng.Bernoulli(0.3) ? 1.0 : 0.0);
  EXPECT_NEAR(adwin.mean(), 0.3, 0.05);
}

TEST(AdwinTest, NoFalseAlarmsOnConstantStream) {
  Adwin adwin;
  for (int i = 0; i < 5000; ++i) EXPECT_FALSE(adwin.Update(0.5));
  EXPECT_EQ(adwin.num_detections(), 0u);
}

TEST(AdwinTest, DetectsAbruptMeanShift) {
  Adwin adwin;
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) adwin.Update(rng.Gaussian(0.2, 0.05));
  const std::size_t before = adwin.width();
  bool detected = false;
  for (int i = 0; i < 1000; ++i) {
    detected |= adwin.Update(rng.Gaussian(0.8, 0.05));
  }
  EXPECT_TRUE(detected);
  // The window must have dropped the pre-change segment.
  EXPECT_LT(adwin.width(), before + 1000);
  EXPECT_NEAR(adwin.mean(), 0.8, 0.1);
}

// Detection should hold across a range of shift magnitudes.
class AdwinShiftTest : public ::testing::TestWithParam<double> {};

TEST_P(AdwinShiftTest, DetectsShiftOfGivenMagnitude) {
  const double magnitude = GetParam();
  Adwin adwin;
  Rng rng(3);
  for (int i = 0; i < 1500; ++i) adwin.Update(rng.Gaussian(0.2, 0.05));
  bool detected = false;
  for (int i = 0; i < 1500; ++i) {
    detected |= adwin.Update(rng.Gaussian(0.2 + magnitude, 0.05));
  }
  EXPECT_TRUE(detected) << "magnitude " << magnitude;
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, AdwinShiftTest,
                         ::testing::Values(0.2, 0.4, 0.6));

TEST(AdwinTest, LowFalseAlarmRateOnNoisyStationaryStream) {
  Adwin adwin;
  Rng rng(4);
  std::size_t alarms = 0;
  for (int i = 0; i < 20000; ++i) {
    alarms += adwin.Update(rng.Bernoulli(0.5) ? 1.0 : 0.0);
  }
  EXPECT_LE(alarms, 3u);
}

TEST(PageHinkleyTest, NoAlertOnStationaryStream) {
  PageHinkley ph;
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_FALSE(ph.Update(rng.Gaussian(0.3, 0.1)));
  }
}

TEST(PageHinkleyTest, AlertsOnMeanIncrease) {
  PageHinkley ph({.threshold = 20.0});
  Rng rng(6);
  for (int i = 0; i < 500; ++i) ph.Update(rng.Gaussian(0.1, 0.05));
  bool detected = false;
  for (int i = 0; i < 2000; ++i) {
    detected |= ph.Update(rng.Gaussian(0.7, 0.05));
  }
  EXPECT_TRUE(detected);
  EXPECT_GE(ph.num_detections(), 1u);
}

TEST(PageHinkleyTest, ResetsAfterAlert) {
  PageHinkley ph({.min_instances = 10, .threshold = 5.0});
  for (int i = 0; i < 100; ++i) ph.Update(0.0);
  bool detected = false;
  for (int i = 0; i < 100 && !detected; ++i) detected = ph.Update(1.0);
  ASSERT_TRUE(detected);
  EXPECT_DOUBLE_EQ(ph.cumulative_sum(), 0.0);
}

// ------------------------------------------------------- edge-case battery

TEST(AdwinTest, NoFalsePositivesOverHundredThousandConstantSamples) {
  Adwin adwin;
  for (int i = 0; i < 100'000; ++i) {
    ASSERT_FALSE(adwin.Update(0.7)) << "false positive at sample " << i;
  }
  EXPECT_EQ(adwin.num_detections(), 0u);
  // Bucket merging accumulates in floating point; exactness is not promised.
  EXPECT_NEAR(adwin.mean(), 0.7, 1e-9);
}

TEST(AdwinTest, DetectsAbruptShiftWithinBoundedDelay) {
  Adwin adwin;
  for (int i = 0; i < 2'000; ++i) adwin.Update(0.1);
  int delay = -1;
  for (int i = 0; i < 2'000; ++i) {
    if (adwin.Update(0.9)) {
      delay = i + 1;
      break;
    }
  }
  ASSERT_NE(delay, -1) << "no detection within 2000 post-shift samples";
  // A clean 0.1 -> 0.9 jump must be caught quickly (cut checks run every
  // 32 inserts; leave headroom so bucket-boundary effects don't flake).
  EXPECT_LE(delay, 512);
}

TEST(AdwinTest, WindowStateResetsAfterDetection) {
  Adwin adwin;
  for (int i = 0; i < 4'000; ++i) adwin.Update(0.2);
  const std::size_t width_before = adwin.width();
  bool detected = false;
  std::size_t width_at_detection = 0;
  for (int i = 0; i < 2'000 && !detected; ++i) {
    detected = adwin.Update(0.8);
    if (detected) width_at_detection = adwin.width();
  }
  ASSERT_TRUE(detected);
  // The shrink must have dropped (most of) the pre-change window...
  EXPECT_LT(width_at_detection, width_before);
  EXPECT_GE(adwin.num_detections(), 1u);
  // ...and after settling on the new concept the mean tracks it.
  for (int i = 0; i < 2'000; ++i) adwin.Update(0.8);
  EXPECT_NEAR(adwin.mean(), 0.8, 0.05);
}

TEST(PageHinkleyTest, DetectsAbruptShiftWithinBoundedDelay) {
  PageHinkley ph;  // defaults: threshold 50, delta 0.005, min_instances 30
  for (int i = 0; i < 1'000; ++i) ph.Update(0.1);
  int delay = -1;
  for (int i = 0; i < 2'000; ++i) {
    if (ph.Update(1.0)) {
      delay = i + 1;
      break;
    }
  }
  ASSERT_NE(delay, -1) << "no detection within 2000 post-shift samples";
  // The cumulative statistic gains roughly (1.0 - mean - delta) per
  // sample, so threshold 50 must be crossed in well under 300 samples.
  EXPECT_LE(delay, 300);
}

TEST(PageHinkleyTest, RearmsAfterReset) {
  // After an alert the statistic resets and the running mean re-adapts, so
  // a second mean increase must raise a second, independent alert.
  PageHinkley ph({.min_instances = 10, .threshold = 5.0});
  for (int i = 0; i < 200; ++i) ph.Update(0.0);
  std::size_t first = 0;
  for (int i = 0; i < 500; ++i) first += ph.Update(1.0);
  EXPECT_EQ(first, 1u);  // one alert, then the mean absorbs the new level
  for (int i = 0; i < 500; ++i) ph.Update(0.0);
  std::size_t second = 0;
  for (int i = 0; i < 500; ++i) second += ph.Update(1.0);
  EXPECT_GE(second, 1u);
  EXPECT_EQ(ph.num_detections(), first + second);
}

TEST(PageHinkleyTest, ManualResetClearsState) {
  PageHinkley ph({.min_instances = 10, .threshold = 5.0});
  for (int i = 0; i < 50; ++i) ph.Update(1.0);
  ph.Reset();
  EXPECT_DOUBLE_EQ(ph.cumulative_sum(), 0.0);
  // min_instances applies afresh after the reset: no instant re-alert.
  EXPECT_FALSE(ph.Update(1.0));
}

}  // namespace
}  // namespace dmt::drift
