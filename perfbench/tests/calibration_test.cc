#include "driver/calibration.h"

#include <gtest/gtest.h>

#include "driver/spans.h"

namespace perfbench {
namespace {

void SpinFor(double seconds) {
  const int64_t end = NowNanos() + static_cast<int64_t>(seconds * 1e9);
  volatile uint64_t x = 0;
  while (NowNanos() < end) x = x + 1;
}

TEST(ReferenceLoopTest, DoesTheSameWorkEveryPass) {
  const ReferenceLoop a;
  const ReferenceLoop b;
  EXPECT_NE(a.Pass(), 0u);
  EXPECT_EQ(a.Pass(), b.Pass());
  ReferenceLoop c;
  EXPECT_GT(c.Seconds(1), 0.0);
  EXPECT_GT(c.Seconds(3), 0.0);
}

TEST(SpeedSamplerTest, SamplesOnlyWhileStarted) {
  SpeedSampler sampler;
  sampler.Start();
  SpinFor(0.2);
  sampler.Stop();
  const size_t samples = sampler.samples();
  EXPECT_GE(samples, 10u);  // every 5 ms
  EXPECT_LE(samples, 41u);
  EXPECT_GT(sampler.PassSeconds(), 0.0);
  EXPECT_GT(sampler.HandlerSeconds(), 0.0);
  EXPECT_LT(sampler.HandlerSeconds(), 0.2);
  SpinFor(0.1);
  EXPECT_EQ(sampler.samples(), samples);

  sampler.Start();
  EXPECT_EQ(sampler.samples(), 0u);
  EXPECT_EQ(sampler.PassSeconds(), 0.0);
  EXPECT_EQ(sampler.HandlerSeconds(), 0.0);
  sampler.Stop();
}

}  // namespace
}  // namespace perfbench
