#include <cmath>

#include <gtest/gtest.h>

#include "futurerand/randomizer/randomizer.h"

namespace futurerand::rand {
namespace {

Result<SequenceRandomizer> Create(int64_t length, int64_t k, double eps,
                                  uint64_t seed) {
  return MakeSequenceRandomizer(RandomizerKind::kIndependent, length, k, eps,
                                seed);
}

SequenceRandomizer Make(int64_t length, int64_t k, double eps,
                        uint64_t seed) {
  return Create(length, k, eps, seed).ValueOrDie();
}

TEST(IndependentRandomizerTest, RejectsInvalidParameters) {
  EXPECT_FALSE(Create(0, 1, 1.0, 1).ok());
  EXPECT_FALSE(Create(8, 0, 1.0, 1).ok());
  EXPECT_FALSE(Create(8, 2, 0.0, 1).ok());
  EXPECT_FALSE(Create(8, 2, 1.01, 1).ok());
}

TEST(IndependentRandomizerTest, CGapMatchesExample42) {
  // Example 4.2: c_gap = (e^{eps/k}-1)/(e^{eps/k}+1).
  const auto randomizer = Make(16, 4, 1.0, 1);
  const double x = std::exp(0.25);
  EXPECT_NEAR(randomizer.params().c_gap, (x - 1.0) / (x + 1.0), 1e-12);
}

TEST(IndependentRandomizerTest, NameAndAccessors) {
  const auto randomizer = Make(16, 4, 0.75, 1);
  EXPECT_STREQ(RandomizerKindToString(randomizer.params().kind), "independent");
  EXPECT_EQ(randomizer.params().length, 16);
  EXPECT_EQ(randomizer.params().max_support, 4);
  EXPECT_DOUBLE_EQ(randomizer.params().epsilon, 0.75);
}

TEST(IndependentRandomizerTest, KeepRateMatchesTheoryOnNonZeros) {
  const double eps = 1.0;
  const int64_t k = 2;
  int kept = 0;
  for (int t = 0; t < 1000; ++t) {
    auto fresh = Make(4, k, eps, 100 + static_cast<uint64_t>(t));
    kept += fresh.Randomize(1) == 1 ? 1 : 0;
  }
  const double expected = std::exp(eps / 2.0) / (std::exp(eps / 2.0) + 1.0);
  EXPECT_NEAR(static_cast<double>(kept) / 1000.0, expected, 0.05);
}

TEST(IndependentRandomizerTest, ZeroInputsAreUniform) {
  auto randomizer = Make(100000, 4, 1.0, 6);
  int64_t sum = 0;
  for (int i = 0; i < 100000; ++i) {
    sum += randomizer.Randomize(0);
  }
  EXPECT_LT(std::abs(sum), 1800);
}

TEST(IndependentRandomizerTest, OverBudgetClampsToUniform) {
  auto randomizer = Make(8, 2, 1.0, 7);
  (void)randomizer.Randomize(1);
  (void)randomizer.Randomize(1);
  (void)randomizer.Randomize(1);
  EXPECT_EQ(randomizer.support_used(), 2);
  EXPECT_EQ(randomizer.support_overflow_count(), 1);
}

TEST(IndependentRandomizerTest, PositionAdvancesPerCall) {
  auto randomizer = Make(4, 2, 1.0, 8);
  EXPECT_EQ(randomizer.position(), 0);
  (void)randomizer.Randomize(0);
  (void)randomizer.Randomize(1);
  EXPECT_EQ(randomizer.position(), 2);
}

TEST(IndependentRandomizerTest, RejectsExcessInputs) {
  auto randomizer = Make(1, 1, 1.0, 9);
  (void)randomizer.Randomize(0);
  EXPECT_DEATH({ (void)randomizer.Randomize(0); }, "more inputs");
}

}  // namespace
}  // namespace futurerand::rand
