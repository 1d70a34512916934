// kAdaptive resolves at parameter-build time to whichever of FutureRand
// and Independent has the larger exact c_gap for (k, eps).

#include <algorithm>

#include <gtest/gtest.h>

#include "futurerand/randomizer/randomizer.h"

namespace futurerand::rand {
namespace {

SequenceRandomizer Make(int64_t length, int64_t k, double eps,
                        uint64_t seed) {
  return MakeSequenceRandomizer(RandomizerKind::kAdaptive, length, k, eps,
                                seed)
      .ValueOrDie();
}

TEST(AdaptiveRandomizerTest, PicksIndependentForSmallK) {
  // At k=1 the independent construction spends the whole budget on one
  // coordinate (gap ~ eps/2) while FutureRand burns a constant factor 5.
  auto randomizer = Make(8, 1, 1.0, 1);
  EXPECT_STREQ(RandomizerKindToString(randomizer.params().kind), "independent");
}

TEST(AdaptiveRandomizerTest, PicksFutureRandForLargeK) {
  auto randomizer = Make(2048, 1024, 1.0, 1);
  EXPECT_STREQ(RandomizerKindToString(randomizer.params().kind), "future_rand");
}

TEST(AdaptiveRandomizerTest, CGapIsMaxOfBoth) {
  for (int64_t k : {1, 8, 64, 512}) {
    auto randomizer = Make(1024, k, 1.0, 2);
    const double future =
        ExactCGap(RandomizerKind::kFutureRand, k, 1.0).ValueOrDie();
    const double independent =
        ExactCGap(RandomizerKind::kIndependent, k, 1.0).ValueOrDie();
    EXPECT_DOUBLE_EQ(randomizer.params().c_gap, std::max(future, independent));
  }
}

TEST(AdaptiveRandomizerTest, DelegatesRandomization) {
  auto randomizer = Make(4, 2, 1.0, 3);
  const int8_t out = randomizer.Randomize(1);
  EXPECT_TRUE(out == 1 || out == -1);
  EXPECT_EQ(randomizer.position(), 1);
  EXPECT_EQ(randomizer.support_used(), 1);
}

TEST(AdaptiveRandomizerTest, PropagatesCreationErrors) {
  EXPECT_FALSE(
      MakeSequenceRandomizer(RandomizerKind::kAdaptive, 4, 2, 0.0, 1).ok());
}

}  // namespace
}  // namespace futurerand::rand
