#include <gtest/gtest.h>

#include "futurerand/randomizer/annulus.h"
#include "futurerand/randomizer/randomizer.h"

namespace futurerand::rand {
namespace {

// kBun runs the FutureRand pre-computation shell over Bun et al.'s annulus.
Result<SequenceRandomizer> Create(int64_t length, int64_t k, double eps,
                                  uint64_t seed) {
  return MakeSequenceRandomizer(RandomizerKind::kBun, length, k, eps, seed);
}

SequenceRandomizer Make(int64_t length, int64_t k, double eps,
                        uint64_t seed) {
  return Create(length, k, eps, seed).ValueOrDie();
}

TEST(BunRandomizerTest, RejectsInvalidParameters) {
  EXPECT_FALSE(Create(0, 1, 1.0, 1).ok());
  EXPECT_FALSE(Create(8, 0, 1.0, 1).ok());
  EXPECT_FALSE(Create(8, 2, 0.0, 1).ok());
}

TEST(BunRandomizerTest, UsesBunSpecParameters) {
  const auto randomizer = Make(32, 64, 1.0, 1);
  const AnnulusSpec expected = MakeBunSpec(64, 1.0).ValueOrDie();
  const AnnulusSpec& spec = randomizer.params().composed->spec();
  EXPECT_DOUBLE_EQ(spec.lambda, expected.lambda);
  EXPECT_DOUBLE_EQ(spec.eps_tilde, expected.eps_tilde);
  EXPECT_DOUBLE_EQ(randomizer.params().c_gap, expected.c_gap);
}

TEST(BunRandomizerTest, OnlineShellBehavesLikeFutureRand) {
  auto randomizer = Make(8, 3, 1.0, 2);
  int64_t nnz = 0;
  for (int8_t v : {1, 0, -1, 0, 1}) {
    const int8_t out = randomizer.Randomize(v);
    EXPECT_TRUE(out == 1 || out == -1);
    nnz += (v != 0) ? 1 : 0;
  }
  EXPECT_EQ(randomizer.support_used(), nnz);
  EXPECT_EQ(randomizer.position(), 5);
  EXPECT_STREQ(RandomizerKindToString(randomizer.params().kind), "bun");
}

TEST(BunRandomizerTest, DeterministicForSameSeed) {
  auto a = Make(16, 4, 0.5, 77);
  auto b = Make(16, 4, 0.5, 77);
  for (int j = 0; j < 16; ++j) {
    const int8_t v = (j % 3 == 0) ? int8_t{-1} : int8_t{0};
    EXPECT_EQ(a.Randomize(v), b.Randomize(v));
  }
}

TEST(BunRandomizerTest, OverBudgetClamps) {
  auto randomizer = Make(8, 1, 1.0, 3);
  (void)randomizer.Randomize(1);
  (void)randomizer.Randomize(-1);
  EXPECT_EQ(randomizer.support_overflow_count(), 1);
}

TEST(BunRandomizerTest, GapWeakerThanFutureRandAtLargeK) {
  // Theorem A.8 vs Theorem 4.4.
  const auto bun = Make(4, 2048, 1.0, 4);
  const AnnulusSpec ours = MakeFutureRandSpec(2048, 1.0).ValueOrDie();
  EXPECT_LT(bun.params().c_gap, ours.c_gap);
}

}  // namespace
}  // namespace futurerand::rand
