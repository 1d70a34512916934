#include "futurerand/randomizer/randomizer.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>

#include <gtest/gtest.h>

#include "futurerand/randomizer/annulus.h"

namespace futurerand::rand {
namespace {

TEST(FactoryTest, KindNamesAreStable) {
  EXPECT_STREQ(RandomizerKindToString(RandomizerKind::kFutureRand),
               "future_rand");
  EXPECT_STREQ(RandomizerKindToString(RandomizerKind::kIndependent),
               "independent");
  EXPECT_STREQ(RandomizerKindToString(RandomizerKind::kBun), "bun");
  EXPECT_STREQ(RandomizerKindToString(RandomizerKind::kAdaptive), "adaptive");
}

TEST(FactoryTest, AllRandomizerKindsCoversTheEnum) {
  // kLoloha is the last enumerator; appending a kind forces the shared
  // kAllRandomizerKinds array (randomizer.h) to be extended.
  EXPECT_EQ(static_cast<size_t>(RandomizerKind::kLoloha) + 1,
            AllRandomizerKinds().size());
}

TEST(FactoryTest, CreatesEveryKind) {
  for (RandomizerKind kind : AllRandomizerKinds()) {
    auto randomizer = MakeSequenceRandomizer(kind, 16, 4, 1.0, 123);
    ASSERT_TRUE(randomizer.ok()) << RandomizerKindToString(kind);
    EXPECT_EQ(randomizer->params().length, 16);
    const int8_t out = randomizer->Randomize(1);
    EXPECT_TRUE(out == 1 || out == -1);
  }
}

TEST(FactoryTest, PropagatesInvalidParameters) {
  EXPECT_FALSE(
      MakeSequenceRandomizer(RandomizerKind::kFutureRand, 0, 1, 1.0, 1).ok());
  EXPECT_FALSE(
      MakeSequenceRandomizer(RandomizerKind::kBun, 4, 1, 0.0, 1).ok());
}

TEST(FactoryTest, ExactCGapMatchesInstances) {
  for (RandomizerKind kind : AllRandomizerKinds()) {
    const double exact = ExactCGap(kind, 32, 1.0).ValueOrDie();
    auto randomizer =
        MakeSequenceRandomizer(kind, 64, 32, 1.0, 9).ValueOrDie();
    EXPECT_DOUBLE_EQ(randomizer.params().c_gap, exact)
        << RandomizerKindToString(kind);
  }
}

TEST(FactoryTest, SharedParamsStampOutIndependentInstances) {
  // Two instances of one block share nothing mutable: with their calls
  // interleaved, each still matches a MakeSequenceRandomizer instance of
  // the same seed output for output. Inputs alternate sign so the
  // longitudinal kinds' integrated state stays in {0,1}.
  for (RandomizerKind kind : AllRandomizerKinds()) {
    const std::shared_ptr<const RandomizerParams> params =
        MakeRandomizerParams(kind, 16, 4, 1.0).ValueOrDie();
    EXPECT_NE(params->kind, RandomizerKind::kAdaptive);
    EXPECT_EQ(std::bit_cast<uint64_t>(params->c_gap),
              std::bit_cast<uint64_t>(ExactCGap(kind, 4, 1.0).ValueOrDie()))
        << RandomizerKindToString(kind);
    SequenceRandomizer a(params, 5);
    SequenceRandomizer b(params, 6);
    auto twin_a = MakeSequenceRandomizer(kind, 16, 4, 1.0, 5).ValueOrDie();
    auto twin_b = MakeSequenceRandomizer(kind, 16, 4, 1.0, 6).ValueOrDie();
    for (int j = 0; j < 16; ++j) {
      const int8_t v =
          j % 4 != 0 ? int8_t{0} : (j % 8 == 0 ? int8_t{1} : int8_t{-1});
      EXPECT_EQ(a.Randomize(v), twin_a.Randomize(v))
          << RandomizerKindToString(kind) << " j=" << j;
      EXPECT_EQ(b.Randomize(v), twin_b.Randomize(v))
          << RandomizerKindToString(kind) << " j=" << j;
    }
    EXPECT_EQ(a.params().kind, twin_a.params().kind);
  }
}

TEST(FactoryTest, ExactCGapIndependentFormula) {
  const double gap = ExactCGap(RandomizerKind::kIndependent, 10, 1.0)
                         .ValueOrDie();
  EXPECT_NEAR(gap, (std::exp(0.1) - 1.0) / (std::exp(0.1) + 1.0), 1e-12);
}

TEST(FactoryTest, ExactCGapAdaptiveIsMax) {
  for (int64_t k : {1, 4, 64, 1024}) {
    const double adaptive =
        ExactCGap(RandomizerKind::kAdaptive, k, 1.0).ValueOrDie();
    const double future =
        ExactCGap(RandomizerKind::kFutureRand, k, 1.0).ValueOrDie();
    const double independent =
        ExactCGap(RandomizerKind::kIndependent, k, 1.0).ValueOrDie();
    EXPECT_DOUBLE_EQ(adaptive, std::max(future, independent));
  }
}

TEST(FactoryTest, SqrtKAdvantageMaterializesAtLargeK) {
  // The paper's central quantitative claim at the randomizer level: the
  // FutureRand gap beats the naive eps/k composition by a growing factor.
  const double future =
      ExactCGap(RandomizerKind::kFutureRand, 1024, 1.0).ValueOrDie();
  const double independent =
      ExactCGap(RandomizerKind::kIndependent, 1024, 1.0).ValueOrDie();
  EXPECT_GT(future / independent, 2.0);
}

TEST(FactoryTest, CGapScalesLikeOneOverSqrtK) {
  // Quadrupling k should roughly halve the FutureRand gap (up to the
  // annulus correction), not quarter it.
  const double at_256 =
      ExactCGap(RandomizerKind::kFutureRand, 256, 1.0).ValueOrDie();
  const double at_1024 =
      ExactCGap(RandomizerKind::kFutureRand, 1024, 1.0).ValueOrDie();
  const double ratio = at_256 / at_1024;
  EXPECT_GT(ratio, 1.6);
  EXPECT_LT(ratio, 2.5);
}

}  // namespace
}  // namespace futurerand::rand
