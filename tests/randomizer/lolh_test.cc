// L-OLH memoization-correctness suite. On top of the shared longitudinal
// contract (memo sampled once, fresh second round, bit-identical state
// round-trips) this kind draws a PERMANENT PER-VALUE hash seed lazily, in
// the same step that samples the value's memo — the pair is what the
// reference implementation memoizes — so the suite pins the lazy-draw
// coupling and the optimal-g parameterization.

#include "futurerand/randomizer/longitudinal.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "futurerand/randomizer/randomizer.h"

namespace futurerand::rand {
namespace {

constexpr RandomizerKind kKind = RandomizerKind::kLOlh;

Result<SequenceRandomizer> Create(int64_t length, double eps, double alpha,
                                  uint64_t seed) {
  // Longitudinal kinds ignore max_support; 1 is a placeholder.
  return MakeSequenceRandomizer(kKind, length, 1, eps, seed, alpha);
}

SequenceRandomizer Make(int64_t length, double eps, double alpha,
                        uint64_t seed) {
  return Create(length, eps, alpha, seed).ValueOrDie();
}

TEST(LOlhTest, UsesTheOptimalGParameterization) {
  const LongitudinalSpec spec =
      MakeLongitudinalSpec(kKind, 1.0, 0.5).ValueOrDie();
  EXPECT_EQ(spec.g, OptimalLongitudinalG(1.0, 0.5));
  EXPECT_GE(spec.g, 2);
  // Hashing-kind support bit: a value-0 client matches the candidate hash
  // with marginal probability 1/g, so u0 = 2/g - 1 (independent of alpha's
  // effect on the rounds).
  EXPECT_DOUBLE_EQ(spec.u0, 2.0 / static_cast<double>(spec.g) - 1.0);
  EXPECT_GT(spec.gap(), 0.0);
}

TEST(LOlhTest, SpecSpendsExactlyTheTwoBudgets) {
  const LongitudinalSpec spec =
      MakeLongitudinalSpec(kKind, 1.0, 0.4).ValueOrDie();
  const auto g = static_cast<double>(spec.g);
  EXPECT_NEAR(std::log(spec.p1 / spec.q1), spec.eps_perm, 1e-12);
  // Per-report channel Pr[y | v]: y == memoized input with probability
  // p1*p2 + (g-1)*q1*q2, any fixed other value with p1*q2 + q1*p2 +
  // (g-2)*q1*q2; their ratio is the single-report budget e^{eps_1}.
  const double stay = spec.p1 * spec.p2 + (g - 1.0) * spec.q1 * spec.q2;
  const double move = spec.p1 * spec.q2 + spec.q1 * spec.p2 +
                      (g - 2.0) * spec.q1 * spec.q2;
  EXPECT_NEAR(std::log(stay / move), spec.eps_1, 1e-9);
  EXPECT_DOUBLE_EQ(spec.p_stay, stay);
}

TEST(LOlhTest, HashSeedDrawnLazilyAlongsideTheMemo) {
  auto randomizer = Make(32, 1.0, 0.5, 7);
  const auto fresh = randomizer.longitudinal_state();
  EXPECT_EQ(fresh.hash_seed[0], 0u);
  EXPECT_EQ(fresh.hash_seed[1], 0u);
  EXPECT_EQ(fresh.memo[0], -1);
  EXPECT_EQ(fresh.memo[1], -1);

  // First report is of state 1: seed+memo for value 1 appear together,
  // value 0 stays unset.
  (void)randomizer.Randomize(int8_t{1});
  const auto after_one = randomizer.longitudinal_state();
  EXPECT_NE(after_one.hash_seed[1], 0u);
  EXPECT_GE(after_one.memo[1], 0);
  EXPECT_EQ(after_one.hash_seed[0], 0u);
  EXPECT_EQ(after_one.memo[0], -1);

  // Back to state 0: now the other pair is drawn; both pairs then freeze.
  (void)randomizer.Randomize(int8_t{-1});
  const auto after_zero = randomizer.longitudinal_state();
  EXPECT_NE(after_zero.hash_seed[0], 0u);
  EXPECT_GE(after_zero.memo[0], 0);
  EXPECT_EQ(after_zero.hash_seed[1], after_one.hash_seed[1]);
  EXPECT_EQ(after_zero.memo[1], after_one.memo[1]);
  for (int64_t t = 0; t < 30; ++t) {
    (void)randomizer.Randomize(t % 2 == 0 ? int8_t{1} : int8_t{-1});
    const auto current = randomizer.longitudinal_state();
    EXPECT_EQ(current.hash_seed[0], after_zero.hash_seed[0]);
    EXPECT_EQ(current.hash_seed[1], after_zero.hash_seed[1]);
    EXPECT_EQ(current.memo[0], after_zero.memo[0]);
    EXPECT_EQ(current.memo[1], after_zero.memo[1]);
  }
}

TEST(LOlhTest, MemoValueStaysInsideTheHashDomain) {
  const LongitudinalSpec spec =
      MakeLongitudinalSpec(kKind, 1.0, 0.5).ValueOrDie();
  for (uint64_t seed = 0; seed < 50; ++seed) {
    auto randomizer = Make(4, 1.0, 0.5, seed);
    (void)randomizer.Randomize(int8_t{1});
    (void)randomizer.Randomize(int8_t{-1});
    const auto state = randomizer.longitudinal_state();
    for (int v = 0; v < 2; ++v) {
      EXPECT_GE(state.memo[v], 0);
      EXPECT_LT(state.memo[v], static_cast<int32_t>(spec.g));
    }
  }
}

TEST(LOlhTest, SecondRoundDrawsFreshNoiseOverTheFrozenMemo) {
  auto randomizer = Make(400, 1.0, 0.5, 13);
  (void)randomizer.Randomize(int8_t{1});
  bool seen_plus = false;
  bool seen_minus = false;
  for (int64_t t = 1; t < 400; ++t) {
    const int8_t report = randomizer.Randomize(int8_t{0});
    seen_plus = seen_plus || report == 1;
    seen_minus = seen_minus || report == -1;
  }
  EXPECT_TRUE(seen_plus && seen_minus);
}

TEST(LOlhTest, EmpiricalReportMeansMatchU1AndU0) {
  const LongitudinalSpec spec =
      MakeLongitudinalSpec(kKind, 1.0, 0.5).ValueOrDie();
  const int64_t kClients = 20000;
  double sum1 = 0.0;
  double sum0 = 0.0;
  for (int64_t c = 0; c < kClients; ++c) {
    sum1 += Make(1, 1.0, 0.5, 1000 + static_cast<uint64_t>(c))
                .Randomize(int8_t{1});
    sum0 += Make(1, 1.0, 0.5, 900000 + static_cast<uint64_t>(c))
                .Randomize(int8_t{0});
  }
  EXPECT_NEAR(sum1 / kClients, spec.u1, 0.05);
  EXPECT_NEAR(sum0 / kClients, spec.u0, 0.05);
}

TEST(LOlhTest, ImportStateRoundTripsBitIdentically) {
  auto original = Make(64, 1.0, 0.5, 21);
  for (const int8_t derivative : {1, 0, -1, 0, 1, 0, 0, 0, -1, 1}) {
    (void)original.Randomize(derivative);
  }
  auto restored = Make(64, 1.0, 0.5, 55555);
  ASSERT_TRUE(restored
                  .RestoreLongitudinalState(original.longitudinal_state(),
                                            original.position(),
                                            original.support_used())
                  .ok());
  for (int64_t t = 0; t < 40; ++t) {
    // The warm-up left both twins at state 1, so dip to 0 first.
    const auto derivative = static_cast<int8_t>(t % 10 == 3   ? -1
                                                : t % 10 == 7 ? 1
                                                              : 0);
    EXPECT_EQ(restored.Randomize(derivative),
              original.Randomize(derivative))
        << "divergence at tick " << t;
  }
}

TEST(LOlhTest, ImportRejectsSeedWithoutMemo) {
  // The seed and the memo are drawn in one step; a blob with a seed for an
  // unset memo cannot have come from this implementation.
  auto randomizer = Make(16, 1.0, 0.5, 31);
  auto state = randomizer.longitudinal_state();
  state.hash_seed[1] = 12345;  // memo[1] is still -1
  EXPECT_FALSE(randomizer.RestoreLongitudinalState(state, 0, 0).ok());
}

TEST(LOlhTest, FactoryAndCGapAgreeWithTheSpec) {
  auto randomizer =
      MakeSequenceRandomizer(kKind, 16, 4, 1.0, 3, 0.5).ValueOrDie();
  const LongitudinalSpec spec =
      MakeLongitudinalSpec(kKind, 1.0, 0.5).ValueOrDie();
  EXPECT_DOUBLE_EQ(randomizer.params().c_gap, spec.gap());
  EXPECT_DOUBLE_EQ(ExactCGap(kKind, 4, 1.0, 0.5).ValueOrDie(), spec.gap());
  EXPECT_STREQ(RandomizerKindToString(randomizer.params().kind), "lolh");
  // A longitudinal client reports every tick: max_support == length.
  EXPECT_EQ(randomizer.params().max_support, 16);
}

}  // namespace
}  // namespace futurerand::rand
