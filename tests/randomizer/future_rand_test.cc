#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/randomizer/randomizer.h"

namespace futurerand::rand {
namespace {

Result<SequenceRandomizer> Create(int64_t length, int64_t k, double eps,
                                  uint64_t seed) {
  return MakeSequenceRandomizer(RandomizerKind::kFutureRand, length, k, eps,
                                seed);
}

SequenceRandomizer Make(int64_t length, int64_t k, double eps,
                        uint64_t seed) {
  return Create(length, k, eps, seed).ValueOrDie();
}

// Lemma 5.2's exact privacy ratio ln(p'_max/p'_min) the instance certifies.
double CertifiedEpsilon(const SequenceRandomizer& randomizer) {
  return randomizer.params().composed->spec().certified_epsilon;
}

TEST(FutureRandTest, RejectsInvalidParameters) {
  EXPECT_FALSE(Create(0, 1, 1.0, 1).ok());
  EXPECT_FALSE(Create(8, 0, 1.0, 1).ok());
  EXPECT_FALSE(Create(8, 2, 0.0, 1).ok());
  EXPECT_FALSE(Create(8, 2, 1.2, 1).ok());
}

TEST(FutureRandTest, AllowsSupportLargerThanLength) {
  // A client at a high level has L < k; Section 5.4 covers this.
  auto randomizer = Create(2, 16, 1.0, 1);
  ASSERT_TRUE(randomizer.ok());
  EXPECT_EQ(randomizer->params().length, 2);
  EXPECT_EQ(randomizer->params().max_support, 16);
}

TEST(FutureRandTest, AccessorsReflectParameters) {
  auto randomizer = Make(32, 4, 0.5, 7);
  EXPECT_EQ(randomizer.params().length, 32);
  EXPECT_EQ(randomizer.params().max_support, 4);
  EXPECT_DOUBLE_EQ(randomizer.params().epsilon, 0.5);
  EXPECT_STREQ(RandomizerKindToString(randomizer.params().kind), "future_rand");
  EXPECT_EQ(randomizer.position(), 0);
  EXPECT_EQ(randomizer.support_used(), 0);
  EXPECT_GT(randomizer.params().c_gap, 0.0);
  EXPECT_LE(CertifiedEpsilon(randomizer), 0.5 + 1e-9);
}

TEST(FutureRandTest, OutputsMatchPrecomputedNoiseExactly) {
  // Algorithm 3 lines 13-15: the j-th non-zero input v must map to
  // v * b~_nnz deterministically.
  auto randomizer = Make(16, 5, 1.0, 42);
  const SignVector& noise = randomizer.precomputed_noise();
  const std::vector<int8_t> inputs = {1, 0, -1, 0, 1, -1, 0, 1};
  int64_t nnz = 0;
  for (int8_t v : inputs) {
    const int8_t out = randomizer.Randomize(v);
    if (v != 0) {
      EXPECT_EQ(out, static_cast<int8_t>(v * noise.Get(nnz)));
      ++nnz;
    } else {
      EXPECT_TRUE(out == 1 || out == -1);
    }
  }
  EXPECT_EQ(randomizer.support_used(), 5);
  EXPECT_EQ(randomizer.position(), 8);
}

TEST(FutureRandTest, DeterministicForSameSeed) {
  auto a = Make(16, 4, 1.0, 99);
  auto b = Make(16, 4, 1.0, 99);
  for (int j = 0; j < 16; ++j) {
    const int8_t v = (j % 5 == 0) ? int8_t{1} : int8_t{0};
    EXPECT_EQ(a.Randomize(v), b.Randomize(v));
  }
}

TEST(FutureRandTest, ZeroInputsAreUniform) {
  // Property III: zeros map to fair coins.
  constexpr int kTrials = 20000;
  int64_t sum = 0;
  for (int t = 0; t < kTrials; ++t) {
    auto randomizer = Make(1, 1, 1.0, 1000 + static_cast<uint64_t>(t));
    sum += randomizer.Randomize(0);
  }
  EXPECT_LT(std::abs(sum), 800);  // ~4.3 sigma for fair +/-1 coins
}

TEST(FutureRandTest, PropertyTwoGapMatchesExactCGap) {
  // Property II: Pr[out = v] - Pr[out = -v] == c_gap, empirically, for a
  // non-zero input in any position.
  const int64_t k = 8;
  const double eps = 1.0;
  constexpr int kTrials = 60000;
  int64_t agree = 0;
  for (int t = 0; t < kTrials; ++t) {
    auto randomizer = Make(4, k, eps, 5000 + static_cast<uint64_t>(t));
    randomizer.Randomize(0);
    randomizer.Randomize(0);
    agree += randomizer.Randomize(-1) == -1 ? 1 : -1;
  }
  const double gap = static_cast<double>(agree) / kTrials;
  const double exact = Make(4, k, eps, 0).params().c_gap;
  // Hoeffding: 4-sigma half-width for 60k +/-1 samples is ~0.016.
  EXPECT_NEAR(gap, exact, 0.02);
}

TEST(FutureRandTest, OverBudgetInputsAreClampedToUniform) {
  auto randomizer = Make(8, 2, 1.0, 3);
  (void)randomizer.Randomize(1);
  (void)randomizer.Randomize(-1);
  EXPECT_EQ(randomizer.support_used(), 2);
  EXPECT_EQ(randomizer.support_overflow_count(), 0);
  (void)randomizer.Randomize(1);  // third non-zero: over budget
  (void)randomizer.Randomize(-1);
  EXPECT_EQ(randomizer.support_used(), 2);
  EXPECT_EQ(randomizer.support_overflow_count(), 2);
}

TEST(FutureRandTest, OverBudgetOutputsAreUniform) {
  constexpr int kTrials = 20000;
  int64_t sum = 0;
  for (int t = 0; t < kTrials; ++t) {
    auto randomizer = Make(4, 1, 1.0, 7000 + static_cast<uint64_t>(t));
    (void)randomizer.Randomize(1);
    sum += randomizer.Randomize(1);  // clamped
  }
  EXPECT_LT(std::abs(sum), 800);
}

TEST(FutureRandTest, RejectsInvalidInputValue) {
  auto randomizer = Make(4, 2, 1.0, 1);
  EXPECT_DEATH({ (void)randomizer.Randomize(2); }, "inputs must be");
}

TEST(FutureRandTest, RejectsTooManyInputs) {
  auto randomizer = Make(2, 1, 1.0, 1);
  (void)randomizer.Randomize(0);
  (void)randomizer.Randomize(0);
  EXPECT_DEATH({ (void)randomizer.Randomize(0); }, "more inputs");
}

TEST(FutureRandTest, PrecomputedNoiseHasSupportSize) {
  auto randomizer = Make(64, 16, 0.5, 11);
  EXPECT_EQ(randomizer.precomputed_noise().size(), 16);
}

// The (L, k, eps) grid the sweeps below walk, including the edge cases k=1
// and k=L at every length.
struct SweepPoint {
  int64_t length;
  int64_t k;
  double eps;
};

std::vector<SweepPoint> SweepGrid() {
  std::vector<SweepPoint> points;
  for (int64_t length : {int64_t{1}, int64_t{2}, int64_t{8}, int64_t{33},
                         int64_t{128}}) {
    std::vector<int64_t> supports = {1};  // k=1 edge case
    if (length > 1) supports.push_back(length);  // k=L edge case
    if (length > 2) supports.push_back(length / 2);
    for (int64_t k : supports) {
      for (double eps : {0.05, 0.3, 1.0}) {
        points.push_back({length, k, eps});
      }
    }
  }
  return points;
}

TEST(FutureRandTest, OnlineMatchesOfflineNoiseAcrossSweep) {
  // Algorithm 3's online phase only *reads* b~: across the whole parameter
  // grid, the j-th non-zero input v must map to v * b~_j exactly, with no
  // drift from interleaved zeros consuming noise positions.
  for (const SweepPoint& point : SweepGrid()) {
    SCOPED_TRACE(::testing::Message() << "L=" << point.length
                                      << " k=" << point.k
                                      << " eps=" << point.eps);
    auto randomizer =
        Make(point.length, point.k, point.eps,
             0xF00D + static_cast<uint64_t>(point.length * 131 + point.k));
    const SignVector& noise = randomizer.precomputed_noise();
    ASSERT_EQ(noise.size(), point.k);
    int64_t nnz = 0;
    for (int64_t t = 0; t < point.length; ++t) {
      // Non-zero every other step with alternating sign, until the support
      // budget is spent; zeros interleave to exercise position tracking.
      int8_t v = 0;
      if (t % 2 == 0 && nnz < point.k) {
        v = (t % 4 == 0) ? int8_t{1} : int8_t{-1};
      }
      const int8_t out = randomizer.Randomize(v);
      if (v != 0) {
        EXPECT_EQ(out, static_cast<int8_t>(v * noise.Get(nnz)));
        ++nnz;
      } else {
        EXPECT_TRUE(out == 1 || out == -1);
      }
    }
    EXPECT_EQ(randomizer.support_used(), nnz);
    EXPECT_EQ(randomizer.support_overflow_count(), 0);
  }
}

TEST(FutureRandTest, CertifiedEpsilonNeverExceedsBudgetAcrossSweep) {
  // Lemma 5.2: the exact ratio ln(p'_max/p'_min) the instance certifies must
  // stay within the nominal budget for every (L, k, eps) combination.
  for (const SweepPoint& point : SweepGrid()) {
    SCOPED_TRACE(::testing::Message() << "L=" << point.length
                                      << " k=" << point.k
                                      << " eps=" << point.eps);
    auto randomizer = Make(point.length, point.k, point.eps, 77);
    EXPECT_GT(CertifiedEpsilon(randomizer), 0.0);
    EXPECT_LE(CertifiedEpsilon(randomizer), point.eps + 1e-12);
    EXPECT_GT(randomizer.params().c_gap, 0.0);
    EXPECT_LE(randomizer.params().c_gap, 1.0);
  }
}

}  // namespace
}  // namespace futurerand::rand
