#include "futurerand/sim/runner.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/analysis/theory.h"
#include "futurerand/randomizer/randomizer.h"

namespace futurerand::sim {
namespace {

core::ProtocolConfig TestConfig(int64_t d = 32, int64_t k = 2,
                                double eps = 1.0) {
  core::ProtocolConfig config;
  config.num_periods = d;
  config.max_changes = k;
  config.epsilon = eps;
  return config;
}

WorkloadConfig TestWorkload(int64_t n = 2000, int64_t d = 32, int64_t k = 2) {
  WorkloadConfig config;
  config.kind = WorkloadKind::kUniformChanges;
  config.num_users = n;
  config.num_periods = d;
  config.max_changes = k;
  return config;
}

TEST(RunnerTest, ProtocolKindNames) {
  EXPECT_STREQ(ProtocolKindToString(ProtocolKind::kFutureRand),
               "future_rand");
  EXPECT_STREQ(ProtocolKindToString(ProtocolKind::kErlingsson), "erlingsson");
  EXPECT_STREQ(ProtocolKindToString(ProtocolKind::kNaiveRR), "naive_rr");
  EXPECT_STREQ(ProtocolKindToString(ProtocolKind::kCentralTree),
               "central_tree");
  EXPECT_STREQ(ProtocolKindToString(ProtocolKind::kNonPrivate),
               "non_private");
}

TEST(RunnerTest, FleetProtocolNamesParseAsRandomizerKinds) {
  // frload's --protocol and frserve's --randomizer take the same word.
  int fleet_kinds = 0;
  for (const ProtocolKind kind : AllProtocolKinds()) {
    const Result<rand::RandomizerKind> randomizer = RandomizerFor(kind);
    if (!randomizer.ok()) {
      continue;
    }
    ++fleet_kinds;
    const Result<rand::RandomizerKind> parsed =
        rand::ParseRandomizerKind(ProtocolKindToString(kind));
    ASSERT_TRUE(parsed.ok()) << ProtocolKindToString(kind);
    EXPECT_EQ(*parsed, *randomizer) << ProtocolKindToString(kind);
  }
  EXPECT_EQ(fleet_kinds, 7);
}

TEST(RunnerTest, RejectsMismatchedDomains) {
  const Workload workload =
      Workload::Generate(TestWorkload(100, 16, 2), 1).ValueOrDie();
  EXPECT_FALSE(
      RunProtocol(ProtocolKind::kFutureRand, TestConfig(32), workload, 1)
          .ok());
}

TEST(RunnerTest, NonPrivateIsExact) {
  const Workload workload =
      Workload::Generate(TestWorkload(), 2).ValueOrDie();
  const RunResult result =
      RunProtocol(ProtocolKind::kNonPrivate, TestConfig(), workload, 3)
          .ValueOrDie();
  EXPECT_EQ(result.metrics.max_abs, 0.0);
}

class RunnerProtocolTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(RunnerProtocolTest, ProducesFiniteEstimatesOfRightLength) {
  const Workload workload =
      Workload::Generate(TestWorkload(), 4).ValueOrDie();
  const RunResult result =
      RunProtocol(GetParam(), TestConfig(), workload, 5).ValueOrDie();
  ASSERT_EQ(result.estimates.size(), 32u);
  for (double estimate : result.estimates) {
    EXPECT_TRUE(std::isfinite(estimate));
  }
  EXPECT_GE(result.metrics.max_abs, 0.0);
  EXPECT_GE(result.wall_seconds, 0.0);
}

TEST_P(RunnerProtocolTest, DeterministicForSameSeed) {
  const Workload workload =
      Workload::Generate(TestWorkload(500, 32, 2), 6).ValueOrDie();
  const RunResult a =
      RunProtocol(GetParam(), TestConfig(), workload, 7).ValueOrDie();
  const RunResult b =
      RunProtocol(GetParam(), TestConfig(), workload, 7).ValueOrDie();
  EXPECT_EQ(a.estimates, b.estimates);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, RunnerProtocolTest,
    ::testing::Values(ProtocolKind::kFutureRand, ProtocolKind::kIndependent,
                      ProtocolKind::kBun, ProtocolKind::kAdaptive,
                      ProtocolKind::kErlingsson, ProtocolKind::kNaiveRR,
                      ProtocolKind::kCentralTree, ProtocolKind::kNonPrivate),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      return ProtocolKindToString(info.param);
    });

TEST(RunnerTest, ThreadedAndSingleThreadedAgreeOnReportCounts) {
  // Estimates use per-user forked randomness, so sharding must not change
  // the outcome at all.
  const Workload workload =
      Workload::Generate(TestWorkload(800, 32, 2), 8).ValueOrDie();
  ThreadPool pool(4);
  const RunResult threaded =
      RunProtocol(ProtocolKind::kFutureRand, TestConfig(), workload, 9, &pool)
          .ValueOrDie();
  const RunResult single =
      RunProtocol(ProtocolKind::kFutureRand, TestConfig(), workload, 9)
          .ValueOrDie();
  EXPECT_EQ(threaded.reports_submitted, single.reports_submitted);
  EXPECT_EQ(threaded.estimates, single.estimates);
}

TEST(RunnerTest, HierarchicalErrorWithinHoeffdingBound) {
  // Lemma 4.6's explicit bound with beta = 1e-6 must hold comfortably.
  const core::ProtocolConfig config = TestConfig(32, 2, 1.0);
  const Workload workload =
      Workload::Generate(TestWorkload(5000, 32, 2), 10).ValueOrDie();
  const RunResult result =
      RunProtocol(ProtocolKind::kFutureRand, config, workload, 11)
          .ValueOrDie();
  const double c_gap =
      rand::ExactCGap(rand::RandomizerKind::kFutureRand, 2, 1.0).ValueOrDie();
  analysis::BoundParams params;
  params.n = 5000;
  params.d = 32;
  params.k = 2;
  params.epsilon = 1.0;
  params.beta = 1e-6;
  EXPECT_LE(result.metrics.max_abs,
            analysis::HoeffdingProtocolBound(params, c_gap));
}

TEST(RunnerTest, CentralBeatsLocalOnSameWorkload) {
  const core::ProtocolConfig config = TestConfig(32, 2, 1.0);
  const Workload workload =
      Workload::Generate(TestWorkload(5000, 32, 2), 12).ValueOrDie();
  const RunResult central =
      RunProtocol(ProtocolKind::kCentralTree, config, workload, 13)
          .ValueOrDie();
  const RunResult local =
      RunProtocol(ProtocolKind::kFutureRand, config, workload, 13)
          .ValueOrDie();
  EXPECT_LT(central.metrics.max_abs, local.metrics.max_abs);
}

TEST(RunnerTest, RunRepeatedAggregates) {
  const RepeatedRunStats stats =
      RunRepeated(ProtocolKind::kIndependent, TestConfig(16, 2, 1.0),
                  TestWorkload(300, 16, 2), 3, 99)
          .ValueOrDie();
  EXPECT_EQ(stats.repetitions, 3);
  EXPECT_EQ(stats.max_abs_error.count(), 3);
  EXPECT_GT(stats.max_abs_error.mean(), 0.0);
  EXPECT_GE(stats.total_wall_seconds, 0.0);
}

TEST(RunnerTest, RunRepeatedRejectsZeroRepetitions) {
  EXPECT_FALSE(RunRepeated(ProtocolKind::kIndependent, TestConfig(16, 2, 1.0),
                           TestWorkload(10, 16, 2), 0, 1)
                   .ok());
}

}  // namespace
}  // namespace futurerand::sim
