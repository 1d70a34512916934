#include "futurerand/sim/runner.h"

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/analysis/theory.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/fleet.h"
#include "futurerand/core/wire.h"
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

// ---------------------------------------------------------------------------
// DriveFleet's contract: it alone registers, ticks and encodes; the
// callables it is handed see nothing but finished wire bytes.

// The per-tick state vector DriveFleet replays from change_times.
std::vector<int8_t> StatesAt(const Workload& workload, int64_t t) {
  std::vector<int8_t> states;
  for (int64_t u = 0; u < workload.num_users(); ++u) {
    states.push_back(workload.trace(u).StateAt(t));
  }
  return states;
}

// What DriveFleet handed its two sinks, in call order.
struct SinkLog {
  std::vector<std::string> registrations;
  std::vector<std::string> reports;  // by ship index
  std::vector<int64_t> indices;
  // Ticks of registrations()[i], i >= 1: joiners at tick t register
  // after t - 1 report batches have shipped.
  std::vector<int64_t> registration_ticks;
  bool registered_first = false;
};

Result<DriveStats> DriveIntoLog(core::ClientFleet& fleet,
                                const Workload& workload,
                                const FaultOptions& faults, SinkLog* log,
                                DeliveryMetrics* delivery) {
  auto ship = [&](const std::string& pristine, int64_t index,
                  ChannelModel* /*channel*/) -> Status {
    log->reports.push_back(pristine);
    log->indices.push_back(index);
    return Status::OK();
  };
  auto register_batch = [&](const std::string& bytes) -> Status {
    if (log->registrations.empty()) {
      log->registered_first = log->reports.empty();
    } else {
      log->registration_ticks.push_back(
          static_cast<int64_t>(log->reports.size()) + 1);
    }
    log->registrations.push_back(bytes);
    return Status::OK();
  };
  return DriveFleet(fleet, workload, faults, /*seed=*/21, nullptr, ship,
                    register_batch, nullptr, delivery);
}

TEST(DriveFleetTest, RegistersTheFleetFirstThenShipsTwinFleetBatches) {
  const core::ProtocolConfig config = TestConfig(16, 2, 1.0);
  const Workload workload =
      Workload::Generate(TestWorkload(300, 16, 2), 14).ValueOrDie();
  core::ClientFleet fleet =
      core::ClientFleet::Create(config, workload.num_users(), 15)
          .ValueOrDie();
  core::ClientFleet twin =
      core::ClientFleet::Create(config, workload.num_users(), 15)
          .ValueOrDie();
  SinkLog log;
  DeliveryMetrics delivery;
  const DriveStats stats =
      DriveIntoLog(fleet, workload, FaultOptions{}, &log, &delivery)
          .ValueOrDie();

  ASSERT_EQ(log.registrations.size(), 1u);
  EXPECT_TRUE(log.registered_first);
  EXPECT_EQ(log.registrations[0],
            core::EncodeRegistrationBatch(twin.registrations()));

  // Tick t ships index t - 1, and its bytes are the twin's tick t batch.
  ASSERT_EQ(log.reports.size(), 16u);
  int64_t reports = 0;
  core::ReportBatch expected;
  for (int64_t t = 1; t <= 16; ++t) {
    const auto i = static_cast<size_t>(t - 1);
    EXPECT_EQ(log.indices[i], t - 1);
    ASSERT_TRUE(twin.AdvanceTick(StatesAt(workload, t), &expected).ok());
    EXPECT_EQ(core::DecodeReportBatch(log.reports[i]).ValueOrDie(),
              expected)
        << "tick " << t;
    reports += static_cast<int64_t>(expected.size());
  }
  EXPECT_GT(reports, 0);
  EXPECT_EQ(stats.reports, reports);
  EXPECT_EQ(delivery.records_sent, reports);
  EXPECT_EQ(delivery.records_delivered, reports);
  EXPECT_EQ(delivery.batches_sent, 16);
}

TEST(DriveFleetTest, ChurnJoinersRegisterAtTheirJoinTick) {
  WorkloadConfig workload_config = TestWorkload(300, 16, 2);
  workload_config.kind = WorkloadKind::kChurn;
  workload_config.churn_join_fraction = 0.5;
  const Workload workload =
      Workload::Generate(workload_config, 16).ValueOrDie();
  FaultOptions faults;
  faults.dedup = core::DedupPolicy::kIdempotent;
  core::ClientFleet fleet =
      core::ClientFleet::Create(TestConfig(16, 2, 1.0), workload.num_users(),
                                17, /*pool=*/nullptr, /*first_client_id=*/40)
          .ValueOrDie();
  SinkLog log;
  DeliveryMetrics delivery;
  ASSERT_TRUE(
      DriveIntoLog(fleet, workload, faults, &log, &delivery).ok());
  ASSERT_TRUE(log.registered_first);

  // Every batch after the first holds exactly the users joining at its
  // tick, in id order.
  std::vector<std::vector<core::RegistrationMessage>> joiners(17);
  for (int64_t u = 0; u < workload.num_users(); ++u) {
    const int64_t join = workload.presence()[static_cast<size_t>(u)].join;
    if (join > 1) {
      joiners[static_cast<size_t>(join)].push_back({40 + u, fleet.level(u)});
    }
  }
  int64_t replayed = 0;
  size_t next = 1;
  for (int64_t t = 2; t <= 16; ++t) {
    const auto& expected = joiners[static_cast<size_t>(t)];
    if (expected.empty()) {
      continue;
    }
    ASSERT_LT(next, log.registrations.size());
    EXPECT_EQ(log.registration_ticks[next - 1], t);
    EXPECT_EQ(
        core::DecodeRegistrationBatch(log.registrations[next]).ValueOrDie(),
        expected)
        << "tick " << t;
    replayed += static_cast<int64_t>(expected.size());
    ++next;
  }
  EXPECT_EQ(next, log.registrations.size());
  EXPECT_GT(replayed, 0);
  EXPECT_EQ(delivery.registrations_replayed, replayed);
}

TEST(DriveFleetTest, IdealRunEqualsHandIngestOfTheFleetBatches) {
  // Without a channel RunProtocol ships wire bytes like any other run; its
  // estimates and counters must equal a hand loop that never encodes.
  const core::ProtocolConfig config = TestConfig(32, 2, 1.0);
  const Workload workload =
      Workload::Generate(TestWorkload(600, 32, 2), 18).ValueOrDie();
  ThreadPool pool(3);
  const RunResult run = RunProtocol(ProtocolKind::kFutureRand, config,
                                    workload, 19, &pool, /*num_shards=*/2)
                            .ValueOrDie();

  core::ClientFleet fleet =
      core::ClientFleet::Create(config, workload.num_users(), 19, &pool)
          .ValueOrDie();
  core::ShardedAggregator aggregator =
      core::ShardedAggregator::ForProtocol(config, 2).ValueOrDie();
  ASSERT_TRUE(
      aggregator.IngestRegistrations(fleet.registrations(), &pool).ok());
  DeliveryMetrics delivery;
  core::ReportBatch batch;
  for (int64_t t = 1; t <= 32; ++t) {
    ASSERT_TRUE(fleet.AdvanceTick(StatesAt(workload, t), &batch).ok());
    core::IngestOutcome outcome;
    ASSERT_TRUE(aggregator.IngestReports(batch, &pool, &outcome).ok());
    core::AddIngestOutcome(outcome, &delivery);
    delivery.records_sent += static_cast<int64_t>(batch.size());
    delivery.records_delivered += static_cast<int64_t>(batch.size());
    ++delivery.batches_sent;
  }
  EXPECT_EQ(run.estimates, aggregator.EstimateAll().ValueOrDie());
  EXPECT_EQ(run.delivery, delivery) << run.delivery.ToString() << "\n"
                                    << delivery.ToString();
  EXPECT_EQ(run.reports_submitted, delivery.records_sent);
}

}  // namespace
}  // namespace futurerand::sim
