// DedupPolicy semantics: under kIdempotent, at-least-once delivery
// (duplicates, retries, arbitrary reordering) must be bit-identical to
// exactly-once in-order delivery, while kStrict keeps the paper-faithful
// reject-on-duplicate behavior. Also pins the IngestOutcome applied/deduped
// accounting that the channel-model retry path resumes from.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/common/math.h"
#include "futurerand/common/random.h"
#include "futurerand/common/threadpool.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/fleet.h"
#include "futurerand/core/server.h"
#include "futurerand/core/wire.h"
#include "testsupport/merge_shards.h"

namespace futurerand::core {
namespace {

// Scale-1 servers turn report sums into plain interval sums.
Server UnitServer(int64_t d, DedupPolicy policy) {
  const auto orders =
      static_cast<size_t>(Log2Exact(static_cast<uint64_t>(d))) + 1;
  return Server::Create({d, std::vector<double>(orders, 1.0), policy})
      .ValueOrDie();
}

TEST(DedupPolicyTest, StrictRejectsDuplicateAndOutOfOrderReports) {
  Server server = UnitServer(8, DedupPolicy::kStrict);
  ASSERT_TRUE(server.RegisterClient(1, 0).ok());
  ASSERT_TRUE(server.SubmitReport(1, 2, 1).ok());
  EXPECT_FALSE(server.SubmitReport(1, 2, 1).ok());  // duplicate
  EXPECT_FALSE(server.SubmitReport(1, 1, 1).ok());  // out of order
  EXPECT_EQ(server.duplicates_dropped(), 0);
}

TEST(DedupPolicyTest, IdempotentDropsDuplicatesAndAcceptsAnyOrder) {
  Server server = UnitServer(8, DedupPolicy::kIdempotent);
  ASSERT_TRUE(server.RegisterClient(1, 0).ok());
  ASSERT_TRUE(server.SubmitReport(1, 5, 1).ok());
  ASSERT_TRUE(server.SubmitReport(1, 2, -1).ok());  // earlier time: fine
  EXPECT_TRUE(server.SubmitReport(1, 5, 1).ok());   // retransmission
  EXPECT_TRUE(server.SubmitReport(1, 2, -1).ok());
  EXPECT_EQ(server.duplicates_dropped(), 2);
  // The duplicates must not have double-counted: a[5] = +1 - 1 + ... the
  // estimate at t=5 sums I(0,5) etc; compare against an exactly-once twin.
  Server once = UnitServer(8, DedupPolicy::kIdempotent);
  ASSERT_TRUE(once.RegisterClient(1, 0).ok());
  ASSERT_TRUE(once.SubmitReport(1, 2, -1).ok());
  ASSERT_TRUE(once.SubmitReport(1, 5, 1).ok());
  EXPECT_EQ(server.EstimateAll().ValueOrDie(),
            once.EstimateAll().ValueOrDie());
}

TEST(DedupPolicyTest, IdempotentStillValidatesTimeAndValue) {
  Server server = UnitServer(8, DedupPolicy::kIdempotent);
  ASSERT_TRUE(server.RegisterClient(1, 1).ok());
  EXPECT_FALSE(server.SubmitReport(1, 3, 1).ok());  // not a multiple of 2
  EXPECT_FALSE(server.SubmitReport(1, 0, 1).ok());
  EXPECT_FALSE(server.SubmitReport(1, 9, 1).ok());
  EXPECT_FALSE(server.SubmitReport(1, 2, 0).ok());
  EXPECT_FALSE(server.SubmitReport(99, 2, 1).ok());  // unregistered
  EXPECT_EQ(server.duplicates_dropped(), 0);
}

TEST(DedupPolicyTest, IdempotentReRegistrationIsACountedNoOp) {
  Server server = UnitServer(8, DedupPolicy::kIdempotent);
  ASSERT_TRUE(server.RegisterClient(1, 2).ok());
  EXPECT_TRUE(server.RegisterClient(1, 2).ok());  // same level: retransmit
  EXPECT_EQ(server.RegisterClient(1, 1).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(server.num_clients(), 1);
  EXPECT_EQ(server.ClientCountAtLevel(2), 1);
  EXPECT_EQ(server.duplicates_dropped(), 1);
}

TEST(DedupPolicyTest, EveryBoundaryOfEveryLevelDedupsExactly) {
  const int64_t d = 16;
  Server server = UnitServer(d, DedupPolicy::kIdempotent);
  Server once = UnitServer(d, DedupPolicy::kIdempotent);
  int64_t expected_drops = 0;
  for (int level = 0; level <= 4; ++level) {
    const int64_t id = level;
    ASSERT_TRUE(server.RegisterClient(id, level).ok());
    ASSERT_TRUE(once.RegisterClient(id, level).ok());
    const int64_t step = int64_t{1} << level;
    for (int64_t t = step; t <= d; t += step) {
      const int8_t value = (t / step) % 2 == 0 ? int8_t{1} : int8_t{-1};
      ASSERT_TRUE(once.SubmitReport(id, t, value).ok());
      // Deliver three times; exactly two are duplicates.
      for (int copy = 0; copy < 3; ++copy) {
        ASSERT_TRUE(server.SubmitReport(id, t, value).ok());
      }
      expected_drops += 2;
    }
  }
  EXPECT_EQ(server.duplicates_dropped(), expected_drops);
  EXPECT_EQ(server.EstimateAll().ValueOrDie(),
            once.EstimateAll().ValueOrDie());
}

TEST(DedupPolicyTest, MergeRequiresMatchingPolicies) {
  Server strict = UnitServer(8, DedupPolicy::kStrict);
  Server idempotent = UnitServer(8, DedupPolicy::kIdempotent);
  EXPECT_FALSE(idempotent.MergeAggregatesOnly(strict).ok());
  EXPECT_FALSE(strict.MergeAggregatesOnly(idempotent).ok());
  EXPECT_FALSE(
      testsupport::MergeShards(std::move(strict), std::move(idempotent)).ok());
}

TEST(DedupPolicyTest, MergeCarriesBoundaryBitmapsAcross) {
  Server a = UnitServer(8, DedupPolicy::kIdempotent);
  Server b = UnitServer(8, DedupPolicy::kIdempotent);
  ASSERT_TRUE(a.RegisterClient(1, 0).ok());
  ASSERT_TRUE(b.RegisterClient(2, 0).ok());
  ASSERT_TRUE(a.SubmitReport(1, 3, 1).ok());
  ASSERT_TRUE(b.SubmitReport(2, 4, -1).ok());
  Server merged =
      testsupport::MergeShards(std::move(a), std::move(b)).ValueOrDie();
  // The merged server must remember what either side already saw.
  ASSERT_TRUE(merged.SubmitReport(1, 3, 1).ok());
  ASSERT_TRUE(merged.SubmitReport(2, 4, -1).ok());
  EXPECT_EQ(merged.duplicates_dropped(), 2);
  EXPECT_EQ(merged.EstimateAt(4).ValueOrDie(), 0.0);  // +1 - 1, no double count
}

// ---------------------------------------------------------------------------
// ShardedAggregator: at-least-once delivery equals exactly-once delivery.

ProtocolConfig TestConfig() {
  ProtocolConfig config;
  config.num_periods = 32;
  config.max_changes = 3;
  config.epsilon = 1.0;
  return config;
}

struct Traffic {
  std::vector<RegistrationMessage> registrations;
  std::vector<ReportBatch> batches;
};

Traffic GenerateTraffic(uint64_t seed, int64_t users) {
  const ProtocolConfig config = TestConfig();
  ClientFleet fleet = ClientFleet::Create(config, users, seed).ValueOrDie();
  Traffic traffic;
  traffic.registrations = fleet.registrations();
  std::vector<int8_t> states(static_cast<size_t>(users));
  for (int64_t t = 1; t <= config.num_periods; ++t) {
    for (int64_t u = 0; u < users; ++u) {
      states[static_cast<size_t>(u)] =
          (t >= (u % 16) + 1 && t < (u % 16) + 9) ? int8_t{1} : int8_t{0};
    }
    EXPECT_TRUE(
        fleet.AdvanceTick(states, &traffic.batches.emplace_back()).ok());
  }
  return traffic;
}

TEST(AggregatorDedupTest, AtLeastOnceDeliveryIsBitIdenticalToExactlyOnce) {
  const Traffic traffic = GenerateTraffic(1234, 50);
  ShardedAggregator once =
      ShardedAggregator::ForProtocol(TestConfig(), 3,
                                     DedupPolicy::kIdempotent)
          .ValueOrDie();
  ASSERT_TRUE(once.IngestRegistrations(traffic.registrations).ok());
  for (const ReportBatch& batch : traffic.batches) {
    ASSERT_TRUE(once.IngestReports(batch).ok());
  }

  ShardedAggregator lossy =
      ShardedAggregator::ForProtocol(TestConfig(), 3,
                                     DedupPolicy::kIdempotent)
          .ValueOrDie();
  // Registrations delivered twice.
  ASSERT_TRUE(lossy.IngestRegistrations(traffic.registrations).ok());
  ASSERT_TRUE(lossy.IngestRegistrations(traffic.registrations).ok());
  // Every batch delivered twice, shuffled differently each time.
  Rng rng(99);
  for (const ReportBatch& batch : traffic.batches) {
    for (int copy = 0; copy < 2; ++copy) {
      ReportBatch shuffled = batch;
      for (size_t i = shuffled.size(); i > 1; --i) {
        std::swap(shuffled[i - 1],
                  shuffled[static_cast<size_t>(rng.NextInt(i))]);
      }
      ASSERT_TRUE(lossy.IngestReports(shuffled).ok());
    }
  }

  EXPECT_EQ(lossy.EstimateAll().ValueOrDie(), once.EstimateAll().ValueOrDie());
  EXPECT_EQ(lossy.EstimateAllConsistent().ValueOrDie(),
            once.EstimateAllConsistent().ValueOrDie());
  EXPECT_EQ(lossy.EstimateWindowDelta(5, 20).ValueOrDie(),
            once.EstimateWindowDelta(5, 20).ValueOrDie());
  EXPECT_EQ(lossy.num_clients(), once.num_clients());
  EXPECT_GT(lossy.duplicates_dropped(), 0);
}

TEST(AggregatorDedupTest, IngestOutcomeSeparatesAppliedFromDeduped) {
  const Traffic traffic = GenerateTraffic(77, 20);
  ShardedAggregator aggregator =
      ShardedAggregator::ForProtocol(TestConfig(), 2,
                                     DedupPolicy::kIdempotent)
          .ValueOrDie();
  IngestOutcome outcome;
  ASSERT_TRUE(
      aggregator.IngestRegistrations(traffic.registrations, nullptr, &outcome)
          .ok());
  EXPECT_EQ(outcome.applied,
            static_cast<int64_t>(traffic.registrations.size()));
  EXPECT_EQ(outcome.deduped, 0);

  const ReportBatch& batch = traffic.batches[0];
  ASSERT_FALSE(batch.empty());
  ASSERT_TRUE(aggregator.IngestReports(batch, nullptr, &outcome).ok());
  EXPECT_EQ(outcome.applied, static_cast<int64_t>(batch.size()));
  EXPECT_EQ(outcome.deduped, 0);

  // The whole batch again: everything is a duplicate.
  ASSERT_TRUE(aggregator.IngestReports(batch, nullptr, &outcome).ok());
  EXPECT_EQ(outcome.applied, 0);
  EXPECT_EQ(outcome.deduped, static_cast<int64_t>(batch.size()));
  EXPECT_EQ(aggregator.duplicates_dropped(),
            static_cast<int64_t>(batch.size()));
}

TEST(AggregatorDedupTest, OutcomeReportsHowFarAFailedBatchGot) {
  ShardedAggregator aggregator =
      ShardedAggregator::ForProtocol(TestConfig(), 1, DedupPolicy::kStrict)
          .ValueOrDie();
  const std::vector<RegistrationMessage> registrations = {{0, 0}, {1, 0}};
  ASSERT_TRUE(aggregator.IngestRegistrations(registrations).ok());
  // Client 7 is unregistered: with one shard, ingestion stops there and the
  // outcome pins exactly how many records landed.
  const std::vector<ReportMessage> batch = {
      {0, 1, 1}, {1, 1, 1}, {7, 1, 1}, {0, 2, 1}};
  IngestOutcome outcome;
  const Status status = aggregator.IngestReports(batch, nullptr, &outcome);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(outcome.applied, 2);
  EXPECT_EQ(outcome.deduped, 0);

  // Under kIdempotent the precise resume is "resend everything": the two
  // applied records dedup away and the tail lands.
  ShardedAggregator retryable =
      ShardedAggregator::ForProtocol(TestConfig(), 1,
                                     DedupPolicy::kIdempotent)
          .ValueOrDie();
  ASSERT_TRUE(retryable.IngestRegistrations(registrations).ok());
  const Status first = retryable.IngestReports(batch, nullptr, &outcome);
  EXPECT_EQ(first.code(), StatusCode::kNotFound);
  EXPECT_EQ(outcome.applied, 2);
  const std::vector<ReportMessage> fixed = {
      {0, 1, 1}, {1, 1, 1}, {0, 2, 1}};  // drop the bogus record, resend
  ASSERT_TRUE(retryable.IngestReports(fixed, nullptr, &outcome).ok());
  EXPECT_EQ(outcome.applied, 1);
  EXPECT_EQ(outcome.deduped, 2);
}

TEST(AggregatorDedupTest, EncodedPathDedupsIdentically) {
  const Traffic traffic = GenerateTraffic(55, 30);
  ShardedAggregator direct =
      ShardedAggregator::ForProtocol(TestConfig(), 2,
                                     DedupPolicy::kIdempotent)
          .ValueOrDie();
  ShardedAggregator encoded =
      ShardedAggregator::ForProtocol(TestConfig(), 2,
                                     DedupPolicy::kIdempotent)
          .ValueOrDie();
  ASSERT_TRUE(direct.IngestRegistrations(traffic.registrations).ok());
  ASSERT_TRUE(
      encoded.IngestEncoded(EncodeRegistrationBatch(traffic.registrations))
          .ok());
  for (const ReportBatch& batch : traffic.batches) {
    ASSERT_TRUE(direct.IngestReports(batch).ok());
    const std::string bytes = EncodeReportBatch(batch).ValueOrDie();
    ASSERT_TRUE(encoded.IngestEncoded(bytes).ok());
    ASSERT_TRUE(encoded.IngestEncoded(bytes).ok());  // wire-level retry
  }
  EXPECT_EQ(encoded.EstimateAll().ValueOrDie(),
            direct.EstimateAll().ValueOrDie());
}

}  // namespace
}  // namespace futurerand::core
