// Concurrency stress: many threads hammer ShardedAggregator::IngestEncoded
// with duplicated, shuffled wire batches (DedupPolicy::kIdempotent) while
// reader threads spin on EstimateAll / EstimateWindowDelta / num_clients.
// Because ingestion is idempotent and order-invariant, the final state must
// be bit-identical to a serial exactly-once reference — no matter how the
// scheduler interleaves the threads.
//
// Labeled `stress` in CTest; FR_STRESS_THREADS / FR_STRESS_ROUNDS scale it
// up for sanitizer soaks (the ASan+UBSan CI job re-runs this label).

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/common/random.h"
#include "futurerand/common/threadpool.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/fleet.h"
#include "futurerand/core/server.h"
#include "futurerand/core/wire.h"
#include "testsupport/env_scaling.h"

namespace futurerand::core {
namespace {

using testsupport::EnvIterations;

constexpr int64_t kPeriods = 64;
constexpr int64_t kUsers = 200;

ProtocolConfig StressConfig() {
  ProtocolConfig config;
  config.num_periods = kPeriods;
  config.max_changes = 4;
  config.epsilon = 1.0;
  return config;
}

// The full traffic of one deployment: registration bytes plus one encoded
// report batch per tick, all pre-encoded so worker threads only ingest.
struct EncodedTraffic {
  std::string registrations;
  std::vector<std::string> batches;
  std::vector<RegistrationMessage> raw_registrations;
  std::vector<ReportBatch> raw_batches;
};

EncodedTraffic GenerateTraffic(uint64_t seed) {
  const ProtocolConfig config = StressConfig();
  ClientFleet fleet = ClientFleet::Create(config, kUsers, seed).ValueOrDie();
  EncodedTraffic traffic;
  traffic.raw_registrations = fleet.registrations();
  traffic.registrations =
      EncodeRegistrationBatch(traffic.raw_registrations);
  std::vector<int8_t> states(static_cast<size_t>(kUsers));
  Rng rng(seed + 1);
  for (int64_t t = 1; t <= kPeriods; ++t) {
    for (int64_t u = 0; u < kUsers; ++u) {
      // Deterministic per-user square wave with user-dependent phase.
      states[static_cast<size_t>(u)] =
          ((t + u) / 8) % 2 == 0 ? int8_t{0} : int8_t{1};
    }
    ReportBatch batch;
    EXPECT_TRUE(fleet.AdvanceTick(states, &batch).ok());
    traffic.raw_batches.push_back(batch);
    // Shuffle so concurrent deliveries are also out of order internally.
    for (size_t i = batch.size(); i > 1; --i) {
      std::swap(batch[i - 1], batch[static_cast<size_t>(rng.NextInt(i))]);
    }
    traffic.batches.push_back(EncodeReportBatch(batch).ValueOrDie());
  }
  return traffic;
}

// Serial exactly-once reference.
Server ReferenceServer(const EncodedTraffic& traffic) {
  Server server = Server::ForProtocol(StressConfig()).ValueOrDie();
  for (const RegistrationMessage& reg : traffic.raw_registrations) {
    EXPECT_TRUE(server.RegisterClient(reg.client_id, reg.level).ok());
  }
  for (const ReportBatch& batch : traffic.raw_batches) {
    for (const ReportMessage& report : batch) {
      EXPECT_TRUE(
          server.SubmitReport(report.client_id, report.time, report.value)
              .ok());
    }
  }
  return server;
}

TEST(AggregatorStressTest, ConcurrentDuplicatedIngestMatchesSerialReference) {
  const auto writer_threads =
      static_cast<int>(EnvIterations("FR_STRESS_THREADS", 8));
  const int64_t rounds = EnvIterations("FR_STRESS_ROUNDS", 2);
  const EncodedTraffic traffic = GenerateTraffic(4242);
  const Server reference = ReferenceServer(traffic);
  const std::vector<double> expected = reference.EstimateAll().ValueOrDie();

  for (int64_t round = 0; round < rounds; ++round) {
    for (const int shards : {1, 7}) {
      ShardedAggregator aggregator =
          ShardedAggregator::ForProtocol(StressConfig(), shards,
                                         DedupPolicy::kIdempotent)
              .ValueOrDie();
      std::atomic<bool> stop_readers{false};
      std::atomic<int64_t> next_work{0};

      // Every writer ingests the registrations and then competes for
      // batches off a shared counter; each batch is delivered twice
      // (counter runs to 2x the batch count), so every record arrives at
      // least... exactly twice, interleaved arbitrarily across threads.
      auto writer = [&] {
        ASSERT_TRUE(aggregator.IngestEncoded(traffic.registrations).ok());
        const auto total = static_cast<int64_t>(traffic.batches.size()) * 2;
        while (true) {
          const int64_t work = next_work.fetch_add(1);
          if (work >= total) {
            break;
          }
          const auto index =
              static_cast<size_t>(work) % traffic.batches.size();
          ASSERT_TRUE(aggregator.IngestEncoded(traffic.batches[index]).ok());
        }
      };
      // Readers exercise the snapshot path concurrently; their transient
      // values are unchecked (a mid-batch prefix is legal), they just must
      // not crash, race, or error.
      auto reader = [&] {
        while (!stop_readers.load(std::memory_order_relaxed)) {
          ASSERT_TRUE(aggregator.EstimateAll().ok());
          ASSERT_TRUE(aggregator.EstimateWindowDelta(3, kPeriods / 2).ok());
          ASSERT_TRUE(aggregator.EstimateAt(kPeriods).ok());
          (void)aggregator.num_clients();
          (void)aggregator.duplicates_dropped();
        }
      };

      std::vector<std::thread> threads;
      threads.reserve(static_cast<size_t>(writer_threads) + 2);
      for (int w = 0; w < writer_threads; ++w) {
        threads.emplace_back(writer);
      }
      threads.emplace_back(reader);
      threads.emplace_back(reader);
      for (int w = 0; w < writer_threads; ++w) {
        threads[static_cast<size_t>(w)].join();
      }
      stop_readers.store(true);
      threads[static_cast<size_t>(writer_threads)].join();
      threads[static_cast<size_t>(writer_threads) + 1].join();

      // Exactly-once equivalence, bit for bit.
      EXPECT_EQ(aggregator.EstimateAll().ValueOrDie(), expected)
          << "shards=" << shards << " round=" << round;
      EXPECT_EQ(aggregator.EstimateAllConsistent().ValueOrDie(),
                reference.EstimateAllConsistent().ValueOrDie());
      EXPECT_EQ(aggregator.EstimateWindowDelta(5, 40).ValueOrDie(),
                reference.EstimateWindowDelta(5, 40).ValueOrDie());
      EXPECT_EQ(aggregator.num_clients(), kUsers);
      // Every record beyond the exactly-once set was absorbed: N writers
      // re-registered and each batch landed twice.
      int64_t reports = 0;
      for (const ReportBatch& batch : traffic.raw_batches) {
        reports += static_cast<int64_t>(batch.size());
      }
      EXPECT_EQ(aggregator.duplicates_dropped(),
                reports + (writer_threads - 1) * kUsers);
    }
  }
}

// Checkpoint/restore under concurrent queries: writers ingest while a
// checkpointer thread repeatedly serializes the aggregator and restores the
// blob into a scratch aggregator. The checkpoints see legal prefixes only;
// nothing may crash or error.
TEST(AggregatorStressTest, CheckpointWhileIngestingIsSafe) {
  const EncodedTraffic traffic = GenerateTraffic(777);
  ShardedAggregator aggregator =
      ShardedAggregator::ForProtocol(StressConfig(), 4,
                                     DedupPolicy::kIdempotent)
          .ValueOrDie();
  ASSERT_TRUE(aggregator.IngestEncoded(traffic.registrations).ok());
  std::atomic<bool> stop{false};
  std::atomic<int64_t> next_batch{0};

  auto writer = [&] {
    while (true) {
      const int64_t index = next_batch.fetch_add(1);
      if (index >= static_cast<int64_t>(traffic.batches.size())) {
        break;
      }
      ASSERT_TRUE(
          aggregator.IngestEncoded(traffic.batches[static_cast<size_t>(index)])
              .ok());
    }
  };
  auto checkpointer = [&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto blob = aggregator.Checkpoint();
      ASSERT_TRUE(blob.ok());
      ShardedAggregator scratch =
          ShardedAggregator::ForProtocol(StressConfig(), 4,
                                         DedupPolicy::kIdempotent)
              .ValueOrDie();
      ASSERT_TRUE(scratch.Restore(*blob).ok());
      ASSERT_TRUE(scratch.EstimateAll().ok());
    }
  };

  std::thread c1(checkpointer);
  std::thread c2(checkpointer);
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back(writer);
  }
  for (std::thread& w : writers) {
    w.join();
  }
  stop.store(true);
  c1.join();
  c2.join();

  // After the dust settles a final checkpoint restores bit-identically.
  const std::string blob = aggregator.Checkpoint().ValueOrDie();
  ShardedAggregator restored =
      ShardedAggregator::ForProtocol(StressConfig(), 4,
                                     DedupPolicy::kIdempotent)
          .ValueOrDie();
  ASSERT_TRUE(restored.Restore(blob).ok());
  EXPECT_EQ(restored.EstimateAll().ValueOrDie(),
            aggregator.EstimateAll().ValueOrDie());
}

}  // namespace
}  // namespace futurerand::core
