// DedupWindowPolicy semantics: a bounded window must keep in-window
// behavior bit-identical to the unbounded bitmap (same accepts, same
// duplicate drops, same estimates), bound the dedup memory, drop-and-count
// anything behind the evicted horizon, and survive checkpoint/restore with
// its watermarks intact.

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/common/math.h"
#include "futurerand/common/random.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/server.h"
#include "futurerand/core/snapshot.h"
#include "futurerand/core/wire.h"
#include "testsupport/merge_shards.h"

namespace futurerand::core {
namespace {

// Scale-1 servers turn report sums into plain interval sums.
Server UnitServer(int64_t d, DedupPolicy policy,
                  DedupWindowPolicy window = {}) {
  const auto orders =
      static_cast<size_t>(Log2Exact(static_cast<uint64_t>(d))) + 1;
  return Server::Create({d, std::vector<double>(orders, 1.0), policy, window})
      .ValueOrDie();
}

ProtocolConfig TestConfig(int64_t d = 512) {
  ProtocolConfig config;
  config.num_periods = d;
  config.max_changes = 3;
  config.epsilon = 1.0;
  return config;
}

TEST(DedupWindowPolicyTest, ValidationRejectsInconsistentCombinations) {
  // Bounded windows need bitmaps to evict, which only kIdempotent keeps.
  EXPECT_FALSE(Server::Create({8, {1.0, 2.0, 3.0, 4.0}, DedupPolicy::kStrict,
                               DedupWindowPolicy{64}})
                   .ok());
  EXPECT_FALSE(Server::Create({8, {1.0, 2.0, 3.0, 4.0},
                               DedupPolicy::kIdempotent,
                               DedupWindowPolicy{-1}})
                   .ok());
  EXPECT_TRUE(Server::Create({8, {1.0, 2.0, 3.0, 4.0},
                              DedupPolicy::kIdempotent, DedupWindowPolicy{8}})
                  .ok());
  // A window beyond the horizon is a non-canonical spelling of unbounded
  // (and would be rejected by the snapshot decoder): refuse it up front,
  // through every factory.
  EXPECT_FALSE(Server::Create({8, {1.0, 2.0, 3.0, 4.0},
                               DedupPolicy::kIdempotent, DedupWindowPolicy{9}})
                   .ok());
  EXPECT_FALSE(Server::ForProtocol(TestConfig(), DedupPolicy::kIdempotent,
                                   DedupWindowPolicy{513})
                   .ok());
  EXPECT_FALSE(ShardedAggregator::ForProtocol(TestConfig(), 2,
                                              DedupPolicy::kIdempotent,
                                              DedupWindowPolicy{513})
                   .ok());
  // Unbounded (the default) pairs with either policy.
  EXPECT_TRUE(Server::Create({8, {1.0, 2.0, 3.0, 4.0}, DedupPolicy::kStrict,
                              DedupWindowPolicy{}})
                  .ok());
  // Same rules through the aggregator factories.
  EXPECT_FALSE(ShardedAggregator::Create({8, {1.0, 2.0, 3.0, 4.0},
                                          DedupPolicy::kStrict,
                                          DedupWindowPolicy{64}},
                                         2)
                   .ok());
  EXPECT_TRUE(ShardedAggregator::Create({8, {1.0, 2.0, 3.0, 4.0},
                                         DedupPolicy::kIdempotent,
                                         DedupWindowPolicy{8}},
                                        2)
                  .ok());
}

TEST(DedupWindowPolicyTest, InWindowBehaviorIsBitIdenticalToUnbounded) {
  const int64_t d = 512;
  Server unbounded = UnitServer(d, DedupPolicy::kIdempotent);
  Server windowed =
      UnitServer(d, DedupPolicy::kIdempotent, DedupWindowPolicy{128});
  for (int64_t u = 0; u < 6; ++u) {
    ASSERT_TRUE(unbounded.RegisterClient(u, static_cast<int>(u % 3)).ok());
    ASSERT_TRUE(windowed.RegisterClient(u, static_cast<int>(u % 3)).ok());
  }
  // Shuffled-within-window delivery with retransmissions: each tick t, a
  // client reports for a time drawn from [t - 100, t] (within the window),
  // sometimes twice.
  Rng rng(99);
  for (int64_t t = 1; t <= d; ++t) {
    for (int64_t u = 0; u < 6; ++u) {
      const int level = static_cast<int>(u % 3);
      const int64_t step = int64_t{1} << level;
      const int64_t low = std::max<int64_t>(step, t - 100);
      if (low > t) {
        continue;
      }
      // Snap a uniform draw from [low, t] down to the level's grid.
      const int64_t drawn =
          low + static_cast<int64_t>(rng.NextInt(t - low + 1));
      const int64_t report_time = drawn - (drawn % step);
      if (report_time < step) {
        continue;
      }
      const int8_t value = rng.NextSign();
      const int repeats = rng.NextBernoulli(0.3) ? 2 : 1;
      for (int r = 0; r < repeats; ++r) {
        const Status a = unbounded.SubmitReport(u, report_time, value);
        const Status b = windowed.SubmitReport(u, report_time, value);
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
      }
    }
  }
  EXPECT_EQ(windowed.out_of_window_dropped(), 0);
  EXPECT_EQ(windowed.duplicates_dropped(), unbounded.duplicates_dropped());
  EXPECT_EQ(windowed.EstimateAll().ValueOrDie(),
            unbounded.EstimateAll().ValueOrDie());
}

TEST(DedupWindowPolicyTest, OutOfWindowReportsAreDroppedAndCounted) {
  const int64_t d = 512;
  Server server =
      UnitServer(d, DedupPolicy::kIdempotent, DedupWindowPolicy{64});
  ASSERT_TRUE(server.RegisterClient(1, 0).ok());
  // Advance the frontier to the end of time; everything below boundary
  // ~448 is evicted (whole words: boundaries 0..447).
  ASSERT_TRUE(server.SubmitReport(1, d, 1).ok());
  const std::vector<double> before = server.EstimateAll().ValueOrDie();
  // An ancient straggler: dropped, counted, and the sums untouched.
  EXPECT_TRUE(server.SubmitReport(1, 1, 1).ok());
  EXPECT_EQ(server.out_of_window_dropped(), 1);
  EXPECT_EQ(server.duplicates_dropped(), 0);
  EXPECT_EQ(server.EstimateAll().ValueOrDie(), before);
  // A report inside the retained window is still ingested exactly once.
  ASSERT_TRUE(server.SubmitReport(1, d - 10, 1).ok());
  EXPECT_TRUE(server.SubmitReport(1, d - 10, 1).ok());  // retransmission
  EXPECT_EQ(server.duplicates_dropped(), 1);
  EXPECT_EQ(server.out_of_window_dropped(), 1);
}

TEST(DedupWindowPolicyTest, EvictionBoundsDedupMemory) {
  const int64_t d = 8192;
  Server unbounded = UnitServer(d, DedupPolicy::kIdempotent);
  Server windowed =
      UnitServer(d, DedupPolicy::kIdempotent, DedupWindowPolicy{128});
  for (int64_t u = 0; u < 16; ++u) {
    ASSERT_TRUE(unbounded.RegisterClient(u, 0).ok());
    ASSERT_TRUE(windowed.RegisterClient(u, 0).ok());
  }
  for (int64_t t = 1; t <= d; ++t) {
    for (int64_t u = 0; u < 16; ++u) {
      ASSERT_TRUE(unbounded.SubmitReport(u, t, 1).ok());
      ASSERT_TRUE(windowed.SubmitReport(u, t, 1).ok());
    }
  }
  // 16 level-0 clients over d=8192: the unbounded bitmaps hold 128 words
  // each; the windowed ones at most 3 (128-boundary window + word slack).
  EXPECT_LT(windowed.ApproxMemoryBytes() + 16 * 100 * 8,
            unbounded.ApproxMemoryBytes());
  EXPECT_EQ(windowed.EstimateAll().ValueOrDie(),
            unbounded.EstimateAll().ValueOrDie());
  EXPECT_EQ(windowed.out_of_window_dropped(), 0);
}

TEST(DedupWindowPolicyTest, FrontierJumpNeverMaterializesEvictedWords) {
  // A client's first report after a long outage lands far beyond its last
  // boundary. The bounded window must not allocate the skipped span even
  // transiently: only ~window/64 words may ever be materialized.
  const int64_t d = 8192;
  Server unbounded = UnitServer(d, DedupPolicy::kIdempotent);
  Server windowed =
      UnitServer(d, DedupPolicy::kIdempotent, DedupWindowPolicy{128});
  for (int64_t u = 0; u < 64; ++u) {
    ASSERT_TRUE(unbounded.RegisterClient(u, 0).ok());
    ASSERT_TRUE(windowed.RegisterClient(u, 0).ok());
    // One early report, then the jump straight to the horizon.
    ASSERT_TRUE(unbounded.SubmitReport(u, 1, 1).ok());
    ASSERT_TRUE(windowed.SubmitReport(u, 1, 1).ok());
    ASSERT_TRUE(unbounded.SubmitReport(u, d, 1).ok());
    ASSERT_TRUE(windowed.SubmitReport(u, d, 1).ok());
  }
  // Unbounded: 64 clients x 128 words; windowed: 64 x (<= 3 words). The
  // gap must show even through the capacity-based accounting — i.e. the
  // windowed bitmaps never held the full span.
  EXPECT_LT(windowed.ApproxMemoryBytes() + 64 * 100 * 8,
            unbounded.ApproxMemoryBytes());
  EXPECT_EQ(windowed.EstimateAll().ValueOrDie(),
            unbounded.EstimateAll().ValueOrDie());
}

TEST(DedupWindowPolicyTest, WindowedStateSurvivesSnapshotRoundTrip) {
  const int64_t d = 512;
  Server server =
      UnitServer(d, DedupPolicy::kIdempotent, DedupWindowPolicy{64});
  Rng rng(5);
  for (int64_t u = 0; u < 10; ++u) {
    const int level = static_cast<int>(rng.NextInt(3));
    ASSERT_TRUE(server.RegisterClient(u, level).ok());
    const int64_t step = int64_t{1} << level;
    for (int64_t t = step; t <= d; t += step) {
      ASSERT_TRUE(server.SubmitReport(u, t, rng.NextSign()).ok());
    }
  }
  // Eviction has happened (level-0 clients passed boundary 448+), and an
  // old straggler has been counted.
  EXPECT_TRUE(server.SubmitReport(0, 1, 1).ok());
  EXPECT_EQ(server.out_of_window_dropped(), 1);

  const std::string blob = EncodeServerState(server);
  Server restored = DecodeServerState(blob).ValueOrDie();
  EXPECT_EQ(restored.shape().window, server.shape().window);
  EXPECT_EQ(restored.out_of_window_dropped(), 1);
  EXPECT_EQ(EncodeServerState(restored), blob);
  EXPECT_EQ(restored.EstimateAll().ValueOrDie(),
            server.EstimateAll().ValueOrDie());
  // The watermark survived: the original and the restored server treat an
  // evicted boundary, an in-window duplicate, and a fresh in-window report
  // identically.
  for (const int64_t t : {int64_t{2}, d - 4, d}) {
    const Status a = server.SubmitReport(0, t, -1);
    const Status b = restored.SubmitReport(0, t, -1);
    ASSERT_EQ(a.ok(), b.ok()) << "t=" << t;
  }
  EXPECT_EQ(restored.out_of_window_dropped(),
            server.out_of_window_dropped());
  EXPECT_EQ(restored.duplicates_dropped(), server.duplicates_dropped());
  EXPECT_EQ(restored.EstimateAll().ValueOrDie(),
            server.EstimateAll().ValueOrDie());
}

TEST(DedupWindowPolicyTest, SnapshotRejectsWatermarkWithoutBoundedWindow) {
  // A blob whose bitmap carries an eviction watermark must not decode for
  // an unbounded policy: hand-build one by snapshotting a windowed server
  // and checking the mismatch is caught at the aggregator Restore level.
  const int64_t d = 512;
  ShardedAggregator windowed =
      ShardedAggregator::ForProtocol(TestConfig(), 2,
                                     DedupPolicy::kIdempotent,
                                     DedupWindowPolicy{64})
          .ValueOrDie();
  std::vector<RegistrationMessage> registrations;
  std::vector<ReportMessage> reports;
  for (int64_t u = 0; u < 8; ++u) {
    registrations.push_back({u, 0});
    reports.push_back({u, d, 1});
  }
  ASSERT_TRUE(windowed.IngestRegistrations(registrations).ok());
  ASSERT_TRUE(windowed.IngestReports(reports).ok());
  const std::string snapshot = windowed.Checkpoint().ValueOrDie();

  ShardedAggregator unbounded =
      ShardedAggregator::ForProtocol(TestConfig(), 2,
                                     DedupPolicy::kIdempotent)
          .ValueOrDie();
  EXPECT_FALSE(unbounded.Restore(snapshot).ok());
  // The matching window accepts, even across a shard-count change.
  ShardedAggregator twin =
      ShardedAggregator::ForProtocol(TestConfig(), 3,
                                     DedupPolicy::kIdempotent,
                                     DedupWindowPolicy{64})
          .ValueOrDie();
  EXPECT_TRUE(twin.Restore(snapshot).ok());
  EXPECT_EQ(twin.EstimateAll().ValueOrDie(),
            windowed.EstimateAll().ValueOrDie());
}

TEST(DedupWindowPolicyTest, AggregatorReportsOutOfWindowInOutcome) {
  ShardedAggregator aggregator =
      ShardedAggregator::ForProtocol(TestConfig(), 3,
                                     DedupPolicy::kIdempotent,
                                     DedupWindowPolicy{64})
          .ValueOrDie();
  std::vector<RegistrationMessage> registrations;
  for (int64_t u = 0; u < 9; ++u) {
    registrations.push_back({u, 0});
  }
  ASSERT_TRUE(aggregator.IngestRegistrations(registrations).ok());
  std::vector<ReportMessage> frontier_reports;
  for (int64_t u = 0; u < 9; ++u) {
    frontier_reports.push_back({u, 512, 1});
  }
  IngestOutcome outcome;
  ASSERT_TRUE(
      aggregator.IngestReports(frontier_reports, nullptr, &outcome).ok());
  EXPECT_EQ(outcome.applied, 9);
  EXPECT_EQ(outcome.out_of_window, 0);

  // A batch of ancient stragglers mixed with one in-window duplicate.
  std::vector<ReportMessage> stale;
  for (int64_t u = 0; u < 9; ++u) {
    stale.push_back({u, 1, 1});
  }
  stale.push_back({0, 512, 1});
  ASSERT_TRUE(aggregator.IngestReports(stale, nullptr, &outcome).ok());
  EXPECT_EQ(outcome.applied, 0);
  EXPECT_EQ(outcome.out_of_window, 9);
  EXPECT_EQ(outcome.deduped, 1);
  EXPECT_EQ(aggregator.out_of_window_dropped(), 9);
  EXPECT_EQ(aggregator.shape().window, DedupWindowPolicy{64});
}

TEST(DedupWindowPolicyTest, MergeRequiresMatchingWindows) {
  const auto windowed = [] {
    return UnitServer(512, DedupPolicy::kIdempotent, DedupWindowPolicy{32});
  };
  EXPECT_FALSE(testsupport::MergeShards(
                   windowed(), UnitServer(512, DedupPolicy::kIdempotent))
                   .ok());
  Server c = windowed();
  ASSERT_TRUE(c.RegisterClient(7, 0).ok());
  ASSERT_TRUE(c.SubmitReport(7, 512, 1).ok());
  ASSERT_TRUE(c.SubmitReport(7, 1, 1).ok());  // evicted -> counted
  EXPECT_EQ(c.out_of_window_dropped(), 1);
  Server merged =
      testsupport::MergeShards(windowed(), std::move(c)).ValueOrDie();
  EXPECT_EQ(merged.out_of_window_dropped(), 1);
  // The merged-in watermark still drops the straggler.
  EXPECT_TRUE(merged.SubmitReport(7, 2, 1).ok());
  EXPECT_EQ(merged.out_of_window_dropped(), 2);
}

}  // namespace
}  // namespace futurerand::core
