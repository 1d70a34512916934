#include "futurerand/core/server.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/common/math.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/snapshot.h"
#include "futurerand/randomizer/randomizer.h"
#include "testsupport/merge_shards.h"

namespace futurerand::core {
namespace {

using testsupport::MergeShards;

ProtocolConfig TestConfig(int64_t d = 8, int64_t k = 2, double eps = 1.0) {
  ProtocolConfig config;
  config.num_periods = d;
  config.max_changes = k;
  config.epsilon = eps;
  return config;
}

// A server whose scale is 1 at every level turns report sums into plain
// (unscaled) interval sums — convenient for exact aggregation checks.
Server UnitServer(int64_t d) {
  const auto orders = static_cast<size_t>(Log2Exact(
                          static_cast<uint64_t>(d))) + 1;
  return Server::Create({d, std::vector<double>(orders, 1.0)}).ValueOrDie();
}

TEST(ServerTest, ForProtocolComputesScaleFromCGap) {
  const ProtocolConfig config = TestConfig(8, 2, 1.0);
  Server server = Server::ForProtocol(config).ValueOrDie();
  const double c_gap =
      rand::ExactCGap(config.randomizer, 2, 1.0).ValueOrDie();
  for (int h = 0; h < config.num_orders(); ++h) {
    EXPECT_NEAR(server.ScaleAtLevel(h), 4.0 / c_gap, 1e-12);  // (1+log2 8)=4
  }
}

TEST(ServerTest, PerLevelScalesDifferWithAdaptiveSupport) {
  ProtocolConfig config = TestConfig(16, 8, 1.0);
  config.adapt_support_per_level = true;
  Server server = Server::ForProtocol(config).ValueOrDie();
  // At h=4 (L=1) support shrinks to 1 -> larger c_gap -> smaller scale.
  EXPECT_LT(server.ScaleAtLevel(4), server.ScaleAtLevel(0));
}

TEST(ServerTest, WithScalesValidatesShape) {
  EXPECT_FALSE(Server::Create({6, {1.0, 1.0}}).ok());
  EXPECT_FALSE(Server::Create({8, {1.0, 1.0}}).ok());  // needs 4 scales
  EXPECT_TRUE(Server::Create({8, {1.0, 1.0, 1.0, 1.0}}).ok());
}

TEST(ServerTest, RegisterRejectsDuplicatesAndBadLevels) {
  Server server = UnitServer(8);
  EXPECT_TRUE(server.RegisterClient(1, 0).ok());
  EXPECT_EQ(server.RegisterClient(1, 1).code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(server.RegisterClient(2, -1).ok());
  EXPECT_FALSE(server.RegisterClient(2, 4).ok());
  EXPECT_EQ(server.num_clients(), 1);
  EXPECT_EQ(server.ClientCountAtLevel(0), 1);
}

TEST(ServerTest, SubmitValidation) {
  Server server = UnitServer(8);
  ASSERT_TRUE(server.RegisterClient(1, 1).ok());
  EXPECT_EQ(server.SubmitReport(99, 2, 1).code(), StatusCode::kNotFound);
  EXPECT_FALSE(server.SubmitReport(1, 2, 0).ok());   // bad report value
  EXPECT_FALSE(server.SubmitReport(1, 3, 1).ok());   // 2 does not divide 3
  EXPECT_FALSE(server.SubmitReport(1, 0, 1).ok());   // out of range
  EXPECT_FALSE(server.SubmitReport(1, 10, 1).ok());  // out of range
  EXPECT_TRUE(server.SubmitReport(1, 2, 1).ok());
  // Duplicate / out-of-order for the same client.
  EXPECT_FALSE(server.SubmitReport(1, 2, 1).ok());
  EXPECT_TRUE(server.SubmitReport(1, 4, -1).ok());
  EXPECT_FALSE(server.SubmitReport(1, 2, 1).ok());
}

TEST(ServerTest, EstimateUsesDyadicDecomposition) {
  // Unit scales: estimate at t is the plain sum of reports over C(t).
  Server server = UnitServer(8);
  ASSERT_TRUE(server.RegisterClient(1, 0).ok());  // reports every period
  ASSERT_TRUE(server.RegisterClient(2, 1).ok());  // reports at 2,4,6,8
  ASSERT_TRUE(server.SubmitReport(1, 1, 1).ok());
  ASSERT_TRUE(server.SubmitReport(1, 2, 1).ok());
  ASSERT_TRUE(server.SubmitReport(1, 3, -1).ok());
  ASSERT_TRUE(server.SubmitReport(2, 2, 1).ok());
  // C(1) = {I(0,1)} -> 1.
  EXPECT_DOUBLE_EQ(server.EstimateAt(1).ValueOrDie(), 1.0);
  // C(2) = {I(1,1)} -> only the level-1 client's report at t=2 -> 1.
  EXPECT_DOUBLE_EQ(server.EstimateAt(2).ValueOrDie(), 1.0);
  // C(3) = {I(1,1), I(0,3)} -> 1 + (-1) = 0.
  EXPECT_DOUBLE_EQ(server.EstimateAt(3).ValueOrDie(), 0.0);
}

TEST(ServerTest, EstimateAtValidatesRange) {
  Server server = UnitServer(4);
  EXPECT_FALSE(server.EstimateAt(0).ok());
  EXPECT_FALSE(server.EstimateAt(5).ok());
  EXPECT_TRUE(server.EstimateAt(4).ok());
}

TEST(ServerTest, EstimateAllMatchesPointQueries) {
  Server server = UnitServer(8);
  ASSERT_TRUE(server.RegisterClient(1, 0).ok());
  for (int64_t t = 1; t <= 8; ++t) {
    ASSERT_TRUE(server.SubmitReport(1, t, (t % 2 == 0) ? 1 : -1).ok());
  }
  const std::vector<double> all = server.EstimateAll().ValueOrDie();
  ASSERT_EQ(all.size(), 8u);
  for (int64_t t = 1; t <= 8; ++t) {
    EXPECT_DOUBLE_EQ(all[static_cast<size_t>(t - 1)],
                     server.EstimateAt(t).ValueOrDie());
  }
}

TEST(ServerTest, MergeCombinesSumsAndClients) {
  Server a = UnitServer(4);
  Server b = UnitServer(4);
  ASSERT_TRUE(a.RegisterClient(1, 0).ok());
  ASSERT_TRUE(b.RegisterClient(2, 0).ok());
  ASSERT_TRUE(a.SubmitReport(1, 1, 1).ok());
  ASSERT_TRUE(b.SubmitReport(2, 1, 1).ok());
  const Server merged = MergeShards(std::move(a), std::move(b)).ValueOrDie();
  EXPECT_EQ(merged.num_clients(), 2);
  EXPECT_DOUBLE_EQ(merged.EstimateAt(1).ValueOrDie(), 2.0);
}

TEST(ServerTest, MergeRejectsDifferentShapes) {
  Server a = UnitServer(4);
  EXPECT_FALSE(a.MergeAggregatesOnly(UnitServer(8)).ok());
  const auto scaled = [] {
    return Server::Create({4, {2.0, 2.0, 2.0}}).ValueOrDie();
  };
  EXPECT_FALSE(a.MergeAggregatesOnly(scaled()).ok());
  EXPECT_FALSE(MergeShards(UnitServer(4), UnitServer(8)).ok());
  EXPECT_FALSE(MergeShards(UnitServer(4), scaled()).ok());
}

TEST(ServerTest, MergeAggregatesOnlyMatchesFullMergeEstimates) {
  const auto make_shard = [] {
    Server shard = UnitServer(8);
    EXPECT_TRUE(shard.RegisterClient(1, 0).ok());
    EXPECT_TRUE(shard.RegisterClient(2, 1).ok());
    for (int64_t t = 1; t <= 8; ++t) {
      EXPECT_TRUE(shard.SubmitReport(1, t, (t % 2 == 0) ? 1 : -1).ok());
    }
    EXPECT_TRUE(shard.SubmitReport(2, 4, 1).ok());
    return shard;
  };
  // The full merge carries the per-client state as well.
  const Server full = MergeShards(UnitServer(8), make_shard()).ValueOrDie();
  Server aggregates = UnitServer(8);
  ASSERT_TRUE(aggregates.MergeAggregatesOnly(make_shard()).ok());
  // Identical across the whole query surface, including the level counts
  // that feed consistency weighting — only the per-client registration
  // bookkeeping is skipped.
  EXPECT_EQ(aggregates.EstimateAll().ValueOrDie(),
            full.EstimateAll().ValueOrDie());
  EXPECT_EQ(aggregates.EstimateAllConsistent().ValueOrDie(),
            full.EstimateAllConsistent().ValueOrDie());
  EXPECT_EQ(aggregates.ClientCountAtLevel(0), full.ClientCountAtLevel(0));
  EXPECT_EQ(aggregates.ClientCountAtLevel(1), full.ClientCountAtLevel(1));
  // And it enforces the same compatibility rules.
  Server different = Server::Create({8, {2.0, 1.0, 1.0, 1.0}}).ValueOrDie();
  EXPECT_FALSE(aggregates.MergeAggregatesOnly(different).ok());
}

TEST(ServerTest, MergeRejectsMismatchedLevelScales) {
  // Same shape, different debiasing scales: merging would silently mix two
  // different estimators, so it must fail loudly with InvalidArgument.
  Server a = Server::Create({4, {1.0, 1.0, 1.0}}).ValueOrDie();
  Server b = Server::Create({4, {1.0, 2.0, 1.0}}).ValueOrDie();
  ASSERT_TRUE(b.RegisterClient(1, 0).ok());
  ASSERT_TRUE(b.SubmitReport(1, 1, 1).ok());
  const Status status = a.MergeAggregatesOnly(b);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("level scales"), std::string::npos);
  // The refused merge must not have absorbed anything.
  EXPECT_EQ(a.ClientCountAtLevel(0), 0);
  EXPECT_DOUBLE_EQ(a.EstimateAt(1).ValueOrDie(), 0.0);
  // Merging the client state refuses the same way.
  const Status merged = MergeShards(std::move(a), std::move(b)).status();
  EXPECT_EQ(merged.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(merged.message().find("level scales"), std::string::npos);
}

// One ServerShape field changed at a time. Every path on which two shapes
// meet — an aggregate merge, a client-state merge (resharding) and a full
// checkpoint restore — must refuse the pair with kInvalidArgument, name the
// field, and leave its target unchanged.
struct ShapeFieldCase {
  const char* field;  // as ServerShape::FirstDifference names it
  void (*mutate)(ServerShape* shape);
};

ServerShape BaseShape() {
  return {8, {1.0, 2.0, 3.0, 4.0}, DedupPolicy::kIdempotent};
}

// One level-0 client `id` that reported +1 at time 1.
Server OneClientServer(const ServerShape& shape, int64_t id) {
  Server server = Server::Create(shape).ValueOrDie();
  EXPECT_TRUE(server.RegisterClient(id, 0).ok());
  EXPECT_TRUE(server.SubmitReport(id, 1, 1).ok());
  return server;
}

// The same population behind a two-shard aggregator.
ShardedAggregator OneClientAggregator(const ServerShape& shape, int64_t id) {
  ShardedAggregator aggregator =
      ShardedAggregator::Create(shape, 2).ValueOrDie();
  const std::vector<RegistrationMessage> registrations = {{id, 0}};
  const std::vector<ReportMessage> reports = {{id, 1, 1}};
  EXPECT_TRUE(aggregator.IngestRegistrations(registrations).ok());
  EXPECT_TRUE(aggregator.IngestReports(reports).ok());
  return aggregator;
}

class ServerShapeFieldTest : public ::testing::TestWithParam<ShapeFieldCase> {
 protected:
  void ExpectRefusal(const Status& status) const {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find(GetParam().field), std::string::npos)
        << status.message();
  }
};

TEST_P(ServerShapeFieldTest, EveryMeetingPathRefusesTheMismatch) {
  ServerShape other = BaseShape();
  GetParam().mutate(&other);
  ASSERT_TRUE(other.Validate().ok());
  ASSERT_STREQ(BaseShape().FirstDifference(other), GetParam().field);
  ASSERT_EQ(BaseShape().FirstDifference(BaseShape()), nullptr);

  Server target = OneClientServer(BaseShape(), 1);
  const std::string target_state = EncodeServerState(target);
  ExpectRefusal(target.MergeAggregatesOnly(OneClientServer(other, 2)));
  EXPECT_EQ(EncodeServerState(target), target_state);

  ExpectRefusal(MergeShards(OneClientServer(BaseShape(), 1),
                            OneClientServer(other, 2))
                    .status());

  ShardedAggregator aggregator = OneClientAggregator(BaseShape(), 1);
  const std::string checkpoint = aggregator.Checkpoint().ValueOrDie();
  const std::vector<double> estimates = aggregator.EstimateAll().ValueOrDie();
  ExpectRefusal(aggregator.Restore(
      OneClientAggregator(other, 2).Checkpoint().ValueOrDie()));
  EXPECT_EQ(aggregator.Checkpoint().ValueOrDie(), checkpoint);
  EXPECT_EQ(aggregator.EstimateAll().ValueOrDie(), estimates);
}

INSTANTIATE_TEST_SUITE_P(
    Fields, ServerShapeFieldTest,
    ::testing::Values(
        ShapeFieldCase{"num_periods",
                       [](ServerShape* shape) {
                         // A longer horizon needs one more dyadic order.
                         shape->num_periods = 16;
                         shape->level_scales.push_back(5.0);
                       }},
        ShapeFieldCase{"level scales",
                       [](ServerShape* shape) {
                         shape->level_scales[3] = 5.0;
                       }},
        ShapeFieldCase{"dedup policy",
                       [](ServerShape* shape) {
                         shape->dedup = DedupPolicy::kStrict;
                       }},
        ShapeFieldCase{"dedup window",
                       [](ServerShape* shape) { shape->window = {4}; }},
        ShapeFieldCase{"store config",
                       [](ServerShape* shape) {
                         shape->store = StoreConfig::Sketch(2, 8, 7);
                       }},
        ShapeFieldCase{"estimator spec",
                       [](ServerShape* shape) {
                         shape->estimator = {EstimatorSpec::Mode::kDirect,
                                             0.25};
                       }}),
    [](const ::testing::TestParamInfo<ShapeFieldCase>& info) {
      std::string name = info.param.field;
      std::replace(name.begin(), name.end(), ' ', '_');
      return name;
    });

TEST(ServerTest, MergeRejectsDuplicateClientIds) {
  Server a = UnitServer(4);
  Server b = UnitServer(4);
  ASSERT_TRUE(a.RegisterClient(1, 0).ok());
  ASSERT_TRUE(b.RegisterClient(1, 0).ok());
  EXPECT_FALSE(MergeShards(std::move(a), std::move(b)).ok());
}

TEST(ServerTest, WindowDeltaValidatesRange) {
  Server server = UnitServer(8);
  EXPECT_FALSE(server.EstimateWindowDelta(0, 4).ok());
  EXPECT_FALSE(server.EstimateWindowDelta(5, 4).ok());
  EXPECT_FALSE(server.EstimateWindowDelta(1, 9).ok());
  EXPECT_TRUE(server.EstimateWindowDelta(1, 8).ok());
  EXPECT_TRUE(server.EstimateWindowDelta(3, 3).ok());
}

TEST(ServerTest, WindowDeltaSumsDecompositionTerms) {
  // Unit scales: the window estimate is the plain sum of raw report sums
  // over DecomposeRange(l, r). [2..3] = {I(0,2), I(0,3)}.
  Server server = UnitServer(8);
  ASSERT_TRUE(server.RegisterClient(1, 0).ok());
  ASSERT_TRUE(server.SubmitReport(1, 2, 1).ok());
  ASSERT_TRUE(server.SubmitReport(1, 3, 1).ok());
  ASSERT_TRUE(server.SubmitReport(1, 4, -1).ok());
  EXPECT_DOUBLE_EQ(server.EstimateWindowDelta(2, 3).ValueOrDie(), 2.0);
  // [2..4] = {I(0,2), I(0,3), I(0,4)} -> 1 + 1 - 1.
  EXPECT_DOUBLE_EQ(server.EstimateWindowDelta(2, 4).ValueOrDie(), 1.0);
  // An aligned window collapses to one higher-order node, which only a
  // level-1 client would feed; none did, so the estimate is 0.
  EXPECT_DOUBLE_EQ(server.EstimateWindowDelta(3, 4).ValueOrDie(), 0.0);
}

TEST(ServerTest, WindowDeltaOfFullDomainEqualsPrefixEstimate) {
  // DecomposeRange(1, d) == DecomposePrefix(d), so the two query paths
  // agree exactly.
  Server server = UnitServer(8);
  ASSERT_TRUE(server.RegisterClient(1, 3).ok());
  ASSERT_TRUE(server.SubmitReport(1, 8, 1).ok());
  EXPECT_DOUBLE_EQ(server.EstimateWindowDelta(1, 8).ValueOrDie(),
                   server.EstimateAt(8).ValueOrDie());
}

TEST(ServerTest, UnbiasedUnderFakeUniformReports) {
  // With scale (1+log d) and truthful "randomizer" c_gap = 1 (reports equal
  // true partial sums in sign form), a population whose partial sums are
  // all +1 yields E[estimate] = true count when levels are uniform. Here we
  // check the deterministic part: a level-h client's report at time t=2^h
  // contributes scale * report to the top-level estimate.
  const auto orders = 3;  // d = 4
  Server server =
      Server::Create({4, std::vector<double>(orders, 3.0)}).ValueOrDie();
  ASSERT_TRUE(server.RegisterClient(7, 2).ok());
  ASSERT_TRUE(server.SubmitReport(7, 4, 1).ok());
  // C(4) = {I(2,1)}: estimate = 3 * 1.
  EXPECT_DOUBLE_EQ(server.EstimateAt(4).ValueOrDie(), 3.0);
  // C(2) = {I(1,1)}: untouched by the level-2 report.
  EXPECT_DOUBLE_EQ(server.EstimateAt(2).ValueOrDie(), 0.0);
}

TEST(ServerStoreTest, InvalidSketchParamsFailAtConstruction) {
  // Store problems surface from Create/ForProtocol, before any state
  // exists — never from a later decode or submit.
  const std::vector<double> scales(4, 1.0);
  EXPECT_EQ(Server::Create({8, scales, DedupPolicy::kStrict, {},
                            StoreConfig::Sketch(0, 64, 7)})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Server::Create({8, scales, DedupPolicy::kStrict, {},
                            StoreConfig::Sketch(3, 48, 7)})
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // width not a power of two
  EXPECT_EQ(Server::Create({8, scales, DedupPolicy::kStrict, {},
                            StoreConfig::Sketch(65, 64, 7)})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(Server::Create({8, scales, DedupPolicy::kStrict, {},
                              StoreConfig::Sketch(3, 64, 7)})
                  .ok());

  ProtocolConfig config = TestConfig(8, 2, 1.0);
  config.store = StoreConfig::Sketch(3, 6, 7);  // width below kMinWidth
  EXPECT_EQ(Server::ForProtocol(config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ServerStoreTest, StoreConfigIsCanonicalAndDefaultsDense) {
  Server dense = UnitServer(8);
  EXPECT_EQ(dense.shape().store, StoreConfig::Dense());
  const StoreConfig sketch = StoreConfig::Sketch(3, 64, 7);
  Server sketched =
      Server::Create(
          {8, std::vector<double>(4, 1.0), DedupPolicy::kStrict, {}, sketch})
          .ValueOrDie();
  EXPECT_EQ(sketched.shape().store, sketch);
}

TEST(ServerStoreTest, MergeRejectsMismatchedStoreConfigs) {
  const std::vector<double> scales(4, 1.0);
  Server dense = Server::Create({8, scales}).ValueOrDie();
  Server sketched =
      Server::Create({8, scales, DedupPolicy::kStrict, {},
                      StoreConfig::Sketch(3, 64, 7)})
          .ValueOrDie();
  Server other_seed =
      Server::Create({8, scales, DedupPolicy::kStrict, {},
                      StoreConfig::Sketch(3, 64, 8)})
          .ValueOrDie();
  EXPECT_FALSE(dense.MergeAggregatesOnly(sketched).ok());
  EXPECT_FALSE(sketched.MergeAggregatesOnly(other_seed).ok());
  EXPECT_FALSE(sketched.MergeAggregatesOnly(dense).ok());
  EXPECT_FALSE(MergeShards(std::move(dense), std::move(sketched)).ok());
}

TEST(ServerStoreTest, SketchServerEstimatesExactlyInTheWideRegime) {
  // W >= d: no level sketches, so the estimate pipeline is identical to
  // the dense server report-for-report.
  const std::vector<double> scales(4, 1.0);
  Server dense = Server::Create({8, scales}).ValueOrDie();
  Server sketched =
      Server::Create({8, scales, DedupPolicy::kStrict, {},
                      StoreConfig::Sketch(2, 8, 7)})
          .ValueOrDie();
  for (Server* server : {&dense, &sketched}) {
    ASSERT_TRUE(server->RegisterClient(1, 0).ok());
    ASSERT_TRUE(server->RegisterClient(2, 1).ok());
    for (int64_t t = 1; t <= 8; ++t) {
      ASSERT_TRUE(server->SubmitReport(1, t, t % 2 == 0 ? 1 : -1).ok());
      if (t % 2 == 0) {
        ASSERT_TRUE(server->SubmitReport(2, t, 1).ok());
      }
    }
  }
  for (int64_t t = 1; t <= 8; ++t) {
    EXPECT_DOUBLE_EQ(sketched.EstimateAt(t).ValueOrDie(),
                     dense.EstimateAt(t).ValueOrDie())
        << "t=" << t;
  }
}

}  // namespace
}  // namespace futurerand::core
