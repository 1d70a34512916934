#include "futurerand/core/client.h"

#include <optional>
#include <vector>

#include <gtest/gtest.h>

namespace futurerand::core {
namespace {

ProtocolConfig TestConfig(int64_t d = 16, int64_t k = 4, double eps = 1.0) {
  ProtocolConfig config;
  config.num_periods = d;
  config.max_changes = k;
  config.epsilon = eps;
  return config;
}

TEST(ClientTest, CreateRejectsInvalidConfig) {
  ProtocolConfig config = TestConfig();
  config.epsilon = 0.0;
  EXPECT_FALSE(Client::Create(config, 1).ok());
}

TEST(ClientTest, LevelInRange) {
  const ProtocolConfig config = TestConfig(16);
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Client client = Client::Create(config, seed).ValueOrDie();
    EXPECT_GE(client.level(), 0);
    EXPECT_LE(client.level(), 4);  // log2(16)
  }
}

TEST(ClientTest, LevelsAreRoughlyUniform) {
  const ProtocolConfig config = TestConfig(8);  // 4 levels
  std::vector<int> counts(4, 0);
  constexpr int kClients = 20000;
  for (uint64_t seed = 0; seed < kClients; ++seed) {
    ++counts[static_cast<size_t>(
        Client::Create(config, seed).ValueOrDie().level())];
  }
  for (int h = 0; h < 4; ++h) {
    EXPECT_NEAR(static_cast<double>(counts[static_cast<size_t>(h)]) /
                    kClients,
                0.25, 0.02)
        << "level " << h;
  }
}

TEST(ClientTest, ReportsExactlyAtMultiplesOfTwoToLevel) {
  const ProtocolConfig config = TestConfig(16);
  Client client = Client::Create(config, 7).ValueOrDie();
  const int64_t stride = int64_t{1} << client.level();
  for (int64_t t = 1; t <= 16; ++t) {
    const auto report = client.ObserveState(0).ValueOrDie();
    EXPECT_EQ(report.has_value(), t % stride == 0) << "t=" << t;
  }
  EXPECT_EQ(client.reports_sent(), 16 / stride);
}

TEST(ClientTest, RejectsInvalidState) {
  const ProtocolConfig config = TestConfig();
  Client client = Client::Create(config, 1).ValueOrDie();
  EXPECT_FALSE(client.ObserveState(2).ok());
  EXPECT_FALSE(client.ObserveState(-1).ok());
}

TEST(ClientTest, RejectsMoreThanDPeriods) {
  const ProtocolConfig config = TestConfig(4, 2);
  Client client = Client::Create(config, 1).ValueOrDie();
  for (int64_t t = 1; t <= 4; ++t) {
    ASSERT_TRUE(client.ObserveState(0).ok());
  }
  EXPECT_FALSE(client.ObserveState(0).ok());
}

TEST(ClientTest, CountsChangesWithStZeroConvention) {
  const ProtocolConfig config = TestConfig(8, 8);
  Client client = Client::Create(config, 3).ValueOrDie();
  // States: 1,1,0,1,0,0,0,1 -> changes at t=1,3,4,5,8 (st_0 = 0).
  for (int8_t state : {1, 1, 0, 1, 0, 0, 0, 1}) {
    ASSERT_TRUE(client.ObserveState(state).ok());
  }
  EXPECT_EQ(client.changes_seen(), 5);
  EXPECT_EQ(client.current_time(), 8);
}

TEST(ClientTest, NoOverflowForContractAbidingUser) {
  const ProtocolConfig config = TestConfig(16, 3);
  Client client = Client::Create(config, 13).ValueOrDie();
  // Exactly 3 changes: t=2 (0->1), t=9 (1->0), t=12 (0->1).
  for (int64_t t = 1; t <= 16; ++t) {
    const int8_t state = (t >= 2 && t <= 8) || t >= 12 ? 1 : 0;
    ASSERT_TRUE(client.ObserveState(state).ok());
  }
  EXPECT_EQ(client.changes_seen(), 3);
  EXPECT_EQ(client.support_overflow_count(), 0);
}

TEST(ClientTest, ContractViolationClampsInsteadOfBreakingPrivacy) {
  const ProtocolConfig config = TestConfig(16, 1);
  // Find a level-0 client so every change lands in its own interval.
  for (uint64_t seed = 0;; ++seed) {
    Client client = Client::Create(config, seed).ValueOrDie();
    if (client.level() != 0) {
      continue;
    }
    // Flip every period: 16 changes against a budget of 1.
    for (int64_t t = 1; t <= 16; ++t) {
      ASSERT_TRUE(client.ObserveState(static_cast<int8_t>(t % 2)).ok());
    }
    EXPECT_EQ(client.changes_seen(), 16);
    EXPECT_GT(client.support_overflow_count(), 0);
    break;
  }
}

TEST(ClientTest, CGapMatchesRandomizer) {
  const ProtocolConfig config = TestConfig();
  Client client = Client::Create(config, 17).ValueOrDie();
  EXPECT_DOUBLE_EQ(client.c_gap(), client.randomizer().params().c_gap);
}

TEST(ClientTest, DomainSizeOneClientReportsOnce) {
  ProtocolConfig config = TestConfig(1, 1);
  Client client = Client::Create(config, 1).ValueOrDie();
  EXPECT_EQ(client.level(), 0);
  const auto report = client.ObserveState(1).ValueOrDie();
  EXPECT_TRUE(report.has_value());
}

}  // namespace
}  // namespace futurerand::core
