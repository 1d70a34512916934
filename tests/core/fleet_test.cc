// Batch/serial equivalence: a ClientFleet must be bit-identical to a loop
// of per-client Client::ObserveState calls with the same per-client seeds,
// for every randomizer kind, pooled and single-threaded. This is the
// contract that lets the simulation runner and the throughput bench use the
// batch path without changing any experiment's numbers.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/common/random.h"
#include "futurerand/common/threadpool.h"
#include "futurerand/core/client.h"
#include "futurerand/core/fleet.h"
#include "futurerand/core/wire.h"
#include "futurerand/randomizer/randomizer.h"
#include "futurerand/sim/workload.h"

namespace futurerand::core {
namespace {

ProtocolConfig TestConfig(rand::RandomizerKind kind, int64_t d = 32,
                          int64_t k = 3) {
  ProtocolConfig config;
  config.num_periods = d;
  config.max_changes = k;
  config.epsilon = 1.0;
  config.randomizer = kind;
  return config;
}

// The state of user u at time t: a deterministic pattern with few flips
// (each user turns on at period (u % d) + 1, off again d/2 later).
int8_t PatternState(int64_t u, int64_t t, int64_t d) {
  const int64_t on = (u % d) + 1;
  const int64_t off = on + d / 2;
  return (t >= on && t < off) ? int8_t{1} : int8_t{0};
}

// Per-client reference seeds, matching ClientFleet's derivation.
uint64_t ClientSeed(uint64_t base_seed, int64_t client_id) {
  return Rng(base_seed).Fork(static_cast<uint64_t>(client_id)).NextUint64();
}

// One tick through the fleet's single entry point; fails the test on error.
ReportBatch Tick(ClientFleet& fleet, std::span<const int8_t> states) {
  ReportBatch batch;
  EXPECT_TRUE(fleet.AdvanceTick(states, &batch).ok());
  return batch;
}

// Fleet sizes for the twin and validation sweeps: 1 and 3 are below any
// vector width the compiler may pick for the tick's column loops, 63/64/65
// bracket a multiple of every such width, and 1000 runs steady state plus
// a tail.
constexpr int64_t kSweepSizes[] = {1, 3, 63, 64, 65, 1000};

class FleetKindTest : public ::testing::TestWithParam<rand::RandomizerKind> {
};

// Every user flips every period (st[t] = t mod 2, from st[0] = 0): each
// level-0 client's partial sum is non-zero at every tick, so at k = 1 the
// dyadic randomizers clamp every report after the first one.
int8_t FlipEveryPeriodState(int64_t /*u*/, int64_t t, int64_t /*d*/) {
  return static_cast<int8_t>(t % 2);
}

TEST_P(FleetKindTest, MatchesPerClientLoopBitExactly) {
  struct Input {
    const char* name;
    int64_t k;
    int8_t (*state)(int64_t u, int64_t t, int64_t d);
  };
  // The pattern stays inside the change budget; the flip-every-period
  // input overruns it, so the fleet's clamp path is twinned too.
  for (const Input& input : {Input{"within budget", 3, PatternState},
                             Input{"over budget", 1, FlipEveryPeriodState}}) {
    for (const int64_t n : kSweepSizes) {
      SCOPED_TRACE(std::string(input.name) + " n=" + std::to_string(n));
      const ProtocolConfig config = TestConfig(GetParam(), 32, input.k);
      const uint64_t base_seed = 1234;

      ClientFleet fleet =
          ClientFleet::Create(config, n, base_seed).ValueOrDie();
      std::vector<Client> clients;
      for (int64_t u = 0; u < n; ++u) {
        clients.push_back(
            Client::Create(config, ClientSeed(base_seed, u)).ValueOrDie());
      }

      ASSERT_EQ(fleet.size(), n);
      const std::vector<RegistrationMessage> registrations =
          fleet.registrations();
      ASSERT_EQ(static_cast<int64_t>(registrations.size()), n);
      for (int64_t u = 0; u < n; ++u) {
        EXPECT_EQ(fleet.level(u), clients[static_cast<size_t>(u)].level())
            << u;
        EXPECT_EQ(registrations[static_cast<size_t>(u)],
                  (RegistrationMessage{u, clients[static_cast<size_t>(u)]
                                              .level()}));
      }

      std::vector<int8_t> states(static_cast<size_t>(n));
      ReportBatch batch;
      int64_t total_reports = 0;
      for (int64_t t = 1; t <= config.num_periods; ++t) {
        for (int64_t u = 0; u < n; ++u) {
          states[static_cast<size_t>(u)] =
              input.state(u, t, config.num_periods);
        }
        ASSERT_TRUE(fleet.AdvanceTick(states, &batch).ok());

        ReportBatch expected;
        for (int64_t u = 0; u < n; ++u) {
          const std::optional<int8_t> report =
              clients[static_cast<size_t>(u)]
                  .ObserveState(states[static_cast<size_t>(u)])
                  .ValueOrDie();
          if (report.has_value()) {
            expected.push_back(ReportMessage{u, t, *report});
          }
        }
        EXPECT_EQ(batch, expected) << "tick " << t;
        total_reports += static_cast<int64_t>(batch.size());
      }
      EXPECT_EQ(fleet.current_time(), config.num_periods);
      EXPECT_EQ(fleet.reports_emitted(), total_reports);

      int64_t expected_changes = 0;
      int64_t expected_overflows = 0;
      for (const Client& client : clients) {
        expected_changes += client.changes_seen();
        expected_overflows += client.support_overflow_count();
      }
      EXPECT_EQ(fleet.changes_seen(), expected_changes);
      EXPECT_EQ(fleet.support_overflow_count(), expected_overflows);
      // Only level-0 clients see a non-zero partial sum under this input
      // (a longer interval spans an even number of flips), so the clamp
      // path is reached iff the fleet drew one.
      bool has_level_zero = false;
      for (int64_t u = 0; u < n; ++u) {
        has_level_zero = has_level_zero || fleet.level(u) == 0;
      }
      if (input.state == FlipEveryPeriodState &&
          !rand::IsLongitudinalKind(GetParam()) && has_level_zero) {
        EXPECT_GT(fleet.support_overflow_count(), 0);
      }
    }
  }
}

TEST_P(FleetKindTest, PooledMatchesSingleThreaded) {
  const ProtocolConfig config = TestConfig(GetParam());
  ThreadPool pool(4);
  for (const int64_t n : kSweepSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    ClientFleet pooled =
        ClientFleet::Create(config, n, 77, &pool).ValueOrDie();
    ClientFleet serial = ClientFleet::Create(config, n, 77).ValueOrDie();
    EXPECT_EQ(pooled.registrations(), serial.registrations());

    std::vector<int8_t> states(static_cast<size_t>(n));
    for (int64_t t = 1; t <= config.num_periods; ++t) {
      for (int64_t u = 0; u < n; ++u) {
        states[static_cast<size_t>(u)] =
            PatternState(u, t, config.num_periods);
      }
      EXPECT_EQ(Tick(pooled, states), Tick(serial, states)) << "tick " << t;
    }
    EXPECT_EQ(pooled.changes_seen(), serial.changes_seen());
  }
}

// Cross-commit golden digests. Every other twin in this file compares two
// paths of the same build, so a drift shared by the fleet and core::Client
// would pass them. These FNV-1a digests were recorded from the fleet as it
// stood before randomizer parameters became shared per level (when every
// client still built its own spec and noise sampler); any change to the
// seed derivation, the parameterization or the RNG consumption order
// breaks them. The over-budget rows (every user flips every period at
// k = 1, so the dyadic kinds take their clamp path) were recorded from the
// fleet as it stood before the randomizer kinds became one concrete class.
struct GoldenDigest {
  rand::RandomizerKind kind;
  bool over_budget;  // FlipEveryPeriodState at k = 1, not the workload
  uint64_t reports;  // Fnv1a64 of every tick's EncodeReportBatch, in order
  uint64_t state;    // Fnv1a64 of the final EncodeLongitudinalState blob
};

constexpr GoldenDigest kGoldenDigests[] = {
    {rand::RandomizerKind::kFutureRand, false, 0x2ffeb2885ac2da41, 0},
    {rand::RandomizerKind::kIndependent, false, 0xcc285ca31e48a775, 0},
    {rand::RandomizerKind::kBun, false, 0x8bd82641ed7f7e5a, 0},
    // At k = 2 Independent's exact gap is the larger, so kAdaptive's
    // reports are Independent's.
    {rand::RandomizerKind::kAdaptive, false, 0xcc285ca31e48a775, 0},
    {rand::RandomizerKind::kLGrr, false, 0x6d1542b212df43cd,
     0x43abb653da5e5331},
    {rand::RandomizerKind::kLOlh, false, 0xd8ad10e5d6eec36e,
     0x243816b6d8814f74},
    {rand::RandomizerKind::kLoloha, false, 0xbd4ad64e91032017,
     0x8a7c357dbe1b26c7},
    {rand::RandomizerKind::kFutureRand, true, 0xa4d8b15089f955be, 0},
    {rand::RandomizerKind::kIndependent, true, 0x1769d485c0f51ac4, 0},
    {rand::RandomizerKind::kBun, true, 0x66b9a33dc763aae7, 0},
    {rand::RandomizerKind::kAdaptive, true, 0x1769d485c0f51ac4, 0},
    {rand::RandomizerKind::kLGrr, true, 0xb1a8a99792269123,
     0x4c1cc1be26270bd0},
    {rand::RandomizerKind::kLOlh, true, 0x545d91e95a1a55cb,
     0x2000e1916f32ad04},
    {rand::RandomizerKind::kLoloha, true, 0xc788e86bdd001144,
     0x9152e1adad44eb9e},
};

TEST_P(FleetKindTest, ReportBytesMatchRecordedGoldenDigests) {
  const rand::RandomizerKind kind = GetParam();
  const int64_t n = 257;
  for (const bool over_budget : {false, true}) {
    SCOPED_TRACE(over_budget ? "over budget" : "workload");
    const ProtocolConfig config = TestConfig(kind, 16, over_budget ? 1 : 2);
    sim::WorkloadConfig workload_config;
    workload_config.kind = sim::WorkloadKind::kUniformChanges;
    workload_config.num_users = n;
    workload_config.num_periods = config.num_periods;
    workload_config.max_changes = config.max_changes;
    const sim::Workload workload =
        sim::Workload::Generate(workload_config, 2024).ValueOrDie();

    ClientFleet fleet = ClientFleet::Create(config, n, 99).ValueOrDie();
    std::vector<int8_t> states(static_cast<size_t>(n));
    ReportBatch batch;
    std::string report_bytes;
    for (int64_t t = 1; t <= config.num_periods; ++t) {
      for (int64_t u = 0; u < n; ++u) {
        states[static_cast<size_t>(u)] =
            over_budget ? FlipEveryPeriodState(u, t, config.num_periods)
                        : workload.trace(u).StateAt(t);
      }
      ASSERT_TRUE(fleet.AdvanceTick(states, &batch).ok());
      report_bytes += EncodeReportBatch(batch).ValueOrDie();
    }

    const auto* golden = std::find_if(
        std::begin(kGoldenDigests), std::end(kGoldenDigests),
        [&](const GoldenDigest& entry) {
          return entry.kind == kind && entry.over_budget == over_budget;
        });
    ASSERT_NE(golden, std::end(kGoldenDigests));
    EXPECT_EQ(wire_internal::Fnv1a64(report_bytes), golden->reports)
        << std::hex << wire_internal::Fnv1a64(report_bytes);
    if (rand::IsLongitudinalKind(kind)) {
      const std::string state = fleet.EncodeLongitudinalState().ValueOrDie();
      EXPECT_EQ(wire_internal::Fnv1a64(state), golden->state)
          << std::hex << wire_internal::Fnv1a64(state);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllRandomizers, FleetKindTest,
                         ::testing::ValuesIn(rand::AllRandomizerKinds()),
                         [](const ::testing::TestParamInfo<
                             rand::RandomizerKind>& info) {
                           return rand::RandomizerKindToString(info.param);
                         });

TEST(FleetTest, FirstClientIdOffsetsIdsButNotRandomness) {
  const ProtocolConfig config =
      TestConfig(rand::RandomizerKind::kIndependent, 16, 2);
  // Ids shift the Fork stream, so fleet [100..104] must equal clients
  // seeded by their global ids — the property that makes fleets of
  // different spans composable into one population.
  const int64_t n = 5;
  ClientFleet fleet =
      ClientFleet::Create(config, n, 9, nullptr, /*first_client_id=*/100)
          .ValueOrDie();
  const std::vector<RegistrationMessage> registrations = fleet.registrations();
  for (int64_t u = 0; u < n; ++u) {
    const Client client =
        Client::Create(config, ClientSeed(9, 100 + u)).ValueOrDie();
    EXPECT_EQ(registrations[static_cast<size_t>(u)],
              (RegistrationMessage{100 + u, client.level()}));
  }
}

TEST(FleetTest, ValidatesInputsBeforeMutatingAnything) {
  const ProtocolConfig config =
      TestConfig(rand::RandomizerKind::kFutureRand, 16, 2);
  ClientFleet fleet = ClientFleet::Create(config, 4, 3).ValueOrDie();
  ClientFleet untouched = ClientFleet::Create(config, 4, 3).ValueOrDie();
  ReportBatch batch;

  // Wrong span size.
  std::vector<int8_t> three(3, 0);
  EXPECT_FALSE(fleet.AdvanceTick(three, &batch).ok());
  // A bad state in the middle of the span.
  std::vector<int8_t> bad = {0, 1, 2, 0};
  EXPECT_FALSE(fleet.AdvanceTick(bad, &batch).ok());
  EXPECT_EQ(fleet.current_time(), 0);

  // After those rejected calls the fleet is still bit-identical to one
  // that never saw them.
  std::vector<int8_t> good = {1, 0, 1, 0};
  for (int64_t t = 1; t <= config.num_periods; ++t) {
    EXPECT_EQ(Tick(fleet, good), Tick(untouched, good));
  }
  // And the clock is exhausted.
  EXPECT_FALSE(fleet.AdvanceTick(good, &batch).ok());

  // Poisoned-element sweep: one bad byte at the first, middle or last
  // position of an otherwise valid tick, across sizes on both sides of
  // every vector width. Each rejected call must leave its fleet equal to
  // an untouched twin for the rest of the horizon.
  for (const int64_t n : kSweepSizes) {
    for (const int64_t position : {int64_t{0}, n / 2, n - 1}) {
      for (const int8_t poison : {int8_t{2}, int8_t{-1}, int8_t{127},
                                  int8_t{-128}}) {
        SCOPED_TRACE("n=" + std::to_string(n) +
                     " position=" + std::to_string(position) +
                     " poison=" + std::to_string(poison));
        ClientFleet poisoned_fleet =
            ClientFleet::Create(config, n, 3).ValueOrDie();
        ClientFleet twin = ClientFleet::Create(config, n, 3).ValueOrDie();
        // One good tick first: client u's state is now u % 2.
        std::vector<int8_t> states(static_cast<size_t>(n));
        for (int64_t u = 0; u < n; ++u) {
          states[static_cast<size_t>(u)] = static_cast<int8_t>(u % 2);
        }
        ASSERT_EQ(Tick(poisoned_fleet, states), Tick(twin, states));

        // Every valid byte of the rejected tick flips its client's state,
        // so a write of any byte of it into the state columns shows below.
        std::vector<int8_t> poisoned(static_cast<size_t>(n));
        for (int64_t u = 0; u < n; ++u) {
          poisoned[static_cast<size_t>(u)] = static_cast<int8_t>(1 - u % 2);
        }
        poisoned[static_cast<size_t>(position)] = poison;
        ReportBatch rejected;
        EXPECT_EQ(poisoned_fleet.AdvanceTick(poisoned, &rejected).code(),
                  StatusCode::kInvalidArgument);
        EXPECT_EQ(poisoned_fleet.current_time(), 1);
        EXPECT_EQ(poisoned_fleet.changes_seen(), twin.changes_seen());
        EXPECT_EQ(poisoned_fleet.reports_emitted(), twin.reports_emitted());
        // Continue with states (u + t) % 2. At t = 2 that is u % 2 again,
        // no change for the twin: a partial write to the current-state
        // column would show in the change count, one to the boundary
        // column in the reports.
        for (int64_t t = 2; t <= config.num_periods; ++t) {
          for (int64_t u = 0; u < n; ++u) {
            states[static_cast<size_t>(u)] = static_cast<int8_t>((u + t) % 2);
          }
          EXPECT_EQ(Tick(poisoned_fleet, states), Tick(twin, states))
              << "t=" << t;
          EXPECT_EQ(poisoned_fleet.changes_seen(), twin.changes_seen())
              << "t=" << t;
        }
      }
    }
  }
}

TEST(FleetTest, PoisonedConfigReturnsFirstErrorPooledAndSerial) {
  // Create builds every level's parameter block before any client, so a
  // poisoned randomizer kind fails up front with the factory's error, and
  // both execution modes report the same thing.
  ProtocolConfig poisoned =
      TestConfig(rand::RandomizerKind::kFutureRand, 16, 2);
  poisoned.randomizer = static_cast<rand::RandomizerKind>(99);

  const auto serial = ClientFleet::Create(poisoned, 50000, 5);
  ASSERT_FALSE(serial.ok());
  EXPECT_NE(serial.status().ToString().find("unknown randomizer kind"),
            std::string::npos)
      << serial.status().ToString();

  ThreadPool pool(4);
  const auto pooled = ClientFleet::Create(poisoned, 50000, 5, &pool);
  ASSERT_FALSE(pooled.ok());
  EXPECT_EQ(pooled.status().ToString(), serial.status().ToString());
}

TEST(FleetTest, EmptyFleetIsValid) {
  const ProtocolConfig config =
      TestConfig(rand::RandomizerKind::kFutureRand, 8, 1);
  ClientFleet fleet = ClientFleet::Create(config, 0, 1).ValueOrDie();
  EXPECT_EQ(fleet.size(), 0);
  EXPECT_TRUE(fleet.registrations().empty());
  const ReportBatch batch = Tick(fleet, {});
  EXPECT_TRUE(batch.empty());
}

TEST(FleetTest, RejectsInvalidConstruction) {
  const ProtocolConfig config =
      TestConfig(rand::RandomizerKind::kFutureRand, 8, 1);
  EXPECT_FALSE(ClientFleet::Create(config, -1, 1).ok());
  ProtocolConfig bad = config;
  bad.num_periods = 7;  // not a power of two
  EXPECT_FALSE(ClientFleet::Create(bad, 4, 1).ok());
}

}  // namespace
}  // namespace futurerand::core
