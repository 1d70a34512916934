// SIMD-vs-scalar bit-identity suite: the vector kernels in common/simd.h
// are drop-in replacements for the scalar reference loops, so an entire
// protocol run under the dispatched backend (AVX2/NEON where the host has
// it) must produce bit-identical results to the same run pinned to the
// scalar fallback: any reassociation beyond integer addition or any
// masked-lane divergence in the fleet's column kernels fails here.
//
// Sizes straddle every vector-width boundary (32-byte AVX2 lanes, 16-byte
// NEON lanes): 1 and 3 are pure tail, 63/64/65 bracket two full AVX2
// lanes, 1000 exercises steady-state plus tail. On a host without SIMD
// both runs take the scalar arm and the suite degenerates to a determinism
// check — still valid, just not distinguishing.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/common/simd.h"
#include "futurerand/common/threadpool.h"
#include "futurerand/sim/runner.h"
#include "futurerand/sim/workload.h"

namespace futurerand {
namespace {

constexpr int64_t kSizes[] = {1, 3, 63, 64, 65, 1000};

core::ProtocolConfig KernelConfig() {
  core::ProtocolConfig config;
  config.num_periods = 16;
  config.max_changes = 2;
  config.epsilon = 1.0;
  return config;
}

sim::Workload KernelWorkload(int64_t n, uint64_t seed) {
  sim::WorkloadConfig config;
  config.kind = sim::WorkloadKind::kUniformChanges;
  config.num_users = n;
  config.num_periods = 16;
  config.max_changes = 2;
  return sim::Workload::Generate(config, seed).ValueOrDie();
}

void ExpectBitIdentical(const sim::RunResult& dispatched,
                        const sim::RunResult& scalar, sim::ProtocolKind kind,
                        int64_t n) {
  // vector<double> operator== is bitwise for the finite values these
  // pipelines produce, so this is an exact comparison, not a tolerance.
  EXPECT_EQ(dispatched.estimates, scalar.estimates)
      << sim::ProtocolKindToString(kind) << " n=" << n;
  EXPECT_EQ(dispatched.reports_submitted, scalar.reports_submitted)
      << sim::ProtocolKindToString(kind) << " n=" << n;
  EXPECT_EQ(dispatched.metrics.max_abs, scalar.metrics.max_abs)
      << sim::ProtocolKindToString(kind) << " n=" << n;
  EXPECT_EQ(dispatched.metrics.rmse, scalar.metrics.rmse)
      << sim::ProtocolKindToString(kind) << " n=" << n;
  EXPECT_EQ(dispatched.metrics.argmax_time, scalar.metrics.argmax_time)
      << sim::ProtocolKindToString(kind) << " n=" << n;
}

class KernelIdentityProtocolTest
    : public ::testing::TestWithParam<sim::ProtocolKind> {};

TEST_P(KernelIdentityProtocolTest, SerialRunMatchesScalarBackend) {
  for (const int64_t n : kSizes) {
    const sim::Workload workload =
        KernelWorkload(n, 100 + static_cast<uint64_t>(n));
    const sim::RunResult dispatched =
        sim::RunProtocol(GetParam(), KernelConfig(), workload, 7)
            .ValueOrDie();
    sim::RunResult scalar = [&] {
      const simd::ScopedBackendForTest force(simd::Backend::kScalar);
      return sim::RunProtocol(GetParam(), KernelConfig(), workload, 7)
          .ValueOrDie();
    }();
    ExpectBitIdentical(dispatched, scalar, GetParam(), n);
  }
}

TEST_P(KernelIdentityProtocolTest, PooledRunMatchesScalarBackend) {
  ThreadPool pool(4);
  for (const int64_t n : kSizes) {
    const sim::Workload workload =
        KernelWorkload(n, 200 + static_cast<uint64_t>(n));
    const sim::RunResult dispatched =
        sim::RunProtocol(GetParam(), KernelConfig(), workload, 9, &pool)
            .ValueOrDie();
    sim::RunResult scalar = [&] {
      const simd::ScopedBackendForTest force(simd::Backend::kScalar);
      return sim::RunProtocol(GetParam(), KernelConfig(), workload, 9, &pool)
          .ValueOrDie();
    }();
    ExpectBitIdentical(dispatched, scalar, GetParam(), n);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, KernelIdentityProtocolTest,
    ::testing::ValuesIn(sim::AllProtocolKinds().begin(),
                        sim::AllProtocolKinds().end()),
    [](const ::testing::TestParamInfo<sim::ProtocolKind>& info) {
      return std::string(sim::ProtocolKindToString(info.param));
    });

}  // namespace
}  // namespace futurerand
