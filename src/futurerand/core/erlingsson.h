// The Erlingsson et al. (2020) online baseline, as described in Section 6
// ("Online Setting") in this paper's notation and framework.
//
// Differences from Algorithm 1:
//   * an extra sampling step keeps at most ONE of the user's (up to k)
//     changes: the client draws r uniform in [1..k] and retains only its
//     r-th change, zeroing the rest of the derivative. Retaining each change
//     with probability exactly 1/k keeps the estimator unbiased even when
//     the user changes fewer than k times;
//   * each partial sum of the sparsified derivative is perturbed by the
//     basic randomizer R with eps~ = eps/2 (zero sums map to uniform signs),
//     giving c_gap = (e^{eps/2}-1)/(e^{eps/2}+1) in Omega(eps);
//   * the server estimator carries an additional factor k to undo the
//     change sampling, which is where the linear-in-k error comes from.

#ifndef FUTURERAND_CORE_ERLINGSSON_H_
#define FUTURERAND_CORE_ERLINGSSON_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "futurerand/common/random.h"
#include "futurerand/common/result.h"
#include "futurerand/core/config.h"
#include "futurerand/core/server.h"
#include "futurerand/randomizer/basic.h"

namespace futurerand::core {

/// Client of the Erlingsson et al. baseline. Move-only; not thread-safe.
class ErlingssonClient {
 public:
  /// Samples the level h_u and the retained-change index. The
  /// config.randomizer field is ignored (the construction fixes R(eps/2)).
  static Result<ErlingssonClient> Create(const ProtocolConfig& config,
                                         uint64_t seed);

  ErlingssonClient(ErlingssonClient&&) = default;
  ErlingssonClient& operator=(ErlingssonClient&&) = default;
  ErlingssonClient(const ErlingssonClient&) = delete;
  ErlingssonClient& operator=(const ErlingssonClient&) = delete;

  /// The sampled order h_u (data-independent, sent in the clear).
  int level() const { return level_; }

  /// Ingests st_u[t] for the next period; returns the perturbed report when
  /// 2^{h_u} divides t.
  Result<std::optional<int8_t>> ObserveState(int8_t state);

  int64_t current_time() const { return time_; }

  /// The gap of the fixed basic randomizer R(eps/2).
  double c_gap() const { return basic_.c_gap(); }

 private:
  ErlingssonClient(const ProtocolConfig& config, int level,
                   int64_t retained_change, rand::BasicRandomizer basic,
                   Rng rng);

  ProtocolConfig config_;
  int level_;
  int64_t interval_length_;
  int64_t retained_change_;  // r in [1..k]: which change (if any) survives
  rand::BasicRandomizer basic_;
  Rng rng_;

  int64_t time_ = 0;
  int8_t current_state_ = 0;
  int64_t changes_seen_ = 0;
  // The sparsified derivative's cumulative value within the current dyadic
  // interval: +/-1 if the retained change happened in this interval.
  int8_t interval_sparse_sum_ = 0;
};

/// The per-level debiasing scales of the matching server:
/// (1 + log d) * k / c_gap at every level. Exposed so batch aggregation can
/// build sharded servers (ShardedAggregator::Create) for this baseline.
Result<std::vector<double>> ErlingssonLevelScales(
    const ProtocolConfig& config);

/// The matching server: Algorithm 2 with per-report scale
/// (1 + log d) * k / c_gap.
Result<Server> MakeErlingssonServer(const ProtocolConfig& config);

}  // namespace futurerand::core

#endif  // FUTURERAND_CORE_ERLINGSSON_H_
