#include "futurerand/core/erlingsson.h"

#include <cmath>
#include <utility>
#include <vector>

#include "futurerand/common/macros.h"

namespace futurerand::core {

ErlingssonClient::ErlingssonClient(const ProtocolConfig& config, int level,
                                   int64_t retained_change,
                                   rand::BasicRandomizer basic, Rng rng)
    : config_(config),
      level_(level),
      interval_length_(int64_t{1} << level),
      retained_change_(retained_change),
      basic_(basic),
      rng_(rng) {}

Result<ErlingssonClient> ErlingssonClient::Create(const ProtocolConfig& config,
                                                  uint64_t seed) {
  FR_RETURN_NOT_OK(config.Validate());
  Rng rng(seed);
  const int level =
      static_cast<int>(rng.NextInt(static_cast<uint64_t>(config.num_orders())));
  // Retain the r-th change, r uniform in [1..k]. If the user changes fewer
  // than r times, nothing survives — each change is kept with probability
  // exactly 1/k, which the server's factor-k scale inverts unbiasedly.
  const auto retained = static_cast<int64_t>(
      rng.NextInt(static_cast<uint64_t>(config.max_changes))) + 1;
  FR_ASSIGN_OR_RETURN(rand::BasicRandomizer basic,
                      rand::BasicRandomizer::Create(config.epsilon / 2.0));
  return ErlingssonClient(config, level, retained, basic, rng);
}

Result<std::optional<int8_t>> ErlingssonClient::ObserveState(int8_t state) {
  if (state != 0 && state != 1) {
    return Status::InvalidArgument("state must be 0 or 1");
  }
  if (time_ >= config_.num_periods) {
    return Status::OutOfRange("all d time periods already ingested");
  }
  ++time_;
  if (state != current_state_) {
    ++changes_seen_;
    if (changes_seen_ == retained_change_) {
      // This is the one change that survives sparsification; its derivative
      // value is +1 when 0 -> 1 and -1 when 1 -> 0.
      interval_sparse_sum_ =
          static_cast<int8_t>(state - current_state_);
    }
  }
  current_state_ = state;

  if (time_ % interval_length_ != 0) {
    return std::optional<int8_t>(std::nullopt);
  }
  // The partial sum of the sparsified derivative over the closing interval:
  // +/-1 if the retained change fell inside it, else 0.
  const int8_t sparse_sum = interval_sparse_sum_;
  interval_sparse_sum_ = 0;
  if (sparse_sum == 0) {
    // Zero coordinates map to uniform signs (Property III analogue).
    return std::optional<int8_t>(rng_.NextSign());
  }
  return std::optional<int8_t>(basic_.Apply(sparse_sum, &rng_));
}

Result<std::vector<double>> ErlingssonLevelScales(
    const ProtocolConfig& config) {
  FR_RETURN_NOT_OK(config.Validate());
  const double eps_tilde = config.epsilon / 2.0;
  const double c_gap =
      (std::exp(eps_tilde) - 1.0) / (std::exp(eps_tilde) + 1.0);
  const int orders = config.num_orders();
  // Section 6: the estimator of S_hat(I_{h,j}) is multiplied by an
  // additional factor of k relative to Algorithm 2 line 5.
  const double scale = static_cast<double>(orders) *
                       static_cast<double>(config.max_changes) / c_gap;
  return std::vector<double>(static_cast<size_t>(orders), scale);
}

Result<Server> MakeErlingssonServer(const ProtocolConfig& config) {
  FR_ASSIGN_OR_RETURN(std::vector<double> scales,
                      ErlingssonLevelScales(config));
  return Server::Create({config.num_periods, std::move(scales)});
}

}  // namespace futurerand::core
