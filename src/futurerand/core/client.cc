#include "futurerand/core/client.h"

#include <utility>

#include "futurerand/common/macros.h"
#include "futurerand/common/random.h"

namespace futurerand::core {

Client::Client(const ProtocolConfig& config, int level,
               rand::SequenceRandomizer randomizer)
    : config_(config),
      level_(level),
      interval_length_(int64_t{1} << level),
      randomizer_(std::move(randomizer)) {}

Result<Client> Client::Create(const ProtocolConfig& config, uint64_t seed) {
  FR_RETURN_NOT_OK(config.Validate());
  Rng rng(seed);
  // Algorithm 1 line 1: h_u uniform over [0..log d]. Longitudinal clients
  // all sit at level 0 (they report every tick); the level draw is skipped
  // entirely — not drawn-and-discarded — so the randomizer seed stays the
  // FIRST draw, bit-identical with the ClientFleet creation path.
  const int level =
      rand::IsLongitudinalKind(config.randomizer)
          ? 0
          : static_cast<int>(
                rng.NextInt(static_cast<uint64_t>(config.num_orders())));
  const int64_t length = config.num_periods >> level;  // L = d / 2^{h_u}
  // Paper-faithful mode passes the global k (M.init(L, k, eps), Algorithm 1
  // line 3); the per-level extension shrinks it to min(k, L).
  const int64_t support = config.SupportAtLevel(level);
  FR_ASSIGN_OR_RETURN(
      rand::SequenceRandomizer randomizer,
      rand::MakeSequenceRandomizer(config.randomizer, length, support,
                                   config.epsilon, rng.NextUint64(),
                                   config.longitudinal_alpha));
  return Client(config, level, std::move(randomizer));
}

Result<std::optional<int8_t>> Client::ObserveState(int8_t state) {
  if (state != 0 && state != 1) {
    return Status::InvalidArgument("state must be 0 or 1");
  }
  if (time_ >= config_.num_periods) {
    return Status::OutOfRange("all d time periods already ingested");
  }
  ++time_;
  if (state != current_state_) {
    ++changes_seen_;
  }
  current_state_ = state;

  // Algorithm 1 line 5: report exactly when 2^{h_u} divides t.
  if (time_ % interval_length_ != 0) {
    return std::optional<int8_t>(std::nullopt);
  }
  // Observation 3.7: the partial sum over the interval ending at t is
  // st_u[t] - st_u[t - 2^{h_u}], both of which the client has retained.
  const auto partial_sum =
      static_cast<int8_t>(current_state_ - boundary_state_);
  boundary_state_ = current_state_;
  ++reports_sent_;
  return std::optional<int8_t>(randomizer_.Randomize(partial_sum));
}

}  // namespace futurerand::core
