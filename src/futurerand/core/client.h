// The client-side algorithm A_clt (Algorithm 1).
//
// On construction the client samples its order h_u uniformly from
// [0..log d] (reported to the server in the clear: the draw is independent
// of the data) and pre-initializes its sequence randomizer. At every time
// period it ingests the user's current Boolean value; whenever 2^{h_u}
// divides t it emits the randomized partial sum for the dyadic interval
// ending at t.

#ifndef FUTURERAND_CORE_CLIENT_H_
#define FUTURERAND_CORE_CLIENT_H_

#include <cstdint>
#include <optional>

#include "futurerand/common/result.h"
#include "futurerand/core/config.h"
#include "futurerand/randomizer/randomizer.h"

namespace futurerand::core {

/// One user's state machine. Move-only; not thread-safe.
class Client {
 public:
  /// Samples the level and initializes the randomizer. All client randomness
  /// (level draw, randomizer noise) derives from `seed`.
  static Result<Client> Create(const ProtocolConfig& config, uint64_t seed);

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// The sampled order h_u in [0..log d]; sent to the server on
  /// registration. Independent of the user's data.
  int level() const { return level_; }

  /// Ingests the user's Boolean value st_u[t] for the next time period
  /// (t starts at 1 and advances by one per call; the paper's convention
  /// st_u[0] = 0 means a user whose first value is 1 spends one change).
  /// Returns the perturbed report in {-1,+1} when 2^{h_u} divides t,
  /// std::nullopt otherwise. Errors if `state` is not 0/1 or more than d
  /// values are fed.
  Result<std::optional<int8_t>> ObserveState(int8_t state);

  /// Time periods ingested so far.
  int64_t current_time() const { return time_; }

  /// Reports emitted so far (== floor(current_time / 2^{h_u})).
  int64_t reports_sent() const { return reports_sent_; }

  /// Value changes observed so far, under the st_u[0] = 0 convention. May
  /// legitimately exceed max_changes only if the caller violates the
  /// workload contract; the randomizer then clamps (see
  /// support_overflow_count).
  int64_t changes_seen() const { return changes_seen_; }

  /// Non-zero partial sums that exceeded the randomizer's sparsity budget
  /// and were clamped to noise-only reports. Always 0 for contract-abiding
  /// inputs.
  int64_t support_overflow_count() const {
    return randomizer_.support_overflow_count();
  }

  /// The exact c_gap of the underlying randomizer (the server needs the
  /// same constant for debiasing).
  double c_gap() const { return randomizer_.params().c_gap; }

  /// Read access to the underlying randomizer (for audits and tests).
  const rand::SequenceRandomizer& randomizer() const { return randomizer_; }

 private:
  Client(const ProtocolConfig& config, int level,
         rand::SequenceRandomizer randomizer);

  ProtocolConfig config_;
  int level_;
  int64_t interval_length_;  // 2^{h_u}
  rand::SequenceRandomizer randomizer_;

  int64_t time_ = 0;
  int8_t current_state_ = 0;   // st_u[t], with st_u[0] = 0
  int8_t boundary_state_ = 0;  // st_u at the last dyadic boundary
  int64_t reports_sent_ = 0;
  int64_t changes_seen_ = 0;
};

}  // namespace futurerand::core

#endif  // FUTURERAND_CORE_CLIENT_H_
