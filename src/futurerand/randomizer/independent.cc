#include "futurerand/randomizer/independent.h"

#include <utility>

#include "futurerand/common/macros.h"

namespace futurerand::rand {

IndependentRandomizer::IndependentRandomizer(
    std::shared_ptr<const RandomizerParams> params, uint64_t seed)
    : params_(std::move(params)), rng_(seed) {
  FR_CHECK_MSG(params_->basic.has_value(),
               "not an independent-randomizer parameter block");
}

int8_t IndependentRandomizer::Randomize(int8_t value) {
  FR_CHECK_MSG(value == -1 || value == 0 || value == 1,
               "inputs must be in {-1, 0, +1}");
  FR_CHECK_MSG(position_ < length(), "more inputs than the configured length");
  ++position_;
  if (value == 0) {
    return rng_.NextSign();
  }
  if (support_used_ >= max_support()) {
    // Same over-budget clamp as FutureRand: uniform output keeps the
    // composition argument (k randomized responses at eps/k each) intact.
    ++support_overflow_count_;
    return rng_.NextSign();
  }
  ++support_used_;
  return params_->basic->Apply(value, &rng_);
}

}  // namespace futurerand::rand
