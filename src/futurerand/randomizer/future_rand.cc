#include "futurerand/randomizer/future_rand.h"

#include <utility>

#include "futurerand/common/macros.h"

namespace futurerand::rand {

namespace {

// M.init (Algorithm 3 lines 8-11): draw the correlated noise for all future
// non-zero inputs now, exploiting the symmetry of the input space.
SignVector DrawFutureNoise(const RandomizerParams& params, Rng* rng) {
  FR_CHECK_MSG(params.composed.has_value(),
               "not a composed-randomizer parameter block");
  const SignVector all_ones(params.max_support);  // 1^k
  return params.composed->Apply(all_ones, rng);
}

}  // namespace

FutureRandRandomizer::FutureRandRandomizer(
    std::shared_ptr<const RandomizerParams> params, uint64_t seed)
    : params_(std::move(params)),
      rng_(seed),
      b_tilde_(DrawFutureNoise(*params_, &rng_)) {}

int8_t FutureRandRandomizer::Randomize(int8_t value) {
  FR_CHECK_MSG(value == -1 || value == 0 || value == 1,
               "inputs must be in {-1, 0, +1}");
  FR_CHECK_MSG(position_ < length(), "more inputs than the configured length");
  ++position_;
  if (value == 0) {
    return rng_.NextSign();
  }
  if (support_used_ >= max_support()) {
    // Over-budget non-zero input: fall back to the zero-coordinate law so
    // the output distribution (and thus the privacy certificate) is
    // unchanged; the report merely carries no signal.
    ++support_overflow_count_;
    return rng_.NextSign();
  }
  // Algorithm 3 lines 13-15: v_j * b~_nnz.
  const int8_t noise = b_tilde_.Get(support_used_);
  ++support_used_;
  return static_cast<int8_t>(value * noise);
}

}  // namespace futurerand::rand
