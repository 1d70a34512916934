// The naive independent sequence randomizer of Example 4.2: each non-zero
// coordinate is perturbed by independent randomized response with budget
// eps/k, zeros map to uniform signs. Satisfies Properties I-III with
// c_gap = (e^{eps/k} - 1)/(e^{eps/k} + 1) in Theta(eps/k) — the baseline
// FutureRand improves on by a sqrt(k) factor.

#ifndef FUTURERAND_RANDOMIZER_INDEPENDENT_H_
#define FUTURERAND_RANDOMIZER_INDEPENDENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "futurerand/common/random.h"
#include "futurerand/randomizer/randomizer.h"

namespace futurerand::rand {

/// Example 4.2's randomizer. See SequenceRandomizer for the contract.
class IndependentRandomizer final : public SequenceRandomizer {
 public:
  /// `params` must be a kIndependent MakeRandomizerParams block; k may
  /// exceed L, as for FutureRand. All randomness derives from `seed`.
  IndependentRandomizer(std::shared_ptr<const RandomizerParams> params,
                        uint64_t seed);

  int8_t Randomize(int8_t value) override;
  double c_gap() const override { return params_->c_gap; }
  int64_t length() const override { return params_->length; }
  int64_t max_support() const override { return params_->max_support; }
  double epsilon() const override { return params_->epsilon; }
  int64_t position() const override { return position_; }
  int64_t support_used() const override { return support_used_; }
  int64_t support_overflow_count() const override {
    return support_overflow_count_;
  }
  std::string name() const override { return "independent"; }

 private:
  std::shared_ptr<const RandomizerParams> params_;
  Rng rng_;
  int64_t position_ = 0;
  int64_t support_used_ = 0;
  int64_t support_overflow_count_ = 0;
};

}  // namespace futurerand::rand

#endif  // FUTURERAND_RANDOMIZER_INDEPENDENT_H_
