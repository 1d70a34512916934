// FutureRand (Theorem 4.4, Algorithm 3): the paper's online sequence
// randomizer with c_gap in Omega(eps / sqrt k).
//
// At init time it draws b~ = R~(1^k) once ("randomize the future"); online,
// the j-th non-zero input v is answered with v * b~_nnz and zero inputs with
// a uniform sign. Sections 5.3-5.4 show this preserves Properties I-III for
// any support size up to k.
//
// The same pre-computation shell runs the Bun-Nelson-Stemmer composed
// randomizer (Appendix A.2, kind kBun), so the two constructions are
// compared apples-to-apples in experiment E6: only the annulus of the
// shared parameter block differs. Bun et al.'s is the symmetric
// kp -+ sqrt((k/2) ln(2/lambda)) band of Equation 43 with the (lambda, eps~)
// constraint system of Fact A.6; Theorem A.8 shows its gap is
// c_gap in O(eps/sqrt(k ln(k/eps)) + (eps/(k ln(k/eps)))^{2/3}).

#ifndef FUTURERAND_RANDOMIZER_FUTURE_RAND_H_
#define FUTURERAND_RANDOMIZER_FUTURE_RAND_H_

#include <cstdint>
#include <memory>
#include <string>

#include "futurerand/common/random.h"
#include "futurerand/common/sign_vector.h"
#include "futurerand/randomizer/annulus.h"
#include "futurerand/randomizer/randomizer.h"

namespace futurerand::rand {

/// The paper's randomizer M (Algorithm 3), for kFutureRand and kBun
/// parameter blocks. See SequenceRandomizer for the contract.
class FutureRandRandomizer final : public SequenceRandomizer {
 public:
  /// M.init (Algorithm 3 lines 8-11): pre-computes b~ = R~(1^k) from
  /// `seed`, which determines all of the instance's randomness. `params`
  /// must be a kFutureRand or kBun MakeRandomizerParams block.
  FutureRandRandomizer(std::shared_ptr<const RandomizerParams> params,
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
  std::string name() const override {
    return RandomizerKindToString(params_->kind);
  }

  /// The exact privacy ratio ln(p'_max/p'_min) this instance certifies
  /// (always <= epsilon; Lemma 5.2).
  double certified_epsilon() const { return spec().certified_epsilon; }

  /// Parameterization details (annulus bounds, P*_out, Bun's lambda, ...).
  const AnnulusSpec& spec() const { return params_->composed->spec(); }

  /// The pre-computed noise vector b~ (exposed for tests: the online output
  /// on non-zero inputs must equal v * b~_nnz exactly).
  const SignVector& precomputed_noise() const { return b_tilde_; }

 private:
  std::shared_ptr<const RandomizerParams> params_;
  Rng rng_;
  SignVector b_tilde_;
  int64_t position_ = 0;
  int64_t support_used_ = 0;
  int64_t support_overflow_count_ = 0;
};

}  // namespace futurerand::rand

#endif  // FUTURERAND_RANDOMIZER_FUTURE_RAND_H_
