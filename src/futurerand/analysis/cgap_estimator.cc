#include "futurerand/analysis/cgap_estimator.h"

#include <cmath>
#include <memory>

#include "futurerand/common/macros.h"
#include "futurerand/common/random.h"
#include "futurerand/common/sign_vector.h"
#include "futurerand/randomizer/randomizer.h"

namespace futurerand::analysis {

Result<CGapEstimate> EstimateCGapMonteCarlo(rand::RandomizerKind kind,
                                            int64_t max_support,
                                            double epsilon, int64_t samples,
                                            uint64_t seed, double confidence,
                                            double alpha) {
  if (samples < 1) {
    return Status::InvalidArgument("samples must be >= 1");
  }
  if (!(confidence > 0.0) || !(confidence < 1.0)) {
    return Status::InvalidArgument("confidence must lie in (0,1)");
  }

  FR_ASSIGN_OR_RETURN(
      const std::shared_ptr<const rand::RandomizerParams> params,
      rand::MakeRandomizerParams(kind, 1, max_support, epsilon, alpha));
  Rng rng(seed);
  const SignVector all_ones(max_support);
  double sum = 0.0;
  double sample_range = 1.0;  // per-sample values live in +/- this

  switch (kind) {
    case rand::RandomizerKind::kFutureRand:
    case rand::RandomizerKind::kBun: {
      for (int64_t s = 0; s < samples; ++s) {
        const SignVector b_tilde = params->composed->Apply(all_ones, &rng);
        // Per-sample agreement average: (k - 2*dist)/k, expectation c_gap.
        const int64_t negatives = b_tilde.CountNegative();
        sum += static_cast<double>(max_support - 2 * negatives) /
               static_cast<double>(max_support);
      }
      break;
    }
    case rand::RandomizerKind::kIndependent: {
      for (int64_t s = 0; s < samples; ++s) {
        int64_t agreement = 0;
        for (int64_t i = 0; i < max_support; ++i) {
          agreement += params->basic->Apply(1, &rng);
        }
        sum += static_cast<double>(agreement) /
               static_cast<double>(max_support);
      }
      break;
    }
    case rand::RandomizerKind::kAdaptive:
      return Status::InvalidArgument(
          "estimate the adaptive choice's underlying construction instead");
    case rand::RandomizerKind::kLGrr:
    case rand::RandomizerKind::kLOlh:
    case rand::RandomizerKind::kLoloha: {
      // The longitudinal gap is u1 - u0 = E[report | v=1] - E[report | v=0]:
      // sample a fresh client pair per draw (memoization makes repeated
      // reports of one client correlated, so each sample needs new clients).
      sample_range = 2.0;
      for (int64_t s = 0; s < samples; ++s) {
        rand::SequenceRandomizer one(params, rng.NextUint64());
        rand::SequenceRandomizer zero(params, rng.NextUint64());
        sum += static_cast<double>(one.Randomize(int8_t{1}) -
                                   zero.Randomize(int8_t{0}));
      }
      break;
    }
  }

  CGapEstimate estimate;
  estimate.samples = samples;
  estimate.estimate = sum / static_cast<double>(samples);
  // Hoeffding for means of [-1,1]-valued variables:
  // half-width = sqrt(2 ln(2/(1-confidence)) / samples), scaled linearly
  // to the actual per-sample range.
  estimate.half_width = sample_range *
                        std::sqrt(2.0 * std::log(2.0 / (1.0 - confidence)) /
                                  static_cast<double>(samples));
  return estimate;
}

}  // namespace futurerand::analysis
