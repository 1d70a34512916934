#include <memory>
#include <utility>

#include "futurerand/common/macros.h"
#include "futurerand/randomizer/annulus.h"
#include "futurerand/randomizer/longitudinal.h"
#include "futurerand/randomizer/randomizer.h"

namespace futurerand::rand {

const char* RandomizerKindToString(RandomizerKind kind) {
  switch (kind) {
    case RandomizerKind::kFutureRand:
      return "future_rand";
    case RandomizerKind::kIndependent:
      return "independent";
    case RandomizerKind::kBun:
      return "bun";
    case RandomizerKind::kAdaptive:
      return "adaptive";
    case RandomizerKind::kLGrr:
      return "lgrr";
    case RandomizerKind::kLOlh:
      return "lolh";
    case RandomizerKind::kLoloha:
      return "loloha";
  }
  return "unknown";
}

Result<RandomizerKind> ParseRandomizerKind(const std::string& name) {
  for (RandomizerKind kind : AllRandomizerKinds()) {
    if (name == RandomizerKindToString(kind)) {
      return kind;
    }
  }
  return Status::InvalidArgument("unknown randomizer kind: " + name);
}

Result<std::shared_ptr<const RandomizerParams>> MakeRandomizerParams(
    RandomizerKind kind, int64_t length, int64_t max_support, double epsilon,
    double alpha) {
  if (length < 1) {
    return Status::InvalidArgument("sequence length must be >= 1");
  }
  auto params = std::make_shared<RandomizerParams>();
  params->kind = kind;
  params->length = length;
  params->max_support = max_support;
  params->epsilon = epsilon;
  switch (kind) {
    case RandomizerKind::kFutureRand:
    case RandomizerKind::kBun: {
      // The annulus engine validates k >= 1 and the epsilon regime.
      FR_ASSIGN_OR_RETURN(const AnnulusSpec spec,
                          kind == RandomizerKind::kFutureRand
                              ? MakeFutureRandSpec(max_support, epsilon)
                              : MakeBunSpec(max_support, epsilon));
      FR_ASSIGN_OR_RETURN(ComposedRandomizer composed,
                          ComposedRandomizer::Create(spec));
      params->c_gap = spec.c_gap;
      params->composed.emplace(std::move(composed));
      break;
    }
    case RandomizerKind::kIndependent: {
      if (max_support < 1) {
        return Status::InvalidArgument("require k >= 1");
      }
      if (!(epsilon > 0.0) || !(epsilon <= 1.0)) {
        return Status::InvalidArgument(
            "the construction is analyzed for 0 < epsilon <= 1");
      }
      // Budget split: each of the at-most-k non-zero coordinates consumes
      // eps/k; zeros are data-independent.
      FR_ASSIGN_OR_RETURN(
          const BasicRandomizer basic,
          BasicRandomizer::Create(epsilon / static_cast<double>(max_support)));
      params->c_gap = basic.c_gap();
      params->basic.emplace(basic);
      break;
    }
    case RandomizerKind::kAdaptive: {
      // An extension beyond the paper. FutureRand's c_gap in
      // Omega(eps/sqrt k) only beats Example 4.2's Theta(eps/k) once k is
      // moderately large (the constant 5 in eps~ = eps/(5 sqrt k) costs a
      // factor ~10 at small k). Both constructions certify eps-LDP, so the
      // one with the larger exact c_gap for (k, eps) is strictly better
      // utility under an unchanged privacy guarantee.
      FR_ASSIGN_OR_RETURN(
          std::shared_ptr<const RandomizerParams> future,
          MakeRandomizerParams(RandomizerKind::kFutureRand, length,
                               max_support, epsilon));
      FR_ASSIGN_OR_RETURN(
          std::shared_ptr<const RandomizerParams> independent,
          MakeRandomizerParams(RandomizerKind::kIndependent, length,
                               max_support, epsilon));
      return future->c_gap >= independent->c_gap ? future : independent;
    }
    case RandomizerKind::kLGrr:
    case RandomizerKind::kLOlh:
    case RandomizerKind::kLoloha: {
      FR_ASSIGN_OR_RETURN(const LongitudinalSpec spec,
                          MakeLongitudinalSpec(kind, epsilon, alpha));
      // A longitudinal client reports every tick and never clamps.
      params->max_support = length;
      params->c_gap = spec.gap();
      params->longitudinal = spec;
      break;
    }
    default:
      return Status::InvalidArgument("unknown randomizer kind");
  }
  return std::shared_ptr<const RandomizerParams>(std::move(params));
}

SequenceRandomizer::SequenceRandomizer(
    std::shared_ptr<const RandomizerParams> params, uint64_t seed)
    : params_(std::move(params)), state_(LongitudinalState{}) {
  switch (params_->kind) {
    case RandomizerKind::kFutureRand:
    case RandomizerKind::kBun: {
      // M.init (Algorithm 3 lines 8-11): draw the correlated noise for all
      // future non-zero inputs now, b~ = R~(1^k), exploiting the symmetry
      // of the input space.
      FR_CHECK_MSG(params_->composed.has_value(), "no composed randomizer");
      Rng rng(seed);
      SignVector b_tilde =
          params_->composed->Apply(SignVector(params_->max_support), &rng);
      state_ = DyadicState{std::move(rng), std::move(b_tilde)};
      return;
    }
    case RandomizerKind::kIndependent:
      FR_CHECK_MSG(params_->basic.has_value(), "no basic randomizer");
      state_ = DyadicState{Rng(seed), SignVector(0)};
      return;
    case RandomizerKind::kLGrr:
    case RandomizerKind::kLOlh:
    case RandomizerKind::kLoloha: {
      FR_CHECK_MSG(params_->longitudinal.has_value(), "no longitudinal spec");
      auto& state = std::get<LongitudinalState>(state_);
      state.rng_state = seed;
      if (params_->kind == RandomizerKind::kLoloha) {
        // One permanent hash seed shared by every value — the LOLOHA
        // domain-reduction trick. Both slots alias it so the per-value
        // lookup is kind-agnostic.
        state.hash_seed[0] = SplitMix64Next(&state.rng_state);
        state.hash_seed[1] = state.hash_seed[0];
      }
      return;
    }
    case RandomizerKind::kAdaptive:
      break;
  }
  FR_CHECK_MSG(false, "parameter block of an unresolved randomizer kind");
}

int8_t SequenceRandomizer::Randomize(int8_t value) {
  FR_CHECK_MSG(value == -1 || value == 0 || value == 1,
               "inputs must be in {-1, 0, +1}");
  FR_CHECK_MSG(position_ < params_->length,
               "more inputs than the configured length");
  if (IsLongitudinalKind(params_->kind)) {
    return RandomizeLongitudinal(value);
  }
  DyadicState& state = std::get<DyadicState>(state_);
  ++position_;
  if (value == 0) {
    return state.rng.NextSign();
  }
  if (support_used_ >= params_->max_support) {
    // Over-budget non-zero input: fall back to the zero-coordinate law so
    // the output distribution (and thus the privacy certificate) is
    // unchanged; the report merely carries no signal. For kIndependent this
    // keeps the composition argument (k randomized responses at eps/k
    // each) intact.
    ++state.overflow_count;
    return state.rng.NextSign();
  }
  const int64_t nnz = support_used_++;
  if (params_->kind == RandomizerKind::kIndependent) {
    return params_->basic->Apply(value, &state.rng);
  }
  // Algorithm 3 lines 13-15: v_j * b~_nnz.
  return static_cast<int8_t>(value * state.b_tilde.Get(nnz));
}

const SignVector& SequenceRandomizer::precomputed_noise() const {
  FR_CHECK_MSG(params_->composed.has_value(),
               "only FutureRand and Bun pre-compute noise");
  return std::get<DyadicState>(state_).b_tilde;
}

Result<SequenceRandomizer> MakeSequenceRandomizer(
    RandomizerKind kind, int64_t length, int64_t max_support, double epsilon,
    uint64_t seed, double alpha) {
  FR_ASSIGN_OR_RETURN(
      std::shared_ptr<const RandomizerParams> params,
      MakeRandomizerParams(kind, length, max_support, epsilon, alpha));
  return SequenceRandomizer(std::move(params), seed);
}

Result<double> ExactCGap(RandomizerKind kind, int64_t max_support,
                         double epsilon, double alpha) {
  FR_ASSIGN_OR_RETURN(
      std::shared_ptr<const RandomizerParams> params,
      MakeRandomizerParams(kind, /*length=*/1, max_support, epsilon, alpha));
  return params->c_gap;
}

}  // namespace futurerand::rand
