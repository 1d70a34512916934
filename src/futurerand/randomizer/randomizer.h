// The sequence-randomizer interface M of Section 4.2.
//
// A SequenceRandomizer perturbs a length-L sequence v_1..v_L over {-1,0,+1}
// with at most k non-zero entries, emitting one output in {-1,+1} per input
// as it arrives (online). Every construction must satisfy the paper's three
// properties:
//
//   Property I   (privacy): every output sequence w in {-1,+1}^L has
//                probability in [p_min, p_max] with p_max <= e^eps * p_min,
//                for every k-sparse input.
//   Property II  (signal):  Pr[out = v_j] - Pr[out = -v_j] = c_gap for every
//                non-zero v_j, with a common gap c_gap.
//   Property III (zeros):   zero inputs map to uniform +/-1.
//
// RandomizerParams::c_gap must be the exact gap so the server's debiasing
// (1+log d) * c_gap^{-1} * omega is exactly unbiased (Observation 4.3).

#ifndef FUTURERAND_RANDOMIZER_RANDOMIZER_H_
#define FUTURERAND_RANDOMIZER_RANDOMIZER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <variant>

#include "futurerand/common/random.h"
#include "futurerand/common/result.h"
#include "futurerand/common/sign_vector.h"
#include "futurerand/randomizer/basic.h"
#include "futurerand/randomizer/composed.h"

namespace futurerand::rand {

/// Which sequence-randomizer construction to instantiate.
enum class RandomizerKind {
  kFutureRand,   // Section 5 (Algorithm 3): composed + pre-computation
  kIndependent,  // Example 4.2: per-coordinate RR(eps/k)
  kBun,          // Appendix A.2: Bun et al. composed randomizer
  kAdaptive,     // resolves to kFutureRand or kIndependent, larger c_gap
  // The Arcolezi-line memoized longitudinal constructions (see
  // randomizer/longitudinal.h): level-0 clients, every-tick reports, and a
  // direct (non-dyadic) server estimator with offset u0 and gap u1 - u0.
  kLGrr,    // chained GRR with permanent memoization (eps_perm/eps_1 split)
  kLOlh,    // L-LH with the optimal-g L-OLH parameterization
  kLoloha,  // OLOLOHA: one permanent hash seed, optimal g, alpha knob
};

/// Every RandomizerKind, in enum order — the single source of truth for
/// code that enumerates constructions (flag parsing, sweeps, tests).
inline constexpr RandomizerKind kAllRandomizerKinds[] = {
    RandomizerKind::kFutureRand,
    RandomizerKind::kIndependent,
    RandomizerKind::kBun,
    RandomizerKind::kAdaptive,
    RandomizerKind::kLGrr,
    RandomizerKind::kLOlh,
    RandomizerKind::kLoloha,
};

constexpr std::span<const RandomizerKind> AllRandomizerKinds() {
  return kAllRandomizerKinds;
}

/// True iff `kind` is one of the memoized longitudinal constructions
/// (randomizer/longitudinal.h): all clients at level 0, every-tick reports,
/// and a direct (non-dyadic) server estimator.
constexpr bool IsLongitudinalKind(RandomizerKind kind) {
  return kind == RandomizerKind::kLGrr || kind == RandomizerKind::kLOlh ||
         kind == RandomizerKind::kLoloha;
}

/// Stable display name for a RandomizerKind.
const char* RandomizerKindToString(RandomizerKind kind);

/// Parses a display name (as produced by RandomizerKindToString) back to
/// its kind by scanning AllRandomizerKinds() — the one parser every flag
/// surface shares.
Result<RandomizerKind> ParseRandomizerKind(const std::string& name);

/// The exact two-round GRR parameterization of one longitudinal kind for
/// (eps_perm, alpha), computed by MakeLongitudinalSpec
/// (randomizer/longitudinal.h). Pure arithmetic — shared by the randomizer,
/// the server's estimator plumbing and the statistical gate.
struct LongitudinalSpec {
  RandomizerKind kind = RandomizerKind::kLGrr;
  double eps_perm = 0.0;  // full-sequence privacy bound (the config epsilon)
  double eps_1 = 0.0;     // single-report lower bound, alpha * eps_perm
  double alpha = 0.0;     // eps_1 / eps_perm, in (0, 1)
  int64_t g = 2;          // GRR domain size (2 for kLGrr; optimal-g else)
  double p1 = 0.0;        // round-1 keep probability e^eps_perm/(e^eps_perm+g-1)
  double q1 = 0.0;        // (1 - p1) / (g - 1)
  double p2 = 0.0;        // round-2 keep probability (derived, see .cc)
  double q2 = 0.0;        // (1 - p2) / (g - 1)
  double p_stay = 0.0;    // Pr[sanitized == memoized input] = p1*p2+(g-1)*q1*q2
  double u1 = 0.0;        // E[+/-1 report | true value 1]
  double u0 = 0.0;        // E[+/-1 report | true value 0]

  /// The estimator's sensitivity gap u1 - u0 (> 0 for every valid spec).
  double gap() const { return u1 - u0; }
};

/// The user-independent half of a sequence randomizer: everything M.init
/// computes from (kind, L, k, epsilon, alpha) alone. Built and validated
/// once by MakeRandomizerParams, then immutable — one block is shared,
/// across threads too, by every SequenceRandomizer built from it.
struct RandomizerParams {
  /// The construction the instances run. Never kAdaptive: that kind
  /// resolves at build time to whichever of kFutureRand and kIndependent
  /// has the larger exact c_gap (ties go to kFutureRand).
  RandomizerKind kind = RandomizerKind::kFutureRand;
  int64_t length = 0;       // L
  int64_t max_support = 0;  // k (== length for the longitudinal kinds)
  double epsilon = 0.0;
  double c_gap = 0.0;       // the exact gap every instance reports

  /// kFutureRand / kBun: the finalized annulus and its R~ sampler.
  std::optional<ComposedRandomizer> composed;
  /// kIndependent: randomized response at eps/k per non-zero coordinate.
  std::optional<BasicRandomizer> basic;
  /// Longitudinal kinds: the two-round GRR parameterization.
  std::optional<LongitudinalSpec> longitudinal;
};

/// Validates and builds the parameter block of a randomizer of the given
/// kind for a length-L sequence with at most k non-zero entries under
/// budget epsilon (0 < epsilon <= 1, the paper's regime). `alpha` only
/// matters for the longitudinal kinds (the eps_1/eps_perm split, in
/// (0, 1)); the dyadic constructions ignore it, and the longitudinal ones
/// ignore max_support (they report every tick). k may exceed L: a client
/// whose level gives it few reports still runs the randomizer
/// parameterized by the global sparsity budget.
Result<std::shared_ptr<const RandomizerParams>> MakeRandomizerParams(
    RandomizerKind kind, int64_t length, int64_t max_support, double epsilon,
    double alpha = 0.5);

/// Online randomizer for one user's report sequence: a handle on its shared
/// RandomizerParams plus the user's own mutable state. One value type runs
/// every construction, switching on params().kind:
///
///   kFutureRand  FutureRand (Theorem 4.4, Algorithm 3), c_gap in
///                Omega(eps / sqrt k). M.init (lines 8-11) draws
///                b~ = R~(1^k) once ("randomize the future"); online
///                (lines 13-15) the j-th non-zero input v is answered with
///                v * b~_nnz and a zero input with a uniform sign. Sections
///                5.3-5.4 show this keeps Properties I-III for any support
///                size up to k.
///   kBun         The same shell over Bun-Nelson-Stemmer's annulus
///                (Appendix A.2): the kp -+ sqrt((k/2) ln(2/lambda)) band
///                of Equation 43 under Fact A.6's (lambda, eps~)
///                constraints, with c_gap in O(eps/sqrt(k ln(k/eps)) +
///                (eps/(k ln(k/eps)))^{2/3}) by Theorem A.8. Only the
///                parameter block differs, so E6 compares them directly.
///   kIndependent Example 4.2: every non-zero input gets independent
///                randomized response at eps/k, zeros a uniform sign;
///                c_gap = (e^{eps/k} - 1)/(e^{eps/k} + 1) in Theta(eps/k),
///                the baseline FutureRand improves on by a sqrt(k) factor.
///   kLGrr, kLOlh, kLoloha
///                The memoized longitudinal constructions
///                (randomizer/longitudinal.h): `value` is the level-0
///                partial sum, i.e. the derivative, and the instance never
///                clamps (max_support == length).
///
/// The dyadic kinds clamp over-budget inputs: once max_support non-zero
/// values have been randomized, further non-zero values are treated as
/// zeros (uniform output), so the privacy certificate never degrades;
/// support_overflow_count() reports how many inputs were clamped.
///
/// Not thread-safe; each client owns one instance per tracked sequence.
class SequenceRandomizer final {
 public:
  /// A longitudinal instance's kind-specific mutable state, with
  /// position() and support_used() the whole of it. Plain struct: the
  /// randomizer layer sits below core, and core/fleet.cc owns the FRW
  /// framing.
  struct LongitudinalState {
    uint64_t rng_state = 0;    // SplitMix64 chain position
    int8_t tracked_state = 0;  // integrated Boolean value st[t]
    // Per true value v in {0, 1}: the permanent hash seed (hashing kinds;
    // kLoloha shares one seed across both slots, kLGrr leaves them 0) and
    // the memoized first-round value in [0, g), -1 until first sampled.
    uint64_t hash_seed[2] = {0, 0};
    int32_t memo[2] = {-1, -1};
  };

  /// M.init: one instance of `params` (non-null, from MakeRandomizerParams;
  /// every check ran when it was built, so this cannot fail). `seed`
  /// determines all of the instance's randomness.
  SequenceRandomizer(std::shared_ptr<const RandomizerParams> params,
                     uint64_t seed);

  /// Perturbs the j-th input (j advances by one per call; at most
  /// params().length calls). `value` must be -1, 0 or +1 (for the
  /// longitudinal kinds, the implied Boolean state must stay in {0,1}; the
  /// fleet validates this); the result is -1 or +1.
  int8_t Randomize(int8_t value);

  /// The shared parameter block: kind, L, k, epsilon and the exact c_gap.
  const RandomizerParams& params() const { return *params_; }

  /// Number of inputs consumed so far.
  int64_t position() const { return position_; }

  /// Non-zero inputs randomized so far (capped at params().max_support).
  int64_t support_used() const { return support_used_; }

  /// Non-zero inputs that arrived after the support budget was exhausted
  /// and were clamped to uniform output (always 0 for the longitudinal
  /// kinds).
  int64_t support_overflow_count() const {
    const auto* dyadic = std::get_if<DyadicState>(&state_);
    return dyadic == nullptr ? 0 : dyadic->overflow_count;
  }

  /// kFutureRand / kBun only: the pre-computed noise vector b~ (the online
  /// output on non-zero inputs must equal v * b~_nnz exactly).
  const SignVector& precomputed_noise() const;

  /// Longitudinal kinds only: the memoization state, for FRW fleet
  /// snapshots.
  const LongitudinalState& longitudinal_state() const;

  /// Longitudinal kinds only: checks a snapshot taken at (position,
  /// support_used) against the spec — memo range, position vs length,
  /// Boolean state, kind-specific seeds — so a forged one cannot put the
  /// randomizer into an impossible configuration. core/fleet.cc validates
  /// every client before restoring any.
  Status ValidateLongitudinalState(const LongitudinalState& state,
                                   int64_t position,
                                   int64_t support_used) const;

  /// Longitudinal kinds only: ValidateLongitudinalState, then replaces the
  /// instance's mutable state wholesale. On error nothing changes.
  Status RestoreLongitudinalState(const LongitudinalState& state,
                                  int64_t position, int64_t support_used);

 private:
  // The dyadic kinds' per-instance state.
  struct DyadicState {
    Rng rng;
    SignVector b_tilde;  // b~ for kFutureRand / kBun; empty for kIndependent
    int64_t overflow_count = 0;
  };

  // The longitudinal kinds' Randomize after the common input checks
  // (randomizer/longitudinal.cc).
  int8_t RandomizeLongitudinal(int8_t value);

  std::shared_ptr<const RandomizerParams> params_;
  int64_t position_ = 0;
  int64_t support_used_ = 0;
  std::variant<LongitudinalState, DyadicState> state_;
};

/// MakeRandomizerParams followed by the SequenceRandomizer constructor, for
/// a single instance.
Result<SequenceRandomizer> MakeSequenceRandomizer(
    RandomizerKind kind, int64_t length, int64_t max_support, double epsilon,
    uint64_t seed, double alpha = 0.5);

/// Exact c_gap the given construction achieves for (k, epsilon), without
/// instantiating a randomizer: the c_gap of its MakeRandomizerParams block,
/// so it is bit-identical to every instance's params().c_gap. Used by the
/// server for debiasing and by the c_gap comparison experiment (E6). For the
/// longitudinal kinds this is the direct estimator's sensitivity gap
/// u1 - u0 at the given `alpha` (max_support is ignored there).
Result<double> ExactCGap(RandomizerKind kind, int64_t max_support,
                         double epsilon, double alpha = 0.5);

}  // namespace futurerand::rand

#endif  // FUTURERAND_RANDOMIZER_RANDOMIZER_H_
