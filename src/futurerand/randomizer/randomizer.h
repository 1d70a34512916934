// The sequence-randomizer interface M of Section 4.2.
//
// A SequenceRandomizer perturbs a length-L sequence v_1..v_L over {-1,0,+1}
// with at most k non-zero entries, emitting one output in {-1,+1} per input
// as it arrives (online). Implementations must satisfy the paper's three
// properties:
//
//   Property I   (privacy): every output sequence w in {-1,+1}^L has
//                probability in [p_min, p_max] with p_max <= e^eps * p_min,
//                for every k-sparse input.
//   Property II  (signal):  Pr[out = v_j] - Pr[out = -v_j] = c_gap for every
//                non-zero v_j, with a common gap c_gap.
//   Property III (zeros):   zero inputs map to uniform +/-1.
//
// c_gap() must return the exact gap so the server's debiasing
// (1+log d) * c_gap^{-1} * omega is exactly unbiased (Observation 4.3).

#ifndef FUTURERAND_RANDOMIZER_RANDOMIZER_H_
#define FUTURERAND_RANDOMIZER_RANDOMIZER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "futurerand/common/result.h"
#include "futurerand/randomizer/basic.h"
#include "futurerand/randomizer/composed.h"

namespace futurerand::rand {

/// Online randomizer for one user's report sequence: a pointer to its
/// shared RandomizerParams plus the user's own mutable state (RNG, position,
/// support counters, pre-computed noise). Not thread-safe; each client owns
/// one instance per tracked sequence.
class SequenceRandomizer {
 public:
  virtual ~SequenceRandomizer() = default;

  /// Perturbs the j-th input (j advances by one per call; at most length()
  /// calls). `value` must be -1, 0 or +1; the result is -1 or +1.
  ///
  /// Implementations clamp over-budget inputs: once max_support() non-zero
  /// values have been randomized, further non-zero values are treated as
  /// zeros (uniform output) so the privacy certificate never degrades;
  /// support_overflow_count() reports how many inputs were clamped.
  virtual int8_t Randomize(int8_t value) = 0;

  /// Exact common gap Pr[keep] - Pr[flip] for non-zero inputs (Property II).
  virtual double c_gap() const = 0;

  /// Sequence length L this randomizer was initialized for.
  virtual int64_t length() const = 0;

  /// Sparsity budget k.
  virtual int64_t max_support() const = 0;

  /// Privacy budget epsilon the construction certifies.
  virtual double epsilon() const = 0;

  /// Number of inputs consumed so far.
  virtual int64_t position() const = 0;

  /// Non-zero inputs randomized so far (capped at max_support()).
  virtual int64_t support_used() const = 0;

  /// Non-zero inputs that arrived after the support budget was exhausted and
  /// were clamped to uniform output.
  virtual int64_t support_overflow_count() const = 0;

  /// Short identifier, e.g. "future_rand".
  virtual std::string name() const = 0;
};

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
/// across threads too, by every instance NewRandomizer stamps out of it.
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

/// Stamps out one instance of `params` (non-null, from
/// MakeRandomizerParams). `seed` determines all of the instance's
/// randomness. Cannot fail: every check ran when the block was built.
std::unique_ptr<SequenceRandomizer> NewRandomizer(
    std::shared_ptr<const RandomizerParams> params, uint64_t seed);

/// MakeRandomizerParams followed by NewRandomizer, for a single instance.
Result<std::unique_ptr<SequenceRandomizer>> MakeSequenceRandomizer(
    RandomizerKind kind, int64_t length, int64_t max_support, double epsilon,
    uint64_t seed, double alpha = 0.5);

/// Exact c_gap the given construction achieves for (k, epsilon), without
/// instantiating a randomizer: the c_gap of its MakeRandomizerParams block,
/// so it is bit-identical to every instance's c_gap(). Used by the server
/// for debiasing and by the c_gap comparison experiment (E6). For the
/// longitudinal kinds this is the direct estimator's sensitivity gap
/// u1 - u0 at the given `alpha` (max_support is ignored there).
Result<double> ExactCGap(RandomizerKind kind, int64_t max_support,
                         double epsilon, double alpha = 0.5);

}  // namespace futurerand::rand

#endif  // FUTURERAND_RANDOMIZER_RANDOMIZER_H_
