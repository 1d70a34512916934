// Arcolezi-line memoized longitudinal randomizers (L-GRR, L-OLH, LOLOHA).
//
// These constructions protect a user's value sequence with a two-round
// chained GRR: a permanent first round at eps_perm memoizes one sanitized
// value per true value (sampled once, reused for every subsequent report of
// that value), and a fresh second round at the derived eps_1 = alpha *
// eps_perm perturbs the memoized value every tick. The memoization shield
// gives eps_perm-DP over the whole report sequence while each individual
// report is only eps_1-DP — the eps_perm/eps_1 split the longitudinal
// literature calls "privacy over time".
//
//   kLGrr    L-GRR: chained GRR directly on the Boolean domain (g = 2).
//   kLOlh    L-OLH: hash into [0, g) with a per-value seed, then L-GRR over
//            g; g is the optimal-g parameterization of the L-LH family.
//   kLoloha  OLOLOHA: one permanent per-client hash seed shared by every
//            value, the same optimal g, parameterized by alpha.
//
// As a SequenceRandomizer (randomizer.h) kind: unlike the dyadic
// constructions, a longitudinal client sits at level 0 and reports every
// tick. The randomizer ingests the level-0 partial sum — which at level 0
// is exactly the derivative st[t] - st[t-1] — and integrates it back into
// the Boolean state internally, so the fleet/client tick paths feed it
// exactly like any other kind. The +/-1 output is the support bit of the
// sanitized report against the hash of value 1 (or the report itself for
// kLGrr), keeping the existing one-bit wire format:
//
//   E[report | st = 1] = u1 = 2*p_stay - 1
//   E[report | st = 0] = u0   (kLGrr: 1 - 2*p_stay; hashing kinds: 2/g - 1)
//
// so the server's direct estimator n1_hat(t) = (S_t - n*u0) / (u1 - u0) is
// unbiased (see core::EstimatorSpec). The parameter block's c_gap is
// u1 - u0, the estimator's sensitivity gap.
//
// All randomness is drawn from a serializable SplitMix64 chain, so the
// memoized state round-trips bit-identically through FRW fleet snapshots
// (core::ClientFleet::EncodeLongitudinalState, FORMATS.md kind 9).

#ifndef FUTURERAND_RANDOMIZER_LONGITUDINAL_H_
#define FUTURERAND_RANDOMIZER_LONGITUDINAL_H_

#include <cstdint>

#include "futurerand/common/result.h"
#include "futurerand/randomizer/randomizer.h"

namespace futurerand::rand {

/// Computes the exact LongitudinalSpec (randomizer.h) for the kind. Errors
/// unless 0 < epsilon <= 1 (the repo's regime), 0 < alpha < 1, and the
/// derived round-2 probabilities are non-negative (alpha too close to 1
/// makes p2 negative for some g — the SNIPPETS reference rejects those too).
Result<LongitudinalSpec> MakeLongitudinalSpec(RandomizerKind kind,
                                              double epsilon, double alpha);

/// The optimal GRR domain size g for the hashing kinds (L-OLH / OLOLOHA)
/// at (eps_perm, alpha), floored at 2. kLGrr always uses g = 2.
int64_t OptimalLongitudinalG(double eps_perm, double alpha);

}  // namespace futurerand::rand

#endif  // FUTURERAND_RANDOMIZER_LONGITUDINAL_H_
