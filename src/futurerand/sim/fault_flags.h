// The one command-line surface for transport faults: every tool that
// injects them (frsim, frload) binds this struct to its FlagParser instead
// of declaring the channel rates, the retransmit budget and the dedup
// policy by hand, so the two tools can never disagree on a flag.

#ifndef FUTURERAND_SIM_FAULT_FLAGS_H_
#define FUTURERAND_SIM_FAULT_FLAGS_H_

#include "futurerand/common/flags.h"
#include "futurerand/common/result.h"
#include "futurerand/sim/runner.h"

namespace futurerand::sim {

/// Caller-owned storage for the fault flag family; every flag but --dedup
/// writes straight into `options`, so the defaults are FaultOptions'.
struct FaultFlags {
  FaultOptions options;
  bool dedup = false;

  /// Registers the twelve channel flags plus --retransmit-budget, --dedup
  /// and --dedup-window on `parser`. This struct must outlive the parser's
  /// Parse call.
  void Register(FlagParser* parser);

  /// The parsed flags as validated FaultOptions.
  Result<FaultOptions> ToOptions() const;
};

}  // namespace futurerand::sim

#endif  // FUTURERAND_SIM_FAULT_FLAGS_H_
