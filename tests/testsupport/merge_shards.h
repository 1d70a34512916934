// Merges two servers holding disjoint clients into one, through
// ReshardServerStates — the path a checkpoint restore into fewer shards
// takes — so the merge tests check the code that production runs.

#ifndef FUTURERAND_TESTS_TESTSUPPORT_MERGE_SHARDS_H_
#define FUTURERAND_TESTS_TESTSUPPORT_MERGE_SHARDS_H_

#include <utility>
#include <vector>

#include "futurerand/common/result.h"
#include "futurerand/core/server.h"
#include "futurerand/core/snapshot.h"

namespace futurerand::testsupport {

/// One server holding both sides' sums, clients and dedup state. Errors
/// like ReshardServerStates: on a ServerShape mismatch in any of its six
/// fields (num_periods, level scales, dedup policy, dedup window, store
/// config, estimator spec), and on a client id both sides registered.
inline Result<core::Server> MergeShards(core::Server a, core::Server b) {
  std::vector<core::Server> sources;
  sources.push_back(std::move(a));
  sources.push_back(std::move(b));
  FR_ASSIGN_OR_RETURN(std::vector<core::Server> merged,
                      core::ReshardServerStates(std::move(sources), 1));
  return std::move(merged.front());
}

}  // namespace futurerand::testsupport

#endif  // FUTURERAND_TESTS_TESTSUPPORT_MERGE_SHARDS_H_
