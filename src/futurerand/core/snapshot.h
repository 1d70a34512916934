// Versioned checkpoint formats for server and aggregator state.
//
// A restarted collector must resume with bit-identical estimates, so the
// snapshot serializes everything a Server accumulates: per-interval report
// sums, per-level client counts and debiasing scales (raw IEEE-754 bits),
// the registered-client map, and the dedup bookkeeping (per-client last
// report times under kStrict, windowed boundary bitmaps under kIdempotent,
// including the eviction watermark of a bounded DedupWindowPolicy).
//
// Four blob kinds reuse the FRW header scheme of core/wire.h and end with
// an FNV-1a 64 checksum over the entire blob, so persisted state that
// rotted on disk or in transit is always rejected — a corrupted checkpoint
// must never restore silently:
//
//   kServerState (3)        one dense-store Server, self-contained
//   kAggregatorState (4)    every shard of a ShardedAggregator, plus the
//                           checkpoint epoch that anchors delta chains
//   kAggregatorDelta (5)    only the shards dirtied since the previous
//                           checkpoint, chained to its base by (epoch, seq)
//   kServerStateSketch (8)  one sketch-store Server: the same layout as
//                           kServerState with the sketch parameters
//                           (rows, width, seed) after d and the raw cell
//                           arena in place of per-interval counters
//
// The store backend picks the server-state kind (EncodeServerState emits 3
// for dense, 8 for sketch; DecodeServerState accepts both), and aggregator
// blobs nest either kind, so full/delta checkpoint chains and elastic
// resharding work unchanged under both backends.
//
// docs/FORMATS.md is the normative byte-layout specification for all of
// them (varint/zigzag rules, per-kind diagrams, trailer); this header only
// summarizes the semantics. scripts/check_format_spec.sh cross-checks the
// kind constants against that spec.

#ifndef FUTURERAND_CORE_SNAPSHOT_H_
#define FUTURERAND_CORE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "futurerand/common/result.h"
#include "futurerand/core/server.h"

namespace futurerand::core {

/// Serializes one Server's full state. Deterministic: equal server state
/// yields equal bytes (clients are emitted in id order). Thread-compatible:
/// the caller must hold off concurrent mutation of `server`.
std::string EncodeServerState(const Server& server);

/// Rebuilds a Server from EncodeServerState output. Rejects truncation,
/// checksum mismatches, malformed fields, and implausible shapes; the
/// returned server answers every Estimate* query bit-identically to the
/// encoded one and continues ingesting exactly where it left off
/// (including dedup-window eviction watermarks).
Result<Server> DecodeServerState(std::string_view bytes);

/// A decoded aggregator checkpoint: the per-shard ServerState blobs (still
/// encoded; decode each with DecodeServerState) and the checkpoint epoch
/// that subsequent delta blobs chain to (0 = no chain anchor).
struct AggregatorStateBlob {
  uint64_t epoch = 0;
  std::vector<std::string> shards;
};

/// Frames per-shard ServerState blobs into one full aggregator checkpoint.
/// Used by ShardedAggregator::Checkpoint; exposed for tools that persist
/// shard state themselves. `epoch` anchors delta chains — pass 0 (the
/// default) when no deltas will be taken against this blob. A non-zero
/// epoch must be the state fingerprint Checkpoint() computes;
/// ShardedAggregator::Restore verifies that and rejects a guessed value,
/// so a tool-minted blob can never let a delta chain onto the wrong base.
std::string EncodeAggregatorState(const std::vector<std::string>& shards,
                                  uint64_t epoch = 0);

/// Splits a full aggregator checkpoint back into its epoch and per-shard
/// ServerState blobs. Rejects truncation, checksum mismatches and
/// trailing bytes.
Result<AggregatorStateBlob> DecodeAggregatorState(std::string_view bytes);

/// One re-encoded shard inside a delta checkpoint.
struct ShardDelta {
  int64_t shard_index = 0;
  std::string state;  // an EncodeServerState blob

  friend bool operator==(const ShardDelta&, const ShardDelta&) = default;
};

/// A delta checkpoint: the shards of a `num_shards`-wide aggregator that
/// changed since the previous checkpoint in the chain. A delta applies only
/// to an aggregator whose last checkpoint or restore was (epoch, seq - 1)
/// of the same chain — ShardedAggregator::Restore enforces this, so a delta
/// can never be applied to the wrong base or out of order.
struct AggregatorDeltaBlob {
  int64_t num_shards = 0;
  uint64_t epoch = 0;  // the full checkpoint chain this delta extends
  uint64_t seq = 0;    // 1-based position within the epoch
  std::vector<ShardDelta> shards;  // strictly increasing shard_index
};

/// Frames a delta checkpoint (FRW kind kAggregatorDelta, FNV-1a trailer).
/// Shard entries must carry strictly increasing indices in
/// [0, num_shards); violations are FR_CHECKed (programming error).
std::string EncodeAggregatorDelta(const AggregatorDeltaBlob& delta);

/// Parses a delta checkpoint; rejects truncation, checksum mismatches,
/// out-of-range or non-increasing shard indices, and trailing bytes.
Result<AggregatorDeltaBlob> DecodeAggregatorDelta(std::string_view bytes);

/// Re-buckets the client state of `sources` (the decoded shards of a
/// K-shard checkpoint) onto `new_num_shards` fresh servers keyed by
/// id mod new_num_shards — the ShardedAggregator::ShardIndex mapping. Every
/// client's registration and dedup state moves to its new shard; the
/// interval sums (which are per-shard aggregates, not attributable to
/// clients) land on shard 0, so any query that sums over shards — which is
/// all of them — answers bit-identically to the source. All sources must
/// share one ServerShape and hold disjoint clients.
Result<std::vector<Server>> ReshardServerStates(std::vector<Server> sources,
                                                int new_num_shards);

}  // namespace futurerand::core

#endif  // FUTURERAND_CORE_SNAPSHOT_H_
