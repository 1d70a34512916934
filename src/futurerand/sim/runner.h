// End-to-end experiment runner: plays a workload through a chosen protocol
// and reports the estimate series plus error metrics. Client-side work is
// batch-advanced by a core::ClientFleet (or chunked per user for the
// sequential baselines) and all aggregation flows through the thread-safe
// core::ShardedAggregator — the runner itself owns no shards and merges
// nothing.

#ifndef FUTURERAND_SIM_RUNNER_H_
#define FUTURERAND_SIM_RUNNER_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "futurerand/common/fields.h"
#include "futurerand/common/result.h"
#include "futurerand/common/stats.h"
#include "futurerand/common/threadpool.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/config.h"
#include "futurerand/core/fleet.h"
#include "futurerand/core/server.h"
#include "futurerand/sim/channel.h"
#include "futurerand/sim/metrics.h"
#include "futurerand/sim/workload.h"

namespace futurerand::sim {

/// Every end-to-end pipeline the harness can run.
enum class ProtocolKind {
  kFutureRand,   // Algorithms 1+2 with the Section 5 randomizer
  kIndependent,  // Algorithms 1+2 with the Example 4.2 randomizer
  kBun,          // Algorithms 1+2 with the Appendix A.2 randomizer
  kAdaptive,     // Algorithms 1+2 with the max-c_gap randomizer (extension)
  kErlingsson,   // the Section 6 online baseline
  kNaiveRR,      // repeated randomized response at eps/d (intro strawman)
  kCentralTree,  // central-model binary-tree mechanism (Section 6 reference)
  kLGrr,         // memoized longitudinal L-GRR (randomizer/longitudinal.h)
  kLOlh,         // memoized longitudinal L-OLH (optimal-g L-LH)
  kLoloha,       // memoized longitudinal OLOLOHA (shared permanent seed)
  kNonPrivate,   // exact dyadic pipeline (sanity reference; keep last)
};

/// Every ProtocolKind, in enum order — the single source of truth for code
/// that enumerates pipelines (flag parsing, sweeps, tests).
inline constexpr ProtocolKind kAllProtocolKinds[] = {
    ProtocolKind::kFutureRand,  ProtocolKind::kIndependent,
    ProtocolKind::kBun,         ProtocolKind::kAdaptive,
    ProtocolKind::kErlingsson,  ProtocolKind::kNaiveRR,
    ProtocolKind::kCentralTree, ProtocolKind::kLGrr,
    ProtocolKind::kLOlh,        ProtocolKind::kLoloha,
    ProtocolKind::kNonPrivate,
};
static_assert(std::size(kAllProtocolKinds) ==
                  static_cast<size_t>(ProtocolKind::kNonPrivate) + 1,
              "extend kAllProtocolKinds when adding a ProtocolKind");

constexpr std::span<const ProtocolKind> AllProtocolKinds() {
  return kAllProtocolKinds;
}

const char* ProtocolKindToString(ProtocolKind kind);

/// Parses a display name (as produced by ProtocolKindToString) back to its
/// kind by scanning AllProtocolKinds() — the one parser every flag surface
/// shares.
Result<ProtocolKind> ParseProtocolKind(const std::string& name);

/// The sequence randomizer a fleet-driven pipeline runs: the one map from
/// ProtocolKind to rand::RandomizerKind, shared by RunProtocol and every
/// tool that builds the same fleet. InvalidArgument for the pipelines that
/// bypass the fleet (Erlingsson, naive RR, central tree, non-private).
Result<rand::RandomizerKind> RandomizerFor(ProtocolKind kind);

/// Fault-tolerance knobs for a protocol run: a lossy channel between the
/// fleet and the aggregator, the aggregator's dedup policy, and periodic
/// checkpoint/restore round-trips. Defaults model the paper's ideal
/// transport (perfect channel, strict dedup, no checkpoints). Only the
/// seven fleet-driven pipelines (the kinds RandomizerFor maps: FutureRand,
/// Independent, Bun, Adaptive, L-GRR, L-OLH, LOLOHA) support non-default
/// options — the baselines bypass the batch transport. Report batches
/// carry an FNV-1a trailer, so the aggregator itself detects in-flight
/// corruption (kDataLoss) and the retransmit loop runs off that verdict.
struct FaultOptions {
  ChannelConfig channel;
  /// Max TOTAL transmissions per batch before the run fails with kDataLoss
  /// (>= 1): a budget of N allows exactly N deliveries of one batch — the
  /// initial transmission plus up to N - 1 retransmissions (so N - 1 is
  /// the most that ever lands in batches_retransmitted for one batch, and
  /// a budget of 1 means "never retransmit"). This contract is pinned by
  /// RetransmitLoop and shared verbatim by the network client's NACK loop
  /// (net::DeliverEncodedOverStream). Every attempt re-traverses the
  /// channel, so a Gilbert-Elliott burst can reject several attempts in a
  /// row; size the budget against the expected burst length (see
  /// docs/ARCHITECTURE.md "Operations").
  int64_t retransmit_budget = 32;
  core::DedupPolicy dedup = core::DedupPolicy::kStrict;
  /// Bounds the aggregator's per-client dedup memory (kIdempotent only);
  /// see core::DedupWindowPolicy. Reports older than a client's evicted
  /// horizon are dropped and show up in DeliveryMetrics as
  /// records_out_of_window.
  core::DedupWindowPolicy dedup_window;
  /// Every this many ticks the runner checkpoints the aggregator and
  /// restores a freshly built one from the checkpoint chain, proving
  /// mid-stream recovery on the live pipeline. 0 disables.
  int64_t checkpoint_every = 0;
  /// kFull serializes every shard each time; kDelta serializes only the
  /// shards dirtied since the previous checkpoint, with every
  /// `checkpoint_compact_every`-th checkpoint a full compaction blob that
  /// restarts the chain.
  core::CheckpointMode checkpoint_mode = core::CheckpointMode::kFull;
  /// Compaction cadence of kDelta mode, in checkpoints (>= 1; 1 degrades
  /// to all-full). Ignored under kFull.
  int64_t checkpoint_compact_every = 8;

  /// True iff any option deviates from the ideal-transport default.
  bool active() const {
    return channel.enabled() || dedup != core::DedupPolicy::kStrict ||
           dedup_window.bounded() || checkpoint_every > 0;
  }

  /// Checks rates and cross-option consistency: duplicate faults require
  /// kIdempotent (under kStrict a duplicate is an ingest error), as do
  /// delayed records (they arrive out of order per client) and a bounded
  /// dedup window. Corrupt faults need no dedup: the checksum rejects a
  /// corrupted batch atomically before any record is decoded, so
  /// retransmission is safe even under kStrict.
  Status Validate() const;
};

/// Ships one encoded batch into `aggregator` with detection-driven
/// (NACK-style) retransmission — the single copy of the delivery policy
/// shared by RunProtocol and bench_throughput. Each attempt re-traverses
/// `channel` (nullable = no corruption possible); an attempt rejected with
/// kDataLoss is retransmitted, any other error is returned as-is. Gives
/// up after `retransmit_budget` attempts with kDataLoss. `delivery`
/// (required) accumulates the applied/deduped/out-of-window record counts
/// and the checksum-NACK/retransmission batch counters.
Status DeliverEncodedWithRetransmission(core::ShardedAggregator& aggregator,
                                        const std::string& pristine,
                                        ChannelModel* channel,
                                        int64_t retransmit_budget,
                                        ThreadPool* pool,
                                        DeliveryMetrics* delivery);

/// The single copy of the NACK/retransmit budget policy, shared by the
/// in-process delivery above and the network client
/// (net::DeliverEncodedOverStream) so the two can never drift. Calls
/// `attempt` up to `retransmit_budget` times TOTAL — budget N = the
/// initial transmission plus at most N - 1 retransmissions. `attempt`
/// returns true when the batch was accepted (loop ends OK), false when the
/// receiver NACKed it (loop retries, bumping
/// delivery->batches_retransmitted), or an error Status for any verdict
/// that retransmission cannot fix (propagated as-is). Exhausting the
/// budget fails with kDataLoss.
Status RetransmitLoop(int64_t retransmit_budget,
                      const std::function<Result<bool>()>& attempt,
                      DeliveryMetrics* delivery);

/// Ships one encoded report batch to the aggregator, wherever it lives.
/// `index` counts shipped batches from 0: tick t ships index t - 1 and
/// the end-of-stream flush of delayed records index d. `channel` is the
/// run's channel, null on an ideal transport; a shipper that retransmits
/// passes it on so every attempt re-traverses it.
using ShipBatchFn = std::function<Status(const std::string& pristine,
                                         int64_t index,
                                         ChannelModel* channel)>;

/// Delivers one encoded registration batch: the fleet's registrations
/// before tick 1, then each churn tick's joiners.
using RegisterBatchFn = std::function<Status(const std::string& bytes)>;

/// Runs after tick t's batch was shipped.
using TickHookFn = std::function<Status(int64_t t)>;

/// DriveStats' fields as X(type, name) entries (common/fields.h).
#define FR_DRIVE_STATS_FIELDS(X)                                            \
  X(int64_t, reports)                                                       \
  X(double, replay_seconds)     /* change_times -> per-tick state vector */ \
  X(double, tick_seconds)       /* ClientFleet::AdvanceTick */              \
  X(double, channel_seconds)    /* ChannelModel Transmit + FlushDelayed */  \
  X(double, encode_seconds)     /* report batches to wire bytes */          \
  X(double, ship_seconds)       /* the ship callable */                     \
  X(double, register_seconds)   /* encode + deliver registrations */        \
  X(double, after_tick_seconds) /* the after_tick hook */

/// Where DriveFleet's wall time went, stage by stage, plus the reports the
/// fleet emitted. The clocks only observe: call order, random draws and
/// batch contents are the same whoever reads them.
struct DriveStats {
  using Self = DriveStats;
  FR_DRIVE_STATS_FIELDS(FR_FIELD_MEMBER)

  /// The field table, iterated by JsonLine::AddFields.
  static constexpr auto Fields() {
    return std::tuple{FR_DRIVE_STATS_FIELDS(FR_FIELD_ENTRY)};
  }
};

/// The one copy of a run's client side (Algorithm 1, one period per tick),
/// shared by the in-process runner and the frload service client so the
/// two stay bit-identical by construction, and by the throughput and
/// shootout benches so they measure that same loop. Every byte a run puts
/// on the wire is encoded here; the callers only deliver it. First the
/// fleet's registrations go to `register_batch`; then for t = 1..d it
///   1. replays each user's change_times into the state vector;
///   2. on churn workloads under kIdempotent, hands the registrations of
///      the users joining at t to `register_batch` (counted in
///      registrations_replayed). Registration is control-plane traffic:
///      it never traverses the channel, so the channel's random stream and
///      therefore the estimates match the truncated-trace twin;
///   3. advances `fleet` one tick, passes the batch through the channel
///      (seeded ChannelSeedForRun(seed)) when faults.channel is enabled,
///      encodes what it delivered and `ship`s the bytes;
///   4. calls `after_tick(t)` unless it is empty.
/// After tick d the records the channel still delays are flushed, encoded
/// and shipped, and the channel counters are added to `delivery`; with no
/// channel, records sent = delivered = reports and batches_sent = d.
/// `fleet` must be freshly created for `workload`; `ship` and
/// `register_batch` are required. Returns the reports emitted and the wall
/// seconds spent in each stage.
Result<DriveStats> DriveFleet(core::ClientFleet& fleet,
                              const Workload& workload,
                              const FaultOptions& faults, uint64_t seed,
                              ThreadPool* pool, const ShipBatchFn& ship,
                              const RegisterBatchFn& register_batch,
                              const TickHookFn& after_tick,
                              DeliveryMetrics* delivery);

/// The outcome of one protocol run on one workload.
struct RunResult {
  std::vector<double> estimates;  // a_hat[t], t = 1..d
  ErrorMetrics metrics;           // vs the workload's exact ground truth
  DeliveryMetrics delivery;       // transport counters (see FaultOptions)
  double wall_seconds = 0.0;
  int64_t reports_submitted = 0;
};

/// Runs `kind` over `workload`. `config.randomizer` is overridden to match
/// `kind` where applicable; `seed` drives all protocol randomness (clients
/// fork per-user streams from it). `pool` may be null for single-threaded
/// execution. `num_shards` sets the ShardedAggregator's shard count
/// (0 = one shard per worker thread); estimates are bit-identical for any
/// value, so it is purely a throughput knob. `faults` injects transport
/// faults and recovery round-trips (fleet-driven pipelines only).
Result<RunResult> RunProtocol(ProtocolKind kind,
                              const core::ProtocolConfig& config,
                              const Workload& workload, uint64_t seed,
                              ThreadPool* pool = nullptr,
                              int num_shards = 0,
                              const FaultOptions& faults = {});

/// Aggregated error statistics over repeated runs with fresh workload and
/// protocol randomness per repetition.
struct RepeatedRunStats {
  RunningStat max_abs_error;
  RunningStat mean_abs_error;
  RunningStat rmse;
  double total_wall_seconds = 0.0;
  int64_t repetitions = 0;
};

/// The seeds of repetition r of a repeated run, shared by RunRepeated,
/// frsim and bench_shootout: workload seed base_seed + 2r + 1 and protocol
/// seed base_seed + 2r + 2, both modulo 2^64.
struct RepetitionSeeds {
  uint64_t workload;
  uint64_t protocol;
};
constexpr RepetitionSeeds SeedsForRepetition(uint64_t base_seed,
                                             int64_t r) {
  const uint64_t offset = 2 * static_cast<uint64_t>(r);
  return {base_seed + offset + 1, base_seed + offset + 2};
}

/// Runs `repetitions` independent (workload, protocol) pairs and aggregates
/// the error metrics, repetition r seeded by SeedsForRepetition(base_seed,
/// r).
Result<RepeatedRunStats> RunRepeated(ProtocolKind kind,
                                     const core::ProtocolConfig& config,
                                     const WorkloadConfig& workload_config,
                                     int repetitions, uint64_t base_seed,
                                     ThreadPool* pool = nullptr,
                                     int num_shards = 0,
                                     const FaultOptions& faults = {});

}  // namespace futurerand::sim

#endif  // FUTURERAND_SIM_RUNNER_H_
