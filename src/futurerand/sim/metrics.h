// Error metrics between an estimate series and the exact counts.

#ifndef FUTURERAND_SIM_METRICS_H_
#define FUTURERAND_SIM_METRICS_H_

#include <cstdint>
#include <span>
#include <string>

namespace futurerand::sim {

/// Summary of |estimate - truth| over all d time periods.
struct ErrorMetrics {
  double max_abs = 0.0;   // the paper's l_inf accuracy metric (Def. 2.1)
  double mean_abs = 0.0;
  double rmse = 0.0;
  int64_t argmax_time = 0;  // 1-based t attaining max_abs

  std::string ToString() const;
};

/// Computes the metrics; the spans must be non-empty and equal length.
ErrorMetrics ComputeErrorMetrics(std::span<const double> estimates,
                                 std::span<const int64_t> truth);

/// What happened to the reports a run pushed through the (possibly lossy)
/// transport: counts from the channel model (sent/dropped/duplicated/
/// corrupted) plus the aggregator's view of what landed (applied/deduped).
/// On a perfect channel sent == delivered == applied and the fault
/// counters stay zero.
struct DeliveryMetrics {
  int64_t records_sent = 0;        // emitted by the fleet
  int64_t records_dropped = 0;     // lost in the channel (all causes)
  int64_t records_outage_dropped = 0;  // of records_dropped, lost while
                                       // the client was in an outage
  int64_t records_duplicated = 0;  // delivered a second time by the channel
  int64_t records_delayed = 0;     // held back, delivered a later tick
  int64_t records_delivered = 0;   // handed to the aggregator
  int64_t records_applied = 0;     // mutated aggregator state
  int64_t records_deduped = 0;     // absorbed as retransmissions
  int64_t records_out_of_window = 0;  // dropped behind an eviction watermark
  int64_t batches_sent = 0;
  int64_t batches_reordered = 0;   // shuffled in flight
  int64_t batches_corrupted = 0;   // bit-flipped in flight
  int64_t batches_in_burst = 0;    // sent while the channel was in the
                                   // Gilbert-Elliott bad state
  int64_t client_outages = 0;      // per-client outages entered
  int64_t batches_checksum_rejected = 0;  // receiver NACKs: ingests that
                                          // failed with kDataLoss
  int64_t batches_retransmitted = 0;  // resent after a rejected delivery
  int64_t checkpoints_taken = 0;      // checkpoint/restore round-trips
  int64_t checkpoint_bytes = 0;       // total checkpoint blob size
  int64_t delta_checkpoints_taken = 0;  // of checkpoints_taken, deltas
  int64_t delta_checkpoint_bytes = 0;   // of checkpoint_bytes, delta blobs
  int64_t registrations_replayed = 0;   // mid-stream joiner re-registrations
                                        // shipped over the wire (churn runs)

  std::string ToString() const;

  friend bool operator==(const DeliveryMetrics&,
                         const DeliveryMetrics&) = default;
};

}  // namespace futurerand::sim

#endif  // FUTURERAND_SIM_METRICS_H_
