// Error metrics between an estimate series and the exact counts, and the
// delivery counters of a run's transport.

#ifndef FUTURERAND_SIM_METRICS_H_
#define FUTURERAND_SIM_METRICS_H_

#include <cstdint>
#include <span>
#include <string>
#include <tuple>

#include "futurerand/common/fields.h"

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

/// DeliveryMetrics' counters as X(type, name) entries, in output order
/// (common/fields.h): the channel, ingest and retransmission counters,
/// then the checkpoint group.
#define FR_DELIVERY_TRANSPORT_FIELDS(X)                                      \
  X(int64_t, records_sent)           /* emitted by the fleet */              \
  X(int64_t, records_dropped)        /* lost in the channel (all causes) */  \
  X(int64_t, records_outage_dropped) /* of those, lost in a client outage */ \
  X(int64_t, records_duplicated)     /* delivered twice by the channel */    \
  X(int64_t, records_delayed)        /* held back, delivered a later tick */ \
  X(int64_t, records_delivered)      /* handed to the aggregator */          \
  X(int64_t, records_applied)        /* mutated aggregator state */          \
  X(int64_t, records_deduped)        /* absorbed as retransmissions */       \
  X(int64_t, records_out_of_window)  /* behind an eviction watermark */      \
  X(int64_t, batches_sent)                                                   \
  X(int64_t, batches_reordered)      /* shuffled in flight */                \
  X(int64_t, batches_corrupted)      /* bit-flipped in flight */             \
  X(int64_t, batches_in_burst)       /* sent in a Gilbert-Elliott burst */   \
  X(int64_t, client_outages)         /* per-client outages entered */        \
  X(int64_t, batches_checksum_rejected) /* receiver NACKs (kDataLoss) */     \
  X(int64_t, batches_retransmitted)  /* resent after a rejected delivery */  \
  X(int64_t, registrations_replayed) /* churn joiners re-registered */
#define FR_DELIVERY_CHECKPOINT_FIELDS(X)                                  \
  X(int64_t, checkpoints_taken)      /* checkpoint/restore round-trips */ \
  X(int64_t, checkpoint_bytes)       /* total checkpoint blob size */     \
  X(int64_t, delta_checkpoints_taken) /* of checkpoints_taken, deltas */  \
  X(int64_t, delta_checkpoint_bytes) /* of checkpoint_bytes, delta blobs */

/// What happened to the reports a run pushed through the (possibly lossy)
/// transport: counts from the channel model (sent/dropped/duplicated/
/// corrupted) plus the aggregator's view of what landed (applied/deduped).
/// On a perfect channel sent == delivered == applied and the fault
/// counters stay zero. Conservation on every run: delivered = sent -
/// dropped + duplicated = applied + deduped + out_of_window.
struct DeliveryMetrics {
  using Self = DeliveryMetrics;
  FR_DELIVERY_TRANSPORT_FIELDS(FR_FIELD_MEMBER)
  FR_DELIVERY_CHECKPOINT_FIELDS(FR_FIELD_MEMBER)

  /// Every field but the checkpoint group: what bench_throughput emits,
  /// since its own checkpoint_bytes / delta_checkpoint_bytes keys measure
  /// single blobs of its recovery stage.
  static constexpr auto TransportFields() {
    return std::tuple{FR_DELIVERY_TRANSPORT_FIELDS(FR_FIELD_ENTRY)};
  }

  /// The field table: ToString, operator+= and JsonLine::AddFields all
  /// iterate it.
  static constexpr auto Fields() {
    return std::tuple_cat(
        TransportFields(),
        std::tuple{FR_DELIVERY_CHECKPOINT_FIELDS(FR_FIELD_ENTRY)});
  }

  /// "DeliveryMetrics{records_sent=... delta_checkpoint_bytes=...}".
  std::string ToString() const;

  DeliveryMetrics& operator+=(const DeliveryMetrics& other) {
    AccumulateFields(*this, other);
    return *this;
  }

  friend bool operator==(const DeliveryMetrics&,
                         const DeliveryMetrics&) = default;
};

}  // namespace futurerand::sim

#endif  // FUTURERAND_SIM_METRICS_H_
