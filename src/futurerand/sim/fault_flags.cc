#include "futurerand/sim/fault_flags.h"

#include "futurerand/common/macros.h"

namespace futurerand::sim {

void FaultFlags::Register(FlagParser* parser) {
  ChannelConfig& channel = options.channel;
  parser->AddDouble("drop-rate", &channel.drop_rate,
                    "P(report lost in the channel)");
  parser->AddDouble("dup-rate", &channel.duplicate_rate,
                    "P(report delivered twice); requires --dedup");
  parser->AddDouble("reorder-rate", &channel.reorder_rate,
                    "P(delivered batch arrives shuffled)");
  parser->AddDouble("corrupt-rate", &channel.corrupt_rate,
                    "P(one bit of the encoded batch flips); the receiver "
                    "NACKs it and the batch is retransmitted");
  parser->AddDouble("burst-enter-rate", &channel.burst_enter_rate,
                    "Gilbert-Elliott P(good->bad) per channel traversal");
  parser->AddDouble("burst-exit-rate", &channel.burst_exit_rate,
                    "Gilbert-Elliott P(bad->good); bursts last 1/rate");
  parser->AddDouble("burst-drop-rate", &channel.burst_drop_rate,
                    "drop rate while the channel is in the bad state");
  parser->AddDouble("burst-corrupt-rate", &channel.burst_corrupt_rate,
                    "corrupt rate while in the bad state");
  parser->AddDouble("outage-rate", &channel.outage_enter_rate,
                    "P(a client goes dark), evaluated per report");
  parser->AddDouble("outage-recovery-rate", &channel.outage_exit_rate,
                    "P(a dark client recovers), evaluated per report");
  parser->AddDouble("delay-rate", &channel.delay_rate,
                    "P(a delivered report is delayed into a later tick); "
                    "requires --dedup");
  parser->AddInt64("delay-max-ticks", &channel.delay_ticks_max,
                   "uniform delay bound in ticks");
  parser->AddInt64("retransmit-budget", &options.retransmit_budget,
                   "max TOTAL transmissions per batch (N = initial + up to "
                   "N-1 resends)");
  parser->AddBool("dedup", &dedup,
                  "idempotent ingest: duplicates and retries are absorbed "
                  "(a frserve must run with --dedup too)");
  parser->AddInt64("dedup-window", &options.dedup_window.window_boundaries,
                   "bounded per-client dedup memory in boundaries (0 = "
                   "unbounded); requires --dedup");
}

Result<FaultOptions> FaultFlags::ToOptions() const {
  FaultOptions resolved = options;
  resolved.dedup =
      dedup ? core::DedupPolicy::kIdempotent : core::DedupPolicy::kStrict;
  FR_RETURN_NOT_OK(resolved.Validate());
  return resolved;
}

}  // namespace futurerand::sim
