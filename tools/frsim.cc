// frsim: command-line simulator for the longitudinal LDP protocols.
//
//   frsim --protocol=future_rand --workload=trend --n=50000 --d=256
//         --k=8 --eps=1.0 --reps=3 --seed=1 --csv=/tmp/run.csv
//
// Runs the chosen protocol over a synthetic population and prints the error
// metrics (optionally dumping the per-period trace of the last repetition
// to CSV for plotting).

#include <cstdio>
#include <iostream>
#include <string>

#include "futurerand/common/flags.h"
#include "futurerand/common/table_printer.h"
#include "futurerand/common/threadpool.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/config.h"
#include "futurerand/core/store.h"
#include "futurerand/sim/fault_flags.h"
#include "futurerand/sim/runner.h"
#include "futurerand/sim/trace.h"
#include "futurerand/sim/workload.h"
#include "futurerand/sim/workload_flags.h"

namespace {

using namespace futurerand;

int Run(int argc, char** argv) {
  std::string protocol_name = "future_rand";
  sim::WorkloadFlags workload_flags;
  int64_t n = 20000;
  int64_t d = 256;
  int64_t k = 8;
  double eps = 1.0;
  double alpha = 0.5;
  int64_t reps = 3;
  int64_t seed = 1;
  int64_t threads = ThreadPool::DefaultThreadCount();
  int64_t shards = 0;
  bool adapt_support = false;
  const core::StoreConfig sketch_defaults;  // defaults carry the sketch knobs
  std::string store_name = "dense";
  int64_t sketch_rows = sketch_defaults.sketch_rows;
  int64_t sketch_width = sketch_defaults.sketch_width;
  int64_t sketch_seed = static_cast<int64_t>(sketch_defaults.sketch_seed);
  sim::FaultFlags fault_flags;
  std::string checkpoint_mode = "full";
  std::string csv_path;
  bool help = false;

  FlagParser parser;
  parser.AddString("protocol", &protocol_name,
                   "future_rand | independent | bun | adaptive | erlingsson "
                   "| naive_rr | central_tree | lgrr | lolh | loloha | "
                   "non_private");
  workload_flags.Register(&parser);
  parser.AddInt64("n", &n, "number of users");
  parser.AddInt64("d", &d, "time periods (power of two)");
  parser.AddInt64("k", &k, "per-user change budget");
  parser.AddDouble("eps", &eps, "privacy budget (0 < eps <= 1)");
  parser.AddDouble("alpha", &alpha,
                   "longitudinal eps_1/eps_perm split in (0, 1); only the "
                   "lgrr | lolh | loloha protocols read it");
  parser.AddInt64("reps", &reps, "independent repetitions");
  parser.AddInt64("seed", &seed, "base seed (deterministic)");
  parser.AddInt64("threads", &threads, "worker threads");
  parser.AddInt64("shards", &shards,
                  "aggregator server shards (0 = one per worker thread); "
                  "estimates are identical for any value");
  parser.AddBool("adapt_support", &adapt_support,
                 "enable per-level support adaptation (extension)");
  parser.AddString("store", &store_name,
                   "per-shard aggregate storage: dense (exact, O(d) per "
                   "shard) | sketch (count-sketch levels, O(levels*R*W) "
                   "per shard, bounded extra error)");
  parser.AddInt64("sketch-rows", &sketch_rows,
                  "count-sketch depth R (rows per sketched level), in "
                  "[1, 64]; only with --store=sketch");
  parser.AddInt64("sketch-width", &sketch_width,
                  "count-sketch width W (buckets per row), a power of two "
                  "in [8, 2^30]; only with --store=sketch");
  parser.AddInt64("sketch-seed", &sketch_seed,
                  "seed of the per-(level,row) hashes; part of the store "
                  "identity (merges require equal seeds)");
  fault_flags.Register(&parser);
  parser.AddInt64("checkpoint-every", &fault_flags.options.checkpoint_every,
                  "checkpoint + restore the aggregator every this many "
                  "periods (0 = never)");
  parser.AddString("checkpoint-mode", &checkpoint_mode,
                   "full | delta (delta serializes only dirtied shards, "
                   "with periodic full compaction blobs)");
  parser.AddInt64("checkpoint-compact-every",
                  &fault_flags.options.checkpoint_compact_every,
                  "under --checkpoint-mode=delta, take a full compaction "
                  "blob every this many checkpoints");
  parser.AddString("csv", &csv_path,
                   "optional path for the last repetition's t,truth,"
                   "estimate,abs_error trace");
  parser.AddBool("help", &help, "print usage");

  // Bad input prints the status and the usage, and exits 2.
  auto usage_error = [&](const Status& status) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 parser.Usage("frsim").c_str());
    return 2;
  };
  if (const Status parsed = parser.Parse(argc, argv); !parsed.ok()) {
    return usage_error(parsed);
  }
  if (help) {
    std::fputs(parser.Usage("frsim").c_str(), stdout);
    return 0;
  }

  if (threads < 1) {
    return usage_error(Status::InvalidArgument("--threads must be >= 1"));
  }
  const auto protocol = sim::ParseProtocolKind(protocol_name);
  if (!protocol.ok()) {
    return usage_error(protocol.status());
  }
  const auto workload_config = workload_flags.ToConfig(n, d, k);
  if (!workload_config.ok()) {
    return usage_error(workload_config.status());
  }

  core::ProtocolConfig config;
  config.num_periods = d;
  config.max_changes = k;
  config.epsilon = eps;
  config.longitudinal_alpha = alpha;
  config.adapt_support_per_level = adapt_support;
  const auto store_kind = core::ParseStoreKind(store_name);
  if (!store_kind.ok()) {
    return usage_error(store_kind.status());
  }
  if (*store_kind == core::StoreKind::kSketch) {
    config.store = core::StoreConfig::Sketch(
        static_cast<int32_t>(sketch_rows), sketch_width,
        static_cast<uint64_t>(sketch_seed));
  }
  if (const Status valid = config.store.Validate(); !valid.ok()) {
    return usage_error(valid);
  }

  const auto mode = core::ParseCheckpointMode(checkpoint_mode);
  if (!mode.ok()) {
    return usage_error(mode.status());
  }
  fault_flags.options.checkpoint_mode = *mode;
  const auto faults = fault_flags.ToOptions();
  if (!faults.ok()) {
    return usage_error(faults.status());
  }

  ThreadPool pool(static_cast<int>(threads));
  TablePrinter table({"rep", "max_error", "mean_error", "rmse", "argmax_t",
                      "reports", "seconds"});
  for (int64_t r = 0; r < reps; ++r) {
    const sim::RepetitionSeeds seeds =
        sim::SeedsForRepetition(static_cast<uint64_t>(seed), r);
    const auto workload =
        sim::Workload::Generate(*workload_config, seeds.workload);
    if (!workload.ok()) {
      std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
      return 1;
    }
    const auto result =
        sim::RunProtocol(*protocol, config, *workload, seeds.protocol, &pool,
                         static_cast<int>(shards), *faults);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    if (faults->active()) {
      std::printf("rep %lld %s\n", static_cast<long long>(r),
                  result->delivery.ToString().c_str());
    }
    table.AddRow(
        {std::to_string(r), TablePrinter::FormatDouble(result->metrics.max_abs),
         TablePrinter::FormatDouble(result->metrics.mean_abs),
         TablePrinter::FormatDouble(result->metrics.rmse),
         std::to_string(result->metrics.argmax_time),
         TablePrinter::FormatCount(result->reports_submitted),
         TablePrinter::FormatDouble(result->wall_seconds, 3)});
    if (!csv_path.empty() && r == reps - 1) {
      const Status written = sim::WriteRunCsv(csv_path, *result, *workload);
      if (!written.ok()) {
        std::fprintf(stderr, "%s\n", written.ToString().c_str());
        return 1;
      }
      std::printf("trace written to %s\n", csv_path.c_str());
    }
  }
  std::printf("%s over %s: %s\n", protocol_name.c_str(),
              workload_flags.workload.c_str(), config.ToString().c_str());
  table.Print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
