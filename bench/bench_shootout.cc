// Cross-protocol shootout: every wire-transport pipeline (the dyadic
// FutureRand family and the memoized longitudinal L-GRR / L-OLH / LOLOHA)
// over one measured fleet -> encode -> decode -> aggregate run per grid
// point, sweeping one axis at a time (eps, d, n) around a base point.
//
// Per (protocol, grid point) one JSON line reports the accuracy AND the
// systems cost of the protocol on identical workloads:
//
//   {"bench":"shootout","axis":"eps","protocol":"lolh","n":...,"d":...,
//    "eps":...,"alpha":...,"reps":...,"mean_max_error":...,
//    "mean_abs_error":...,"reports_per_user":...,"bytes_per_report":...,
//    "client_us_per_report":...,"server_us_per_report":...}
//
// bytes_per_report divides the encoded v2 batch bytes actually shipped
// (registrations included) by the report count. Client and server CPU are
// single-thread wall times that sim::DriveFleet — the tick loop
// RunProtocol and frload share — measures: client = tick + report encode,
// server = registration (encode + ingest) + report decode and ingest +
// EstimateAll. The longitudinal protocols trade
// ~log d fewer reports per user for an every-tick cadence — this bench is
// where that trade is visible in one table.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "futurerand/common/flags.h"
#include "futurerand/common/timer.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/fleet.h"
#include "futurerand/randomizer/randomizer.h"
#include "futurerand/sim/metrics.h"
#include "futurerand/sim/runner.h"
#include "futurerand/sim/workload_flags.h"

namespace {

using namespace futurerand;

// The pipelines with a batch wire transport to measure (the kinds
// sim::RandomizerFor maps): dyadic kinds first, longitudinal kinds last.
constexpr sim::ProtocolKind kShootoutProtocols[] = {
    sim::ProtocolKind::kFutureRand, sim::ProtocolKind::kIndependent,
    sim::ProtocolKind::kBun,        sim::ProtocolKind::kAdaptive,
    sim::ProtocolKind::kLGrr,       sim::ProtocolKind::kLOlh,
    sim::ProtocolKind::kLoloha,
};

// One measured end-to-end run, accumulated over `reps` repetitions.
struct Measured {
  double mean_max_error = 0.0;
  double mean_abs_error = 0.0;
  int64_t reports = 0;
  int64_t bytes = 0;
  double client_seconds = 0.0;  // tick + randomize + encode
  double server_seconds = 0.0;  // register + decode + ingest + estimate
};

Result<Measured> RunOnce(sim::ProtocolKind protocol,
                         const core::ProtocolConfig& base,
                         const sim::WorkloadConfig& workload_config,
                         int reps, uint64_t seed) {
  core::ProtocolConfig config = base;
  FR_ASSIGN_OR_RETURN(config.randomizer, sim::RandomizerFor(protocol));
  FR_RETURN_NOT_OK(config.Validate());
  const int64_t n = workload_config.num_users;
  Measured total;
  for (int r = 0; r < reps; ++r) {
    // The RunRepeated seed convention, so errors here match the harness.
    const sim::RepetitionSeeds seeds = sim::SeedsForRepetition(seed, r);
    FR_ASSIGN_OR_RETURN(const sim::Workload workload,
                        sim::Workload::Generate(workload_config,
                                                seeds.workload));
    FR_ASSIGN_OR_RETURN(core::ClientFleet fleet,
                        core::ClientFleet::Create(config, n, seeds.protocol));
    FR_ASSIGN_OR_RETURN(core::ShardedAggregator aggregator,
                        core::ShardedAggregator::ForProtocol(config, 1));
    // sim::DriveFleet plays the workload over an ideal transport and
    // encodes every batch; the callables only count and ingest the bytes.
    auto ingest = [&](const std::string& bytes) -> Status {
      total.bytes += static_cast<int64_t>(bytes.size());
      return aggregator.IngestEncoded(bytes);
    };
    auto ship = [&](const std::string& bytes, int64_t /*index*/,
                    sim::ChannelModel* /*channel*/) { return ingest(bytes); };
    sim::DeliveryMetrics delivery;
    FR_ASSIGN_OR_RETURN(
        const sim::DriveStats drive,
        sim::DriveFleet(fleet, workload, sim::FaultOptions{}, seeds.protocol,
                        nullptr, ship, ingest, nullptr, &delivery));
    total.client_seconds += drive.tick_seconds + drive.encode_seconds;
    total.server_seconds += drive.register_seconds + drive.ship_seconds;
    total.reports += drive.reports;
    WallTimer timer;
    FR_ASSIGN_OR_RETURN(const std::vector<double> estimates,
                        aggregator.EstimateAll());
    total.server_seconds += timer.ElapsedSeconds();
    const sim::ErrorMetrics error =
        sim::ComputeErrorMetrics(estimates, workload.ground_truth());
    total.mean_max_error += error.max_abs / reps;
    total.mean_abs_error += error.mean_abs / reps;
  }
  return total;
}

struct GridPoint {
  const char* axis;  // which sweep this point belongs to
  int64_t n;
  int64_t d;
  double eps;
};

int Run(int argc, char** argv) {
  int64_t n = 4000;
  int64_t d = 64;
  int64_t k = 4;
  double eps = 1.0;
  double alpha = 0.5;
  int64_t reps = 2;
  int64_t seed = 1;
  bool json = false;
  bool help = false;
  sim::WorkloadFlags workload_flags;

  FlagParser parser;
  workload_flags.Register(&parser);
  parser.AddInt64("n", &n, "base number of users (n sweep: n/4, n, 4n)");
  parser.AddInt64("d", &d, "base time periods (d sweep: d/2, d, 2d)");
  parser.AddInt64("k", &k, "per-user change budget");
  parser.AddDouble("eps", &eps, "base privacy budget (eps sweep: eps/4, "
                   "eps/2, eps)");
  parser.AddDouble("alpha", &alpha,
                   "longitudinal eps_1/eps_perm split in (0, 1)");
  parser.AddInt64("reps", &reps, "repetitions per grid point");
  parser.AddInt64("seed", &seed, "base seed (deterministic)");
  parser.AddBool("json", &json,
                 "emit one JSON line per (protocol, grid point)");
  parser.AddBool("help", &help, "print usage");
  if (const Status status = parser.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 parser.Usage("bench_shootout").c_str());
    return 2;
  }
  if (help) {
    std::fputs(parser.Usage("bench_shootout").c_str(), stdout);
    return 0;
  }

  // A replay series pins (n, d) — a recorded run has a fixed horizon and
  // population — so only the eps sweep applies there; every generated
  // workload takes the full three-axis grid.
  const bool replay = workload_flags.workload ==
                      sim::WorkloadKindToString(sim::WorkloadKind::kReplay);

  // One-axis-at-a-time sweeps around the base point; the base point itself
  // appears once per axis so each sweep is self-contained.
  std::vector<GridPoint> grid;
  for (const double e : {eps / 4.0, eps / 2.0, eps}) {
    grid.push_back(GridPoint{"eps", n, d, e});
  }
  if (!replay) {
    for (const int64_t periods : {d / 2, d, d * 2}) {
      grid.push_back(GridPoint{"d", n, periods, eps});
    }
    for (const int64_t users : {n / 4, n, n * 4}) {
      grid.push_back(GridPoint{"n", users, d, eps});
    }
  }

  if (!json) {
    std::printf(
        "shootout: error + bytes/report + CPU/report per protocol\n"
        "(base n=%lld d=%lld k=%lld eps=%.3g alpha=%.3g, %s workload, "
        "%lld reps)\n\n",
        static_cast<long long>(n), static_cast<long long>(d),
        static_cast<long long>(k), eps, alpha,
        workload_flags.workload.c_str(), static_cast<long long>(reps));
  }
  for (const GridPoint& point : grid) {
    const auto workload_config = workload_flags.ToConfig(point.n, point.d, k);
    if (!workload_config.ok()) {
      std::fprintf(stderr, "%s\n",
                   workload_config.status().ToString().c_str());
      return 2;
    }
    for (const sim::ProtocolKind protocol : kShootoutProtocols) {
      core::ProtocolConfig config =
          bench::MakeConfig(point.d, k, point.eps);
      config.longitudinal_alpha = alpha;
      const auto measured =
          RunOnce(protocol, config, *workload_config, static_cast<int>(reps),
                  static_cast<uint64_t>(seed));
      if (!measured.ok()) {
        std::fprintf(stderr, "%s @ %s: %s\n",
                     sim::ProtocolKindToString(protocol), point.axis,
                     measured.status().ToString().c_str());
        return 1;
      }
      const double per_report =
          measured->reports > 0 ? 1.0 / static_cast<double>(measured->reports)
                                : 0.0;
      JsonLine line;
      line.Add("bench", "shootout")
          .Add("axis", point.axis)
          .Add("workload", workload_flags.workload)
          .Add("protocol", sim::ProtocolKindToString(protocol))
          .Add("n", point.n)
          .Add("d", point.d)
          .Add("k", k)
          .Add("eps", point.eps)
          .Add("alpha", alpha)
          .Add("reps", reps)
          .Add("mean_max_error", measured->mean_max_error)
          .Add("mean_abs_error", measured->mean_abs_error)
          .Add("reports_per_user",
               static_cast<double>(measured->reports) /
                   (static_cast<double>(point.n) * static_cast<double>(reps)))
          .Add("bytes_per_report",
               static_cast<double>(measured->bytes) * per_report)
          .Add("client_us_per_report",
               measured->client_seconds * 1e6 * per_report)
          .Add("server_us_per_report",
               measured->server_seconds * 1e6 * per_report);
      std::printf("%s\n", line.Str().c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
