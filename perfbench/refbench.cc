// refbench: the reference-shape benchmark program behind perfbench/run.py.
//
// Runs one named workload (fr_inproc, fr_service, lgrr_online; see
// README.md) through the library's public calls only, checks the outputs
// against closed-form bounds and conservation invariants, and prints
// human-readable lines followed by one JSON line carrying every metric by
// name with its unit. run.py selects the end-to-end or per-layer subset.
//
//   refbench --workload=fr_inproc --seed=7 --seconds=20 --trace=0
//
// Load model: one process, one 4-thread pool, closed loop per period. For
// each period t the program runs AdvanceTick, v2 EncodeReportBatch and the
// workload's delivery; period t+1 starts only once period t has closed.
// Inputs (the sim::Workload traces and their per-period flips) are built
// before any timing starts and applied between periods, outside every
// timed interval.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "futurerand/analysis/theory.h"
#include "futurerand/common/flags.h"
#include "futurerand/common/threadpool.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/config.h"
#include "futurerand/core/fleet.h"
#include "futurerand/core/wire.h"
#include "futurerand/net/client.h"
#include "futurerand/net/server.h"
#include "futurerand/randomizer/randomizer.h"
#include "futurerand/sim/metrics.h"
#include "futurerand/sim/workload.h"

namespace {

using namespace futurerand;

// The reference shape (README.md "Shape and load"). d, k and eps are
// shared; the client count is per workload, see ReferenceClients.
constexpr int64_t kChanges = 4;
constexpr double kEpsilon = 1.0;
// Generator threads = connections = shards = server workers: sized for a
// 4-core host.
constexpr int kWidth = 4;
// The first pass of a run sets up this many times (later passes once);
// setup_s is the median over all set-ups of the run, so work moved into
// set-up shows without one cold start dominating the figure.
constexpr int kSetupReps = 3;
// lgrr_online checkpoints after every this-many periods.
constexpr int64_t kCheckpointEvery = 16;
// Failure probability of the correctness bounds: the statistical suite's
// setting, so a violation means a code defect, not bad luck.
constexpr double kBeta = 1e-9;
// The statistical suite's degeneracy gate: a max error below bound/300
// means the randomizer is not running.
constexpr double kDegenerateFraction = 1.0 / 300.0;
// Transmissions per batch (first send + NACK retransmissions). No channel
// corrupts bytes here, so every retransmission is a failure to report.
constexpr int64_t kRetransmitBudget = 4;

enum class Workload { kFrInproc, kFrService, kLgrrOnline };

std::optional<Workload> ParseWorkload(const std::string& name) {
  if (name == "fr_inproc") return Workload::kFrInproc;
  if (name == "fr_service") return Workload::kFrService;
  if (name == "lgrr_online") return Workload::kLgrrOnline;
  return std::nullopt;
}

// Clients at the reference shape. Every lgrr_online client reports every
// period, so one pass over 1,000,000 clients streams for about 20 s and a
// run would hold a single pass, whose period latencies no median steadies.
// At 250,000 clients a pass takes about 6 s and a run holds several.
int64_t ReferenceClients(Workload workload) {
  return workload == Workload::kLgrrOnline ? 250000 : 1000000;
}

int64_t NowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Millis(int64_t ns) { return static_cast<double>(ns) * 1e-6; }
double Mebibytes(double bytes) { return bytes / (1024.0 * 1024.0); }

// Nearest-rank quantile: the smallest sample with at least q of all
// samples at or below it.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Median(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const size_t mid = sorted.size() / 2;
  return sorted.size() % 2 == 1 ? sorted[mid]
                                : 0.5 * (sorted[mid - 1] + sorted[mid]);
}

double ResidentMb() {
  std::ifstream statm("/proc/self/statm");
  int64_t size_pages = 0;
  int64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return Mebibytes(static_cast<double>(resident_pages) *
                   static_cast<double>(::sysconf(_SC_PAGESIZE)));
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// CPU time the hypervisor gave to other guests (the "steal" column of
// /proc/stat), summed over CPUs; 0 where the kernel does not report it.
double StealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  int64_t ticks[8] = {};
  stat >> cpu;
  for (int64_t& value : ticks) stat >> value;
  return static_cast<double>(ticks[7]) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

// Hands freed heap pages back to the kernel, so each set-up repetition
// starts from the same resident footprint (fleet.create_rss_mb).
void ReleaseFreeMemory() { ::malloc_trim(0); }

uint64_t Fnv1a(const void* data, size_t size, uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
  }
  return hash;
}

std::string Digest(const std::vector<double>& estimates) {
  const uint64_t hash = Fnv1a(estimates.data(),
                              estimates.size() * sizeof(double),
                              0xcbf29ce484222325ULL);
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, hash);
  return buffer;
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded by this program around each call into a layer.

struct Span {
  const char* name = "";
  int64_t period = 0;  // request id: the period, 0 for set-up and wrap-up
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// In-memory span log. With tracing off every call is a branch and the log
// stays empty. Safe to call from pool threads.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  // Opens a span starting now; returns its id (-1 when tracing is off).
  int Open(const char* name, int64_t period, int parent) {
    if (!enabled_) return -1;
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, period, parent, now, now});
    return static_cast<int>(spans_.size()) - 1;
  }

  void Close(int id) {
    if (id < 0) return;
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].end_ns = now;
  }

  // Sets both ends of an opened span (for spans whose interval is known
  // only after their children ran, such as net.deliver).
  void Set(int id, int64_t start_ns, int64_t end_ns) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].start_ns = start_ns;
    spans_[static_cast<size_t>(id)].end_ns = end_ns;
  }

  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(spans_);
  }

 private:
  const bool enabled_;
  std::mutex mutex_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int64_t period, int parent)
      : tracer_(tracer), id_(tracer.Open(name, period, parent)) {}
  ~ScopedSpan() { tracer_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// Inputs: built once per process from --seed, before anything is timed.

struct Inputs {
  int64_t n = 0;
  int64_t d = 0;
  uint64_t fleet_seed = 0;
  std::vector<int64_t> truth;         // a[t], t = 1..d
  std::vector<int64_t> flip_offsets;  // CSR over t = 1..d (size d + 2)
  std::vector<int32_t> flip_users;    // users whose value flips at t
};

Result<Inputs> BuildInputs(int64_t n, int64_t d, uint64_t seed) {
  sim::WorkloadConfig config;
  config.kind = sim::WorkloadKind::kUniformChanges;
  config.num_users = n;
  config.num_periods = d;
  config.max_changes = kChanges;
  FR_ASSIGN_OR_RETURN(sim::Workload workload,
                      sim::Workload::Generate(config, seed));
  Inputs inputs;
  inputs.n = n;
  inputs.d = d;
  // The fleet's randomness is part of the program under test, but it is
  // seeded from --seed too so one seed fixes every estimate (digests).
  inputs.fleet_seed = seed * 0x9e3779b97f4a7c15ULL + 0x7f4a7c15ULL;
  inputs.truth = workload.ground_truth();
  inputs.flip_offsets.assign(static_cast<size_t>(d + 2), 0);
  for (const sim::UserTrace& trace : workload.traces()) {
    for (int64_t t : trace.change_times) {
      ++inputs.flip_offsets[static_cast<size_t>(t + 1)];
    }
  }
  for (size_t t = 1; t < inputs.flip_offsets.size(); ++t) {
    inputs.flip_offsets[t] += inputs.flip_offsets[t - 1];
  }
  inputs.flip_users.resize(static_cast<size_t>(inputs.flip_offsets.back()));
  std::vector<int64_t> cursor(inputs.flip_offsets.begin(),
                              inputs.flip_offsets.end() - 1);
  for (int64_t u = 0; u < n; ++u) {
    for (int64_t t : workload.trace(u).change_times) {
      inputs.flip_users[static_cast<size_t>(cursor[static_cast<size_t>(t)]++)] =
          static_cast<int32_t>(u);
    }
  }
  return inputs;
}

core::ProtocolConfig ProtocolFor(Workload workload, int64_t d) {
  core::ProtocolConfig config;
  config.num_periods = d;
  config.max_changes = kChanges;
  config.epsilon = kEpsilon;
  config.randomizer = workload == Workload::kLgrrOnline
                          ? rand::RandomizerKind::kLGrr
                          : rand::RandomizerKind::kFutureRand;
  return config;
}

// ---------------------------------------------------------------------------
// One pass: set-up (repeated `setup_reps` times, the last one kept), the
// closed-loop stream over d periods, and wrap-up queries.

struct Pass {
  bool traced = false;
  std::vector<double> setup_s;   // one per set-up repetition
  std::vector<double> create_rss_mb;
  double stream_s = 0.0;         // first tick to close of period d
  std::vector<double> period_ms;  // AdvanceTick start to period close
  std::vector<double> rtt_ms;     // fr_service: per-slice send to ack
  std::vector<double> estimates;  // final EstimateAll
  std::vector<double> online;     // lgrr_online: EstimateAt(t) per period
  bool restored_identical = true;  // lgrr_online: checkpoint chain replay
  int64_t reports = 0;             // fleet.reports_emitted()
  int64_t report_records_applied = 0;
  int64_t report_records_deduped = 0;
  int64_t registrations_applied = 0;
  int64_t registrations_deduped = 0;
  int64_t report_bytes = 0;
  int64_t registration_bytes = 0;
  bool v2_framing = true;
  int64_t deliveries_attempted = 0;
  int64_t deliveries_failed = 0;
  int64_t nacks = 0;
  int64_t retransmits = 0;
  int64_t overload_replies = 0;
  int64_t error_replies = 0;
  int64_t server_records_applied = 0;
  int64_t state_bytes = 0;
  int64_t snapshots = 0;
  int64_t full_bytes = 0;
  int64_t delta_bytes = 0;
  std::vector<Span> spans;
};

// The closed loop over d periods. `deliver(t, batch, period_span)` ships
// period t's reports and returns once the period has closed; `between(t)`
// runs after period t closes, inside the stream but outside the period's
// latency (lgrr_online checkpoints there). Time spent applying the next
// period's input flips, and anything `between` reports through
// `*excluded_ns`, is taken out of the stream time.
template <typename Deliver, typename Between>
Status RunStream(const Inputs& inputs, core::ClientFleet& fleet,
                 Tracer& tracer, Pass* pass, const Deliver& deliver,
                 const Between& between) {
  std::vector<int8_t> states(static_cast<size_t>(inputs.n), 0);
  core::ReportBatch batch;
  pass->period_ms.reserve(static_cast<size_t>(inputs.d));
  int64_t excluded_ns = 0;
  int64_t stream_start = 0;
  int64_t stream_end = 0;
  for (int64_t t = 1; t <= inputs.d; ++t) {
    const int64_t input_start = NowNs();
    for (int64_t i = inputs.flip_offsets[static_cast<size_t>(t)];
         i < inputs.flip_offsets[static_cast<size_t>(t + 1)]; ++i) {
      states[static_cast<size_t>(inputs.flip_users[static_cast<size_t>(i)])] ^=
          1;
    }
    const int64_t start = NowNs();
    if (t == 1) {
      stream_start = start;
    } else {
      excluded_ns += start - input_start;
    }
    const int period_span = tracer.Open("period", t, -1);
    {
      ScopedSpan span(tracer, "fleet.tick", t, period_span);
      FR_RETURN_NOT_OK(fleet.AdvanceTick(states, &batch));
    }
    FR_RETURN_NOT_OK(deliver(t, batch, period_span));
    tracer.Close(period_span);
    const int64_t close = NowNs();
    pass->period_ms.push_back(Millis(close - start));
    stream_end = close;
    if (t < inputs.d) {
      FR_RETURN_NOT_OK(between(t, &excluded_ns));
    }
  }
  pass->stream_s = Seconds(stream_end - stream_start - excluded_ns);
  pass->reports = fleet.reports_emitted();
  return Status::OK();
}

// Checks the framing of one encoded batch (the benchmark ships v2 only).
void CheckFraming(std::string_view bytes, core::WireBatchKind expected,
                  Pass* pass) {
  const auto kind = core::PeekBatchKind(bytes);
  pass->v2_framing = pass->v2_framing && kind.ok() && *kind == expected;
}

// Times ClientFleet::Create and records the resident-set growth across it.
Result<core::ClientFleet> CreateFleet(const core::ProtocolConfig& config,
                                      const Inputs& inputs, ThreadPool* pool,
                                      Tracer& tracer, int setup_span,
                                      Pass* pass) {
  const double rss_before = ResidentMb();
  Result<core::ClientFleet> fleet = [&] {
    ScopedSpan span(tracer, "fleet.create", 0, setup_span);
    return core::ClientFleet::Create(config, inputs.n, inputs.fleet_seed,
                                     pool);
  }();
  pass->create_rss_mb.push_back(ResidentMb() - rss_before);
  return fleet;
}

std::string EncodeRegistrations(const core::ClientFleet& fleet,
                                Tracer& tracer, int setup_span, Pass* pass) {
  ScopedSpan span(tracer, "wire.encode_registrations", 0, setup_span);
  std::string bytes = core::EncodeRegistrationBatch(fleet.registrations(),
                                                    core::WireVersion::kV2);
  CheckFraming(bytes, core::WireBatchKind::kRegistrationV2, pass);
  pass->registration_bytes = static_cast<int64_t>(bytes.size());
  return bytes;
}

// --- In-process workloads: fr_inproc and lgrr_online ----------------------

struct InprocSystem {
  core::ClientFleet fleet;
  core::ShardedAggregator aggregator;
};

Result<InprocSystem> SetUpInproc(const core::ProtocolConfig& config,
                                 const Inputs& inputs, ThreadPool* pool,
                                 Tracer& tracer, Pass* pass) {
  const int64_t start = NowNs();
  ScopedSpan setup(tracer, "setup", 0, -1);
  FR_ASSIGN_OR_RETURN(core::ClientFleet fleet,
                      CreateFleet(config, inputs, pool, tracer, setup.id(),
                                  pass));
  std::optional<core::ShardedAggregator> aggregator;
  {
    ScopedSpan span(tracer, "aggregator.build", 0, setup.id());
    FR_ASSIGN_OR_RETURN(aggregator,
                        core::ShardedAggregator::ForProtocol(
                            config, kWidth, core::DedupPolicy::kIdempotent));
  }
  const std::string registrations =
      EncodeRegistrations(fleet, tracer, setup.id(), pass);
  core::IngestOutcome outcome;
  Status ingested;
  {
    ScopedSpan span(tracer, "aggregator.register", 0, setup.id());
    ingested = aggregator->IngestEncoded(registrations, pool, &outcome);
  }
  ++pass->deliveries_attempted;
  if (!ingested.ok()) ++pass->deliveries_failed;
  pass->registrations_applied = outcome.applied;
  pass->registrations_deduped = outcome.deduped;
  pass->setup_s.push_back(Seconds(NowNs() - start));
  return InprocSystem{std::move(fleet), std::move(*aggregator)};
}

Status RunInproc(Workload workload, const Inputs& inputs, int setup_reps,
                 ThreadPool* pool, Tracer& tracer, Pass* pass) {
  const core::ProtocolConfig config = ProtocolFor(workload, inputs.d);
  std::optional<InprocSystem> system;
  for (int rep = 0; rep < setup_reps; ++rep) {
    system.reset();
    ReleaseFreeMemory();
    FR_ASSIGN_OR_RETURN(system,
                        SetUpInproc(config, inputs, pool, tracer, pass));
  }
  core::ShardedAggregator& aggregator = system->aggregator;
  const bool online = workload == Workload::kLgrrOnline;

  auto deliver = [&](int64_t t, const core::ReportBatch& batch,
                     int period_span) -> Status {
    std::string bytes;
    {
      ScopedSpan span(tracer, "wire.encode", t, period_span);
      FR_ASSIGN_OR_RETURN(
          bytes, core::EncodeReportBatch(batch, core::WireVersion::kV2));
    }
    if (t == 1) CheckFraming(bytes, core::WireBatchKind::kReportV2, pass);
    pass->report_bytes += static_cast<int64_t>(bytes.size());
    core::IngestOutcome outcome;
    Status ingested;
    {
      ScopedSpan span(tracer, "aggregator.ingest", t, period_span);
      ingested = aggregator.IngestEncoded(bytes, pool, &outcome);
    }
    ++pass->deliveries_attempted;
    if (!ingested.ok()) ++pass->deliveries_failed;
    pass->report_records_applied += outcome.applied;
    pass->report_records_deduped += outcome.deduped;
    if (online) {
      ScopedSpan span(tracer, "aggregator.estimate_at", t, period_span);
      FR_ASSIGN_OR_RETURN(const double estimate, aggregator.EstimateAt(t));
      pass->online.push_back(estimate);
    }
    return Status::OK();
  };

  // lgrr_online's checkpoint chain (a full blob, then deltas) is replayed
  // into a fresh aggregator as it is taken; the replay is excluded from
  // the stream time and checked bit for bit against the live estimates.
  std::optional<core::ShardedAggregator> replica;
  if (online) {
    FR_ASSIGN_OR_RETURN(replica,
                        core::ShardedAggregator::ForProtocol(
                            config, kWidth, core::DedupPolicy::kIdempotent));
  }
  auto checkpoint = [&](int64_t t, int64_t* excluded_ns) -> Status {
    const bool full = pass->snapshots == 0;
    const core::CheckpointMode mode =
        full ? core::CheckpointMode::kFull : core::CheckpointMode::kDelta;
    std::string blob;
    {
      ScopedSpan span(tracer, full ? "snapshot.full" : "snapshot.delta", t,
                      -1);
      FR_ASSIGN_OR_RETURN(blob, aggregator.Checkpoint(mode));
    }
    ++pass->snapshots;
    (full ? pass->full_bytes : pass->delta_bytes) +=
        static_cast<int64_t>(blob.size());
    const int64_t restore_start = NowNs();
    {
      ScopedSpan span(tracer, "snapshot.restore", t, -1);
      FR_RETURN_NOT_OK(replica->Restore(blob));
    }
    *excluded_ns += NowNs() - restore_start;
    return Status::OK();
  };
  auto between = [&](int64_t t, int64_t* excluded_ns) -> Status {
    return online && t % kCheckpointEvery == 0 ? checkpoint(t, excluded_ns)
                                               : Status::OK();
  };

  FR_RETURN_NOT_OK(
      RunStream(inputs, system->fleet, tracer, pass, deliver, between));
  if (online && inputs.d % kCheckpointEvery == 0) {
    int64_t ignored = 0;
    FR_RETURN_NOT_OK(checkpoint(inputs.d, &ignored));
  }
  {
    ScopedSpan span(tracer, "aggregator.estimate_all", 0, -1);
    FR_ASSIGN_OR_RETURN(pass->estimates, aggregator.EstimateAll());
  }
  if (online) {
    FR_ASSIGN_OR_RETURN(const std::vector<double> replayed,
                        replica->EstimateAll());
    pass->restored_identical = BitIdentical(replayed, pass->estimates);
  }
  pass->state_bytes = aggregator.ApproxMemoryBytes();
  return Status::OK();
}

// --- Service workload: fr_service -----------------------------------------

struct ServiceSystem {
  core::ClientFleet fleet;
  std::unique_ptr<net::IngestServer> server;
  std::vector<net::StreamClient> clients;
};

// Shuts the server down through a kShutdown control frame and folds its
// reply counters into the pass.
Status TearDownService(ServiceSystem& system, const std::string& socket_path,
                       Pass* pass) {
  for (const net::StreamClient& client : system.clients) {
    pass->deliveries_attempted += static_cast<int64_t>(client.frames_sent());
  }
  FR_RETURN_NOT_OK(system.clients[0].SendControl(net::ControlOp::kShutdown));
  FR_RETURN_NOT_OK(system.server->Join());
  const net::ServerStats stats = system.server->stats();
  pass->overload_replies += stats.batches_overloaded;
  pass->error_replies += stats.batches_errored;
  pass->server_records_applied = stats.records_applied;
  system.clients.clear();
  system.server.reset();
  ::unlink(socket_path.c_str());
  return Status::OK();
}

Result<ServiceSystem> SetUpService(const core::ProtocolConfig& config,
                                   const Inputs& inputs, ThreadPool* pool,
                                   const std::string& socket_path,
                                   Tracer& tracer, Pass* pass) {
  const int64_t start = NowNs();
  ScopedSpan setup(tracer, "setup", 0, -1);
  FR_ASSIGN_OR_RETURN(core::ClientFleet fleet,
                      CreateFleet(config, inputs, pool, tracer, setup.id(),
                                  pass));
  ServiceSystem system{std::move(fleet), nullptr, {}};
  {
    ScopedSpan span(tracer, "net.server_start", 0, setup.id());
    net::ServiceConfig service;
    service.protocol = config;
    service.num_shards = kWidth;
    service.num_workers = kWidth;
    service.dedup = core::DedupPolicy::kIdempotent;
    FR_ASSIGN_OR_RETURN(system.server, net::IngestServer::Create(service));
    FR_RETURN_NOT_OK(system.server->AddUnixListener(socket_path));
    FR_RETURN_NOT_OK(system.server->Start());
  }
  {
    ScopedSpan span(tracer, "net.connect", 0, setup.id());
    for (int i = 0; i < kWidth; ++i) {
      FR_ASSIGN_OR_RETURN(net::StreamClient client,
                          net::StreamClient::ConnectUnix(socket_path));
      system.clients.push_back(std::move(client));
    }
  }
  const std::string registrations =
      EncodeRegistrations(system.fleet, tracer, setup.id(), pass);
  sim::DeliveryMetrics delivery;
  {
    ScopedSpan span(tracer, "aggregator.register", 0, setup.id());
    FR_RETURN_NOT_OK(net::DeliverEncodedOverStream(
        system.clients[0], registrations, nullptr, core::WireVersion::kV2,
        kRetransmitBudget, &delivery));
  }
  pass->nacks += delivery.batches_checksum_rejected;
  pass->retransmits += delivery.batches_retransmitted;
  pass->registrations_applied = delivery.records_applied;
  pass->registrations_deduped = delivery.records_deduped;
  pass->setup_s.push_back(Seconds(NowNs() - start));
  return system;
}

Status RunService(const Inputs& inputs, int setup_reps, ThreadPool* pool,
                  const std::string& socket_path, Tracer& tracer,
                  Pass* pass) {
  const core::ProtocolConfig config = ProtocolFor(Workload::kFrService,
                                                  inputs.d);
  std::optional<ServiceSystem> system;
  for (int rep = 0; rep < setup_reps; ++rep) {
    if (system.has_value()) {
      FR_RETURN_NOT_OK(TearDownService(*system, socket_path, pass));
      system.reset();
      ReleaseFreeMemory();
    }
    FR_ASSIGN_OR_RETURN(system, SetUpService(config, inputs, pool,
                                             socket_path, tracer, pass));
  }

  // Slice i carries the reports of client ids [i n/4, (i+1) n/4) and rides
  // connection i, so the four slices cross the socket concurrently.
  struct Slice {
    Status status;
    sim::DeliveryMetrics delivery;
    int64_t bytes = 0;
    int64_t send_ns = 0;
    int64_t ack_ns = 0;
  };
  auto deliver = [&](int64_t t, const core::ReportBatch& batch,
                     int period_span) -> Status {
    const int deliver_span = tracer.Open("net.deliver", t, period_span);
    std::vector<Slice> slices(kWidth);
    for (int i = 0; i < kWidth; ++i) {
      pool->Submit([&, i] {
        const int64_t first = system->fleet.first_client_id() +
                              inputs.n * i / kWidth;
        const int64_t last = system->fleet.first_client_id() +
                             inputs.n * (i + 1) / kWidth;
        auto by_id = [](const core::ReportMessage& m, int64_t id) {
          return m.client_id < id;
        };
        const auto begin =
            std::lower_bound(batch.begin(), batch.end(), first, by_id);
        const auto end = std::lower_bound(begin, batch.end(), last, by_id);
        Slice& slice = slices[static_cast<size_t>(i)];
        std::string bytes;
        {
          ScopedSpan span(tracer, "wire.encode", t, period_span);
          auto encoded = core::EncodeReportBatch(core::ReportBatch(begin, end),
                                                 core::WireVersion::kV2);
          if (!encoded.ok()) {
            slice.status = encoded.status();
            return;
          }
          bytes = std::move(encoded).ValueOrDie();
        }
        slice.bytes = static_cast<int64_t>(bytes.size());
        slice.send_ns = NowNs();
        slice.status = net::DeliverEncodedOverStream(
            system->clients[static_cast<size_t>(i)], bytes, nullptr,
            core::WireVersion::kV2, kRetransmitBudget, &slice.delivery);
        slice.ack_ns = NowNs();
        const int span = tracer.Open("net.batch", t, deliver_span);
        tracer.Set(span, slice.send_ns, slice.ack_ns);
      });
    }
    pool->Wait();
    int64_t first_send = slices[0].send_ns;
    int64_t last_ack = slices[0].ack_ns;
    for (const Slice& slice : slices) {
      FR_RETURN_NOT_OK(slice.status);
      first_send = std::min(first_send, slice.send_ns);
      last_ack = std::max(last_ack, slice.ack_ns);
      pass->rtt_ms.push_back(Millis(slice.ack_ns - slice.send_ns));
      pass->report_bytes += slice.bytes;
      pass->report_records_applied += slice.delivery.records_applied;
      pass->report_records_deduped += slice.delivery.records_deduped;
      pass->nacks += slice.delivery.batches_checksum_rejected;
      pass->retransmits += slice.delivery.batches_retransmitted;
    }
    tracer.Set(deliver_span, first_send, last_ack);
    return Status::OK();
  };
  auto between = [](int64_t, int64_t*) { return Status::OK(); };

  FR_RETURN_NOT_OK(
      RunStream(inputs, system->fleet, tracer, pass, deliver, between));
  {
    ScopedSpan span(tracer, "aggregator.estimate_all", 0, -1);
    FR_ASSIGN_OR_RETURN(pass->estimates,
                        system->server->aggregator().EstimateAll());
  }
  pass->state_bytes = system->server->aggregator().ApproxMemoryBytes();
  return TearDownService(*system, socket_path, pass);
}

// ---------------------------------------------------------------------------
// Correctness gates. A violation fails the run; it never becomes a metric.

struct Gate {
  std::string name;
  bool ok = false;
  std::string detail;
};

std::string Format(const char* fmt, double a, double b) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), fmt, a, b);
  return buffer;
}

Result<double> ErrorBound(Workload workload, const Inputs& inputs) {
  analysis::BoundParams params;
  params.n = static_cast<double>(inputs.n);
  params.d = static_cast<double>(inputs.d);
  params.k = static_cast<double>(kChanges);
  params.epsilon = kEpsilon;
  params.beta = kBeta;
  const core::ProtocolConfig config = ProtocolFor(workload, inputs.d);
  FR_ASSIGN_OR_RETURN(const double gap,
                      rand::ExactCGap(config.randomizer, kChanges, kEpsilon,
                                      config.longitudinal_alpha));
  return workload == Workload::kLgrrOnline
             ? analysis::LongitudinalDirectBound(params, gap)
             : analysis::HoeffdingProtocolBound(params, gap);
}

std::vector<Gate> CheckPass(Workload workload, const Inputs& inputs,
                            double bound, const Pass& pass) {
  std::vector<Gate> gates;
  double max_error = 0.0;
  bool complete = pass.estimates.size() == static_cast<size_t>(inputs.d);
  for (size_t i = 0; complete && i < pass.estimates.size(); ++i) {
    max_error = std::max(
        max_error,
        std::abs(pass.estimates[i] - static_cast<double>(inputs.truth[i])));
  }
  gates.push_back({"max_error_within_bound", complete && max_error <= bound,
                   Format("max|a_hat-a|=%.6g bound=%.6g", max_error, bound)});
  gates.push_back({"max_error_not_degenerate",
                   complete && max_error >= bound * kDegenerateFraction,
                   Format("max|a_hat-a|=%.6g floor=%.6g", max_error,
                          bound * kDegenerateFraction)});
  gates.push_back({"report_conservation",
                   pass.reports == pass.report_records_applied +
                                       pass.report_records_deduped,
                   "emitted=" + std::to_string(pass.reports) + " applied=" +
                       std::to_string(pass.report_records_applied) +
                       " deduped=" +
                       std::to_string(pass.report_records_deduped)});
  gates.push_back({"registration_conservation",
                   pass.registrations_applied + pass.registrations_deduped ==
                       inputs.n,
                   "n=" + std::to_string(inputs.n) + " applied=" +
                       std::to_string(pass.registrations_applied) +
                       " deduped=" +
                       std::to_string(pass.registrations_deduped)});
  gates.push_back({"v2_framing", pass.v2_framing, "FRW kinds 6/7 only"});
  if (workload == Workload::kLgrrOnline) {
    gates.push_back({"estimate_at_matches_estimate_all",
                     BitIdentical(pass.online, pass.estimates),
                     std::to_string(pass.online.size()) + " periods"});
    gates.push_back({"checkpoint_chain_replays_bit_identical",
                     pass.restored_identical,
                     std::to_string(pass.snapshots) + " blobs"});
  }
  return gates;
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// End-to-end figures over the untraced passes of a run. Throughput uses
// the median stream time; latency quantiles are taken over the per-period
// medians, so a burst of outside load in one pass does not move them.
Metrics EndToEnd(const Inputs& inputs, const std::vector<const Pass*>& passes) {
  const double user_periods = static_cast<double>(inputs.n * inputs.d);
  std::vector<double> stream_s;
  std::vector<double> setup_s;
  for (const Pass* pass : passes) {
    stream_s.push_back(pass->stream_s);
    setup_s.insert(setup_s.end(), pass->setup_s.begin(), pass->setup_s.end());
  }
  std::vector<double> period_ms;
  for (size_t t = 0; t < passes.front()->period_ms.size(); ++t) {
    std::vector<double> samples;
    for (const Pass* pass : passes) samples.push_back(pass->period_ms[t]);
    period_ms.push_back(Median(samples));
  }
  const Pass& last = *passes.back();
  Metrics m;
  m["user_periods_per_s"] = {user_periods / Median(stream_s), "1/s"};
  m["period_latency_ms.p50"] = {Quantile(period_ms, 0.50), "ms"};
  m["period_latency_ms.p95"] = {Quantile(period_ms, 0.95), "ms"};
  m["setup_s"] = {Median(setup_s), "s"};
  m["wire_bytes_per_user_period"] = {
      static_cast<double>(last.registration_bytes + last.report_bytes) /
          user_periods,
      "B"};
  return m;
}

// Per-layer figures from one traced pass's spans.
Metrics PerLayer(const Pass& pass) {
  std::map<std::string, std::vector<double>> stream_ms;  // period > 0
  std::map<std::string, std::vector<double>> setup_ms;   // period == 0
  std::map<std::string, double> wrapup_s;  // period-0 spans outside set-up
  for (const Span& span : pass.spans) {
    const double ms = Millis(span.end_ns - span.start_ns);
    const std::string name = span.name;
    if (span.period > 0) {
      stream_ms[name].push_back(ms);
    } else if (span.parent >= 0) {
      setup_ms[name].push_back(ms);
    } else {
      wrapup_s[name] += ms * 1e-3;
    }
  }
  auto sum_s = [&](const char* name) {
    double total = 0.0;
    for (double ms : stream_ms[name]) total += ms;
    return total * 1e-3;
  };
  auto setup_median_s = [&](const char* name) {
    return Median(setup_ms[name]) * 1e-3;
  };
  auto count = [](int64_t v) { return static_cast<double>(v); };
  Metrics m;
  m["fleet.create_s"] = {setup_median_s("fleet.create"), "s"};
  m["fleet.create_rss_mb"] = {Median(pass.create_rss_mb), "MB"};
  m["fleet.tick_s"] = {sum_s("fleet.tick"), "s"};
  m["fleet.tick_ms.p50"] = {Quantile(stream_ms["fleet.tick"], 0.50), "ms"};
  m["fleet.tick_ms.p95"] = {Quantile(stream_ms["fleet.tick"], 0.95), "ms"};
  m["fleet.reports"] = {count(pass.reports), "count"};
  m["wire.encode_s"] = {sum_s("wire.encode"), "s"};
  m["wire.report_bytes"] = {count(pass.report_bytes), "B"};
  m["wire.registration_bytes"] = {count(pass.registration_bytes), "B"};
  m["aggregator.register_s"] = {setup_median_s("aggregator.register"), "s"};
  m["aggregator.ingest_s"] = {sum_s("aggregator.ingest"), "s"};
  m["aggregator.ingest_ms.p50"] = {
      Quantile(stream_ms["aggregator.ingest"], 0.50), "ms"};
  m["aggregator.ingest_ms.p95"] = {
      Quantile(stream_ms["aggregator.ingest"], 0.95), "ms"};
  m["aggregator.estimate_at_s"] = {sum_s("aggregator.estimate_at"), "s"};
  m["aggregator.estimate_all_s"] = {wrapup_s["aggregator.estimate_all"], "s"};
  m["aggregator.state_mb"] = {Mebibytes(count(pass.state_bytes)), "MB"};
  m["aggregator.records_applied"] = {count(pass.report_records_applied),
                                     "count"};
  m["aggregator.records_deduped"] = {count(pass.report_records_deduped),
                                     "count"};
  m["snapshot.full_s"] = {sum_s("snapshot.full"), "s"};
  m["snapshot.delta_s"] = {sum_s("snapshot.delta"), "s"};
  m["snapshot.full_bytes"] = {count(pass.full_bytes), "B"};
  m["snapshot.delta_bytes"] = {count(pass.delta_bytes), "B"};
  m["snapshot.count"] = {count(pass.snapshots), "count"};
  m["snapshot.restore_s"] = {sum_s("snapshot.restore"), "s"};
  m["net.connect_s"] = {setup_median_s("net.connect"), "s"};
  // Per period from the first slice sent to the last ack, so it overlaps
  // the encodes of slices that were sent later.
  m["net.deliver_s"] = {sum_s("net.deliver"), "s"};
  m["net.batch_rtt_ms.p50"] = {Quantile(pass.rtt_ms, 0.50), "ms"};
  m["net.batch_rtt_ms.p99"] = {Quantile(pass.rtt_ms, 0.99), "ms"};
  m["net.batches_sent"] = {count(static_cast<int64_t>(pass.rtt_ms.size())),
                           "count"};
  m["net.retransmits"] = {count(pass.retransmits), "count"};
  m["net.overload_replies"] = {count(pass.overload_replies), "count"};
  m["net.server_records_applied"] = {count(pass.server_records_applied),
                                     "count"};
  return m;
}

// Layer of a span name: the prefix before the first '.'.
std::string LayerOf(const std::string& name) {
  static const std::map<std::string, std::string> kLayers = {
      {"fleet", "core.fleet"},       {"wire", "core.wire"},
      {"aggregator", "core.aggregator"}, {"snapshot", "core.snapshot"},
      {"net", "net"}};
  const auto it = kLayers.find(name.substr(0, name.find('.')));
  return it == kLayers.end() ? "bench" : it->second;
}

struct LayerTime {
  int64_t spans = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

// Self time of a span: its duration minus the part of it that its
// children's spans cover (children may overlap: net.batch slices).
std::map<std::string, LayerTime> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::map<std::string, LayerTime> layers;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t reach = span.start_ns;
    for (auto [lo, hi] : intervals) {
      lo = std::max(lo, reach);
      hi = std::min(hi, span.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    LayerTime& layer = layers[LayerOf(span.name)];
    ++layer.spans;
    layer.total_s += Seconds(span.end_ns - span.start_ns);
    layer.self_s += Seconds(span.end_ns - span.start_ns - covered);
  }
  return layers;
}

Status WriteSpans(const std::string& path, const std::vector<Pass>& passes) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return Status::IoError("cannot write " + path);
  }
  std::fprintf(out, "{\"passes\":[");
  bool first_pass = true;
  for (const Pass& pass : passes) {
    if (!pass.traced) continue;
    std::fprintf(out, "%s\n{\"self_time_s\":{", first_pass ? "" : ",");
    first_pass = false;
    bool first = true;
    for (const auto& [layer, time] : SelfTimes(pass.spans)) {
      std::fprintf(out,
                   "%s\"%s\":{\"spans\":%" PRId64
                   ",\"total_s\":%.9f,\"self_s\":%.9f}",
                   first ? "" : ",", layer.c_str(), time.spans, time.total_s,
                   time.self_s);
      first = false;
    }
    std::fprintf(out, "},\n\"spans\":[");
    for (size_t i = 0; i < pass.spans.size(); ++i) {
      const Span& s = pass.spans[i];
      std::fprintf(out,
                   "%s\n{\"id\":%zu,\"name\":\"%s\",\"period\":%" PRId64
                   ",\"parent\":%d,\"start_us\":%.3f,\"end_us\":%.3f}",
                   i == 0 ? "" : ",", i, s.name, s.period, s.parent,
                   static_cast<double>(s.start_ns) * 1e-3,
                   static_cast<double>(s.end_ns) * 1e-3);
    }
    std::fprintf(out, "]}");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0 ? Status::OK()
                               : Status::IoError("cannot close " + path);
}

// Median of each metric over passes.
Metrics MedianOver(const std::vector<Metrics>& runs) {
  Metrics result;
  if (runs.empty()) return result;
  for (const auto& [name, metric] : runs.front()) {
    std::vector<double> values;
    for (const Metrics& run : runs) values.push_back(run.at(name).value);
    result[name] = {Median(values), metric.unit};
  }
  return result;
}

void PrintJsonNumber(double value) {
  if (std::isfinite(value)) {
    std::printf("%.17g", value);
  } else {
    std::printf("null");
  }
}

int Run(int argc, char** argv) {
  std::string workload_name;
  int64_t seed = 1;
  double seconds = 10.0;
  int64_t trace = 0;
  int64_t n = 0;
  int64_t d = 256;
  std::string out_dir = ".";
  bool help = false;
  FlagParser parser;
  parser.AddString("workload", &workload_name,
                   "fr_inproc | fr_service | lgrr_online");
  parser.AddInt64("seed", &seed, "workload seed");
  parser.AddDouble("seconds", &seconds,
                   "keep running passes until this much time was measured");
  parser.AddInt64("trace", &trace,
                  "1 = alternate untraced and traced passes and report "
                  "per-layer metrics");
  parser.AddInt64("n", &n,
                  "clients; 0 = the workload's reference count (1000000, "
                  "lgrr_online 250000)");
  parser.AddInt64("d", &d, "periods, a power of two (reference: 256)");
  parser.AddString("out-dir", &out_dir,
                   "directory for the UDS socket and the span file");
  parser.AddBool("help", &help, "print usage");
  if (const Status parsed = parser.Parse(argc, argv); !parsed.ok() || help) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 parser.Usage("refbench").c_str());
    return help ? 0 : 2;
  }
  const std::optional<Workload> workload = ParseWorkload(workload_name);
  if (workload.has_value() && n == 0) n = ReferenceClients(*workload);
  if (!workload.has_value() || n < kWidth || n > INT32_MAX || d < 2 ||
      (d & (d - 1)) != 0 || seed < 0 || seconds < 0.0) {
    std::fprintf(stderr, "refbench: bad flags\n%s",
                 parser.Usage("refbench").c_str());
    return 2;
  }

  auto fail = [](const Status& status) {
    std::fprintf(stderr, "refbench: %s\n", status.ToString().c_str());
    return 1;
  };
  auto built = BuildInputs(n, d, static_cast<uint64_t>(seed));
  if (!built.ok()) return fail(built.status());
  const Inputs inputs = std::move(built).ValueOrDie();
  ReleaseFreeMemory();
  auto bound = ErrorBound(*workload, inputs);
  if (!bound.ok()) return fail(bound.status());

  ThreadPool pool(kWidth);
  const std::string socket_path =
      out_dir + "/refbench-" + std::to_string(::getpid()) + ".sock";
  std::printf("workload %s n=%" PRId64 " d=%" PRId64 " k=%" PRId64
              " eps=%g seed=%" PRId64 " threads=%d trace=%" PRId64 "\n",
              workload_name.c_str(), n, d, kChanges, kEpsilon, seed, kWidth,
              trace);

  // A run measures whole passes until the next one would end nearer past
  // `seconds` than the run stands short of it, judged by the mean pass
  // time so far; at least one (with --trace=1, alternating untraced and
  // traced passes, at least one of each).
  std::vector<Pass> passes;
  std::vector<std::vector<Gate>> gates;  // per pass
  const int64_t measure_start = NowNs();
  for (;;) {
    const bool traced = trace != 0 && passes.size() % 2 == 1;
    const int setup_reps = passes.empty() ? kSetupReps : 1;
    Pass pass;
    pass.traced = traced;
    const double steal_before = StealSeconds();
    Tracer tracer(traced);
    const Status ran =
        *workload == Workload::kFrService
            ? RunService(inputs, setup_reps, &pool, socket_path, tracer,
                         &pass)
            : RunInproc(*workload, inputs, setup_reps, &pool, tracer, &pass);
    if (!ran.ok()) {
      ::unlink(socket_path.c_str());
      return fail(ran);
    }
    pass.spans = tracer.Take();
    gates.push_back(CheckPass(*workload, inputs, *bound, pass));
    std::printf("pass %zu traced=%d stream_s=%.6f setup_s=%.6f "
                "period_ms.p50=%.4f period_ms.p95=%.4f host_steal_s=%.2f\n",
                passes.size() + 1, traced ? 1 : 0, pass.stream_s,
                Median(pass.setup_s), Quantile(pass.period_ms, 0.50),
                Quantile(pass.period_ms, 0.95), StealSeconds() - steal_before);
    passes.push_back(std::move(pass));
    ReleaseFreeMemory();
    if (trace != 0 && passes.size() % 2 == 1) continue;
    const double elapsed = Seconds(NowNs() - measure_start);
    const double step = elapsed / static_cast<double>(passes.size()) *
                        (trace != 0 ? 2.0 : 1.0);
    if (elapsed + step / 2 > seconds) break;
  }

  const std::string digest = Digest(passes.front().estimates);
  bool same_digest = true;
  for (const Pass& pass : passes) {
    same_digest = same_digest && Digest(pass.estimates) == digest;
  }
  gates.back().push_back({"digest_stable_across_passes", same_digest,
                          std::to_string(passes.size()) + " passes"});

  std::vector<const Pass*> untraced;
  std::vector<Metrics> traced;
  std::vector<double> untraced_stream_s;
  std::vector<double> traced_stream_s;
  int64_t setups = 0;
  for (const Pass& pass : passes) {
    setups += static_cast<int64_t>(pass.setup_s.size());
    if (pass.traced) {
      traced.push_back(PerLayer(pass));
      traced_stream_s.push_back(pass.stream_s);
    } else {
      untraced.push_back(&pass);
      untraced_stream_s.push_back(pass.stream_s);
    }
  }
  Metrics metrics = EndToEnd(inputs, untraced);
  metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
  for (const auto& [name, metric] : MedianOver(traced)) {
    metrics[name] = metric;
  }
  if (!traced.empty()) {
    metrics["trace.overhead_pct"] = {
        100.0 * (Median(traced_stream_s) / Median(untraced_stream_s) - 1.0),
        "%"};
  }

  int64_t attempted = 0;
  int64_t failed = 0;
  for (const Pass& pass : passes) {
    attempted += pass.deliveries_attempted;
    failed += pass.deliveries_failed + pass.nacks + pass.overload_replies +
              pass.error_replies;
  }
  const Pass& last = passes.back();

  // Every pass checks the same gates: print the last pass's verdicts and
  // any failure of an earlier pass.
  bool correct = true;
  for (size_t p = 0; p < gates.size(); ++p) {
    for (const Gate& gate : gates[p]) {
      correct = correct && gate.ok;
      if (!gate.ok || p + 1 == gates.size()) {
        std::printf("gate %-40s %s  %s\n", gate.name.c_str(),
                    gate.ok ? "ok" : "FAILED", gate.detail.c_str());
      }
    }
  }
  std::printf("conservation reports=%" PRId64 " applied=%" PRId64
              " deduped=%" PRId64 " registrations=%" PRId64 "\n",
              last.reports, last.report_records_applied,
              last.report_records_deduped, last.registrations_applied);
  if (*workload == Workload::kFrService) {
    // ServerStats counts registrations as applied records too; both
    // figures are printed so that drift stays visible.
    std::printf("server records_applied=%" PRId64
                " reports+n=%" PRId64 "\n",
                last.server_records_applied, last.reports + inputs.n);
  }
  std::printf("deliveries attempted=%" PRId64 " failed=%" PRId64
              " batches_failed_ratio=%.6g\n",
              attempted, failed,
              static_cast<double>(failed) / static_cast<double>(attempted));
  std::printf("samples passes=%zu untraced=%zu period_latency=%zu "
              "(per-period medians over the untraced passes) setups=%" PRId64,
              passes.size(), untraced.size(), last.period_ms.size(), setups);
  if (!last.rtt_ms.empty()) {
    std::printf(" batch_rtt=%zu per pass", last.rtt_ms.size());
  }
  std::printf("\n");
  for (const auto& [name, metric] : metrics) {
    std::printf("metric %-32s %.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  if (trace != 0) {
    const std::string span_path = out_dir + "/spans-" + workload_name +
                                  "-seed" + std::to_string(seed) + ".json";
    if (const Status written = WriteSpans(span_path, passes); !written.ok()) {
      return fail(written);
    }
    std::printf("spans %s\n", span_path.c_str());
    for (const auto& [layer, time] : SelfTimes(passes.back().spans)) {
      std::printf("self_time %-16s spans=%-6" PRId64
                  " total_s=%.6f self_s=%.6f\n",
                  layer.c_str(), time.spans, time.total_s, time.self_s);
    }
  }

  std::printf("{\"workload\":\"%s\",\"correct\":%s,\"attempted\":%" PRId64
              ",\"failed\":%" PRId64 ",\"digest\":\"%s\",\"metrics\":{",
              workload_name.c_str(), correct ? "true" : "false", attempted,
              failed, digest.c_str());
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\":{\"value\":", first ? "" : ",", name.c_str());
    PrintJsonNumber(metric.value);
    std::printf(",\"unit\":\"%s\"}", metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
