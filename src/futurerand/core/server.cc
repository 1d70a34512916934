#include "futurerand/core/server.h"

#include <cmath>
#include <string>
#include <utility>

#include <algorithm>

#include "futurerand/common/macros.h"
#include "futurerand/common/math.h"
#include "futurerand/core/consistency.h"
#include "futurerand/dyadic/decomposition.h"
#include "futurerand/dyadic/tree.h"
#include "futurerand/randomizer/longitudinal.h"

namespace futurerand::core {

Server::Server(ServerShape shape)
    : shape_(std::move(shape)),
      sums_(MakeAggregateStore(shape_.store, shape_.num_periods)),
      level_counts_(shape_.level_scales.size(), 0) {}

Status EstimatorSpec::Validate() const {
  if (mode != Mode::kDyadic && mode != Mode::kDirect) {
    return Status::InvalidArgument("unknown estimator mode");
  }
  if (mode == Mode::kDyadic) {
    if (direct_offset != 0.0) {
      return Status::InvalidArgument(
          "the dyadic estimator carries no offset; use 0");
    }
    return Status::OK();
  }
  if (!std::isfinite(direct_offset) || direct_offset <= -1.0 ||
      direct_offset >= 1.0) {
    return Status::InvalidArgument(
        "direct estimator offset (u0) must lie in (-1, 1)");
  }
  return Status::OK();
}

const char* DedupPolicyToString(DedupPolicy policy) {
  switch (policy) {
    case DedupPolicy::kStrict:
      return "strict";
    case DedupPolicy::kIdempotent:
      return "idempotent";
  }
  return "unknown";
}

Status DedupWindowPolicy::Validate(DedupPolicy policy) const {
  if (window_boundaries < 0) {
    return Status::InvalidArgument("dedup window must be >= 0");
  }
  if (bounded() && policy != DedupPolicy::kIdempotent) {
    return Status::InvalidArgument(
        "a bounded dedup window requires DedupPolicy::kIdempotent");
  }
  return Status::OK();
}

Result<ServerShape> ServerShape::ForProtocol(const ProtocolConfig& config,
                                             DedupPolicy dedup,
                                             DedupWindowPolicy window) {
  FR_RETURN_NOT_OK(config.Validate());
  const int orders = config.num_orders();
  ServerShape shape{config.num_periods,
                    std::vector<double>(static_cast<size_t>(orders)), dedup,
                    window, config.store};
  if (rand::IsLongitudinalKind(config.randomizer)) {
    // Every longitudinal client sits at level 0 and reports each tick, so
    // the only live scale inverts the estimator gap u1 - u0 — no
    // (1 + log d) level-sampling factor. Higher orders hold no reports;
    // their zero scales keep any stray read harmless. Queries read that
    // row directly, shifted by the value-0 report mean u0.
    FR_ASSIGN_OR_RETURN(
        const double gap,
        rand::ExactCGap(config.randomizer, config.max_changes, config.epsilon,
                        config.longitudinal_alpha));
    shape.level_scales[0] = 1.0 / gap;
    FR_ASSIGN_OR_RETURN(const rand::LongitudinalSpec longitudinal,
                        rand::MakeLongitudinalSpec(config.randomizer,
                                                   config.epsilon,
                                                   config.longitudinal_alpha));
    shape.estimator = {EstimatorSpec::Mode::kDirect, longitudinal.u0};
    return shape;
  }
  for (int h = 0; h < orders; ++h) {
    // Algorithm 2 line 5: (1 + log d) * c_gap^{-1}. The c_gap must match the
    // randomizer the level-h clients instantiated.
    FR_ASSIGN_OR_RETURN(
        double c_gap,
        rand::ExactCGap(config.randomizer, config.SupportAtLevel(h),
                        config.epsilon));
    shape.level_scales[static_cast<size_t>(h)] =
        static_cast<double>(orders) / c_gap;
  }
  return shape;
}

Status ServerShape::Validate() const {
  FR_RETURN_NOT_OK(window.Validate(dedup));
  FR_RETURN_NOT_OK(estimator.Validate());
  // Construction-time, not decode-time: a server with out-of-range sketch
  // parameters must never exist, so no snapshot of one can either.
  FR_RETURN_NOT_OK(store.Validate());
  if (num_periods < 1 || !IsPowerOfTwo(static_cast<uint64_t>(num_periods))) {
    return Status::InvalidArgument("num_periods must be a power of two");
  }
  if (window.window_boundaries > num_periods) {
    // No level has more than d boundaries, so a larger window never
    // evicts; spelling it 0 keeps snapshots canonical (the decoder
    // rejects window > d).
    return Status::InvalidArgument(
        "dedup window exceeds the horizon; use 0 for unbounded");
  }
  const auto expected =
      static_cast<size_t>(Log2Exact(static_cast<uint64_t>(num_periods)) + 1);
  if (level_scales.size() != expected) {
    return Status::InvalidArgument("need one scale per dyadic order");
  }
  return Status::OK();
}

const char* ServerShape::FirstDifference(const ServerShape& other) const {
  if (num_periods != other.num_periods) {
    return "num_periods";
  }
  // Same d is not enough: shards debiasing with different per-level scales
  // would silently mix estimators, so scales must match exactly.
  if (level_scales != other.level_scales) {
    return "level scales";
  }
  if (dedup != other.dedup) {
    return "dedup policy";
  }
  if (window != other.window) {
    return "dedup window";
  }
  // Stores merge cell-wise, so both sides must bucket identically: same
  // backend, and under kSketch the same rows/width/seed.
  if (store != other.store) {
    return "store config";
  }
  if (estimator != other.estimator) {
    return "estimator spec";
  }
  return nullptr;
}

Result<Server> Server::ForProtocol(const ProtocolConfig& config,
                                   DedupPolicy policy,
                                   DedupWindowPolicy window) {
  FR_ASSIGN_OR_RETURN(ServerShape shape,
                      ServerShape::ForProtocol(config, policy, window));
  return Create(std::move(shape));
}

Result<Server> Server::Create(ServerShape shape) {
  FR_RETURN_NOT_OK(shape.Validate());
  shape.store = shape.store.Canonical();
  return Server(std::move(shape));
}

Status Server::RegisterClientStrict(int64_t client_id, int level) {
  if (level < 0 || level >= static_cast<int>(shape_.level_scales.size())) {
    return Status::InvalidArgument("level out of range");
  }
  if (shape_.estimator.direct() && level != 0) {
    // The direct estimator reads only the order-0 row; a deeper client's
    // reports would silently vanish from every query.
    return Status::InvalidArgument(
        "direct-estimator servers accept only level-0 clients");
  }
  if (clients_.Find(client_id) >= 0) {
    return Status::AlreadyExists("client already registered");
  }
  clients_.Insert(client_id);
  client_levels_.push_back(level);
  // Only the active policy's column is populated (the other stays empty).
  if (shape_.dedup == DedupPolicy::kIdempotent) {
    seen_boundaries_.emplace_back();
  } else {
    last_report_time_.push_back(0);
  }
  ++level_counts_[static_cast<size_t>(level)];
  return Status::OK();
}

Status Server::RegisterClient(int64_t client_id, int level) {
  if (shape_.dedup == DedupPolicy::kIdempotent) {
    const int32_t slot = clients_.Find(client_id);
    if (slot >= 0) {
      if (client_levels_[static_cast<size_t>(slot)] != level) {
        return Status::AlreadyExists(
            "client already registered at a different level");
      }
      ++duplicates_dropped_;  // faithful retransmission of a registration
      return Status::OK();
    }
  }
  return RegisterClientStrict(client_id, level);
}

int64_t Server::BitmapWordsAtLevel(int level) const {
  const int64_t boundaries = shape_.num_periods >> level;
  return (boundaries + 63) / 64;
}

void Server::EvictBehindWindow(BoundaryBitmap* bitmap,
                               int64_t frontier) const {
  // Keep every boundary in [frontier - window + 1 .. frontier]; older words
  // are dropped whole, so up to 63 extra boundaries survive until the
  // frontier crosses their word. Called BEFORE the frontier bit is
  // materialized, so a large frontier jump (first report after a long
  // outage) never allocates words it would immediately evict — the
  // materialized span stays O(window) regardless of the jump size.
  const int64_t keep_from = frontier - shape_.window.window_boundaries + 1;
  const int64_t keep_word = keep_from <= 0 ? 0 : keep_from >> 6;
  if (keep_word <= bitmap->base_word) {
    return;
  }
  const auto drop = static_cast<size_t>(keep_word - bitmap->base_word);
  if (drop >= bitmap->words.size()) {
    // The whole materialized span fell behind the new window.
    bitmap->words.clear();
  } else {
    bitmap->words.erase(bitmap->words.begin(),
                        bitmap->words.begin() + static_cast<int64_t>(drop));
  }
  bitmap->base_word = keep_word;
}

Status Server::CheckAndRecordReport(int64_t client_id, int64_t time,
                                    int8_t report, int* level_out,
                                    ReportAction* action) {
  if (report != -1 && report != 1) {
    return Status::InvalidArgument("reports must be -1 or +1");
  }
  const int32_t client_slot = clients_.Find(client_id);
  if (client_slot < 0) {
    return Status::NotFound("client not registered");
  }
  const int level = client_levels_[static_cast<size_t>(client_slot)];
  const int64_t interval_length = int64_t{1} << level;
  if (time < 1 || time > shape_.num_periods) {
    return Status::OutOfRange("report time outside [1..d]");
  }
  if (time % interval_length != 0) {
    return Status::InvalidArgument(
        "level-h clients report only at multiples of 2^h");
  }
  *level_out = level;
  *action = ReportAction::kApply;
  if (shape_.dedup == DedupPolicy::kIdempotent) {
    BoundaryBitmap& seen = seen_boundaries_[static_cast<size_t>(client_slot)];
    const int64_t boundary = (time >> level) - 1;
    const int64_t word = boundary >> 6;
    if (boundary > seen.frontier && shape_.window.bounded()) {
      // This report is about to advance the frontier: evict against the
      // new frontier first, so the resize below only materializes words
      // inside the window (a boundary above the frontier can never be a
      // duplicate, so the report is guaranteed to land).
      EvictBehindWindow(&seen, boundary);
    }
    if (word < seen.base_word) {
      // Evicted horizon: the bit is gone, so a first delivery and a
      // retransmission are indistinguishable. Refuse to guess.
      ++out_of_window_dropped_;
      *action = ReportAction::kAbsorb;
      return Status::OK();
    }
    const auto slot = static_cast<size_t>(word - seen.base_word);
    if (slot >= seen.words.size()) {
      seen.words.resize(slot + 1, 0);
    }
    const uint64_t bit = uint64_t{1} << (boundary & 63);
    if ((seen.words[slot] & bit) != 0) {
      ++duplicates_dropped_;
      *action = ReportAction::kAbsorb;
      return Status::OK();
    }
    seen.words[slot] |= bit;
    if (boundary > seen.frontier) {
      seen.frontier = boundary;
    }
  } else {
    int64_t& last_time = last_report_time_[static_cast<size_t>(client_slot)];
    if (time <= last_time) {
      return Status::InvalidArgument("duplicate or out-of-order report");
    }
    last_time = time;
  }
  return Status::OK();
}

Status Server::SubmitReport(int64_t client_id, int64_t time, int8_t report) {
  int level = 0;
  ReportAction action = ReportAction::kAbsorb;
  FR_RETURN_NOT_OK(
      CheckAndRecordReport(client_id, time, report, &level, &action));
  if (action == ReportAction::kApply) {
    sums_->Add(level, time >> level, report);
  }
  return Status::OK();
}

Status Server::SubmitReports(std::span<const ReportMessage> batch,
                             std::span<const size_t> indices,
                             int64_t* accepted) {
  // Per-level accumulator for the current run of same-time records. A fleet
  // tick emits a whole batch at one time t, so the common case flushes the
  // buffer exactly once: O(orders) tree stores for the entire batch instead
  // of one tree walk per report.
  std::vector<int64_t> level_accum(level_counts_.size(), 0);
  int64_t pending_time = 0;  // 0 = nothing buffered (report times are >= 1)
  const auto flush = [&] {
    if (pending_time == 0) {
      return;
    }
    for (size_t h = 0; h < level_accum.size(); ++h) {
      if (level_accum[h] != 0) {
        sums_->Add(static_cast<int>(h), pending_time >> h, level_accum[h]);
        level_accum[h] = 0;
      }
    }
    pending_time = 0;
  };
  int64_t done = 0;
  Status status;
  for (const size_t index : indices) {
    const ReportMessage& record = batch[index];
    if (record.time != pending_time) {
      flush();
    }
    int level = 0;
    ReportAction action = ReportAction::kAbsorb;
    status = CheckAndRecordReport(record.client_id, record.time, record.value,
                                  &level, &action);
    if (!status.ok()) {
      break;
    }
    if (action == ReportAction::kApply) {
      pending_time = record.time;
      level_accum[static_cast<size_t>(level)] += record.value;
    }
    ++done;
  }
  flush();
  if (accepted != nullptr) {
    *accepted = done;
  }
  return status;
}

Result<double> Server::EstimateAt(int64_t t) const {
  if (t < 1 || t > shape_.num_periods) {
    return Status::OutOfRange("query time outside [1..d]");
  }
  if (shape_.estimator.direct()) {
    // Every report at time t is a level-0 client's perturbed value, so the
    // unbiased read is a plain shift-and-rescale of the order-0 sum:
    //   (S_t - n_0 * u0) / (u1 - u0), with 1/(u1 - u0) in level_scales[0].
    const double raw = static_cast<double>(sums_->Value(0, t));
    const double n0 = static_cast<double>(level_counts_[0]);
    return shape_.level_scales[0] * (raw - n0 * shape_.estimator.direct_offset);
  }
  double estimate = 0.0;
  for (const dyadic::DyadicInterval& interval : dyadic::DecomposePrefix(t)) {
    estimate += shape_.level_scales[static_cast<size_t>(interval.order)] *
                static_cast<double>(
                    sums_->Value(interval.order, interval.index));
  }
  return estimate;
}

Result<double> Server::EstimateWindowDelta(int64_t l, int64_t r) const {
  if (l < 1 || l > r || r > shape_.num_periods) {
    return Status::OutOfRange("window outside [1..d]");
  }
  if (shape_.estimator.direct()) {
    // No dyadic decomposition to exploit: the windowed change is just the
    // difference of the two point estimates (a[l-1] is 0 by the st[0] = 0
    // convention when l == 1).
    FR_ASSIGN_OR_RETURN(const double at_r, EstimateAt(r));
    if (l == 1) {
      return at_r;
    }
    FR_ASSIGN_OR_RETURN(const double at_l, EstimateAt(l - 1));
    return at_r - at_l;
  }
  // Each interval's partial sum telescopes to st[end] - st[begin-1], so the
  // decomposition of [l..r] sums to a[r] - a[l-1] (Observation 3.7).
  double estimate = 0.0;
  for (const dyadic::DyadicInterval& interval : dyadic::DecomposeRange(l, r)) {
    estimate += shape_.level_scales[static_cast<size_t>(interval.order)] *
                static_cast<double>(
                    sums_->Value(interval.order, interval.index));
  }
  return estimate;
}

Result<std::vector<double>> Server::EstimateAll() const {
  std::vector<double> estimates;
  estimates.reserve(static_cast<size_t>(shape_.num_periods));
  for (int64_t t = 1; t <= shape_.num_periods; ++t) {
    FR_ASSIGN_OR_RETURN(double estimate, EstimateAt(t));
    estimates.push_back(estimate);
  }
  return estimates;
}

Result<std::vector<double>> Server::EstimateAllConsistent() const {
  if (shape_.estimator.direct()) {
    // The direct estimator keeps one reading per period — there is no
    // redundant ancestor/descendant structure for GLS to reconcile, so the
    // consistent estimates are the plain ones.
    return EstimateAll();
  }
  const int64_t d = shape_.num_periods;
  const int orders = static_cast<int>(shape_.level_scales.size());
  // Dense-sized scratch regardless of backend: consistency refines every
  // interval estimate, so this offline path costs O(d) memory even when
  // the store itself is sketched.
  dyadic::DyadicTree<double> estimates(d);
  std::vector<double> level_variances(static_cast<size_t>(orders));
  for (int h = 0; h < orders; ++h) {
    const double scale = shape_.level_scales[static_cast<size_t>(h)];
    const int64_t count = dyadic::NumIntervalsAtOrder(d, h);
    for (int64_t j = 1; j <= count; ++j) {
      estimates.At(h, j) = scale * static_cast<double>(sums_->Value(h, j));
    }
    // Var(S_hat(I_{h,j})) ~ n_h * scale_h^2 (each of the ~n/(1+log d)
    // level-h reporters contributes one +/-1 of variance ~1, scaled).
    // A floor of one reporter keeps empty levels from being treated as
    // infinitely trustworthy zeros.
    const auto reporters =
        std::max<int64_t>(level_counts_[static_cast<size_t>(h)], 1);
    level_variances[static_cast<size_t>(h)] =
        static_cast<double>(reporters) * scale * scale;
  }
  FR_RETURN_NOT_OK(EnforceTreeConsistency(level_variances, &estimates));
  std::vector<double> results;
  results.reserve(static_cast<size_t>(d));
  for (int64_t t = 1; t <= d; ++t) {
    results.push_back(estimates.PrefixSum(t));
  }
  return results;
}

Status Server::MergeAggregatesOnly(const Server& other) {
  FR_RETURN_NOT_OK(CheckMergeCompatible(other));
  for (size_t h = 0; h < level_counts_.size(); ++h) {
    level_counts_[h] += other.level_counts_[h];
  }
  AddSums(other);
  return Status::OK();
}

Status Server::CheckMergeCompatible(const Server& other) const {
  if (const char* field = shape_.FirstDifference(other.shape_)) {
    std::string message = "cannot merge servers with mismatched ";
    message += field;
    return Status::InvalidArgument(message);
  }
  return Status::OK();
}

void Server::AddSums(const Server& other) {
  // Same shape and store config (checked by every caller), so the cell
  // arenas align element-wise.
  sums_->AccumulateCells(*other.sums_);
}

int64_t Server::ClientCountAtLevel(int level) const {
  FR_CHECK(level >= 0 && level < static_cast<int>(level_counts_.size()));
  return level_counts_[static_cast<size_t>(level)];
}

double Server::ScaleAtLevel(int level) const {
  FR_CHECK(level >= 0 && level < static_cast<int>(shape_.level_scales.size()));
  return shape_.level_scales[static_cast<size_t>(level)];
}

int64_t Server::ApproxMemoryBytes() const {
  // Columns are charged their capacity; bitmaps additionally charge their
  // word storage. An estimate, but monotone in the real footprint, which is
  // what sizing a DedupWindowPolicy needs.
  int64_t bytes = static_cast<int64_t>(sizeof(Server));
  bytes += sums_->ApproxMemoryBytes();
  bytes += static_cast<int64_t>(shape_.level_scales.capacity() *
                                sizeof(double));
  bytes += static_cast<int64_t>(level_counts_.capacity() * sizeof(int64_t));
  bytes += clients_.ApproxMemoryBytes();
  bytes += static_cast<int64_t>(client_levels_.capacity() * sizeof(int32_t));
  bytes +=
      static_cast<int64_t>(last_report_time_.capacity() * sizeof(int64_t));
  bytes += static_cast<int64_t>(seen_boundaries_.capacity() *
                                sizeof(BoundaryBitmap));
  for (const BoundaryBitmap& bitmap : seen_boundaries_) {
    bytes +=
        static_cast<int64_t>(bitmap.words.capacity() * sizeof(uint64_t));
  }
  return bytes;
}

}  // namespace futurerand::core
