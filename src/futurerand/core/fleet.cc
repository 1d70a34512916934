#include "futurerand/core/fleet.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include "futurerand/common/macros.h"
#include "futurerand/common/random.h"

namespace futurerand::core {

ClientFleet::ClientFleet(const ProtocolConfig& config, ThreadPool* pool,
                         int64_t first_client_id)
    : config_(config), pool_(pool), first_client_id_(first_client_id) {}

Result<ClientFleet> ClientFleet::Create(const ProtocolConfig& config,
                                        int64_t num_clients,
                                        uint64_t base_seed, ThreadPool* pool,
                                        int64_t first_client_id) {
  FR_RETURN_NOT_OK(config.Validate());
  if (num_clients < 0) {
    return Status::InvalidArgument("num_clients must be non-negative");
  }
  if (num_clients > std::numeric_limits<int32_t>::max()) {
    // Cohort membership is stored as int32 positions.
    return Status::InvalidArgument("fleet size exceeds 2^31 - 1 clients");
  }
  ClientFleet fleet(config, pool, first_client_id);
  const auto n = static_cast<size_t>(num_clients);
  fleet.levels_.resize(n);
  fleet.current_states_.assign(n, 0);
  fleet.boundary_states_.assign(n, 0);
  fleet.randomizers_.resize((n + kChunkSize - 1) >> kChunkShift);

  // Randomizer parameters depend on a client only through its level
  // (L = d >> h, k = SupportAtLevel(h)): build each level's block once, up
  // front, and share it. A config any level rejects fails here, before any
  // client exists. Longitudinal clients all sit at level 0.
  const bool longitudinal = rand::IsLongitudinalKind(config.randomizer);
  std::vector<std::shared_ptr<const rand::RandomizerParams>> params(
      longitudinal ? 1 : static_cast<size_t>(config.num_orders()));
  for (size_t level = 0; level < params.size(); ++level) {
    FR_ASSIGN_OR_RETURN(
        params[level],
        rand::MakeRandomizerParams(
            config.randomizer, config.num_periods >> level,
            config.SupportAtLevel(static_cast<int>(level)), config.epsilon,
            config.longitudinal_alpha));
  }

  // Each client's creation mirrors Client::Create exactly: one Rng seeded
  // from the forked stream draws the level, then seeds the randomizer.
  const Rng base(base_seed);
  auto create_chunks = [&](int64_t first_chunk, int64_t end_chunk) {
    // Every client copies its level's handle, and copies of one shared_ptr
    // all update one reference count: a cache line the pool's threads
    // would fight over. A chunk-local handle per level (its own count; its
    // deleter holds the shared handle) keeps those updates thread-private.
    std::vector<std::shared_ptr<const rand::RandomizerParams>> local;
    local.reserve(params.size());
    for (const auto& block : params) {
      local.emplace_back(block.get(),
                         [block](const rand::RandomizerParams*) {});
    }
    for (auto c = static_cast<size_t>(first_chunk);
         c < static_cast<size_t>(end_chunk); ++c) {
      const size_t begin = c << kChunkShift;
      const size_t end = std::min(n, begin + kChunkSize);
      std::vector<rand::SequenceRandomizer>& chunk = fleet.randomizers_[c];
      chunk.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) {
        const int64_t client_id = first_client_id + static_cast<int64_t>(i);
        Rng rng(base.Fork(static_cast<uint64_t>(client_id)).NextUint64());
        // The level draw is skipped entirely for longitudinal clients —
        // not drawn-and-discarded — so the randomizer seed is the FIRST
        // draw on both the fleet and the per-client path, keeping them
        // bit-identical.
        const int level =
            longitudinal ? 0
                         : static_cast<int>(rng.NextInt(
                               static_cast<uint64_t>(config.num_orders())));
        fleet.levels_[i] = level;
        chunk.emplace_back(local[static_cast<size_t>(level)],
                           rng.NextUint64());
      }
    }
  };
  const auto num_chunks = static_cast<int64_t>(fleet.randomizers_.size());
  ParallelForOrInline(pool, num_chunks, create_chunks);

  // Precompute the nested reporting cohorts (id order within each): client
  // u is due at tick t iff 2^level divides t, i.e. level <= countr_zero(t).
  // One cohort per level up to the highest present; deeper trailing zeros
  // add no members.
  int max_level = 0;
  for (const int level : fleet.levels_) {
    max_level = std::max(max_level, level);
  }
  fleet.cohort_by_tz_.resize(static_cast<size_t>(max_level) + 1);
  for (size_t u = 0; u < n; ++u) {
    for (int z = fleet.levels_[u]; z <= max_level; ++z) {
      fleet.cohort_by_tz_[static_cast<size_t>(z)].push_back(
          static_cast<int32_t>(u));
    }
  }
  return fleet;
}

std::vector<RegistrationMessage> ClientFleet::registrations() const {
  std::vector<RegistrationMessage> out(levels_.size());
  for (size_t u = 0; u < levels_.size(); ++u) {
    out[u] = RegistrationMessage{first_client_id_ + static_cast<int64_t>(u),
                                 levels_[u]};
  }
  return out;
}

Status ClientFleet::AdvanceTick(std::span<const int8_t> states,
                                ReportBatch* batch) {
  if (static_cast<int64_t>(states.size()) != size()) {
    return Status::InvalidArgument("states span must cover every client");
  }
  if (time_ >= config_.num_periods) {
    return Status::OutOfRange("all d time periods already ingested");
  }
  // Branch-free OR-reduction (it vectorizes): a byte outside {0,1} has a
  // bit set above bit 0.
  uint8_t bad = 0;
  for (const int8_t state : states) {
    bad |= static_cast<uint8_t>(state) & uint8_t{0xFE};
  }
  if (bad != 0) {
    return Status::InvalidArgument("state must be 0 or 1");
  }
  TickValidated(states, batch);
  return Status::OK();
}

void ClientFleet::TickValidated(std::span<const int8_t> states,
                                ReportBatch* batch) {
  ++time_;
  const int64_t t = time_;
  const size_t n = states.size();
  batch->clear();
  if (n == 0) {
    return;
  }

  // Fleet-wide change detection and state refresh. The count fits 32 bits
  // (Create bounds n by 2^31 - 1), which keeps the loop vectorizable.
  int32_t changes = 0;
  for (size_t i = 0; i < n; ++i) {
    changes += states[i] != current_states_[i] ? 1 : 0;
  }
  changes_total_ += changes;
  std::memcpy(current_states_.data(), states.data(), n);

  // The reporting cohort depends only on countr_zero(t), clamped to the
  // last cohort (the highest level present).
  const auto z = std::min<size_t>(
      static_cast<size_t>(std::countr_zero(static_cast<uint64_t>(t))),
      cohort_by_tz_.size() - 1);
  const std::vector<int32_t>& cohort = cohort_by_tz_[z];
  batch->resize(cohort.size());

  // Gather per member, telescoping its partial sum (Observation 3.7: the
  // partial sum is st[t] - st[t - 2^h]). Each member touches only its own
  // slots (cohort positions are distinct), so the loop parallelizes with
  // no synchronization and stays bit-identical to the serial order.
  auto randomize_range = [&](int64_t begin, int64_t end) {
    for (int64_t j = begin; j < end; ++j) {
      const auto i = static_cast<size_t>(cohort[static_cast<size_t>(j)]);
      const int8_t state = current_states_[i];
      const auto partial_sum =
          static_cast<int8_t>(state - boundary_states_[i]);
      boundary_states_[i] = state;
      (*batch)[static_cast<size_t>(j)] = ReportMessage{
          first_client_id_ + static_cast<int64_t>(i), t,
          randomizer(i).Randomize(partial_sum)};
    }
  };
  const auto cohort_size = static_cast<int64_t>(cohort.size());
  ParallelForOrInline(pool_, cohort_size, randomize_range);
  reports_emitted_ += static_cast<int64_t>(batch->size());
}

Result<std::string> ClientFleet::EncodeLongitudinalState() const {
  if (!rand::IsLongitudinalKind(config_.randomizer)) {
    return Status::FailedPrecondition(
        "fleet's randomizer kind keeps no longitudinal state to snapshot");
  }
  std::string out;
  wire_internal::AppendHeader(wire_internal::kKindFleetLongState, &out);
  // Shape block: everything a restore must match before touching state.
  wire_internal::PutVarint64(static_cast<uint64_t>(config_.randomizer),
                             &out);
  wire_internal::PutVarint64(static_cast<uint64_t>(config_.num_periods),
                             &out);
  // Doubles travel as raw bits: the restored fleet must randomize
  // bit-identically, so the creation parameters must round-trip exactly.
  wire_internal::PutDoubleBits(config_.epsilon, &out);
  wire_internal::PutDoubleBits(config_.longitudinal_alpha, &out);
  wire_internal::PutVarint64(
      wire_internal::ZigZagEncode(first_client_id_), &out);
  wire_internal::PutVarint64(static_cast<uint64_t>(size()), &out);
  // Fleet clock.
  wire_internal::PutVarint64(static_cast<uint64_t>(time_), &out);
  wire_internal::PutVarint64(static_cast<uint64_t>(reports_emitted_), &out);
  wire_internal::PutVarint64(static_cast<uint64_t>(changes_total_), &out);
  // Per-client memoization state, in client-id order. Every longitudinal
  // client sits at level 0, so position == time_ fleet-wide and is not
  // repeated per client.
  for (const auto& chunk : randomizers_) {
    for (const rand::SequenceRandomizer& randomizer : chunk) {
      const rand::SequenceRandomizer::LongitudinalState& state =
          randomizer.longitudinal_state();
      wire_internal::PutFixed64(state.rng_state, &out);
      wire_internal::PutFixed64(state.hash_seed[0], &out);
      wire_internal::PutFixed64(state.hash_seed[1], &out);
      wire_internal::PutVarint64(
          wire_internal::ZigZagEncode(state.memo[0]), &out);
      wire_internal::PutVarint64(
          wire_internal::ZigZagEncode(state.memo[1]), &out);
      wire_internal::PutVarint64(
          static_cast<uint64_t>(randomizer.support_used()), &out);
      out.push_back(static_cast<char>(state.tracked_state));
    }
  }
  wire_internal::AppendChecksum(&out);
  return out;
}

Status ClientFleet::RestoreLongitudinalState(std::string_view bytes) {
  if (!rand::IsLongitudinalKind(config_.randomizer)) {
    return Status::FailedPrecondition(
        "fleet's randomizer kind keeps no longitudinal state to restore");
  }
  // Trailer first (the snapshot convention): nothing of a corrupted blob
  // is ever parsed, so the verdict is kDataLoss, not a field error.
  FR_RETURN_NOT_OK(wire_internal::ConsumeChecksum(&bytes));
  FR_ASSIGN_OR_RETURN(const char kind, wire_internal::CheckHeader(bytes));
  if (kind != wire_internal::kKindFleetLongState) {
    return Status::InvalidArgument(
        "not a fleet longitudinal state blob; cannot restore");
  }
  bytes.remove_prefix(wire_internal::kHeaderSize);
  FR_ASSIGN_OR_RETURN(const uint64_t raw_kind,
                      wire_internal::GetVarint64(&bytes));
  if (raw_kind != static_cast<uint64_t>(config_.randomizer)) {
    return Status::InvalidArgument(
        "snapshot randomizer kind mismatches fleet");
  }
  FR_ASSIGN_OR_RETURN(const uint64_t raw_periods,
                      wire_internal::GetVarint64(&bytes));
  if (raw_periods != static_cast<uint64_t>(config_.num_periods)) {
    return Status::InvalidArgument("snapshot num_periods mismatches fleet");
  }
  FR_ASSIGN_OR_RETURN(const double epsilon,
                      wire_internal::GetDoubleBits(&bytes));
  FR_ASSIGN_OR_RETURN(const double alpha,
                      wire_internal::GetDoubleBits(&bytes));
  if (std::bit_cast<uint64_t>(epsilon) !=
          std::bit_cast<uint64_t>(config_.epsilon) ||
      std::bit_cast<uint64_t>(alpha) !=
          std::bit_cast<uint64_t>(config_.longitudinal_alpha)) {
    return Status::InvalidArgument(
        "snapshot privacy parameters mismatch fleet");
  }
  FR_ASSIGN_OR_RETURN(const uint64_t raw_first,
                      wire_internal::GetVarint64(&bytes));
  if (wire_internal::ZigZagDecode(raw_first) != first_client_id_) {
    return Status::InvalidArgument(
        "snapshot first client id mismatches fleet");
  }
  FR_ASSIGN_OR_RETURN(const uint64_t raw_size,
                      wire_internal::GetVarint64(&bytes));
  if (raw_size != static_cast<uint64_t>(size())) {
    return Status::InvalidArgument("snapshot fleet size mismatches fleet");
  }
  FR_ASSIGN_OR_RETURN(const uint64_t raw_time,
                      wire_internal::GetVarint64(&bytes));
  if (raw_time > static_cast<uint64_t>(config_.num_periods)) {
    return Status::InvalidArgument("snapshot time exceeds num_periods");
  }
  const auto time = static_cast<int64_t>(raw_time);
  FR_ASSIGN_OR_RETURN(const uint64_t raw_reports,
                      wire_internal::GetVarint64(&bytes));
  // Level-0 clients report every tick, so the fleet clock pins the count.
  if (raw_reports != raw_time * static_cast<uint64_t>(size())) {
    return Status::InvalidArgument(
        "snapshot report count inconsistent with its clock");
  }
  FR_ASSIGN_OR_RETURN(const uint64_t raw_changes,
                      wire_internal::GetVarint64(&bytes));
  // Decode and validate every client before mutating anything: like
  // ShardedAggregator::Restore, this either replaces the whole fleet's
  // longitudinal state or leaves it untouched.
  const auto n = static_cast<size_t>(size());
  std::vector<rand::SequenceRandomizer::LongitudinalState> states(n);
  std::vector<int64_t> changes(n);
  uint64_t changes_sum = 0;
  for (size_t i = 0; i < n; ++i) {
    rand::SequenceRandomizer::LongitudinalState& state = states[i];
    FR_ASSIGN_OR_RETURN(state.rng_state,
                        wire_internal::GetFixed64(&bytes));
    FR_ASSIGN_OR_RETURN(state.hash_seed[0],
                        wire_internal::GetFixed64(&bytes));
    FR_ASSIGN_OR_RETURN(state.hash_seed[1],
                        wire_internal::GetFixed64(&bytes));
    for (int v = 0; v < 2; ++v) {
      FR_ASSIGN_OR_RETURN(const uint64_t raw_memo,
                          wire_internal::GetVarint64(&bytes));
      const int64_t memo = wire_internal::ZigZagDecode(raw_memo);
      if (memo < std::numeric_limits<int32_t>::min() ||
          memo > std::numeric_limits<int32_t>::max()) {
        return Status::InvalidArgument("snapshot memo value out of range");
      }
      state.memo[v] = static_cast<int32_t>(memo);
    }
    FR_ASSIGN_OR_RETURN(const uint64_t client_changes,
                        wire_internal::GetVarint64(&bytes));
    changes_sum += client_changes;
    changes[i] = static_cast<int64_t>(client_changes);
    if (bytes.empty()) {
      return Status::InvalidArgument("snapshot truncated");
    }
    state.tracked_state = static_cast<int8_t>(bytes.front());
    bytes.remove_prefix(1);
  }
  if (!bytes.empty()) {
    return Status::InvalidArgument(
        "trailing bytes after fleet longitudinal state");
  }
  if (changes_sum != raw_changes) {
    return Status::InvalidArgument(
        "snapshot change counter inconsistent with its clients");
  }
  // Validate every client against the randomizer spec (memo range, Boolean
  // state, kind-specific seed constraints) before importing any, so a bad
  // blob leaves the whole fleet untouched; the restores after that cannot
  // fail. Every client sits at level 0, so its position is the fleet clock.
  for (size_t i = 0; i < n; ++i) {
    FR_RETURN_NOT_OK(
        randomizer(i).ValidateLongitudinalState(states[i], time, changes[i]));
  }
  for (size_t i = 0; i < n; ++i) {
    FR_CHECK_MSG(
        randomizer(i).RestoreLongitudinalState(states[i], time, changes[i])
            .ok(),
        "validated longitudinal state failed to restore");
  }
  time_ = time;
  reports_emitted_ = static_cast<int64_t>(raw_reports);
  changes_total_ = static_cast<int64_t>(raw_changes);
  for (size_t i = 0; i < n; ++i) {
    // Level-0 clients hit a dyadic boundary every tick, so the integrated
    // state and the boundary state coincide at every snapshot point.
    current_states_[i] = states[i].tracked_state;
    boundary_states_[i] = states[i].tracked_state;
  }
  return Status::OK();
}

int64_t ClientFleet::changes_seen() const { return changes_total_; }

int64_t ClientFleet::support_overflow_count() const {
  int64_t total = 0;
  for (const auto& chunk : randomizers_) {
    for (const rand::SequenceRandomizer& randomizer : chunk) {
      total += randomizer.support_overflow_count();
    }
  }
  return total;
}

}  // namespace futurerand::core
