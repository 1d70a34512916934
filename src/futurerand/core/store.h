// Pluggable per-shard aggregate storage.
//
// The server's only aggregate state is one signed counter per dyadic
// interval (the raw sum of +/-1 reports). AggregateStore abstracts how
// those counters are laid out, so a shard can hold them either exactly
// (DenseStore, core/dense_store.h: the contiguous DyadicTree arena, O(d)
// memory, the default and the paper-faithful choice) or approximately
// (SketchStore, core/sketch_store.h: a count-sketch of R rows x W buckets
// per dyadic level, O(levels * R * W) memory, for domains where O(d) per
// shard is unaffordable).
//
// The interface is deliberately the minimal hot-path surface: point add,
// point read, element-wise merge. Everything above it — debiasing scales,
// dedup, sharding, checkpoint framing — is store-agnostic. Reads return
// int64_t under both backends (the dense value is exact; the sketch value
// is the integer median-of-rows estimate), so Server's estimate math is
// byte-for-byte unchanged under the default backend.
//
// Which backend a Server uses is part of its identity: merges, restores
// and resharding require identical StoreConfigs, and the checkpoint kind
// records the backend (docs/FORMATS.md kinds 3 and 8).

#ifndef FUTURERAND_CORE_STORE_H_
#define FUTURERAND_CORE_STORE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "futurerand/common/result.h"

namespace futurerand::core {

/// The aggregate-storage backends a shard can be built on.
enum class StoreKind {
  /// One exact counter per dyadic interval (2d-1 total). Default.
  kDense,
  /// Count-sketch rows per level for levels too wide to store exactly;
  /// narrow levels stay exact. Estimates gain a bounded additive error
  /// (see docs/ARCHITECTURE.md "Storage backends").
  kSketch,
};

const char* StoreKindToString(StoreKind kind);

/// Parses "dense" / "sketch" (the --store flag spelling).
Result<StoreKind> ParseStoreKind(const std::string& name);

/// Selects and parameterizes a shard's aggregate store. The sketch_*
/// fields only matter under kSketch; Canonical() zeroes them back to the
/// defaults under kDense so configs compare by meaning, not by ignored
/// fields.
struct StoreConfig {
  StoreKind kind = StoreKind::kDense;

  /// Count-sketch depth R: independent (bucket, sign) hash rows per
  /// sketched level. The estimate is the lower median over rows, so odd
  /// values waste nothing; must be in [1, 64].
  int32_t sketch_rows = 5;

  /// Count-sketch width W: buckets per row. Must be a power of two in
  /// [8, 2^30]; the per-node additive error of a sketched level shrinks
  /// as 1/sqrt(W).
  int64_t sketch_width = int64_t{1} << 16;

  /// Seeds the per-(level, row) hash functions. Part of the store's
  /// identity: two sketches merge meaningfully only if they hash
  /// identically, so merges/restores require equal seeds.
  uint64_t sketch_seed = 0x6672736b65746368ULL;  // "frsketch"

  static StoreConfig Dense() { return StoreConfig{}; }
  static StoreConfig Sketch(int32_t rows, int64_t width, uint64_t seed) {
    return StoreConfig{StoreKind::kSketch, rows, width, seed};
  }

  /// OK iff the sketch parameters are in range (checked regardless of
  /// kind, so a config that would be invalid after a kind flip never
  /// circulates). Construction-time: Server::Create rejects a bad
  /// config before any state exists, and the snapshot decoder rejects a
  /// blob carrying one.
  Status Validate() const;

  /// This config with ignored fields reset: under kDense the sketch_*
  /// fields revert to their defaults. Servers store the canonical form,
  /// so two dense servers always agree on their StoreConfig.
  StoreConfig Canonical() const;

  std::string ToString() const;

  friend bool operator==(const StoreConfig&, const StoreConfig&) = default;
};

/// One shard's per-interval aggregate counters, behind a virtual point
/// add/read surface. Implementations are not thread-safe (the owning
/// Server/shard serializes access) and are only merged with stores
/// created from an equal StoreConfig and domain size.
class AggregateStore {
 public:
  virtual ~AggregateStore() = default;

  AggregateStore(const AggregateStore&) = delete;
  AggregateStore& operator=(const AggregateStore&) = delete;

  virtual StoreKind kind() const = 0;

  /// The domain size d this store was built for.
  int64_t domain_size() const { return domain_size_; }

  /// Adds `delta` to the counter of interval I_{order, index}
  /// (1-based index, as everywhere in the dyadic layer).
  virtual void Add(int order, int64_t index, int64_t delta) = 0;

  /// The counter of I_{order, index}: exact under kDense, the
  /// median-of-rows estimate under kSketch.
  virtual int64_t Value(int order, int64_t index) const = 0;

  /// Element-wise accumulate of `other`'s cells into this store.
  /// FR_CHECKs that the stores are structurally identical (same concrete
  /// kind, domain, and sketch parameters) — callers gate on StoreConfig
  /// equality first. Cell addition commutes, so any merge order over any
  /// sharding yields bit-identical cells.
  virtual void AccumulateCells(const AggregateStore& other) = 0;

  /// Estimated heap footprint of the cell storage in bytes.
  virtual int64_t ApproxMemoryBytes() const = 0;

 protected:
  explicit AggregateStore(int64_t domain_size) : domain_size_(domain_size) {}

 private:
  int64_t domain_size_;
};

/// Builds the store `config` describes over a domain of `num_periods`
/// (callers have validated both; FR_CHECKed here).
std::unique_ptr<AggregateStore> MakeAggregateStore(const StoreConfig& config,
                                                   int64_t num_periods);

}  // namespace futurerand::core

#endif  // FUTURERAND_CORE_STORE_H_
