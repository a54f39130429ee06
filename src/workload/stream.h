// Streaming workload engine — lazy request/update sources for 10^8-request
// runs (docs/workloads.md).
//
// The legacy path materialises every per-cache Zipf log into a time-sorted
// Trace vector, which puts request volume on the memory bill. This layer
// inverts that: a WorkloadSource hands out RequestSource pull iterators
// (next-event streams with deterministic per-cache RNG state), and the
// simulation drivers consume events one at a time, so peak memory is O(cache
// state), independent of how many requests a run replays.
//
// Determinism contract (pinned by tests/workload_test.cpp):
//   * Draw-for-draw identity with the legacy generator. With default
//     StreamProfile::kExact and all nonstationarity knobs off, a
//     SyntheticWorkload consumes the caller's Rng exactly as generate_trace
//     did and emits the same requests/updates byte for byte — generate_trace
//     itself is now a thin "materialise a stream" wrapper.
//   * Shard safety. partition() splits the stream by cache ownership; each
//     per-shard source owns disjoint per-cache state, so shards can pull
//     concurrently without locks, and the k-way merge order is the same
//     keyed (time, EventClass, key) order every driver uses. The
//     emitted events — times, docs, canonical keys — are identical at any
//     (shards, threads) combination.
//   * One uniform per decision. Every stochastic step consumes a fixed
//     number of RNG draws regardless of outcome (see ZipfSampler::
//     sample_from), which is what keeps per-cache streams replayable from
//     any reshard point.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "cache/catalog.h"
#include "workload/generator.h"
#include "workload/trace.h"
#include "workload/zipf.h"

namespace ecgf::workload {

/// "No further events" sentinel for peek_time_ms().
inline constexpr double kNoEvent = std::numeric_limits<double>::infinity();

namespace stream_detail {

/// SplitMix64 finaliser — the lean profile's whole per-cache RNG is one
/// 8-byte counter pushed through this.
constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Counter-based generator (SplitMix64): 8 bytes of state per stream, so
/// 100k caches cost under a megabyte of RNG state instead of the ~250 MB
/// that per-cache mt19937_64 forks would.
struct SplitMix {
  std::uint64_t state = 0;

  std::uint64_t next() { return mix64(state += 0x9E3779B97F4A7C15ULL); }
  double uniform01() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;  // [0, 1)
  }
  double exponential(double rate) {
    return -std::log1p(-uniform01()) / rate;
  }
};

/// Keyed bijection on [0, n): a 4-round Feistel network over the smallest
/// even-bit-width domain covering n, cycle-walking until the image lands
/// back inside [0, n). Replaces the legacy per-cache materialised
/// permutation (O(docs) memory each) with an O(1)-state mapping for the
/// lean profile. Expected walk length < 4 because the domain is < 4n.
std::size_t pseudo_permute(std::uint64_t key, std::size_t n, std::size_t i);

}  // namespace stream_detail

/// Canonical event key of a streamed request: cache id in the high bits,
/// the cache's request sequence number in the low 40. Orders identically
/// to the legacy global sort index at equal times (both tie-break by
/// cache), is locally computable by any shard, and fits EventQueue's
/// 64-bit key. 2^40 requests per cache is ~35 years at 1k req/s.
inline constexpr int kRequestSeqBits = 40;
constexpr std::uint64_t request_key(std::uint32_t cache, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(cache) << kRequestSeqBits) | seq;
}

/// Pull iterator over one shard's request stream, in nondecreasing
/// (time, cache) order. Not thread-safe; each shard owns its source.
class RequestSource {
 public:
  virtual ~RequestSource() = default;

  /// Pop the next request and its canonical event key. False when drained.
  virtual bool next(Request& out, std::uint64_t& key) = 0;

  /// Arrival time of the head event without consuming it (kNoEvent when
  /// drained). Head times never require a draw: inter-arrival gaps are
  /// sampled one event ahead.
  virtual double peek_time_ms() const = 0;

  /// Canonical key of the head event; only meaningful while
  /// peek_time_ms() < kNoEvent.
  virtual std::uint64_t peek_key() const = 0;
};

/// Pull iterator over the update log (origin-side, never sharded — updates
/// are coordinator barriers in the sharded driver).
class UpdateSource {
 public:
  virtual ~UpdateSource() = default;
  virtual bool next(Update& out) = 0;
  virtual double peek_time_ms() const = 0;
};

/// Maps a cache id to the shard that owns it (shard::ShardPlan adapter).
using ShardOfCache = std::function<std::size_t(std::uint32_t)>;

/// A complete workload behind lazy streams: the factory both drivers
/// consume. One source backs one run; partition() may be called again at
/// quiescent points (reshard barriers) and continues from the current
/// per-cache state — previously returned streams are invalidated.
class WorkloadSource {
 public:
  virtual ~WorkloadSource() = default;

  virtual double duration_ms() const = 0;
  virtual std::size_t cache_count() const = 0;

  /// The full update log, materialised. Updates stay eager by design:
  /// their volume is O(documents x duration), independent of request
  /// count, so they never threaten the flat-RSS property — and the sharded
  /// driver needs the whole log up front to build its barrier schedule.
  virtual const std::vector<Update>& updates() const = 0;

  /// Split the remaining stream (events at/after from_ms) into one
  /// RequestSource per shard by cache ownership. Streams own disjoint
  /// state and may be pulled concurrently from different threads.
  virtual std::vector<std::unique_ptr<RequestSource>> partition(
      std::size_t shards, const ShardOfCache& shard_of, double from_ms) = 0;

  /// Single-stream view: partition(1) shorthand for sequential drivers.
  std::unique_ptr<RequestSource> requests(double from_ms = 0.0);

  /// Cursor over updates() starting at from_ms.
  std::unique_ptr<UpdateSource> update_stream(double from_ms = 0.0) const;
};

/// Adapter: serve an existing materialised Trace through the stream
/// interface. Event keys are the trace's global request indices — exactly
/// the keys the drivers used before this seam existed, so every Trace-based
/// run is bit-identical to the pre-stream code.
class TraceWorkload final : public WorkloadSource {
 public:
  /// Non-owning view; `trace` must be time-sorted (as generate_trace and
  /// read_trace guarantee) and outlive this object. Callers validate the
  /// trace themselves (the drivers' Trace overloads do).
  TraceWorkload(const Trace& trace, std::size_t cache_count)
      : trace_(&trace), cache_count_(cache_count) {}

  double duration_ms() const override { return trace_->duration_ms; }
  std::size_t cache_count() const override { return cache_count_; }
  const std::vector<Update>& updates() const override {
    return trace_->updates;
  }
  std::vector<std::unique_ptr<RequestSource>> partition(
      std::size_t shards, const ShardOfCache& shard_of,
      double from_ms) override;

 private:
  const Trace* trace_;
  std::size_t cache_count_;
};

/// The popularity-churn process: every interval_ms, a fraction
/// f = 1 - 2^(-interval_ms / half_life_ms) of rank slots is redealt
/// (their documents shuffled among themselves), so the probability a rank
/// still maps to its original document decays as 2^(-t / half_life_ms).
/// Deterministic given (initial mapping, params, rng): every per-shard
/// stream replays the identical epoch sequence from its own copy, which is
/// what keeps churned runs bit-identical across shard counts.
class PopularityChurnProcess {
 public:
  PopularityChurnProcess() = default;
  PopularityChurnProcess(std::vector<cache::DocId> rank_to_doc,
                         const PopularityChurn& params, util::Rng rng);

  /// Apply every churn epoch with boundary <= t_ms. Monotone: callers
  /// advance with event time.
  void advance_to(double t_ms);

  cache::DocId doc_at(std::size_t rank) const { return rank_to_doc_[rank]; }
  const std::vector<cache::DocId>& rank_to_doc() const { return rank_to_doc_; }
  std::uint64_t epochs_applied() const { return epochs_; }
  bool enabled() const { return enabled_; }

 private:
  void apply_epoch();

  std::vector<cache::DocId> rank_to_doc_;
  PopularityChurn params_{};
  util::Rng rng_{0};
  std::uint64_t epochs_ = 0;
  std::size_t redeal_count_ = 0;  ///< slots redealt per epoch
  bool enabled_ = false;
  std::vector<std::size_t> scratch_;  ///< epoch slot picks (reused)
  std::vector<cache::DocId> values_;  ///< epoch value scratch (reused)
};

/// The synthetic workload as a stream: per-cache Poisson processes with
/// Zipf popularity, the similarity blend, optional flash crowds — plus the
/// nonstationary processes (diurnal rate modulation, popularity churn,
/// regional flash crowds) that a pre-generated trace cannot express.
/// Construction consumes `rng` exactly like the legacy generate_trace, so
/// default-parameter streams reproduce the old traces byte for byte.
class SyntheticWorkload final : public WorkloadSource {
 public:
  SyntheticWorkload(const WorkloadParams& params,
                    const cache::Catalog& catalog, util::Rng& rng);

  double duration_ms() const override { return params_.duration_ms; }
  std::size_t cache_count() const override { return params_.cache_count; }
  const std::vector<Update>& updates() const override { return updates_; }
  std::vector<std::unique_ptr<RequestSource>> partition(
      std::size_t shards, const ShardOfCache& shard_of,
      double from_ms) override;

  std::size_t document_count() const { return zipf_.size(); }

 private:
  friend class SyntheticStream;

  /// Lazily advanced per-cache generator state. kExact carries the legacy
  /// mt19937_64 fork and materialised private permutation (byte-compat);
  /// kLean replaces both with counter RNGs and a keyed Feistel bijection —
  /// O(1) state per cache, which is what makes 100k-cache streams cheap.
  struct CacheStream {
    std::unique_ptr<util::Rng> rng;                // kExact
    std::unique_ptr<util::Rng> fc_rng;             // kExact + flash crowd
    std::vector<cache::DocId> private_rank;        // kExact
    stream_detail::SplitMix sm{};                  // kLean
    stream_detail::SplitMix fc_sm{};               // kLean + flash crowd
    std::uint64_t perm_key = 0;                    // kLean private mapping
    double next_ms = kNoEvent;     ///< head of the base Poisson stream
    double fc_next_ms = kNoEvent;  ///< head of the flash-crowd stream
    std::uint64_t seq = 0;         ///< requests emitted so far (key low bits)
  };

  /// Base-rate modulation at t: 1 when diurnal is off.
  double rate_factor(double t_ms) const;
  /// Advance a cache's base stream past `from_ms` (thinning when diurnal
  /// modulation is on); returns the next arrival or kNoEvent.
  double advance_base(CacheStream& s, double from_ms);
  double advance_flash(CacheStream& s, double from_ms);

  bool exact() const { return params_.profile == StreamProfile::kExact; }

  WorkloadParams params_;
  ZipfSampler zipf_;
  std::optional<ZipfSampler> hot_zipf_;
  std::vector<cache::DocId> global_rank_;  ///< initial (pre-churn) mapping
  std::vector<cache::DocId> hot_;          ///< flash-crowd hot set
  std::vector<std::uint8_t> fc_region_;    ///< empty = every cache in region
  std::vector<CacheStream> states_;
  std::vector<Update> updates_;
  util::Rng churn_rng_{0};  ///< pristine; copied into every stream
  double rate_per_ms_ = 0.0;
  double fc_rate_per_ms_ = 0.0;
  double fc_end_ms_ = 0.0;
};

/// Drain a source into a Trace (requests merged in (time, cache) order,
/// updates copied). generate_trace == materialise(SyntheticWorkload).
Trace materialise(WorkloadSource& source);

}  // namespace ecgf::workload
