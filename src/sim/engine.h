// The re-entrant core of the cooperative-cache simulation, shared by the
// driver loops:
//
//   * shard::ShardedSimulator — the conservative-PDES driver: caches are
//     partitioned across worker shards by formed group, each shard runs its
//     own event loop over a window, and effects are buffered and replayed
//     in canonical order at epoch barriers. Its one-shard case is the
//     sequential driver, sim::Simulator.
//   * live::Coordinator — the same schedule with each shard's windows in a
//     member process.
//
// The split is along the event-class boundary (sim::EventClass):
//
//   * Window events (kArrival, kCompletion) touch only one group's caches
//     and directory plus const shared state (catalog, origin versions,
//     RTTs, down/departed flags). on_request() / on_complete() are safe to
//     call concurrently for caches in DIFFERENT groups — the sharded
//     driver runs them on ThreadPool workers, one group-aligned shard per
//     lane, with no locks, no shared RNG, and no allocation into shared
//     arenas on this path (the origin fetch tally goes to the per-lane
//     EffectSink precisely so the shared OriginServer stays read-only).
//   * Barrier events (kFailure, kMembership, kUpdate, kSummaryRefresh,
//     kControlTick) mutate shared state and must run with all shards
//     quiescent. on_barrier() is the one map from a scripted barrier to
//     its engine call — on_failure() / on_leave() / on_join() /
//     on_update() / rebuild_summaries() — for the sharded driver, the live
//     coordinator and each live member's replica alike. kControlTick
//     stays with the driver, whose control hook may call apply_groups().
//     None of these run inside a window.
//
// Side effects that feed order-sensitive consumers (the metrics
// collector's float accumulators and latency reservoir, the trace stream's
// sequence stamps, the control hook's RTT samples) never happen directly:
// the engine routes them through an EffectSink. A shard's sink buffers
// them and the coordinator replays the k-way merge in canonical event
// order, while barrier events feed the coordinator's sink directly —
// which is how a run produces the same bytes at any shard count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/bloom.h"
#include "cache/catalog.h"
#include "cache/directory.h"
#include "cache/edge_cache.h"
#include "cache/origin.h"
#include "net/rtt_provider.h"
#include "obs/trace.h"
#include "sim/config.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"
#include "sim/netmodel/link_model.h"
#include "workload/trace.h"

namespace ecgf::sim {

/// Order-insensitive per-driver counters accumulated on the request path.
/// Each shard keeps its own and the coordinator sums them — no replay
/// needed because addition commutes.
struct EngineTally {
  std::uint64_t origin_fetches = 0;
  std::uint64_t failover_lookups = 0;
  std::uint64_t stale_served = 0;
  std::uint64_t wasted_summary_probes = 0;

  EngineTally& operator+=(const EngineTally& o) {
    origin_fetches += o.origin_fetches;
    failover_lookups += o.failover_lookups;
    stale_served += o.stale_served;
    wasted_summary_probes += o.wasted_summary_probes;
    return *this;
  }
};

/// Where the engine sends order-sensitive side effects. One sink per
/// execution lane: one per shard, plus the coordinator's for barriers.
class EffectSink {
 public:
  virtual ~EffectSink() = default;

  /// A trace event produced while executing the current simulation event.
  virtual void emit(const obs::TraceEvent& event) = 0;

  /// A completed request's metrics sample (drives MetricsCollector).
  virtual void record(cache::CacheIndex cache, double latency_ms,
                      Resolution how, SimTime t) = 0;

  /// A live RTT observation for the control hook (src != dst guaranteed).
  virtual void rtt_sample(net::HostId src, net::HostId dst, double rtt_ms,
                          SimTime t) = 0;

  /// Commutative counters — safe to bump directly from any lane.
  EngineTally tally;
};

/// A sink that drops every effect (the tally still counts): for replicas
/// whose effects another process owns, and for code that drives the
/// engine directly.
struct DiscardSink final : EffectSink {
  void emit(const obs::TraceEvent&) override {}
  void record(cache::CacheIndex, double, Resolution, SimTime) override {}
  void rtt_sample(net::HostId, net::HostId, double, SimTime) override {}
};

/// What one barrier did, beyond its trace events: the churn the driver
/// reports to its control hook, and the update figures the live
/// coordinator sums across member replicas.
struct BarrierOutcome {
  bool left = false;             ///< a leave applied (not already departed)
  bool joined = false;           ///< a join applied (cache was departed)
  cache::CacheIndex cache = 0;   ///< the cache that left or joined
  std::uint32_t group = 0;       ///< the group a joined cache rejoined
  std::uint64_t holders_dropped = 0;  ///< update: registered holders dropped
  std::uint64_t invalidations = 0;    ///< update: stored copies invalidated
};

/// What a completion event does with the fetched bytes when it fires.
enum class StoreMode : std::uint8_t {
  kNoStore,           ///< local hit / crashed requester: nothing to place
  kIfVersionCurrent,  ///< push-invalidation: store unless origin moved on
  kTtl,               ///< TTL mode: store unless the requester crashed
};

/// The cooperative state both engines (this one and the message-level
/// engine) start a run from: an empty store per cache and a directory per
/// group. `config.groups` must partition [0, N) for some
/// 0 < N < host_count (hosts = caches + origin).
struct CacheGroups {
  std::vector<std::size_t> group_of;  ///< cache → group index
  std::vector<std::unique_ptr<cache::EdgeCache>> caches;
  std::vector<std::unique_ptr<cache::GroupDirectory>> directories;
};
CacheGroups build_cache_groups(const SimulationConfig& config,
                               const cache::Catalog& catalog,
                               std::size_t host_count);

/// A request's resolution in transit: everything the completion event
/// needs, as data. Produced by on_request(), consumed by on_complete().
/// Plain data so the sharded driver can re-home pending completions when
/// the control plane repartitions groups mid-flight.
struct Completion {
  SimTime time = 0.0;               ///< completion instant (arrival+latency)
  /// Canonical tie-break key of the originating request — a trace's global
  /// request index, or workload::request_key(cache, seq) for streamed
  /// sources. Ordering-only: never serialised into reports or traces.
  std::uint64_t request_index = 0;
  cache::CacheIndex cache = 0;
  cache::DocId doc = 0;
  cache::Version version = 0;  ///< version fetched (kIfVersionCurrent/kTtl)
  double latency_ms = 0.0;
  Resolution how = Resolution::kOriginFetch;
  StoreMode store = StoreMode::kNoStore;
};

/// The shared simulation core. Owns the caches, directories, origin and
/// group state; owns no event queue, metrics, trace context or hook —
/// those belong to the driver.
class ShardableEngine {
 public:
  /// `rtt` must cover hosts 0..N (caches + origin); `server` is the
  /// origin's host id (normally N). `config.groups` must partition [0, N).
  ShardableEngine(const cache::Catalog& catalog, const net::RttProvider& rtt,
                  net::HostId server, SimulationConfig config);

  // ---- window events (shard-parallel across groups) ----

  /// Resolve one request arriving at `now`: performs the lookup protocol
  /// (local → beacon/holder or summaries → origin), emits request /
  /// dir_lookup traces and RTT observations through `sink`, touches
  /// holder LRU state, and returns the pending completion. Exactly one
  /// Completion per request. `request_index` is the driver's canonical
  /// event key for the request (see Completion::request_index); the engine
  /// only echoes it.
  Completion on_request(std::uint64_t request_index,
                        const workload::Request& request, SimTime now,
                        EffectSink& sink);

  /// Fire a completion: records the metrics sample, emits the resolution
  /// trace, and places the fetched copy per its StoreMode.
  void on_complete(const Completion& c, EffectSink& sink);

  // ---- barrier events (coordinator-only) ----

  /// Apply the scripted barrier `klass` #`index` at `t`: failure and
  /// membership indices name config().failures / membership_events, update
  /// indices name `updates`, and kSummaryRefresh rebuilds the summaries.
  /// kControlTick is the driver's, not the engine's. The engine never
  /// talks to the control hook: the driver reports the outcome's churn.
  BarrierOutcome on_barrier(EventClass klass, std::size_t index, SimTime t,
                            const std::vector<workload::Update>& updates,
                            EffectSink& sink);

  /// Apply one origin update; pushes invalidations to registered holders
  /// under ConsistencyMode::kPushInvalidation and returns how many
  /// registrations it dropped (0 under TTL, which pushes nothing).
  std::size_t on_update(const workload::Update& update, EffectSink& sink);

  /// Crash `failed` permanently (registrations purged). Idempotent.
  void on_failure(cache::CacheIndex failed, SimTime t, EffectSink& sink);

  /// Graceful departure; returns false if already departed (no-op).
  bool on_leave(cache::CacheIndex cache, SimTime t, EffectSink& sink);

  /// Rejoin (cold store, last group); returns false if not departed.
  /// On success `group_out` receives the group rejoined.
  bool on_join(cache::CacheIndex cache, SimTime t, EffectSink& sink,
               std::uint32_t* group_out);

  /// Replace the group partition mid-run (the control plane's actuator).
  /// `groups` must partition exactly the non-departed caches; a rejected
  /// partition throws before any state changes. Directory g is reused for
  /// new group g, and only the live caches whose group index changed move
  /// their registrations, so the cost follows what moved. Every directory
  /// ends exactly as a rebuild from scratch would leave it: members,
  /// beacons, and holder lists in ascending cache order.
  void apply_groups(const std::vector<std::vector<cache::CacheIndex>>& groups);

  /// Rebuild every cache's Bloom summary (summary directory mode).
  void rebuild_summaries();

  // ---- state queries ----

  const SimulationConfig& config() const { return config_; }
  std::size_t cache_count() const { return cache_count_; }
  bool is_down(cache::CacheIndex i) const;
  bool is_departed(cache::CacheIndex i) const;
  std::size_t group_index_of(cache::CacheIndex i) const;
  const std::vector<std::vector<cache::CacheIndex>>& groups() const {
    return config_.groups;
  }
  const cache::EdgeCache& edge_cache(cache::CacheIndex i) const;
  const cache::GroupDirectory& directory_of(cache::CacheIndex i) const;
  const cache::OriginServer& origin() const { return *origin_; }
  net::HostId server() const { return server_; }
  const cache::Catalog& catalog() const { return catalog_; }
  const net::RttProvider& rtt() const { return rtt_; }

  /// Invalidations pushed by on_update() so far. A live member replica
  /// counts only its own groups' holders; the coordinator sums each update
  /// barrier's BarrierOutcome::invalidations across the replicas.
  std::uint64_t invalidations_pushed() const { return invalidations_pushed_; }

  /// Assemble the final report from the driver's metrics plus the engine's
  /// barrier counters and the (summed) request-path tally.
  SimulationReport assemble_report(const MetricsCollector& metrics,
                                   std::uint64_t requests_processed,
                                   std::uint64_t events_executed,
                                   std::uint64_t control_ticks,
                                   const EngineTally& tally) const;

 private:
  /// Shared beacon lookup with crash failover. Returns the live beacon (or
  /// none) and accumulates timeout penalties into `penalty_ms`.
  bool find_beacon(const cache::GroupDirectory& dir, cache::CacheIndex i,
                   cache::DocId d, SimTime now, cache::CacheIndex& beacon,
                   double& penalty_ms, EffectSink& sink);
  /// Completion-time placement of a fetched copy, honouring the configured
  /// RemotePlacement and updating the group directory.
  void store_fetched(cache::CacheIndex i, cache::DocId d,
                     cache::Version version, SimTime t, Resolution how);
  /// Origin generation cost, counting the fetch in the sink's tally (the
  /// shared OriginServer stats stay untouched on the hot path).
  double origin_generation(cache::DocId d, EffectSink& sink);
  /// Netmodel charges (0.0 without a model). Shard-safe by construction:
  /// every link named belongs to the requester's group, so one shard owns
  /// all the state a window event touches (the origin's own links are
  /// deliberately outside the analytic model — the message engine's
  /// CongestionExchange covers origin overload).
  double charge_group_transfer(cache::CacheIndex holder,
                               cache::CacheIndex requester, SimTime now,
                               std::uint64_t size, EffectSink& sink);
  double charge_origin_transfer(cache::CacheIndex requester, SimTime now,
                                std::uint64_t size, EffectSink& sink);
  static void emit_leg_effects(net::HostId host, bool uplink,
                               const LegOutcome& leg, SimTime now,
                               EffectSink& sink);

  const cache::Catalog& catalog_;
  const net::RttProvider& rtt_;
  net::HostId server_;
  SimulationConfig config_;
  std::size_t cache_count_;

  std::vector<std::unique_ptr<cache::EdgeCache>> caches_;
  std::vector<std::unique_ptr<cache::GroupDirectory>> directories_;
  std::vector<std::size_t> group_of_;  ///< cache → directory index
  std::unique_ptr<cache::OriginServer> origin_;
  std::vector<bool> down_;
  std::vector<bool> departed_;  ///< left gracefully; may rejoin
  /// Summary mode: per-cache content summaries + peers sorted by RTT.
  std::vector<cache::BloomFilter> summaries_;
  std::vector<std::vector<cache::CacheIndex>> sorted_peers_;
  // Barrier-only counters (coordinator-serial, no replay needed).
  std::uint64_t invalidations_pushed_ = 0;
  std::uint64_t failures_applied_ = 0;
  std::uint64_t leaves_applied_ = 0;
  std::uint64_t joins_applied_ = 0;
  std::uint64_t regroupings_ = 0;
  std::uint64_t summary_rebuilds_ = 0;
};

}  // namespace ecgf::sim
