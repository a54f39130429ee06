// Simulation configuration and report types, shared by the engine
// (sim/engine.h), its drivers (shard::ShardedSimulator, whose one-shard
// case is sim::Simulator) and the message-level engine, without pulling
// in a driver.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/directory.h"
#include "cache/replacement.h"
#include "obs/trace.h"
#include "sim/control.h"
#include "sim/cost_model.h"
#include "sim/metrics.h"

namespace ecgf::sim {

class AccessLinkModel;  // sim/netmodel/link_model.h

/// How cached copies are kept fresh with respect to the origin.
enum class ConsistencyMode {
  /// The origin pushes invalidations to every registered holder on each
  /// update (Cache Clouds style — the paper's setting). Caches never serve
  /// stale content, at the cost of consistency traffic.
  kPushInvalidation,
  /// Copies live for a fixed TTL and may be served stale within it —
  /// the classic weak-consistency alternative; no update traffic at all.
  kTtl
};

/// How a cache finds group peers holding a document.
enum class DirectoryMode {
  /// Hash-partitioned beacon points with exact holder registration
  /// (Cache Clouds — the paper's substrate; the default).
  kBeacon,
  /// Summary-Cache style: each cache periodically publishes a Bloom-filter
  /// summary of its contents; peers consult summaries locally (no lookup
  /// hop) but pay wasted fetch attempts for false positives and summary
  /// staleness.
  kSummary
};

/// Parameters of the summary directory (DirectoryMode::kSummary).
struct SummaryConfig {
  std::size_t filter_bits = 4096;
  std::size_t hash_count = 4;
  double refresh_interval_ms = 10'000.0;
  /// Fetch attempts on summary-positive peers before giving up and going
  /// to the origin.
  std::size_t max_probe_attempts = 2;
};

/// What a cache does with a document fetched from a group peer
/// (cooperative resource management knob; origin fetches are always
/// offered to the local store).
enum class RemotePlacement {
  /// Store only when the replacement policy scores the newcomer at least
  /// as high as every eviction victim (Cache Clouds utility placement —
  /// the default; bounds intra-group duplication).
  kScoreGated,
  /// Always store, evicting unconditionally (greedy replication).
  kAlways,
  /// Never store a peer-served document (strict single-copy-per-group).
  kNever
};

struct SimulationConfig {
  /// Partition of the caches into cooperative groups: every cache index in
  /// [0, N) appears in exactly one group.
  std::vector<std::vector<cache::CacheIndex>> groups;

  std::uint64_t cache_capacity_bytes = 8ull << 20;  ///< 8 MB per cache
  /// Optional heterogeneous capacities (one entry per cache); when
  /// non-empty it overrides cache_capacity_bytes.
  std::vector<std::uint64_t> per_cache_capacity_bytes;
  cache::PolicyKind policy = cache::PolicyKind::kUtility;
  cache::UtilityPolicyParams utility_params{};

  /// Beacon points per group directory; 0 = every member is a beacon.
  std::size_t beacons_per_group = 3;

  CostModel cost{};

  ConsistencyMode consistency = ConsistencyMode::kPushInvalidation;
  /// Copy lifetime under ConsistencyMode::kTtl.
  double ttl_ms = 30'000.0;

  RemotePlacement remote_placement = RemotePlacement::kScoreGated;

  DirectoryMode directory = DirectoryMode::kBeacon;
  SummaryConfig summary{};  ///< used when directory == kSummary

  /// Fraction of the trace duration treated as cache warm-up: requests in
  /// the window count toward hit rates but not latency statistics.
  double warmup_fraction = 0.2;

  /// Failure injection: the named cache crashes at the given time and
  /// stays down. Its directory registrations are purged; later requests
  /// arriving at it fall back to the origin; peers route around it
  /// (beacon failover pays one timeout RTT per dead beacon slot skipped).
  struct CacheFailure {
    cache::CacheIndex cache = 0;
    double time_ms = 0.0;
  };
  std::vector<CacheFailure> failures;

  /// Scripted graceful churn (leave/join), applied in time order. Unlike
  /// failures, these notify the control hook and are reversible: a
  /// departed cache rejoins cold (empty store) in its last group unless a
  /// hook has repartitioned in between.
  std::vector<MembershipChange> membership_events;

  /// Online maintenance hook (non-owning; must outlive the run). Receives
  /// RTT observations and churn notifications, and gets a tick every
  /// control_interval_ms; may call GroupHost::apply_groups(). nullptr =
  /// static grouping (the paper's setting).
  ControlHook* control_hook = nullptr;
  /// Control-tick period; <= 0 disables ticks (the hook still sees
  /// samples and churn).
  double control_interval_ms = 0.0;

  /// Flow-level access-link congestion model (non-owning; must outlive the
  /// run, and be constructed fresh for each run — link state is
  /// cumulative). When set, cooperative data transfers additionally cross
  /// the holder's uplink and the requester's downlink, and origin-served
  /// bodies the requester's downlink, paying serialisation, queueing,
  /// drop/retransmission, and ECN-backoff penalties
  /// (docs/network_model.md). Congestion-inflated holder RTTs feed the
  /// control hook's drift samples. nullptr — or an uncontended model — is
  /// the paper's ideal network, bit for bit.
  AccessLinkModel* netmodel = nullptr;

  /// Trace stream this run's events go to. Default-constructed = inactive;
  /// when inactive but ECGF_TRACE is on and a global tracer is installed,
  /// the simulator falls back to the ambient stream 0. Orchestrators
  /// (SweepRunner) hand each run its own stream so traces stay
  /// bit-identical under ECGF_THREADS parallelism.
  obs::TraceContext trace;
};

struct SimulationReport {
  /// Paper's "average cache latency": mean over post-warmup requests.
  double avg_latency_ms = 0.0;
  /// Mean latency of post-warmup requests NOT served locally (group +
  /// origin) — the cost of cooperation, the metric group maintenance
  /// moves when the grouping goes stale (bench/ablation_churn).
  double avg_miss_latency_ms = 0.0;
  /// Latency distribution tail (reservoir-sampled, post-warmup).
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  /// Per-cache mean latencies (post-warmup), indexed by cache.
  std::vector<double> per_cache_latency_ms;
  /// Per-cache resolution breakdown (post-warmup), indexed by cache —
  /// feeds the obs exporters' per-cache and per-group CSVs.
  std::vector<ResolutionCounts> per_cache_counts;
  /// Post-warmup resolution breakdown — the same window as the latency
  /// statistics, so hit ratios and latencies are directly comparable.
  ResolutionCounts counts;
  /// Lifetime resolution breakdown including warm-up; use for conservation
  /// checks (raw_counts.total() == requests_processed).
  ResolutionCounts raw_counts;
  std::uint64_t origin_fetches = 0;
  std::uint64_t origin_updates = 0;
  std::uint64_t invalidations_pushed = 0;
  std::uint64_t requests_processed = 0;
  std::uint64_t events_executed = 0;
  std::uint64_t failures_applied = 0;
  std::uint64_t failover_lookups = 0;  ///< beacon slots skipped due to crashes
  std::uint64_t leaves_applied = 0;    ///< graceful departures executed
  std::uint64_t joins_applied = 0;     ///< rejoins executed
  std::uint64_t regroupings = 0;       ///< apply_groups() calls (control plane)
  std::uint64_t control_ticks = 0;     ///< control-hook ticks fired
  /// Requests served a copy older than the origin's (TTL mode only; always
  /// 0 under push invalidation).
  std::uint64_t stale_served = 0;
  /// Summary mode: fetch attempts wasted on false-positive/stale peers.
  std::uint64_t wasted_summary_probes = 0;
  /// Summary mode: network-wide summary rebuild rounds executed.
  std::uint64_t summary_rebuilds = 0;
  /// Access-link congestion counters (SimulationConfig::netmodel); all
  /// zero without a model or with an uncontended one.
  std::uint64_t net_drops = 0;
  std::uint64_t net_marks = 0;
  std::uint64_t net_retransmits = 0;
};

}  // namespace ecgf::sim
