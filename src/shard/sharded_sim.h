// ShardedSimulator — the one driver loop over sim::ShardableEngine.
//
// Runs the discrete-event simulation as conservative PDES over group-aligned
// shards. The sequential driver (sim::Simulator) is its one-shard,
// one-thread case, so every shard count produces the same SimulationReport,
// metrics and trace bytes; the shard count only decides how much of the
// hot path runs in parallel, up to 100k-cache networks.
//
// Execution model (docs/scaling.md has the full derivation):
//
//   * Caches are partitioned across shards by formed group (ShardPlan), so
//     all beacon-directory traffic is shard-local and window events never
//     cross shards.
//   * Time advances in epochs. Every event that couples shards — origin
//     updates, failures, membership churn, control ticks, summary
//     refreshes — is a BARRIER executed by the coordinator with all
//     shards quiescent. shard::EpochSchedule owns the barrier order, the
//     cut rule and the (adaptive) epoch width; the live coordinator runs
//     the same schedule.
//   * Between barriers, shards run their own event loops CONCURRENTLY on
//     util::ThreadPool workers up to the next synchronisation cut. Each
//     shard owns a private event/effect arena — its shard::ShardLane
//     (lazy request stream + completion heap) and ShardSink buffer — so
//     the window hot path takes no locks, shares no RNG, and allocates
//     nothing once arenas are warm. Only shards with pending work in the
//     window are dispatched; an all-empty window skips the pool entirely.
//   * Order-sensitive side effects (metrics samples, trace events, RTT
//     observations) are buffered per shard and replayed at each cut as a
//     deterministic k-way merge in canonical event order
//     (shard::merge_and_replay). A cut with zero buffered effects skips
//     the merge.
//
// Correctness never depends on the epoch width: group-aligned sharding
// routes all cross-shard influence through barriers, so any width — the
// degenerate near-zero derived lookahead or the widest adaptive epoch —
// yields the same bytes; the width only trades cut frequency against
// effect-buffer memory.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cache/catalog.h"
#include "net/rtt_provider.h"
#include "obs/trace.h"
#include "shard/exchange.h"
#include "shard/lane.h"
#include "shard/plan.h"
#include "shard/schedule.h"
#include "sim/config.h"
#include "sim/control.h"
#include "sim/engine.h"
#include "sim/metrics.h"
#include "util/thread_pool.h"
#include "workload/stream.h"
#include "workload/trace.h"

namespace ecgf::shard {

struct ShardOptions {
  /// Worker shards. 1 is the sequential driver (sim::Simulator): one lane,
  /// with barriers between its windows.
  std::size_t shards = 1;
  /// Explicit, FIXED epoch length; 0 = derive the initial width from the
  /// minimum cross-shard RTT and adapt from there (shard::EpochSchedule).
  /// A fixed width reproduces an exact cut schedule.
  double epoch_ms = 0.0;
  /// Worker threads for the shard loops; 0 = min(shards,
  /// util::configured_threads()).
  std::size_t threads = 0;
};

/// The driver. Construct, then run(trace) or run(source). Implements
/// sim::GroupHost so ctl's MaintenanceSession drives it unchanged.
class ShardedSimulator : public sim::GroupHost {
 public:
  ShardedSimulator(const cache::Catalog& catalog, const net::RttProvider& rtt,
                   net::HostId server, sim::SimulationConfig config,
                   ShardOptions options);
  // The replay sink and the clock pointer refer into this object.
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  /// Drive the shards from lazy workload streams: each shard pulls from
  /// its own workload::RequestSource (peeking one event ahead), so request
  /// volume never hits memory and a 100k-cache 10^8-request run fits flat
  /// RSS (bench/workload.cpp). Reshards re-partition the source at barrier
  /// time. One source backs one run.
  sim::SimulationReport run(workload::WorkloadSource& source);

  /// Materialised-trace convenience: validates, wraps the trace in a
  /// workload::TraceWorkload view and streams it — bit-identical to the
  /// pre-stream driver (keys are the trace's request indices).
  sim::SimulationReport run(const workload::Trace& trace);

  // sim::GroupHost
  std::size_t cache_count() const override { return engine_.cache_count(); }
  bool is_departed(cache::CacheIndex i) const override {
    return engine_.is_departed(i);
  }
  const std::vector<std::vector<cache::CacheIndex>>& groups() const override {
    return engine_.groups();
  }
  void apply_groups(
      const std::vector<std::vector<cache::CacheIndex>>& groups) override;

  // Introspection (tests, benches).
  const sim::ShardableEngine& engine() const { return engine_; }
  const sim::MetricsCollector& metrics() const { return metrics_; }
  std::size_t shard_count() const { return options_.shards; }
  /// Worker threads actually backing the shard loops (the resolved value
  /// of ShardOptions::threads; 1 = serial execution on the coordinator).
  std::size_t execution_threads() const { return resolved_threads_; }
  /// Epoch width currently in force (adaptive; equals epoch_initial_ms()
  /// before the first widening, and the explicit epoch_ms forever when
  /// one was given). 0 before run().
  double epoch_ms() const { return schedule_ ? schedule_->width_ms() : 0.0; }
  /// Epoch width the last (re)shard derived before any adaptation —
  /// the clamped min cross-shard RTT, or the explicit epoch_ms.
  double epoch_initial_ms() const {
    return schedule_ ? schedule_->initial_ms() : 0.0;
  }
  /// Synchronisation cuts executed during run() (epoch + barrier cuts).
  std::uint64_t cuts_executed() const { return cuts_; }
  /// Shard windows actually dispatched (shards with pending events in a
  /// cut's window). Empty shards never inflate this.
  std::uint64_t windows_dispatched() const { return windows_; }
  /// Cuts whose effect exchange was skipped because no shard buffered
  /// anything (empty-epoch short-circuit).
  std::uint64_t merges_skipped() const { return merges_skipped_; }
  /// Coordinator clock (ms): simulation time of the last cut; 0 before
  /// run(). Bind time-varying collaborators (net::DriftingRttProvider)
  /// here — barrier-side reads then see barrier time, while the shard hot
  /// path always uses the explicit-time rtt_ms_at() and never touches this
  /// clock.
  const double* clock_ptr() const { return &now_ms_; }

 private:
  /// (Re)distribute the workload across shards for the current partition:
  /// new ShardPlan and lookahead; then, unless every cache kept its shard,
  /// per-shard streams from source.partition() at/after `from_ms` and
  /// pending completions re-homed by cache.
  void reshard(workload::WorkloadSource& source, double from_ms);

  /// Run the window of every shard with pending work up to `cut` in
  /// parallel on the pool, buffering effects into the per-shard arenas.
  /// Shards with no events in the window are not dispatched; an all-empty
  /// window returns without touching the pool.
  void run_windows(const Cut& cut);

  /// Earliest pending event time across all shards; +inf when idle.
  double earliest_pending() const;

  void execute_barrier(const Barrier& barrier,
                       const std::vector<workload::Update>& updates);

  sim::ShardableEngine engine_;
  ShardOptions options_;
  sim::MetricsCollector metrics_;
  obs::TraceContext trace_;
  sim::ControlHook* hook_;
  ReplaySink coord_sink_;
  std::unique_ptr<util::ThreadPool> pool_;

  ShardPlan plan_;
  std::optional<EpochSchedule> schedule_;  ///< built per run()
  std::vector<ShardLane> lanes_;
  std::vector<ShardSink> sinks_;
  MergeScratch merge_scratch_;
  std::vector<std::size_t> active_;         ///< reusable active-shard scratch
  std::vector<WindowCount> active_counts_;  ///< per active shard, per window
  std::size_t resolved_threads_ = 1;
  double now_ms_ = 0.0;
  bool reshard_pending_ = false;
  std::uint64_t control_ticks_ = 0;
  std::uint64_t cuts_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t merges_skipped_ = 0;
  std::uint64_t events_executed_ = 0;
  std::uint64_t requests_executed_ = 0;
};

/// Convenience wrapper: build a driver, run the trace, return the report.
sim::SimulationReport run_sharded_simulation(const cache::Catalog& catalog,
                                             const net::RttProvider& rtt,
                                             net::HostId server,
                                             sim::SimulationConfig config,
                                             ShardOptions options,
                                             const workload::Trace& trace);

}  // namespace ecgf::shard
