// Frozen reference oracle: the closure-driven sequential event loop that
// drove sim::ShardableEngine before the sequential driver became the
// one-shard case of shard::ShardedSimulator.
//
// It shares only the engine and sim::EventQueue with the production
// drivers: every arrival, completion, tick and refresh is a std::function
// on one keyed queue, and effects land in the consumers the moment the
// engine produces them (DirectSink). Differential tests compare every
// driver against it, so "sequential == sharded" is still checked against
// independent code. Keep it frozen: a change here must never be made to
// match a production driver.
#pragma once

#include <memory>
#include <vector>

#include "cache/catalog.h"
#include "cache/directory.h"
#include "cache/edge_cache.h"
#include "cache/origin.h"
#include "net/rtt_provider.h"
#include "obs/trace.h"
#include "sim/config.h"
#include "sim/control.h"
#include "sim/engine.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"
#include "workload/stream.h"
#include "workload/trace.h"

namespace ecgf::sim {

/// The reference sequential driver. Construct, then run(trace) or
/// run(source) — the same contract as sim::Simulator.
class ReferenceSimulator : public GroupHost {
 public:
  /// `rtt` must cover hosts 0..N (caches + origin); `server` is the origin's
  /// host id (normally N). `groups` in `config` must partition [0, N).
  ReferenceSimulator(const cache::Catalog& catalog, const net::RttProvider& rtt,
                     net::HostId server, SimulationConfig config);

  /// Drive the engine from lazy workload streams: requests and updates are
  /// pulled one event ahead, so memory stays O(source state) no matter how
  /// many requests the run replays (docs/workloads.md). One source backs
  /// one run.
  SimulationReport run(workload::WorkloadSource& source);

  /// Materialised-trace convenience: validates, wraps the trace in a
  /// workload::TraceWorkload view and streams it — bit-identical to the
  /// pre-stream driver (keys are the trace's request indices).
  SimulationReport run(const workload::Trace& trace);

  const cache::EdgeCache& edge_cache(cache::CacheIndex i) const {
    return engine_.edge_cache(i);
  }
  const cache::GroupDirectory& directory_of(cache::CacheIndex i) const {
    return engine_.directory_of(i);
  }
  const cache::OriginServer& origin() const { return engine_.origin(); }
  const MetricsCollector& metrics() const { return *metrics_; }

  bool is_down(cache::CacheIndex i) const { return engine_.is_down(i); }
  /// True between a leave and the matching join.
  bool is_departed(cache::CacheIndex i) const override {
    return engine_.is_departed(i);
  }
  std::size_t cache_count() const override { return engine_.cache_count(); }
  /// Directory index of a cache's current group.
  std::size_t group_index_of(cache::CacheIndex i) const {
    return engine_.group_index_of(i);
  }
  /// The current partition (as configured or last applied).
  const std::vector<std::vector<cache::CacheIndex>>& groups() const override {
    return engine_.groups();
  }

  /// Stable pointer to the simulation clock (ms); reads 0 before run().
  /// Lets time-varying collaborators (net::DriftingRttProvider, the
  /// control plane's probers) follow simulated time without a call-site
  /// time parameter.
  const double* clock_ptr() const { return queue_.now_ptr(); }

  /// Replace the group partition mid-run (the control plane's actuator).
  /// `groups` must partition exactly the non-departed caches. Directories
  /// are rebuilt and live caches re-register their resident documents, so
  /// cooperative state survives the cut-over; in-flight completions
  /// re-home against the new directories. Counted in regroupings.
  void apply_groups(
      const std::vector<std::vector<cache::CacheIndex>>& groups) override {
    engine_.apply_groups(groups);
  }

 private:
  /// Immediate-application sink: effects land in the metrics collector,
  /// trace context and control hook the moment the engine produces them.
  class DirectSink final : public EffectSink {
   public:
    explicit DirectSink(ReferenceSimulator& sim) : sim_(sim) {}
    void emit(const obs::TraceEvent& event) override {
      sim_.trace_.emit(event);
    }
    void record(cache::CacheIndex cache, double latency_ms, Resolution how,
                SimTime t) override {
      sim_.metrics_->set_now(t);
      sim_.metrics_->record(cache, latency_ms, how);
    }
    void rtt_sample(net::HostId src, net::HostId dst, double rtt_ms,
                    SimTime t) override {
      if (sim_.hook_ != nullptr) sim_.hook_->on_rtt_sample(src, dst, rtt_ms, t);
    }

   private:
    ReferenceSimulator& sim_;
  };

  ShardableEngine engine_;
  std::unique_ptr<MetricsCollector> metrics_;
  obs::TraceContext trace_;
  ControlHook* hook_ = nullptr;
  EventQueue queue_;
  DirectSink sink_;
  std::uint64_t control_ticks_ = 0;
};

}  // namespace ecgf::sim
