#include "shard/sharded_sim.h"

#include <algorithm>
#include <utility>

#include "obs/profile.h"
#include "util/expect.h"

namespace ecgf::shard {

ShardedSimulator::ShardedSimulator(const cache::Catalog& catalog,
                                   const net::RttProvider& rtt,
                                   net::HostId server,
                                   sim::SimulationConfig config,
                                   ShardOptions options)
    : engine_(catalog, rtt, server, std::move(config)),
      options_(options),
      metrics_(engine_.cache_count()),
      trace_(engine_.config().trace.active()
                 ? engine_.config().trace
                 : obs::TraceContext::root(obs::global_tracer(), 0)),
      hook_(engine_.config().control_hook),
      coord_sink_(trace_, metrics_, hook_),
      plan_(engine_.groups(), engine_.cache_count(), options.shards) {
  ECGF_EXPECTS(options_.shards >= 1);
  ECGF_EXPECTS(options_.epoch_ms >= 0.0);
  resolved_threads_ =
      options_.threads != 0
          ? options_.threads
          : std::min(options_.shards, util::configured_threads());
  pool_ = std::make_unique<util::ThreadPool>(resolved_threads_);
  sinks_.resize(options_.shards);
  // Effects whose replay target is a guaranteed no-op are filtered at
  // buffering time: trace events when no trace sink is attached (the
  // coordinator's TraceContext::emit would discard them unstamped), RTT
  // observations when no control hook consumes them. Output bytes are
  // unaffected — the replay would discard the same effects — but
  // benchmark-mode exchange volume shrinks to what is actually consumed.
  for (ShardSink& sink : sinks_) {
    sink.set_trace_buffering(trace_.tracer() != nullptr);
    sink.set_rtt_buffering(hook_ != nullptr);
  }
}

void ShardedSimulator::apply_groups(
    const std::vector<std::vector<cache::CacheIndex>>& groups) {
  engine_.apply_groups(groups);
  // The partition changed under us (control-plane actuator, fired from a
  // barrier): rebuild the shard plan once the current barrier batch ends.
  reshard_pending_ = true;
}

void ShardedSimulator::reshard(workload::WorkloadSource& source,
                               double from_ms) {
  ECGF_PROF_SCOPE("shard.reshard");
  ShardPlan plan(engine_.groups(), engine_.cache_count(), options_.shards);
  // When every cache keeps its shard (always, with one shard), the lanes
  // already hold exactly the streams and completions a re-partition would
  // hand them, so only the width restarts.
  const bool keep_lanes = !lanes_.empty() && plan.same_cache_shards(plan_);
  plan_ = std::move(plan);
  schedule_->reset_width(plan_, engine_);
  if (keep_lanes) return;

  // In-flight completions survive a reshard: collect and re-home them by
  // their cache's new shard (the engine already re-registered resident
  // documents against the new directories).
  std::vector<sim::Completion> pending;
  for (const ShardLane& lane : lanes_) {
    pending.insert(pending.end(), lane.completions().begin(),
                   lane.completions().end());
  }

  // Re-partition the stream. Arrivals are only ever *peeked* until they
  // execute (ShardLane), so the new per-shard streams continue from the
  // executed prefix with nothing to replay (synthetic sources) or
  // re-slice from `from_ms` (trace views).
  auto streams = source.partition(
      options_.shards,
      [this](std::uint32_t c) { return plan_.shard_of_cache(c); }, from_ms);
  lanes_.clear();
  for (auto& stream : streams) lanes_.emplace_back(std::move(stream));
  for (const sim::Completion& c : pending) {
    lanes_[plan_.shard_of_cache(c.cache)].add_completion(c);
  }
}

double ShardedSimulator::earliest_pending() const {
  double e = workload::kNoEvent;
  for (const ShardLane& lane : lanes_) e = std::min(e, lane.earliest());
  return e;
}

void ShardedSimulator::run_windows(const Cut& cut) {
  ECGF_PROF_SCOPE("shard.windows");
  // Only shards whose head event falls inside the window are dispatched;
  // idle shards pay nothing at this cut, and an all-idle window never
  // touches the pool (degenerate topologies: one loaded shard, N-1 empty).
  active_.clear();
  for (std::size_t si = 0; si < lanes_.size(); ++si) {
    if (cut.covers(lanes_[si].earliest())) active_.push_back(si);
  }
  if (active_.empty()) return;
  windows_ += active_.size();
  active_counts_.resize(active_.size());

  // Lanes and sinks are shard-private, so running them on pool workers
  // is race-free.
  const auto run_shard = [&](std::size_t k) {
    const std::size_t si = active_[k];
    active_counts_[k] = lanes_[si].run_window(cut, engine_, sinks_[si]);
  };
  if (active_.size() == 1) {
    run_shard(0);  // no dispatch overhead for a lone shard
  } else {
    pool_->parallel_for(active_.size(), run_shard);
  }
  for (const WindowCount& count : active_counts_) {
    events_executed_ += count.executed;
    requests_executed_ += count.arrivals;
  }
}

void ShardedSimulator::execute_barrier(
    const Barrier& barrier, const std::vector<workload::Update>& updates) {
  ECGF_PROF_SCOPE("shard.barrier");
  const double t = barrier.time_ms;
  const auto& config = engine_.config();
  switch (barrier.klass) {
    case sim::EventClass::kFailure:
      engine_.on_failure(config.failures[barrier.index].cache, t, coord_sink_);
      break;
    case sim::EventClass::kMembership: {
      const sim::MembershipChange change =
          config.membership_events[barrier.index];
      if (change.kind == sim::MembershipChange::Kind::kLeave) {
        if (engine_.on_leave(change.cache, t, coord_sink_) &&
            hook_ != nullptr) {
          hook_->on_leave(change.cache, t);
        }
      } else {
        std::uint32_t group = 0;
        if (engine_.on_join(change.cache, t, coord_sink_, &group) &&
            hook_ != nullptr) {
          hook_->on_join(change.cache, group, t);
        }
      }
      break;
    }
    case sim::EventClass::kUpdate:
      engine_.on_update(updates[barrier.index], coord_sink_);
      break;
    case sim::EventClass::kControlTick:
      ++control_ticks_;
      hook_->on_tick(*this, t);
      break;
    case sim::EventClass::kSummaryRefresh:
      engine_.rebuild_summaries();
      break;
    default:
      ECGF_EXPECTS(false);
  }
}

sim::SimulationReport ShardedSimulator::run(const workload::Trace& trace) {
  trace.validate(engine_.cache_count(), engine_.catalog().size());
  workload::TraceWorkload source(trace, engine_.cache_count());
  return run(source);
}

sim::SimulationReport ShardedSimulator::run(workload::WorkloadSource& source) {
  ECGF_PROF_SCOPE("shard.run");
  const auto& config = engine_.config();
  const double duration_ms = source.duration_ms();
  const std::vector<workload::Update>& updates = source.updates();
  metrics_.set_warmup_end(duration_ms * config.warmup_fraction);

  schedule_.emplace(config, updates, duration_ms, options_.epoch_ms);

  if (hook_ != nullptr) hook_->on_start(*this);
  reshard_pending_ = false;
  lanes_.clear();
  reshard(source, 0.0);

  now_ms_ = 0.0;
  events_executed_ = 0;
  requests_executed_ = 0;
  cuts_ = 0;
  windows_ = 0;
  merges_skipped_ = 0;

  for (;;) {
    const Cut cut = schedule_->next_cut(earliest_pending());
    run_windows(cut);
    const std::size_t exchanged = total_buffered_effects(sinks_);
    if (exchanged != 0) {
      merge_and_replay(sinks_, coord_sink_, merge_scratch_);
    } else {
      ++merges_skipped_;  // empty epoch: nothing to exchange or replay
    }
    ++cuts_;
    now_ms_ = cut.time_ms;
    const std::span<const Barrier> due = schedule_->commit(cut, exchanged);
    for (const Barrier& barrier : due) {
      execute_barrier(barrier, updates);
      ++events_executed_;
    }
    if (reshard_pending_) {
      reshard_pending_ = false;
      reshard(source, cut.time_ms);
    }
    if (cut.kind == Cut::Kind::kFinal) break;
  }

  sim::EngineTally tally = coord_sink_.tally;
  for (const ShardSink& sink : sinks_) tally += sink.tally;
  return engine_.assemble_report(metrics_, requests_executed_,
                                 events_executed_, control_ticks_, tally);
}

sim::SimulationReport run_sharded_simulation(const cache::Catalog& catalog,
                                             const net::RttProvider& rtt,
                                             net::HostId server,
                                             sim::SimulationConfig config,
                                             ShardOptions options,
                                             const workload::Trace& trace) {
  ShardedSimulator sim(catalog, rtt, server, std::move(config), options);
  return sim.run(trace);
}

}  // namespace ecgf::shard
