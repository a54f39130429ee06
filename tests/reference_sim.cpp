#include "reference_sim.h"

#include <functional>
#include <limits>
#include <utility>

#include "util/expect.h"

namespace ecgf::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

ReferenceSimulator::ReferenceSimulator(const cache::Catalog& catalog,
                                       const net::RttProvider& rtt,
                                       net::HostId server,
                                       SimulationConfig config)
    : engine_(catalog, rtt, server, std::move(config)), sink_(*this) {
  metrics_ = std::make_unique<MetricsCollector>(engine_.cache_count());
  trace_ = engine_.config().trace;
  if (!trace_.active()) {
    // Standalone runs pick up the ambient stream of the global tracer (a
    // no-op handle when none is installed or tracing is off).
    trace_ = obs::TraceContext::root(obs::global_tracer(), 0);
  }
  hook_ = engine_.config().control_hook;
}

SimulationReport ReferenceSimulator::run(const workload::Trace& trace) {
  trace.validate(engine_.cache_count(), engine_.catalog().size());
  workload::TraceWorkload source(trace, engine_.cache_count());
  return run(source);
}

SimulationReport ReferenceSimulator::run(workload::WorkloadSource& source) {
  const double duration_ms = source.duration_ms();
  metrics_->set_warmup_end(duration_ms * engine_.config().warmup_fraction);

  // Feed the two logs lazily: one cursor event per stream keeps the queue
  // small regardless of workload size. Every event carries its canonical
  // (EventClass, key) so ties at equal times resolve identically here and
  // in the sharded driver; for trace-backed sources the keys are the
  // request indices the pre-stream driver used, so output is unchanged.
  auto requests = source.requests();
  auto updates = source.update_stream();
  std::uint64_t requests_processed = 0;
  std::uint64_t next_update = 0;
  std::function<void(SimTime)> pump_requests = [&](SimTime now) {
    workload::Request r;
    std::uint64_t key = 0;
    if (!requests->next(r, key)) return;
    ++requests_processed;
    const Completion c = engine_.on_request(key, r, now, sink_);
    queue_.schedule(c.time, EventClass::kCompletion, c.request_index,
                    [this, c](SimTime) { engine_.on_complete(c, sink_); });
    if (requests->peek_time_ms() < kInf) {
      queue_.schedule(requests->peek_time_ms(), EventClass::kArrival,
                      requests->peek_key(), pump_requests);
    }
  };
  std::function<void(SimTime)> pump_updates = [&](SimTime) {
    workload::Update u;
    if (!updates->next(u)) return;
    ++next_update;
    engine_.on_update(u, sink_);
    if (updates->peek_time_ms() < kInf) {
      queue_.schedule(updates->peek_time_ms(), EventClass::kUpdate,
                      next_update, pump_updates);
    }
  };
  if (requests->peek_time_ms() < kInf) {
    queue_.schedule(requests->peek_time_ms(), EventClass::kArrival,
                    requests->peek_key(), pump_requests);
  }
  if (updates->peek_time_ms() < kInf) {
    queue_.schedule(updates->peek_time_ms(), EventClass::kUpdate, 0,
                    pump_updates);
  }
  const auto& config = engine_.config();
  for (std::size_t f = 0; f < config.failures.size(); ++f) {
    queue_.schedule(config.failures[f].time_ms, EventClass::kFailure, f,
                    [this, c = config.failures[f].cache](SimTime t) {
                      engine_.on_failure(c, t, sink_);
                    });
  }
  for (std::size_t m = 0; m < config.membership_events.size(); ++m) {
    const MembershipChange change = config.membership_events[m];
    queue_.schedule(change.time_ms, EventClass::kMembership, m,
                    [this, change](SimTime t) {
                      if (change.kind == MembershipChange::Kind::kLeave) {
                        if (engine_.on_leave(change.cache, t, sink_) &&
                            hook_ != nullptr) {
                          hook_->on_leave(change.cache, t);
                        }
                      } else {
                        std::uint32_t group = 0;
                        if (engine_.on_join(change.cache, t, sink_, &group) &&
                            hook_ != nullptr) {
                          hook_->on_join(change.cache, group, t);
                        }
                      }
                    });
  }
  // Periodic control-plane tick. Like `refresh` below, the recursive
  // std::function must outlive queue_.run, hence function scope.
  std::function<void(SimTime)> control_tick = [&, this](SimTime t) {
    ++control_ticks_;
    hook_->on_tick(*this, t);
    const SimTime next = t + config.control_interval_ms;
    if (next <= duration_ms) {
      queue_.schedule(next, EventClass::kControlTick, control_ticks_,
                      control_tick);
    }
  };
  if (hook_ != nullptr) {
    hook_->on_start(*this);
    if (config.control_interval_ms > 0.0) {
      queue_.schedule(config.control_interval_ms, EventClass::kControlTick, 0,
                      control_tick);
    }
  }
  // Periodic network-wide summary refresh (summary directory mode). The
  // recursive std::function must outlive queue_.run below, hence function
  // scope.
  std::uint64_t refresh_round = 0;
  std::function<void(SimTime)> refresh = [&, this](SimTime t) {
    engine_.rebuild_summaries();
    ++refresh_round;
    const SimTime next = t + config.summary.refresh_interval_ms;
    if (next <= duration_ms) {
      queue_.schedule(next, EventClass::kSummaryRefresh, refresh_round,
                      refresh);
    }
  };
  if (config.directory == DirectoryMode::kSummary) {
    queue_.schedule(config.summary.refresh_interval_ms,
                    EventClass::kSummaryRefresh, 0, refresh);
  }

  // Run past the workload end so in-flight completions drain (no new
  // arrivals can appear after the last log records).
  const SimTime horizon = duration_ms + 60'000.0;
  const std::uint64_t events = queue_.run(horizon);

  return engine_.assemble_report(*metrics_, requests_processed, events,
                                 control_ticks_, sink_.tally);
}

}  // namespace ecgf::sim
