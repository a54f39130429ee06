#include "ctl/maintenance.h"

#include <algorithm>

#include "obs/profile.h"
#include "util/expect.h"

namespace ecgf::ctl {

MaintenanceConfig make_maintenance_config(
    const core::GroupingResult& base, std::size_t cache_count,
    std::shared_ptr<const core::GroupMaintainer> maintainer) {
  ECGF_EXPECTS(!base.groups.empty());
  ECGF_EXPECTS(!base.landmarks.empty());
  ECGF_EXPECTS(base.positions.host_count() >= cache_count);
  ECGF_EXPECTS(base.positions.dimension() == base.landmarks.size());

  MaintenanceConfig config;
  config.landmarks = base.landmarks;
  config.baseline_positions.reserve(cache_count);
  for (std::uint32_t c = 0; c < cache_count; ++c) {
    const auto span = base.positions.coords(c);
    config.baseline_positions.emplace_back(span.begin(), span.end());
  }
  config.initial_partition = base.partition();
  config.maintainer = std::move(maintainer);
  return config;
}

MaintenanceSession::MaintenanceSession(const net::RttProvider& rtt,
                                       MaintenanceConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      prober_(rtt, config_.prober, rng_.fork(1)),
      monitor_(config_.landmarks, config_.baseline_positions,
               config_.monitor),
      budgeter_(config_.budget),
      policy_(config_.policy),
      maintainer_(config_.maintainer != nullptr
                      ? config_.maintainer
                      : core::default_group_maintainer()),
      membership_(config_.initial_partition, config_.baseline_positions),
      trace_(config_.trace),
      target_groups_(config_.target_groups != 0
                         ? config_.target_groups
                         : config_.initial_partition.size()),
      probe_buffer_(config_.landmarks.size()) {
  ECGF_EXPECTS(target_groups_ >= 1);
  for (net::HostId l : config_.landmarks) {
    ECGF_EXPECTS(l < rtt.host_count());
  }
  if (!trace_.active()) {
    trace_ = obs::TraceContext::root(obs::global_tracer(), 0);
  }
}

void MaintenanceSession::on_start(sim::GroupHost& sim) {
  ECGF_EXPECTS(sim.cache_count() == monitor_.cache_count());
  sim_ = &sim;
}

void MaintenanceSession::on_rtt_sample(net::HostId src, net::HostId dst,
                                       double rtt_ms, double /*time_ms*/) {
  monitor_.observe_sample(src, dst, rtt_ms);
}

void MaintenanceSession::on_leave(cache::CacheIndex cache,
                                  double /*time_ms*/) {
  membership_.leave(cache);
  monitor_.set_active(cache, false);
  // The simulator already detached the cache; the surviving groups keep
  // their shape, so no repartition is pushed here.
}

void MaintenanceSession::on_join(cache::CacheIndex cache,
                                 std::uint32_t /*group*/,
                                 double /*time_ms*/) {
  // The returning node's old vector is stale by construction — spend one
  // full re-probe on it rather than admitting it on fiction.
  prober_.measure_many(cache, monitor_.landmarks(), probe_buffer_);
  monitor_.set_active(cache, true);
  monitor_.refresh(cache, probe_buffer_);
  monitor_.rebase(cache);  // the grouping accounts for it from here
  membership_.update_position(cache, probe_buffer_);
  membership_.join(cache);
  // The membership manager's nearest-centroid choice may disagree with
  // the simulator's default (the cache's last group), so sync at once.
  if (sim_ != nullptr) sim_->apply_groups(membership_.active_partition());
}

void MaintenanceSession::on_tick(sim::GroupHost& sim, double time_ms) {
  ECGF_PROF_SCOPE("ctl.tick");
  ++tick_;
  monitor_.tick();

  // SENSE: budgeted active re-probes, stalest caches first.
  const std::vector<std::uint32_t> victims = budgeter_.choose(monitor_);
  for (std::uint32_t cache : victims) {
    prober_.measure_many(cache, monitor_.landmarks(), probe_buffer_);
    monitor_.refresh(cache, probe_buffer_);
  }

  // SCORE: global and worst-group mean drift.
  const double global = monitor_.global_drift();
  double worst = 0.0;
  for (const auto& group : membership_.active_partition()) {
    worst = std::max(worst, monitor_.mean_drift(group));
  }
  trace_.emit(obs::TraceEvent::drift_score(time_ms, tick_, global, worst,
                                           victims.size()));

  // DECIDE + ACT.
  const MaintenanceAction action = policy_.decide(global, worst);
  std::size_t moves = 0;
  if (action == MaintenanceAction::kRepair) {
    moves = apply_repair(sim);
    ++repairs_;
  } else if (action == MaintenanceAction::kReform) {
    moves = apply_reform(sim);
    ++reforms_;
  }
  if (action != MaintenanceAction::kNone) {
    policy_.notify_acted(monitor_.global_drift());
    trace_.emit(obs::TraceEvent::reformation(
        time_ms, tick_, static_cast<int>(action), global, moves));
  }
  decisions_.push_back(static_cast<int>(action));
}

std::size_t MaintenanceSession::apply_repair(sim::GroupHost& sim) {
  // Re-home every sufficiently drifted member via the maintainer's repair
  // rule. update_position BEFORE repair so the decision sees the estimate;
  // rebase after so the handled displacement stops reading as drift.
  std::size_t moves = 0;
  const double threshold = policy_.options().repair_threshold_ms;
  for (std::size_t c = 0; c < monitor_.cache_count(); ++c) {
    const auto cache = static_cast<std::uint32_t>(c);
    if (!membership_.is_member(cache)) continue;
    if (monitor_.drift(cache) < threshold) continue;
    membership_.update_position(cache, monitor_.estimate(cache));
    const std::uint32_t before = membership_.group_of(cache);
    const std::uint32_t after = maintainer_->repair(membership_, cache);
    monitor_.rebase(cache);
    if (after != before) ++moves;
  }
  if (moves > 0) sim.apply_groups(membership_.active_partition());
  return moves;
}

std::size_t MaintenanceSession::apply_reform(sim::GroupHost& sim) {
  // Collect the active caches (ascending — the order is part of the
  // determinism contract) and their estimated vectors.
  std::vector<std::uint32_t> active;
  active.reserve(monitor_.cache_count());
  for (std::size_t c = 0; c < monitor_.cache_count(); ++c) {
    const auto cache = static_cast<std::uint32_t>(c);
    if (membership_.is_member(cache)) active.push_back(cache);
  }
  if (active.size() < 2) return 0;  // nothing to cluster

  cluster::Points points;
  points.reserve(active.size());
  for (std::uint32_t cache : active) {
    points.push_back(monitor_.estimate(cache));
  }

  const std::size_t k = std::min(target_groups_, active.size());
  util::Rng reform_rng = rng_.fork(100 + reform_seq_++);
  const core::ReformPlan plan = maintainer_->reform(
      active, points, k, membership_, config_.kmeans, reform_rng);
  last_reform_iters_ = plan.iterations;

  // Rebuild the membership view over the refreshed coordinates (departed
  // caches keep their latest estimates for their eventual rejoin).
  std::vector<std::vector<double>> positions;
  positions.reserve(monitor_.cache_count());
  for (std::size_t c = 0; c < monitor_.cache_count(); ++c) {
    positions.push_back(monitor_.estimate(static_cast<std::uint32_t>(c)));
  }
  membership_ = core::MembershipManager(plan.partition, positions);
  monitor_.rebase_all();
  sim.apply_groups(plan.partition);
  return plan.iterations;
}

}  // namespace ecgf::ctl
