// Tests for the online group-maintenance control plane (src/ctl): drift
// monitoring, re-probe budgeting, the reformation policy's hysteresis and
// cost/benefit gate, churn handling through the sim::ControlHook seam, and
// the end-to-end determinism contract — a full maintained simulation must
// produce bit-identical decisions, trace bytes, and final partition at
// ECGF_THREADS = 1, 2, and 8.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "cache/catalog.h"
#include "ctl/budgeter.h"
#include "ctl/drift_monitor.h"
#include "ctl/maintenance.h"
#include "ctl/policy.h"
#include "net/distance_matrix.h"
#include "net/drift.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "util/expect.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ecgf::ctl {
namespace {

// ----------------------------------------------------------------------
// DriftMonitor
// ----------------------------------------------------------------------

DriftMonitor tiny_monitor() {
  // 3 caches (hosts 0..2), landmarks at hosts 4 and 5.
  return DriftMonitor({4, 5},
                      {{10.0, 20.0}, {30.0, 40.0}, {50.0, 60.0}},
                      DriftMonitorOptions{});
}

TEST(DriftMonitor, FoldsSamplesIntoWhicheverEndpointIsACache) {
  auto monitor = tiny_monitor();
  // cache 0 → landmark 4: est[0][0] = 10 + 0.3·(16−10) = 11.8.
  monitor.observe_sample(0, 4, 16.0);
  EXPECT_NEAR(monitor.estimate(0)[0], 11.8, 1e-12);
  EXPECT_NEAR(monitor.drift(0), 1.8, 1e-12);
  // landmark first, cache second: folds into the cache side all the same.
  monitor.observe_sample(4, 1, 36.0);
  EXPECT_NEAR(monitor.estimate(1)[0], 31.8, 1e-12);
  EXPECT_EQ(monitor.samples_folded(), 2u);
}

TEST(DriftMonitor, IgnoresNonLandmarkPairs) {
  auto monitor = tiny_monitor();
  monitor.observe_sample(0, 1, 99.0);  // cache↔cache: not a coordinate
  monitor.observe_sample(6, 7, 99.0);  // out of range entirely
  EXPECT_EQ(monitor.samples_folded(), 0u);
  EXPECT_DOUBLE_EQ(monitor.drift(0), 0.0);
}

TEST(DriftMonitor, RefreshOverwritesAndResetsStaleness) {
  auto monitor = tiny_monitor();
  monitor.tick();
  monitor.tick();
  EXPECT_EQ(monitor.staleness(1), 2u);
  monitor.refresh(1, {33.0, 44.0});
  EXPECT_EQ(monitor.staleness(1), 0u);
  EXPECT_NEAR(monitor.drift(1), std::sqrt(9.0 + 16.0), 1e-12);
  monitor.rebase(1);
  EXPECT_DOUBLE_EQ(monitor.drift(1), 0.0);
}

TEST(DriftMonitor, GlobalDriftAveragesActiveCachesOnly) {
  auto monitor = tiny_monitor();
  monitor.refresh(0, {13.0, 24.0});  // drift 5
  monitor.refresh(2, {50.0, 71.0});  // drift 11
  EXPECT_NEAR(monitor.global_drift(), (5.0 + 0.0 + 11.0) / 3.0, 1e-12);
  monitor.set_active(2, false);
  EXPECT_NEAR(monitor.global_drift(), (5.0 + 0.0) / 2.0, 1e-12);
  EXPECT_NEAR(monitor.mean_drift({0, 1}), 2.5, 1e-12);
  // Inactive caches stop aging too.
  monitor.tick();
  EXPECT_EQ(monitor.staleness(2), 0u);
  EXPECT_EQ(monitor.staleness(1), 1u);
}

// ----------------------------------------------------------------------
// ReprobeBudgeter
// ----------------------------------------------------------------------

TEST(ReprobeBudgeter, PicksStalestFirstThenLowestId) {
  auto monitor = tiny_monitor();
  monitor.tick();
  monitor.tick();
  monitor.refresh(1, {30.0, 40.0});  // staleness: {2, 0, 2}
  ReprobeBudgeter budgeter(BudgetOptions{.caches_per_tick = 2});
  EXPECT_EQ(budgeter.choose(monitor), (std::vector<std::uint32_t>{0, 2}));
  // Equal staleness everywhere → ascending ids win.
  monitor.refresh(0, {10.0, 20.0});
  monitor.refresh(2, {50.0, 60.0});
  EXPECT_EQ(budgeter.choose(monitor), (std::vector<std::uint32_t>{0, 1}));
}

TEST(ReprobeBudgeter, SkipsInactiveAndCapsAtPopulation) {
  auto monitor = tiny_monitor();
  monitor.tick();
  monitor.set_active(1, false);
  ReprobeBudgeter budgeter(BudgetOptions{.caches_per_tick = 10});
  EXPECT_EQ(budgeter.choose(monitor), (std::vector<std::uint32_t>{0, 2}));
}

// ----------------------------------------------------------------------
// ReformationPolicy
// ----------------------------------------------------------------------

PolicyOptions test_policy() {
  PolicyOptions p;
  p.repair_threshold_ms = 5.0;
  p.reform_threshold_ms = 15.0;
  p.cooldown_ticks = 2;
  p.rearm_fraction = 0.5;
  return p;
}

TEST(ReformationPolicy, QuietBelowThresholds) {
  ReformationPolicy policy(test_policy());
  EXPECT_EQ(policy.decide(1.0, 4.9), MaintenanceAction::kNone);
  EXPECT_TRUE(policy.armed());
}

TEST(ReformationPolicy, RepairsOnWorstGroupReformsOnGlobal) {
  ReformationPolicy repair(test_policy());
  EXPECT_EQ(repair.decide(2.0, 6.0), MaintenanceAction::kRepair);
  ReformationPolicy reform(test_policy());
  EXPECT_EQ(reform.decide(16.0, 16.0), MaintenanceAction::kReform);
}

TEST(ReformationPolicy, EffectiveActionRearmsAfterCooldownAlone) {
  ReformationPolicy policy(test_policy());
  ASSERT_EQ(policy.decide(6.0, 6.0), MaintenanceAction::kRepair);
  policy.notify_acted(1.0);  // residual well below the trigger: effective
  // Cooling down: even huge drift is ignored until cooldown_ticks elapse.
  EXPECT_EQ(policy.decide(50.0, 50.0), MaintenanceAction::kNone);
  // Cooldown over, last action worked → re-armed and acting again even
  // though drift never dipped into the settle band (continuous drift).
  EXPECT_EQ(policy.decide(16.0, 16.0), MaintenanceAction::kReform);
}

TEST(ReformationPolicy, IneffectiveActionAlsoNeedsSettling) {
  ReformationPolicy policy(test_policy());
  ASSERT_EQ(policy.decide(6.0, 6.0), MaintenanceAction::kRepair);
  policy.notify_acted(6.0);  // residual unchanged: the repair did nothing
  EXPECT_EQ(policy.decide(6.0, 6.0), MaintenanceAction::kNone);
  EXPECT_EQ(policy.decide(6.0, 6.0), MaintenanceAction::kNone);
  // Cooled but NOT settled (drift above rearm_fraction × repair threshold):
  // stays disarmed — a stuck signal cannot retrigger the futile action.
  EXPECT_EQ(policy.decide(6.0, 6.0), MaintenanceAction::kNone);
  EXPECT_EQ(policy.decide(3.0, 3.0), MaintenanceAction::kNone);
  EXPECT_FALSE(policy.armed());
  // Settled (≤ 2.5): re-arms, and immediately acts on fresh drift.
  EXPECT_EQ(policy.decide(2.0, 2.0), MaintenanceAction::kNone);
  EXPECT_TRUE(policy.armed());
  EXPECT_EQ(policy.decide(16.0, 16.0), MaintenanceAction::kReform);
}

TEST(ReformationPolicy, CostGateDowngradesReformToRepair) {
  PolicyOptions p = test_policy();
  p.reform_cost_ms = 10'000.0;
  p.requests_per_tick = 100.0;
  ReformationPolicy policy(p);
  // Benefit 16·100 = 1600 < 10000: too expensive to re-form, but the worst
  // group still clears the repair threshold.
  EXPECT_EQ(policy.decide(16.0, 16.0), MaintenanceAction::kRepair);
  // Drift 120 ms: benefit 12000 ≥ 10000 → the gate opens.
  ReformationPolicy policy2(p);
  EXPECT_EQ(policy2.decide(120.0, 120.0), MaintenanceAction::kReform);
}

TEST(ReformationPolicy, ZeroCostDisablesGate) {
  PolicyOptions p = test_policy();
  p.reform_cost_ms = 0.0;
  p.requests_per_tick = 1e-9;  // benefit ≈ 0, yet no gate to fail
  ECGF_EXPECTS(p.requests_per_tick > 0.0);
  ReformationPolicy policy(p);
  EXPECT_EQ(policy.decide(16.0, 16.0), MaintenanceAction::kReform);
}

// ----------------------------------------------------------------------
// End-to-end: maintained simulation under drift + churn.
//
// 12 caches in two RTT clusters (0–5 and 6–11) + origin (host 12). The
// drifting provider structurally rotates half the caches' positions over
// t ∈ [1 s, 6 s], churn removes cache 3 at 2.5 s and rejoins it at 7.5 s,
// and the MaintenanceSession repairs/re-forms as drift crosses its
// thresholds. The whole loop must be bit-identical at any thread count.
// ----------------------------------------------------------------------

constexpr std::size_t kCaches = 12;
constexpr net::HostId kServer = 12;

net::DistanceMatrix clustered_matrix() {
  net::DistanceMatrix m(kCaches + 1);
  for (std::size_t a = 0; a < kCaches; ++a) {
    for (std::size_t b = a + 1; b < kCaches; ++b) {
      const bool same = (a < 6) == (b < 6);
      m.set(a, b, same ? 5.0 : 60.0);
    }
    m.set(a, kServer, 80.0);
  }
  return m;
}

workload::Trace drifty_trace() {
  workload::Trace trace;
  trace.duration_ms = 10'000.0;
  // Deterministic request mix: every cache keeps asking for a rotating
  // slice of a shared document pool, so cooperative misses (and thus
  // passive RTT samples) flow continuously.
  for (std::size_t i = 0; i < 260; ++i) {
    const double t = 40.0 + static_cast<double>(i) * 38.0;
    if (t >= trace.duration_ms) break;
    trace.requests.push_back({t, static_cast<std::uint32_t>(i % kCaches),
                              static_cast<std::uint32_t>((i * 7) % 30)});
  }
  return trace;
}

struct MaintainedRun {
  std::vector<int> decisions;
  std::vector<std::vector<std::uint32_t>> partition;
  std::string trace_bytes;
  sim::SimulationReport report;
  std::uint64_t repairs = 0;
  std::uint64_t reforms = 0;
  std::size_t probes = 0;
};

MaintainedRun run_maintained(std::size_t threads) {
  MaintainedRun result;
  std::ostringstream trace_out;
  {
    obs::Tracer tracer(std::make_unique<obs::JsonlTraceSink>(trace_out));
    util::ThreadPool pool(threads);

    util::Rng drift_rng(7);
    net::DriftOptions drift;
    drift.drift_fraction = 0.5;
    drift.ramp_start_ms = 1'000.0;
    drift.ramp_end_ms = 6'000.0;
    net::DriftingRttProvider provider(clustered_matrix(), drift, drift_rng);

    MaintenanceConfig mc;
    mc.landmarks = {kServer, 0, 6};
    for (std::uint32_t c = 0; c < kCaches; ++c) {
      mc.baseline_positions.push_back(
          {provider.rtt_ms(c, kServer), provider.rtt_ms(c, 0),
           provider.rtt_ms(c, 6)});
    }
    mc.initial_partition = {{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11}};
    mc.policy.repair_threshold_ms = 4.0;
    mc.policy.reform_threshold_ms = 5.0;
    mc.budget.caches_per_tick = 3;
    mc.kmeans.restarts = 2;
    mc.kmeans.pool = &pool;
    mc.seed = 42;
    mc.trace = obs::TraceContext::root(&tracer, 7);
    MaintenanceSession session(provider, mc);

    const auto catalog = [] {
      std::vector<cache::DocumentInfo> docs(30);
      for (auto& d : docs) d = {1'000, 20.0, 0.0};
      return cache::Catalog(std::move(docs));
    }();

    sim::SimulationConfig config;
    config.groups = mc.initial_partition;
    config.cache_capacity_bytes = 20'000;
    config.policy = cache::PolicyKind::kLru;
    config.warmup_fraction = 0.0;
    config.control_hook = &session;
    config.control_interval_ms = 500.0;
    config.membership_events = {
        {sim::MembershipChange::Kind::kLeave, 3, 2'500.0},
        {sim::MembershipChange::Kind::kJoin, 3, 7'500.0},
    };
    config.trace = obs::TraceContext::root(&tracer, 1);

    sim::Simulator sim(catalog, provider, kServer, config);
    provider.bind_clock(sim.clock_ptr());
    result.report = sim.run(drifty_trace());

    result.decisions = session.decisions();
    result.partition = session.membership().active_partition();
    result.repairs = session.repairs();
    result.reforms = session.reforms();
    result.probes = session.probes_sent();

    // The actuator seam: the simulator's live grouping is exactly the
    // membership manager's view after the last push.
    EXPECT_EQ(sim.groups(), result.partition);
  }
  result.trace_bytes = trace_out.str();
  return result;
}

class MaintainedSim : public ::testing::Test {
 protected:
  void SetUp() override { util::set_trace_enabled(true); }
  void TearDown() override { util::set_trace_enabled(false); }
};

TEST_F(MaintainedSim, DriftChurnScenarioActuallyExercisesTheLoop) {
  const MaintainedRun run = run_maintained(1);
  EXPECT_EQ(run.report.control_ticks, 20u);  // every 500 ms over 10 s
  EXPECT_EQ(run.report.leaves_applied, 1u);
  EXPECT_EQ(run.report.joins_applied, 1u);
  EXPECT_EQ(run.decisions.size(), run.report.control_ticks);
  // The structural drift must push the policy into acting at least once,
  // and every action (plus the rejoin) lands as a regrouping.
  // Both action paths must fire: incremental repairs while drift is
  // moderate, full (warm-started) re-formations at the drift peaks.
  EXPECT_GE(run.repairs, 1u);
  EXPECT_GE(run.reforms, 1u);
  EXPECT_GE(run.report.regroupings, 1u);
  EXPECT_GT(run.probes, 0u);
  // drift_score fires every tick; reformation fires once per action.
  std::size_t drift_events = 0;
  std::size_t reformation_events = 0;
  std::istringstream lines(run.trace_bytes);
  std::string line;
  while (std::getline(lines, line)) {
    const auto kind = obs::json_field(line, "event");
    if (kind == "drift_score") ++drift_events;
    if (kind == "reformation") ++reformation_events;
  }
  EXPECT_EQ(drift_events, run.report.control_ticks);
  EXPECT_EQ(reformation_events, run.repairs + run.reforms);
}

TEST_F(MaintainedSim, BitIdenticalAtOneTwoAndEightThreads) {
  const MaintainedRun base = run_maintained(1);
  ASSERT_FALSE(base.trace_bytes.empty());
  for (std::size_t threads : {2u, 8u}) {
    const MaintainedRun other = run_maintained(threads);
    EXPECT_EQ(other.decisions, base.decisions) << threads << " threads";
    EXPECT_EQ(other.partition, base.partition) << threads << " threads";
    EXPECT_EQ(other.trace_bytes, base.trace_bytes) << threads << " threads";
    EXPECT_EQ(other.report.events_executed, base.report.events_executed);
    EXPECT_EQ(other.report.regroupings, base.report.regroupings);
    EXPECT_EQ(other.probes, base.probes);
    // Bit-identical, not merely close.
    EXPECT_EQ(other.report.avg_miss_latency_ms,
              base.report.avg_miss_latency_ms);
    EXPECT_EQ(other.report.avg_latency_ms, base.report.avg_latency_ms);
  }
}

// ----------------------------------------------------------------------
// Sim-side churn + apply_groups semantics, via a recording stub hook.
// ----------------------------------------------------------------------

struct RecordingHook final : sim::ControlHook {
  std::vector<std::pair<std::uint32_t, double>> leaves;
  std::vector<std::pair<std::uint32_t, double>> joins;
  std::size_t ticks = 0;
  std::size_t samples = 0;
  bool saw_departed_during_gap = false;
  sim::GroupHost* sim = nullptr;

  void on_start(sim::GroupHost& s) override { sim = &s; }
  void on_rtt_sample(net::HostId, net::HostId, double, double) override {
    ++samples;
  }
  void on_leave(cache::CacheIndex cache, double t) override {
    leaves.emplace_back(cache, t);
  }
  void on_join(cache::CacheIndex cache, std::uint32_t, double t) override {
    joins.emplace_back(cache, t);
  }
  void on_tick(sim::GroupHost& s, double t) override {
    ++ticks;
    if (t > 2'500.0 && t < 7'500.0 && s.is_departed(3)) {
      saw_departed_during_gap = true;
    }
  }
};

struct RecordedChurn {
  sim::SimulationReport report;
  bool departed_at_end = false;  ///< cache 3's state after the run
};

/// Cache 3 leaves at 2.5 s and rejoins at 7.5 s of drifty_trace(), with
/// `hook` ticking every second.
RecordedChurn run_recorded_churn(RecordingHook& hook,
                                 sim::ConsistencyMode consistency) {
  net::MatrixRttProvider provider(clustered_matrix());
  std::vector<cache::DocumentInfo> docs(30);
  for (auto& d : docs) d = {1'000, 20.0, 0.0};
  const cache::Catalog catalog(std::move(docs));

  sim::SimulationConfig config;
  config.groups = {{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11}};
  config.cache_capacity_bytes = 20'000;
  config.policy = cache::PolicyKind::kLru;
  config.warmup_fraction = 0.0;
  config.consistency = consistency;
  config.ttl_ms = 60'000.0;  // outlives the 10 s trace: nothing expires
  config.control_hook = &hook;
  config.control_interval_ms = 1'000.0;
  config.membership_events = {
      {sim::MembershipChange::Kind::kLeave, 3, 2'500.0},
      {sim::MembershipChange::Kind::kJoin, 3, 7'500.0},
  };

  sim::Simulator sim(catalog, provider, kServer, config);
  const auto report = sim.run(drifty_trace());
  return {report, sim.is_departed(3)};
}

TEST(SimulatorChurn, HookSeesLeaveJoinAndTicksInOrder) {
  RecordingHook hook;
  const auto [report, departed_at_end] = run_recorded_churn(
      hook, sim::ConsistencyMode::kPushInvalidation);

  ASSERT_EQ(hook.leaves.size(), 1u);
  EXPECT_EQ(hook.leaves[0], (std::pair<std::uint32_t, double>{3, 2'500.0}));
  ASSERT_EQ(hook.joins.size(), 1u);
  EXPECT_EQ(hook.joins[0], (std::pair<std::uint32_t, double>{3, 7'500.0}));
  EXPECT_EQ(hook.ticks, 10u);
  EXPECT_GT(hook.samples, 0u);  // cooperative traffic produced samples
  EXPECT_TRUE(hook.saw_departed_during_gap);
  EXPECT_FALSE(departed_at_end);  // rejoined by the end
  EXPECT_EQ(report.leaves_applied, 1u);
  EXPECT_EQ(report.joins_applied, 1u);
  // No hook called apply_groups → the grouping never changed.
  EXPECT_EQ(report.regroupings, 0u);
}

TEST(SimulatorChurn, TtlMissesFeedTheHookLikePushMisses) {
  // drifty_trace() has no updates and no copy expires, so TTL resolves
  // every request as push invalidation does, and its cooperative misses
  // must hand the control hook the same RTT samples.
  RecordingHook push;
  RecordingHook ttl;
  const auto push_run =
      run_recorded_churn(push, sim::ConsistencyMode::kPushInvalidation);
  const auto ttl_run = run_recorded_churn(ttl, sim::ConsistencyMode::kTtl);
  EXPECT_EQ(ttl_run.report.raw_counts.group_hits,
            push_run.report.raw_counts.group_hits);
  EXPECT_EQ(ttl_run.report.stale_served, 0u);
  EXPECT_GT(push.samples, 0u);
  EXPECT_EQ(ttl.samples, push.samples);
}

struct RepartitionHook final : sim::ControlHook {
  void on_tick(sim::GroupHost& sim, double t) override {
    if (applied_) return;
    applied_ = true;
    // Merge everything into one big group mid-run.
    std::vector<std::vector<cache::CacheIndex>> merged(1);
    for (std::uint32_t c = 0; c < sim.cache_count(); ++c) {
      merged[0].push_back(c);
    }
    sim.apply_groups(merged);
    applied_at_ms = t;
  }
  bool applied_ = false;
  double applied_at_ms = 0.0;
};

TEST(SimulatorChurn, ApplyGroupsRewiresDirectoriesMidRun) {
  net::MatrixRttProvider provider(clustered_matrix());
  std::vector<cache::DocumentInfo> docs(30);
  for (auto& d : docs) d = {1'000, 20.0, 0.0};
  const cache::Catalog catalog(std::move(docs));

  RepartitionHook hook;
  sim::SimulationConfig config;
  config.groups = {{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11}};
  config.cache_capacity_bytes = 20'000;
  config.policy = cache::PolicyKind::kLru;
  config.warmup_fraction = 0.0;
  config.control_hook = &hook;
  config.control_interval_ms = 2'000.0;

  sim::Simulator sim(catalog, provider, kServer, config);
  const auto report = sim.run(drifty_trace());

  EXPECT_EQ(report.regroupings, 1u);
  ASSERT_EQ(sim.groups().size(), 1u);
  EXPECT_EQ(sim.groups()[0].size(), kCaches);
  // Every cache now shares one directory.
  for (std::uint32_t c = 1; c < kCaches; ++c) {
    EXPECT_EQ(sim.engine().group_index_of(c), sim.engine().group_index_of(0));
  }
  // Resident documents were re-registered: cooperative hits keep working
  // after the cut-over (the run completes and conserves requests).
  EXPECT_EQ(report.raw_counts.total(), report.requests_processed);
}

struct BadPartitionHook final : sim::ControlHook {
  void on_tick(sim::GroupHost& sim, double) override {
    sim.apply_groups({{0, 1}});  // misses most caches
  }
};

TEST(SimulatorChurn, ApplyGroupsRejectsIncompletePartition) {
  net::MatrixRttProvider provider(clustered_matrix());
  std::vector<cache::DocumentInfo> docs(4);
  for (auto& d : docs) d = {1'000, 20.0, 0.0};
  const cache::Catalog catalog(std::move(docs));

  BadPartitionHook hook;
  sim::SimulationConfig config;
  config.groups = {{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11}};
  config.cache_capacity_bytes = 20'000;
  config.policy = cache::PolicyKind::kLru;
  config.control_hook = &hook;
  config.control_interval_ms = 1'000.0;

  sim::Simulator sim(catalog, provider, kServer, config);
  workload::Trace trace;
  trace.duration_ms = 5'000.0;
  EXPECT_THROW(sim.run(trace), util::ContractViolation);
}

// ----------------------------------------------------------------------
// make_maintenance_config: the GroupingResult → MaintenanceConfig bridge.
// ----------------------------------------------------------------------

TEST(MaintenanceConfigTest, DerivedFromGroupingResult) {
  core::GroupingResult base;
  base.positions = coords::PositionMap(5, 2);  // 4 caches + server
  base.positions.set_coords(0, std::vector<double>{0.0, 1.0});
  base.positions.set_coords(1, std::vector<double>{1.0, 0.0});
  base.positions.set_coords(2, std::vector<double>{100.0, 1.0});
  base.positions.set_coords(3, std::vector<double>{101.0, 0.0});
  base.positions.set_coords(4, std::vector<double>{50.0, 50.0});
  base.landmarks = {4, 0};
  base.groups = {{0, {0, 1}}, {1, {2, 3}}};

  const MaintenanceConfig config = make_maintenance_config(base, 4);
  EXPECT_EQ(config.landmarks, (std::vector<net::HostId>{4, 0}));
  ASSERT_EQ(config.baseline_positions.size(), 4u);
  EXPECT_EQ(config.baseline_positions[2],
            (std::vector<double>{100.0, 1.0}));
  EXPECT_EQ(config.initial_partition,
            (std::vector<std::vector<std::uint32_t>>{{0, 1}, {2, 3}}));
}

}  // namespace
}  // namespace ecgf::ctl
