// Tests for the sharded conservative-PDES driver (src/shard).
//
// The headline contract: shard::ShardedSimulator reproduces the frozen
// sequential reference loop (tests/reference_sim.h) and its own one-shard
// case, sim::Simulator, BIT FOR BIT at any shard count — same
// SimulationReport (compared as serialized JSONL), same trace bytes —
// even with membership churn and the ctl maintenance loop repartitioning
// groups mid-run. Plus unit coverage for the group→shard plan, the
// lookahead derivation (including the degenerate near-zero case), and
// empty shards under heavy leave churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cache/catalog.h"
#include "ctl/maintenance.h"
#include "net/distance_matrix.h"
#include "net/drift.h"
#include "net/rtt_provider.h"
#include "net/synthetic.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "shard/exchange.h"
#include "shard/plan.h"
#include "shard/schedule.h"
#include "shard/sharded_sim.h"
#include "sim/netmodel/link_model.h"
#include "sim/simulator.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "fnv1a.h"
#include "reference_sim.h"

namespace ecgf::shard {
namespace {

// ----------------------------------------------------------------------
// ShardPlan
// ----------------------------------------------------------------------

TEST(ShardPlan, BalancesGroupsGreedilyAndDeterministically) {
  // Group sizes 4, 3, 2, 1 over two shards: 4 → shard 0, 3 → shard 1,
  // 2 → shard 1 (load 5 vs 4... no: loads 4 vs 3, lightest is shard 1),
  // 1 → whichever is lighter after that.
  const std::vector<std::vector<cache::CacheIndex>> groups = {
      {0, 1, 2, 3}, {4, 5, 6}, {7, 8}, {9}};
  const ShardPlan plan(groups, 10, 2);
  EXPECT_EQ(plan.shard_of_group(0), 0u);
  EXPECT_EQ(plan.shard_of_group(1), 1u);
  EXPECT_EQ(plan.shard_of_group(2), 1u);  // loads were {4, 3}
  EXPECT_EQ(plan.shard_of_group(3), 0u);  // loads were {4, 5}
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (cache::CacheIndex c : groups[g]) {
      EXPECT_EQ(plan.shard_of_cache(c), plan.shard_of_group(g));
    }
  }
  // Same inputs → same plan, every time.
  const ShardPlan again(groups, 10, 2);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    EXPECT_EQ(again.shard_of_group(g), plan.shard_of_group(g));
  }
}

TEST(ShardPlan, MoreShardsThanGroupsLeavesShardsEmpty) {
  const std::vector<std::vector<cache::CacheIndex>> groups = {{0, 1}, {2}};
  const ShardPlan plan(groups, 3, 8);
  EXPECT_EQ(plan.shard_count(), 8u);
  std::size_t used = 0;
  for (std::size_t load : plan.loads()) {
    if (load > 0) ++used;
  }
  EXPECT_EQ(used, 2u);
}

TEST(ShardPlan, MinCrossShardRttIsExactOnSmallNetworks) {
  net::DistanceMatrix m(4);
  m.set(0, 1, 5.0);
  m.set(0, 2, 42.0);
  m.set(0, 3, 50.0);
  m.set(1, 2, 17.0);
  m.set(1, 3, 60.0);
  m.set(2, 3, 5.0);
  net::MatrixRttProvider rtt(m);
  const ShardPlan plan({{0, 1}, {2, 3}}, 4, 2);
  // Cross-shard pairs: (0,2)=42, (0,3)=50, (1,2)=17, (1,3)=60.
  EXPECT_DOUBLE_EQ(min_cross_shard_rtt_ms(plan, rtt, 4), 17.0);
  // One shard: no cross pairs, infinite lookahead.
  const ShardPlan solo({{0, 1}, {2, 3}}, 4, 1);
  EXPECT_TRUE(std::isinf(min_cross_shard_rtt_ms(solo, rtt, 4)));
}

// ----------------------------------------------------------------------
// CrossShardLookahead: the per-run closest-pair list answers exactly what
// the full scan answers, for every plan and down set.
// ----------------------------------------------------------------------

/// A symmetric RTT table of whole milliseconds in [1, levels] (few levels
/// force ties everywhere) with about one pair in twenty unreachable
/// (+inf). Counts the lookups made through it.
class TableRtt final : public net::RttProvider {
 public:
  TableRtt(std::size_t n, util::Rng& rng, std::size_t levels = 12)
      : n_(n), rtt_(n * n, 0.0) {
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        const double v = rng.bernoulli(0.05)
                             ? std::numeric_limits<double>::infinity()
                             : static_cast<double>(1 + rng.index(levels));
        rtt_[a * n + b] = rtt_[b * n + a] = v;
      }
    }
  }
  std::size_t host_count() const override { return n_; }
  double rtt_ms(net::HostId a, net::HostId b) const override {
    ++lookups_;
    return rtt_[a * n_ + b];
  }
  std::size_t lookups() const { return lookups_; }

 private:
  std::size_t n_;
  std::vector<double> rtt_;
  mutable std::size_t lookups_ = 0;
};

/// Caches scattered over a random number of groups (none left empty).
std::vector<std::vector<cache::CacheIndex>> random_groups(std::size_t n,
                                                          util::Rng& rng) {
  std::vector<std::vector<cache::CacheIndex>> groups(1 + rng.index(n));
  for (std::size_t c = 0; c < n; ++c) {
    groups[rng.index(groups.size())].push_back(
        static_cast<cache::CacheIndex>(c));
  }
  std::erase_if(groups, [](const auto& g) { return g.empty(); });
  return groups;
}

TEST(CrossShardLookahead, MatchesTheFullScanOnRandomPlansAndDownSets) {
  util::Rng rng(1506);
  // Few levels tie everywhere; 2^20 levels are nearly distinct.
  for (const std::size_t levels : {12, 1 << 20}) {
    for (const std::size_t n : {2, 3, 17, 64, 300}) {
      const TableRtt rtt(n, rng, levels);
      CrossShardLookahead index;  // one per run: reused across every plan
      for (const std::size_t shards : {1, 2, 4, 8}) {
        for (int trial = 0; trial < 6; ++trial) {
          const ShardPlan plan(random_groups(n, rng), n, shards);
          std::vector<bool> random_down(n);
          for (std::size_t c = 0; c < n; ++c) {
            random_down[c] = rng.bernoulli(0.3);
          }
          const std::size_t kept_shard = plan.shard_of_cache(0);
          const std::vector<std::pair<const char*, ActiveCachePredicate>>
              down_sets = {
                  {"none", nullptr},
                  {"random",
                   [&](cache::CacheIndex c) { return !random_down[c]; }},
                  {"all", [](cache::CacheIndex) { return false; }},
                  {"all but one shard",
                   [&](cache::CacheIndex c) {
                     return plan.shard_of_cache(c) == kept_shard;
                   }},
              };
          for (const auto& [name, active] : down_sets) {
            EXPECT_EQ(index.min_rtt_ms(plan, rtt, n, active),
                      min_cross_shard_rtt_ms(plan, rtt, n,
                                             kExactLookaheadCaches, active))
                << "levels=" << levels << " n=" << n << " shards=" << shards
                << " trial=" << trial << " down=" << name;
          }
        }
      }
      EXPECT_LE(index.kept_pairs(),
                CrossShardLookahead::kKeptPairsPerCache * n);
      EXPECT_GT(index.fallbacks(), 0u);  // the all-down sets always fall back
    }
  }
}

TEST(CrossShardLookahead, OnePairPassPerRunThenOnlyWalks) {
  constexpr std::size_t kN = 64;
  util::Rng rng(7);
  const TableRtt rtt(kN, rng);
  CrossShardLookahead index;
  // One shard has no cross pair: nothing is read, nothing is built.
  EXPECT_TRUE(std::isinf(
      index.min_rtt_ms(ShardPlan(random_groups(kN, rng), kN, 1), rtt, kN)));
  EXPECT_EQ(rtt.lookups(), 0u);
  EXPECT_EQ(index.kept_pairs(), 0u);

  std::vector<cache::CacheIndex> order(kN);
  for (cache::CacheIndex c = 0; c < kN; ++c) order[c] = c;
  for (int reshard = 0; reshard < 20; ++reshard) {
    // 16 random groups of 4: every plan spreads over all four shards.
    rng.shuffle(order);
    std::vector<std::vector<cache::CacheIndex>> groups(16);
    for (std::size_t i = 0; i < kN; ++i) groups[i / 4].push_back(order[i]);
    const ShardPlan plan(groups, kN, 4);
    const std::size_t before = rtt.lookups();
    const double got = index.min_rtt_ms(plan, rtt, kN);
    const std::size_t read = rtt.lookups() - before;
    if (reshard == 0) {
      EXPECT_EQ(read, kN * (kN - 1) / 2);  // the one pass
      EXPECT_EQ(index.kept_pairs(),
                CrossShardLookahead::kKeptPairsPerCache * kN);
    } else {
      EXPECT_EQ(read, 0u) << "reshard " << reshard;  // a walk reads nothing
    }
    EXPECT_EQ(got, min_cross_shard_rtt_ms(plan, rtt, kN)) << reshard;
  }
  EXPECT_EQ(index.fallbacks(), 0u);
}

TEST(CrossShardLookahead, FallsBackToTheScanWhenNoKeptPairCrossesShards) {
  // Two tight clusters of 20, each pinned to its own shard: 2 x 190
  // intra-cluster pairs at 1-3 ms crowd the 80-pair list, so no kept
  // pair crosses shards and the scan must find the 50 ms+ cross pair.
  constexpr std::size_t kN = 40;
  net::DistanceMatrix m(kN);
  util::Rng rng(3);
  for (std::size_t a = 0; a < kN; ++a) {
    for (std::size_t b = a + 1; b < kN; ++b) {
      const bool same = (a < 20) == (b < 20);
      m.set(a, b, same ? static_cast<double>(1 + rng.index(3))
                       : static_cast<double>(50 + rng.index(30)));
    }
  }
  const net::MatrixRttProvider rtt(m);
  std::vector<std::vector<cache::CacheIndex>> clusters(2);
  for (cache::CacheIndex c = 0; c < kN; ++c) clusters[c < 20 ? 0 : 1].push_back(c);
  const ShardPlan plan(clusters, kN, 2);
  ASSERT_NE(plan.shard_of_cache(0), plan.shard_of_cache(20));

  CrossShardLookahead index;
  const double got = index.min_rtt_ms(plan, rtt, kN);
  EXPECT_EQ(index.fallbacks(), 1u);
  EXPECT_EQ(index.kept_pairs(), CrossShardLookahead::kKeptPairsPerCache * kN);
  EXPECT_EQ(got, min_cross_shard_rtt_ms(plan, rtt, kN));
  EXPECT_GE(got, 50.0);
}

TEST(CrossShardLookahead, AboveTheExactLimitSamplesAsBefore) {
  constexpr std::size_t kN = kExactLookaheadCaches + 1;
  const net::PlaneRttProvider rtt(kN + 1, net::PlaneOptions{});
  std::vector<std::vector<cache::CacheIndex>> halves(2);
  for (cache::CacheIndex c = 0; c < kN; ++c) halves[c % 2].push_back(c);
  const ShardPlan plan(halves, kN, 2);
  CrossShardLookahead index;
  EXPECT_EQ(index.min_rtt_ms(plan, rtt, kN),
            min_cross_shard_rtt_ms(plan, rtt, kN));
  EXPECT_EQ(index.kept_pairs(), 0u);
}

// ----------------------------------------------------------------------
// Effect exchange: the k-way merge replays in canonical order.
// ----------------------------------------------------------------------

struct RecordingTarget final : sim::EffectSink {
  std::vector<std::string> ops;
  void emit(const obs::TraceEvent& e) override {
    ops.push_back("trace@" + std::to_string(e.time_ms));
  }
  void record(cache::CacheIndex cache, double, sim::Resolution,
              sim::SimTime t) override {
    ops.push_back("metric:" + std::to_string(cache) + "@" +
                  std::to_string(t));
  }
  void rtt_sample(net::HostId src, net::HostId, double,
                  sim::SimTime t) override {
    ops.push_back("rtt:" + std::to_string(src) + "@" + std::to_string(t));
  }
};

TEST(EffectExchange, MergesShardBuffersInCanonicalEventOrder) {
  std::vector<ShardSink> sinks(2);
  // Shard 1 executes the EARLIER event; buffers arrive out of order
  // across shards but sorted within each.
  sinks[1].begin_event(10.0, sim::EventClass::kArrival, 3);
  sinks[1].rtt_sample(1, 2, 7.0, 10.0);
  sinks[1].emit(obs::TraceEvent{.time_ms = 10.0});
  sinks[0].begin_event(10.0, sim::EventClass::kArrival, 5);
  sinks[0].emit(obs::TraceEvent{.time_ms = 10.0});
  sinks[0].begin_event(12.0, sim::EventClass::kCompletion, 1);
  sinks[0].record(4, 3.0, sim::Resolution::kLocalHit, 12.0);

  RecordingTarget target;
  merge_and_replay(sinks, target);
  ASSERT_EQ(target.ops.size(), 4u);
  // Event (10, arrival, 3) first — rtt then trace (emission order within
  // the event) — then (10, arrival, 5), then (12, completion, 1).
  EXPECT_EQ(target.ops[0], "rtt:1@10.000000");
  EXPECT_EQ(target.ops[1], "trace@10.000000");
  EXPECT_EQ(target.ops[2], "trace@10.000000");
  EXPECT_EQ(target.ops[3], "metric:4@12.000000");
  // Buffers are cleared for the next epoch.
  EXPECT_TRUE(sinks[0].effects().empty());
  EXPECT_TRUE(sinks[1].effects().empty());
}

// ----------------------------------------------------------------------
// End-to-end bit-identity: the maintained drift + churn scenario from
// ctl_test, run sequentially and sharded, compared byte for byte.
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
  for (std::size_t i = 0; i < 260; ++i) {
    const double t = 40.0 + static_cast<double>(i) * 38.0;
    if (t >= trace.duration_ms) break;
    trace.requests.push_back({t, static_cast<std::uint32_t>(i % kCaches),
                              static_cast<std::uint32_t>((i * 7) % 30)});
  }
  // A few origin updates so kUpdate barriers (push invalidations) fire.
  for (std::size_t u = 0; u < 6; ++u) {
    trace.updates.push_back(
        {1'200.0 + static_cast<double>(u) * 1'500.0,
         static_cast<std::uint32_t>((u * 11) % 30)});
  }
  return trace;
}

cache::Catalog small_catalog() {
  std::vector<cache::DocumentInfo> docs(30);
  for (auto& d : docs) d = {1'000, 20.0, 0.0};
  return cache::Catalog(std::move(docs));
}

struct ScenarioRun {
  std::string report_jsonl;
  std::string trace_bytes;
  sim::SimulationReport report;
  std::vector<std::vector<cache::CacheIndex>> partition;
  double epoch_ms = 0.0;
  std::uint64_t cuts = 0;
};

/// Thin congested access links for the netmodel seam-equivalence matrix:
/// 1 B/ms serialises a 1000 B document for a full second — far beyond the
/// ~456 ms per-cache data inter-arrival — so backlogs build, marks fire
/// past one queued document and the 3000 B queue overflows into drops.
sim::LinkModelConfig congested_links() {
  sim::LinkModelConfig links;
  links.bandwidth_bytes_per_ms = 1.0;
  links.queue_limit_bytes = 3'000.0;
  links.mark_threshold_bytes = 1'000.0;
  return links;
}

/// Runs the maintained drift + churn scenario. shards == 0 → the frozen
/// reference loop (sim::ReferenceSimulator); otherwise shard::ShardedSimulator with that many
/// shards executing on `threads` pool threads (0 = resolve from
/// configured_threads()). With `contended_net` the run carries a fresh
/// congested AccessLinkModel on the SimulationConfig::netmodel seam.
ScenarioRun run_scenario(std::size_t shards, std::size_t threads = 0,
                         bool contended_net = false) {
  ScenarioRun result;
  std::ostringstream trace_out;
  {
    obs::Tracer tracer(std::make_unique<obs::JsonlTraceSink>(trace_out));
    util::ThreadPool pool(2);

    util::Rng drift_rng(7);
    net::DriftOptions drift;
    drift.drift_fraction = 0.5;
    drift.ramp_start_ms = 1'000.0;
    drift.ramp_end_ms = 6'000.0;
    net::DriftingRttProvider provider(clustered_matrix(), drift, drift_rng);

    ctl::MaintenanceConfig mc;
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
    ctl::MaintenanceSession session(provider, mc);

    const cache::Catalog catalog = small_catalog();

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
    config.failures = {{9, 5'300.0}};
    config.trace = obs::TraceContext::root(&tracer, 1);

    // Fresh per run: link state is cumulative and must start cold for the
    // sequential and sharded runs to be comparable.
    std::optional<sim::AccessLinkModel> netmodel;
    if (contended_net) {
      netmodel.emplace(congested_links(), kCaches + 1);
      config.netmodel = &*netmodel;
    }

    if (shards == 0) {
      sim::ReferenceSimulator sim(catalog, provider, kServer,
                                  std::move(config));
      provider.bind_clock(sim.clock_ptr());
      result.report = sim.run(drifty_trace());
      result.partition = sim.groups();
    } else {
      ShardOptions options;
      options.shards = shards;
      options.threads = threads;
      ShardedSimulator sim(catalog, provider, kServer, std::move(config),
                           options);
      provider.bind_clock(sim.clock_ptr());
      result.report = sim.run(drifty_trace());
      result.partition = sim.groups();
      result.epoch_ms = sim.epoch_ms();
      result.cuts = sim.cuts_executed();
    }
  }
  result.trace_bytes = trace_out.str();
  std::ostringstream report_out;
  obs::write_report_jsonl(report_out, result.report, "scenario");
  result.report_jsonl = report_out.str();
  return result;
}

class ShardedSim : public ::testing::Test {
 protected:
  void SetUp() override { util::set_trace_enabled(true); }
  void TearDown() override { util::set_trace_enabled(false); }
};

TEST_F(ShardedSim, ScenarioActuallyExercisesEverySubsystem) {
  const ScenarioRun run = run_scenario(2);
  EXPECT_EQ(run.report.control_ticks, 20u);
  EXPECT_EQ(run.report.leaves_applied, 1u);
  EXPECT_EQ(run.report.joins_applied, 1u);
  EXPECT_EQ(run.report.failures_applied, 1u);
  EXPECT_GT(run.report.origin_updates, 0u);
  EXPECT_GE(run.report.regroupings, 1u);
  EXPECT_GT(run.report.requests_processed, 0u);
  // The derived lookahead for the two-cluster matrix is the 60 ms
  // cross-cluster RTT at t = 0 (clamped into [floor, cap]).
  EXPECT_GT(run.epoch_ms, 0.0);
  EXPECT_GT(run.cuts, 0u);
  ASSERT_FALSE(run.trace_bytes.empty());
}

TEST_F(ShardedSim, BitIdenticalToSequentialAtOneTwoAndEightShards) {
  const ScenarioRun sequential = run_scenario(0);
  ASSERT_FALSE(sequential.trace_bytes.empty());
  for (std::size_t shards : {1u, 2u, 8u}) {
    const ScenarioRun sharded = run_scenario(shards);
    EXPECT_EQ(sharded.report_jsonl, sequential.report_jsonl)
        << shards << " shards";
    EXPECT_EQ(sharded.trace_bytes, sequential.trace_bytes)
        << shards << " shards";
    EXPECT_EQ(sharded.partition, sequential.partition) << shards << " shards";
    EXPECT_EQ(sharded.report.events_executed,
              sequential.report.events_executed)
        << shards << " shards";
  }
}

TEST_F(ShardedSim, ParallelDeterminismMatrixUnderChurnAndMaintenance) {
  // The full matrix: every (shards, threads) combination must reproduce
  // the sequential bytes — membership churn, a failure and ctl
  // regroupings included. Thread count may change scheduling but never
  // content: effects are buffered per shard and replayed in canonical
  // order regardless of which worker ran which shard.
  const ScenarioRun sequential = run_scenario(0);
  ASSERT_FALSE(sequential.trace_bytes.empty());
  for (std::size_t shards : {1u, 4u, 8u}) {
    for (std::size_t threads : {1u, 2u, 8u}) {
      const ScenarioRun sharded = run_scenario(shards, threads);
      EXPECT_EQ(sharded.report_jsonl, sequential.report_jsonl)
          << shards << " shards, " << threads << " threads";
      EXPECT_EQ(sharded.trace_bytes, sequential.trace_bytes)
          << shards << " shards, " << threads << " threads";
      EXPECT_EQ(sharded.partition, sequential.partition)
          << shards << " shards, " << threads << " threads";
    }
  }
}

TEST_F(ShardedSim, CongestedNetmodelSeamEquivalenceMatrix) {
  // The flow-level access-link model rides the same effect machinery as
  // every other side effect, and all of its state is group-local (a window
  // event only ever charges links of its own group's caches), so a
  // congested run must stay bit-identical at every (shards, threads)
  // shape — report JSONL, trace bytes (including net_drop / net_mark
  // events) and final partition.
  const ScenarioRun sequential = run_scenario(0, 0, /*contended_net=*/true);
  ASSERT_FALSE(sequential.trace_bytes.empty());
  // The scenario genuinely congests: drops and marks both fire, and the
  // run differs from the ideal-network one.
  EXPECT_GT(sequential.report.net_drops, 0u);
  EXPECT_GT(sequential.report.net_marks, 0u);
  const ScenarioRun ideal = run_scenario(0);
  EXPECT_NE(sequential.report_jsonl, ideal.report_jsonl);

  for (std::size_t shards : {1u, 4u}) {
    for (std::size_t threads : {1u, 2u, 8u}) {
      const ScenarioRun sharded = run_scenario(shards, threads, true);
      EXPECT_EQ(sharded.report_jsonl, sequential.report_jsonl)
          << shards << " shards, " << threads << " threads";
      EXPECT_EQ(sharded.trace_bytes, sequential.trace_bytes)
          << shards << " shards, " << threads << " threads";
      EXPECT_EQ(sharded.partition, sequential.partition)
          << shards << " shards, " << threads << " threads";
    }
  }
}

TEST_F(ShardedSim, ThreadPoolContentionMoreShardsThanWorkers) {
  // 8 shards on a 2-worker pool: every epoch window queues more shard
  // loops than there are threads, so workers steal consecutive shards
  // back to back. Repeated runs must all produce the sequential bytes —
  // this is the TSan stress shape for the batch-enqueued fork/join path.
  const ScenarioRun sequential = run_scenario(0);
  for (int iteration = 0; iteration < 3; ++iteration) {
    const ScenarioRun sharded = run_scenario(8, 2);
    EXPECT_EQ(sharded.report_jsonl, sequential.report_jsonl)
        << "iteration " << iteration;
    EXPECT_EQ(sharded.trace_bytes, sequential.trace_bytes)
        << "iteration " << iteration;
  }
}

// ----------------------------------------------------------------------
// Degenerate lookahead and empty shards.
// ----------------------------------------------------------------------

net::DistanceMatrix near_zero_cross_matrix() {
  // Two 2-cache groups whose cross-group RTT is far below the epoch
  // floor: the derived lookahead must clamp up and the run must still
  // terminate and match the sequential output.
  net::DistanceMatrix m(5);
  m.set(0, 1, 4.0);
  m.set(2, 3, 4.0);
  m.set(0, 2, 0.01);
  m.set(0, 3, 0.01);
  m.set(1, 2, 0.01);
  m.set(1, 3, 0.01);
  for (net::HostId c = 0; c < 4; ++c) m.set(c, 4, 30.0);
  return m;
}

workload::Trace tiny_trace() {
  workload::Trace trace;
  trace.duration_ms = 2'000.0;
  for (std::size_t i = 0; i < 120; ++i) {
    const double t = 10.0 + static_cast<double>(i) * 16.0;
    if (t >= trace.duration_ms) break;
    trace.requests.push_back({t, static_cast<std::uint32_t>(i % 4),
                              static_cast<std::uint32_t>((i * 3) % 12)});
  }
  return trace;
}

sim::SimulationConfig tiny_config() {
  sim::SimulationConfig config;
  config.groups = {{0, 1}, {2, 3}};
  config.cache_capacity_bytes = 6'000;
  config.policy = cache::PolicyKind::kLru;
  config.warmup_fraction = 0.0;
  return config;
}

cache::Catalog tiny_catalog() {
  std::vector<cache::DocumentInfo> docs(12);
  for (auto& d : docs) d = {1'000, 15.0, 0.0};
  return cache::Catalog(std::move(docs));
}

std::string report_bytes(const sim::SimulationReport& report) {
  std::ostringstream out;
  obs::write_report_jsonl(out, report, "tiny");
  return out.str();
}

TEST(ShardedSimEdge, DegenerateLookaheadClampsToFloorAndStaysIdentical) {
  const cache::Catalog catalog = tiny_catalog();
  net::MatrixRttProvider rtt(near_zero_cross_matrix());

  const sim::SimulationReport seq =
      sim::run_simulation(catalog, rtt, 4, tiny_config(), tiny_trace());

  ShardOptions options;
  options.shards = 2;  // groups land on different shards
  ShardedSimulator sharded(catalog, rtt, 4, tiny_config(), options);
  const sim::SimulationReport rep = sharded.run(tiny_trace());

  // Derived lookahead 0.01 ms < the 1 ms floor → the INITIAL width is
  // clamped to the floor; adaptation then widens it (the current width
  // ends at or above where it started, at or below the cap).
  EXPECT_DOUBLE_EQ(sharded.epoch_initial_ms(), EpochSchedule::kFloorMs);
  EXPECT_GE(sharded.epoch_ms(), sharded.epoch_initial_ms());
  EXPECT_LE(sharded.epoch_ms(), EpochSchedule::kCapMs);
  EXPECT_EQ(report_bytes(rep), report_bytes(seq));
  // The floor + widening keep the cut count sane: bounded by events, not
  // by 0.01 ms epochs over the 62 s drain horizon.
  EXPECT_LT(sharded.cuts_executed(), 1'000u);
}

TEST(ShardedSimEdge, EmptyShardsAfterHeavyLeaveChurn) {
  // 8 shards over 2 groups: 6 shards start empty. Then the entire second
  // group departs mid-run, leaving its shard idle too. Everything must
  // still match the sequential run.
  const cache::Catalog catalog = tiny_catalog();
  net::MatrixRttProvider rtt(near_zero_cross_matrix());

  sim::SimulationConfig config = tiny_config();
  config.membership_events = {
      {sim::MembershipChange::Kind::kLeave, 2, 600.0},
      {sim::MembershipChange::Kind::kLeave, 3, 700.0},
      {sim::MembershipChange::Kind::kLeave, 1, 900.0},
  };

  const sim::SimulationReport seq =
      sim::run_simulation(catalog, rtt, 4, config, tiny_trace());
  EXPECT_EQ(seq.leaves_applied, 3u);

  ShardOptions options;
  options.shards = 8;
  const sim::SimulationReport rep = run_sharded_simulation(
      catalog, rtt, 4, config, options, tiny_trace());
  EXPECT_EQ(report_bytes(rep), report_bytes(seq));
}

TEST(ShardedSimEdge, ExplicitEpochMatchesDerivedOutput) {
  const cache::Catalog catalog = tiny_catalog();
  net::MatrixRttProvider rtt(near_zero_cross_matrix());

  ShardOptions derived;
  derived.shards = 2;
  const sim::SimulationReport a = run_sharded_simulation(
      catalog, rtt, 4, tiny_config(), derived, tiny_trace());

  ShardOptions explicit_epoch;
  explicit_epoch.shards = 2;
  explicit_epoch.epoch_ms = 250.0;
  const sim::SimulationReport b = run_sharded_simulation(
      catalog, rtt, 4, tiny_config(), explicit_epoch, tiny_trace());

  EXPECT_EQ(report_bytes(a), report_bytes(b));
}

// ----------------------------------------------------------------------
// EpochSchedule: barrier order, cut rule, width derivation and adaptation.
// ----------------------------------------------------------------------

TEST(EpochSchedule, BarriersSortByTimeThenClassThenKey) {
  sim::SimulationConfig config;
  config.failures = {{3, 100.0}, {1, 100.0}, {2, 40.0}};
  config.membership_events = {
      {sim::MembershipChange::Kind::kLeave, 0, 100.0}};
  const std::vector<workload::Update> updates = {{100.0, 7}, {100.0, 8}};
  EpochSchedule schedule(config, updates, 1'000.0);

  std::vector<std::tuple<double, sim::EventClass, std::uint64_t>> order;
  for (const Barrier& b : schedule.barriers()) {
    order.emplace_back(b.time_ms, b.klass, b.key);
  }
  using C = sim::EventClass;
  const std::vector<std::tuple<double, sim::EventClass, std::uint64_t>>
      expected = {{40.0, C::kFailure, 2},    {100.0, C::kFailure, 0},
                  {100.0, C::kFailure, 1},   {100.0, C::kMembership, 0},
                  {100.0, C::kUpdate, 0},    {100.0, C::kUpdate, 1}};
  EXPECT_EQ(order, expected);

  // A barrier cut hands back every barrier at its time, in that order.
  const Cut first = schedule.next_cut(workload::kNoEvent);
  EXPECT_EQ(first.kind, Cut::Kind::kBarrier);
  EXPECT_EQ(first.time_ms, 40.0);
  EXPECT_EQ(schedule.commit(first, 0).size(), 1u);
  const Cut second = schedule.next_cut(workload::kNoEvent);
  EXPECT_EQ(second.kind, Cut::Kind::kBarrier);
  const std::span<const Barrier> due = schedule.commit(second, 0);
  ASSERT_EQ(due.size(), 5u);
  EXPECT_EQ(due.front().klass, C::kFailure);
  EXPECT_EQ(due.back().klass, C::kUpdate);
  EXPECT_EQ(due.back().index, 1u);
}

TEST(EpochSchedule, PeriodicBarriersOnlyWithAHookOrSummaryDirectory) {
  const auto count = [](const sim::SimulationConfig& config,
                        sim::EventClass klass) {
    const EpochSchedule schedule(config, {}, 1'000.0);
    std::size_t n = 0;
    for (const Barrier& b : schedule.barriers()) n += b.klass == klass;
    return n;
  };
  sim::SimulationConfig config;
  config.control_interval_ms = 400.0;
  config.summary.refresh_interval_ms = 500.0;
  EXPECT_EQ(count(config, sim::EventClass::kControlTick), 0u);
  EXPECT_EQ(count(config, sim::EventClass::kSummaryRefresh), 0u);

  sim::ControlHook hook;
  config.control_hook = &hook;
  config.directory = sim::DirectoryMode::kSummary;
  EXPECT_EQ(count(config, sim::EventClass::kControlTick), 2u);     // 400, 800
  EXPECT_EQ(count(config, sim::EventClass::kSummaryRefresh), 2u);  // 500, 1000
}

class EpochWidth : public ::testing::Test {
 protected:
  /// Commit one pure epoch cut that exchanged `exchanged` effects.
  void epoch(EpochSchedule& schedule, std::size_t exchanged) {
    const Cut cut = schedule.next_cut(0.0);
    ASSERT_EQ(cut.kind, Cut::Kind::kEpoch);
    schedule.commit(cut, exchanged);
  }

  const cache::Catalog catalog_ = tiny_catalog();
  const net::MatrixRttProvider rtt_{near_zero_cross_matrix()};
  const sim::ShardableEngine engine_{catalog_, rtt_, 4, tiny_config()};
};

TEST_F(EpochWidth, AdaptsByFourTwoAndHalfWithinInitialAndCap) {
  EpochSchedule schedule(sim::SimulationConfig{}, {}, 100'000.0);
  // Cross-shard RTT 0.01 ms clamps up to the floor.
  schedule.reset_width(ShardPlan(engine_.groups(), 4, 2), engine_);
  EXPECT_EQ(schedule.initial_ms(), EpochSchedule::kFloorMs);
  constexpr std::size_t kTarget = EpochSchedule::kEffectBatchTarget;
  const std::vector<std::pair<std::size_t, double>> steps = {
      {0, 4.0},               // nothing exchanged: x4
      {1, 8.0},               // under the target: x2
      {kTarget, 8.0},         // at the target: hold
      {4 * kTarget, 8.0},     // at 4x the target: hold
      {4 * kTarget + 1, 4.0}, // past 4x the target: halve
      {4 * kTarget + 1, 2.0},
      {4 * kTarget + 1, 1.0},
      {4 * kTarget + 1, 1.0}, // never below the initial width
      {0, 4.0},   {0, 16.0}, {0, 64.0}, {0, 256.0},
      {0, EpochSchedule::kCapMs},  // x4 clamps to the cap
      {1, EpochSchedule::kCapMs}};
  for (const auto& [exchanged, width] : steps) {
    epoch(schedule, exchanged);
    EXPECT_EQ(schedule.width_ms(), width) << "after " << exchanged;
  }
  EXPECT_EQ(schedule.initial_ms(), EpochSchedule::kFloorMs);

  // Barrier and final cuts never adapt.
  EpochSchedule barrier_schedule(tiny_config(), {{0.5, 1}}, 1'000.0);
  barrier_schedule.reset_width(ShardPlan(engine_.groups(), 4, 2), engine_);
  const Cut cut = barrier_schedule.next_cut(0.0);
  ASSERT_EQ(cut.kind, Cut::Kind::kBarrier);
  barrier_schedule.commit(cut, 0);
  EXPECT_EQ(barrier_schedule.width_ms(), EpochSchedule::kFloorMs);
}

TEST_F(EpochWidth, OneLoadedShardDerivesTheCap) {
  EpochSchedule schedule(sim::SimulationConfig{}, {}, 1'000.0);
  schedule.reset_width(ShardPlan(engine_.groups(), 4, 1), engine_);
  EXPECT_EQ(schedule.width_ms(), EpochSchedule::kCapMs);
}

TEST_F(EpochWidth, FixedWidthNeverAdapts) {
  EpochSchedule schedule(sim::SimulationConfig{}, {}, 100'000.0, 250.0);
  schedule.reset_width(ShardPlan(engine_.groups(), 4, 2), engine_);
  EXPECT_EQ(schedule.initial_ms(), 250.0);
  constexpr std::size_t kOvershoot = 5 * EpochSchedule::kEffectBatchTarget;
  for (const std::size_t exchanged : {std::size_t{0}, std::size_t{1},
                                      kOvershoot}) {
    epoch(schedule, exchanged);
    EXPECT_EQ(schedule.width_ms(), 250.0);
  }
}

TEST_F(EpochWidth, FinalCutDrainsInclusivelyAtTheHorizon) {
  EpochSchedule schedule(sim::SimulationConfig{}, {}, 1'000.0);
  schedule.reset_width(ShardPlan(engine_.groups(), 4, 2), engine_);
  const double horizon = 1'000.0 + EpochSchedule::kDrainMs;
  EXPECT_EQ(schedule.horizon_ms(), horizon);

  // An epoch target exactly at the horizon is still an (exclusive) epoch.
  const Cut at = schedule.next_cut(horizon - EpochSchedule::kFloorMs);
  EXPECT_EQ(at.kind, Cut::Kind::kEpoch);
  EXPECT_EQ(at.time_ms, horizon);
  EXPECT_FALSE(at.inclusive());
  // Past the horizon, or with every shard drained, the cut is the final
  // inclusive drain at the horizon.
  for (const double earliest : {horizon - 0.5, workload::kNoEvent}) {
    const Cut cut = schedule.next_cut(earliest);
    EXPECT_EQ(cut.kind, Cut::Kind::kFinal);
    EXPECT_EQ(cut.time_ms, horizon);
    EXPECT_TRUE(cut.inclusive());
  }
}

// ----------------------------------------------------------------------
// Regression: the epoch-cut explosion at n=256 / shards=16.
//
// BENCH_scale.json once recorded 30,033 cuts for this shape: a 1.7 ms
// derived lookahead marched fixed-width epochs across a 60 s horizon.
// With adaptive widening the same run must finish in well under 1,000
// cuts — and, as always, bit-identical to the sequential simulator.
// ----------------------------------------------------------------------

TEST(ShardedSimScale, CutCountAt256Caches16ShardsStaysUnderAThousand) {
  constexpr std::size_t kN = 256;
  net::GroupBlockOptions block;
  block.clusters = 16;
  block.intra_ms = 1.0;
  block.cross_ms = 1.7;  // the pathological derived lookahead
  block.server_ms = 80.0;
  net::GroupBlockRttProvider rtt(kN, block);

  std::vector<cache::DocumentInfo> docs(400);
  for (auto& d : docs) d = {1'000, 20.0, 0.0};
  const cache::Catalog catalog(std::move(docs));

  workload::Trace trace;
  trace.duration_ms = 60'000.0;
  for (std::size_t i = 0; i < 6'000; ++i) {
    const double t = 5.0 + static_cast<double>(i) * 9.97;
    if (t >= trace.duration_ms) break;
    trace.requests.push_back({t, static_cast<std::uint32_t>((i * 37) % kN),
                              static_cast<std::uint32_t>((i * 13) % 400)});
  }
  for (std::size_t u = 0; u < 8; ++u) {
    trace.updates.push_back({3'000.0 + static_cast<double>(u) * 7'000.0,
                             static_cast<std::uint32_t>((u * 53) % 400)});
  }

  sim::SimulationConfig config;
  config.groups = rtt.clusters_as_groups();
  config.cache_capacity_bytes = 40'000;
  config.policy = cache::PolicyKind::kLru;
  config.warmup_fraction = 0.0;

  const sim::SimulationReport seq =
      sim::run_simulation(catalog, rtt, kN, config, trace);

  ShardOptions options;
  options.shards = 16;
  ShardedSimulator sharded(catalog, rtt, kN, config, options);
  const sim::SimulationReport rep = sharded.run(trace);

  std::ostringstream seq_out, rep_out;
  obs::write_report_jsonl(seq_out, seq, "scale256");
  obs::write_report_jsonl(rep_out, rep, "scale256");
  EXPECT_EQ(rep_out.str(), seq_out.str());

  // The derived width is the 1.7 ms cross-cluster RTT...
  EXPECT_DOUBLE_EQ(sharded.epoch_initial_ms(), 1.7);
  // ...but adaptation widened it instead of marching 35k fixed epochs.
  EXPECT_GT(sharded.epoch_ms(), sharded.epoch_initial_ms());
  EXPECT_LT(sharded.cuts_executed(), 1'000u);
}

// ----------------------------------------------------------------------
// Degenerate topology: every cache in one group, 15 shards empty.
// ----------------------------------------------------------------------

TEST(ShardedSimScale, SingleGroupOnSixteenShardsDispatchesNoEmptyWindows) {
  const cache::Catalog catalog = tiny_catalog();
  net::MatrixRttProvider rtt(near_zero_cross_matrix());

  sim::SimulationConfig config = tiny_config();
  config.groups = {{0, 1, 2, 3}};  // one group → one loaded shard

  const sim::SimulationReport seq =
      sim::run_simulation(catalog, rtt, 4, config, tiny_trace());

  auto run_with = [&](std::size_t shards) {
    ShardOptions options;
    options.shards = shards;
    ShardedSimulator sharded(catalog, rtt, 4, config, options);
    const sim::SimulationReport rep = sharded.run(tiny_trace());
    EXPECT_EQ(report_bytes(rep), report_bytes(seq)) << shards << " shards";
    return std::pair<std::uint64_t, std::uint64_t>(
        sharded.windows_dispatched(), sharded.cuts_executed());
  };

  const auto [one_shard_windows, one_shard_cuts] = run_with(1);
  const auto [sixteen_shard_windows, sixteen_shard_cuts] = run_with(16);

  // The 15 empty shards are never dispatched: the window count matches
  // the shards=1 run exactly (one loaded shard per non-empty cut), so a
  // degenerate partition costs no pool traffic and no throughput cliff.
  EXPECT_EQ(sixteen_shard_windows, one_shard_windows);
  EXPECT_EQ(sixteen_shard_cuts, one_shard_cuts);
  EXPECT_GT(sixteen_shard_windows, 0u);
}

// ----------------------------------------------------------------------
// Maintained churn: the cut schedule stays exactly what the full pair
// scan at every reshard produced.
// ----------------------------------------------------------------------

// A maintained, churning run big enough that the lookahead list (2·n
// pairs) is a strict subset of the 4,560 cache pairs and the plan changes
// at every repair and re-formation: 96 caches on a plane with RTTs
// rounded to a multiple of `quantum_ms` (whole milliseconds by default;
// ties), half of them drifting, rolling leave/rejoin churn and two
// failures.
constexpr std::size_t kChurnCaches = 96;
constexpr net::HostId kChurnServer = kChurnCaches;

net::DistanceMatrix churn_matrix(double quantum_ms = 1.0) {
  net::PlaneOptions plane_options;
  plane_options.seed = 2006;
  const net::PlaneRttProvider plane(kChurnCaches + 1, plane_options);
  net::DistanceMatrix m(kChurnCaches + 1);
  for (std::size_t a = 0; a <= kChurnCaches; ++a) {
    for (std::size_t b = a + 1; b <= kChurnCaches; ++b) {
      const double rtt = plane.rtt_ms(static_cast<net::HostId>(a),
                                      static_cast<net::HostId>(b));
      m.set(a, b, quantum_ms * std::round(rtt / quantum_ms));
    }
  }
  return m;
}

workload::Trace churn_trace() {
  workload::Trace trace;
  trace.duration_ms = 20'000.0;
  for (std::size_t i = 0; i < 4'000; ++i) {
    trace.requests.push_back({2.0 + static_cast<double>(i) * 4.9,
                              static_cast<std::uint32_t>((i * 37) % kChurnCaches),
                              static_cast<std::uint32_t>((i * 13) % 60)});
  }
  for (std::size_t u = 0; u < 10; ++u) {
    trace.updates.push_back({900.0 + static_cast<double>(u) * 1'900.0,
                             static_cast<std::uint32_t>((u * 7) % 60)});
  }
  return trace;
}

struct ChurnRun {
  std::string report;
  std::uint64_t reshaping = 0;  ///< repairs + re-formations
  std::uint64_t cuts = 0;
  std::uint64_t windows = 0;
  double epoch_initial_ms = 0.0;
};

/// shards == 0 runs the frozen reference loop. With a `tracer` the engine
/// and the maintenance session trace into it.
ChurnRun run_maintained_churn(std::size_t shards, double quantum_ms = 1.0,
                              obs::Tracer* tracer = nullptr) {
  util::Rng drift_rng(11);
  net::DriftOptions drift;
  drift.drift_fraction = 0.5;
  drift.ramp_start_ms = 4'000.0;
  drift.ramp_end_ms = 14'000.0;
  drift.max_weight = 1.0;
  net::DriftingRttProvider provider(churn_matrix(quantum_ms), drift, drift_rng);

  ctl::MaintenanceConfig mc;
  mc.landmarks = {kChurnServer, 0, 24, 48, 72};
  for (std::uint32_t c = 0; c < kChurnCaches; ++c) {
    std::vector<double> position;
    for (net::HostId l : mc.landmarks) position.push_back(provider.rtt_ms(c, l));
    mc.baseline_positions.push_back(std::move(position));
  }
  mc.initial_partition.resize(8);
  for (std::uint32_t c = 0; c < kChurnCaches; ++c) {
    mc.initial_partition[c % 8].push_back(c);
  }
  mc.policy.repair_threshold_ms = 6.0;
  mc.policy.reform_threshold_ms = 15.0;
  mc.budget.caches_per_tick = 8;
  mc.prober.probes_per_measurement = 1;
  mc.prober.jitter_sigma = 0.0;
  mc.kmeans.restarts = 2;
  mc.seed = 5;
  if (tracer != nullptr) mc.trace = obs::TraceContext::root(tracer, 7);
  ctl::MaintenanceSession session(provider, mc);

  std::vector<cache::DocumentInfo> docs(60);
  for (auto& d : docs) d = {1'000, 20.0, 0.0};
  const cache::Catalog catalog(std::move(docs));

  sim::SimulationConfig config;
  config.groups = mc.initial_partition;
  config.cache_capacity_bytes = 8'000;
  config.policy = cache::PolicyKind::kLru;
  config.warmup_fraction = 0.0;
  config.control_hook = &session;
  config.control_interval_ms = 800.0;
  for (std::uint32_t j = 0; j < 12; ++j) {
    const double leave = 3'000.0 + 900.0 * j;
    config.membership_events.push_back(
        {sim::MembershipChange::Kind::kLeave, j * 7, leave});
    config.membership_events.push_back(
        {sim::MembershipChange::Kind::kJoin, j * 7, leave + 2'500.0});
  }
  std::sort(config.membership_events.begin(), config.membership_events.end(),
            [](const sim::MembershipChange& a, const sim::MembershipChange& b) {
              return a.time_ms < b.time_ms;
            });
  config.failures = {{5, 6'100.0}, {90, 11'300.0}};
  if (tracer != nullptr) config.trace = obs::TraceContext::root(tracer, 1);

  ChurnRun run;
  sim::SimulationReport report;
  if (shards == 0) {
    sim::ReferenceSimulator sim(catalog, provider, kChurnServer,
                                std::move(config));
    provider.bind_clock(sim.clock_ptr());
    report = sim.run(churn_trace());
  } else {
    ShardOptions options;
    options.shards = shards;
    ShardedSimulator sim(catalog, provider, kChurnServer, std::move(config),
                         options);
    provider.bind_clock(sim.clock_ptr());
    report = sim.run(churn_trace());
    run.cuts = sim.cuts_executed();
    run.windows = sim.windows_dispatched();
    run.epoch_initial_ms = sim.epoch_initial_ms();
  }
  std::ostringstream out;
  obs::write_report_jsonl(out, report, "churn");
  run.report = out.str();
  run.reshaping = session.repairs() + session.reforms();
  return run;
}

TEST(ShardedSimChurn, CutScheduleMatchesThePerReshardScan) {
  const ChurnRun seq = run_maintained_churn(0);
  // {shards, cuts, windows}: the values the driver produced when every
  // reshard rescanned all cache pairs.
  const std::tuple<std::size_t, std::uint64_t, std::uint64_t> expected[] = {
      {2, 184, 333}, {4, 186, 576}, {8, 186, 950}};
  for (const auto& [shards, cuts, windows] : expected) {
    const ChurnRun run = run_maintained_churn(shards);
    EXPECT_EQ(run.report, seq.report) << shards << " shards";
    EXPECT_EQ(run.reshaping, seq.reshaping) << shards << " shards";
    EXPECT_EQ(run.cuts, cuts) << shards << " shards";
    EXPECT_EQ(run.windows, windows) << shards << " shards";
    EXPECT_EQ(run.epoch_initial_ms, 6.0) << shards << " shards";
  }
  EXPECT_GE(seq.reshaping, 5u);  // the plan really changed, many times
}

// The tie-heavy churning run's report and trace bytes, pinned to the
// values of a full directory rebuild at every regrouping. RTTs in 40 ms
// steps make holder ties common, and on_request's holder scan breaks them
// by list position, so a cut-over that leaves any list out of ascending
// order changes which peer serves, and with it the bytes.
TEST(ShardedSimChurn, TieHeavyRunMatchesTheRebuildHashes) {
  using testing_util::fnv1a;
  util::set_trace_enabled(true);
  constexpr std::uint64_t kReportFnv = 0x8d58a99b27adc70fULL;
  constexpr std::uint64_t kTraceFnv = 0x6a2f025b998e060eULL;
  for (std::size_t shards : {0u, 1u, 4u}) {
    std::ostringstream trace;
    ChurnRun run;
    {
      obs::Tracer tracer(std::make_unique<obs::JsonlTraceSink>(trace));
      run = run_maintained_churn(shards, /*quantum_ms=*/40.0, &tracer);
    }
    EXPECT_EQ(fnv1a(run.report), kReportFnv) << shards << " shards";
    EXPECT_EQ(fnv1a(trace.str()), kTraceFnv) << shards << " shards";
    EXPECT_GE(run.reshaping, 5u) << shards << " shards";
  }
  util::set_trace_enabled(false);
}

}  // namespace
}  // namespace ecgf::shard
