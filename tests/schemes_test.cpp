// Tests for src/schemes — the string-keyed SchemeRegistry and the
// comparator grouping schemes it serves (random, geo, proximity, ucc).
//
// Three contracts are pinned down here:
//
//   1. Registry semantics: canonical key order, per-key construction,
//      and the unknown-name error message that CLI surfaces print.
//   2. Formation invariants, per scheme: the result is a real partition
//      (every cache exactly once, no empty groups), the cost accounting
//      is honest (probes_used == the prober's packet counter), positions
//      cover every host with one coordinate per landmark, and capacity-
//      capped schemes respect ceil(n/k).
//   3. Bit-identity: formation is deterministic run-to-run (result AND
//      trace bytes); a SweepRunner sweep over the new schemes reproduces
//      byte-for-byte on pools of 1/2/8 threads; and a maintained
//      simulation formed by each new scheme — repairs and reforms routed
//      through the scheme's own GroupMaintainer — matches the sequential
//      run at every (shards, threads) shape in {1,4,8} × {1,2,8},
//      compared as report JSONL + trace bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cache/catalog.h"
#include "core/experiment.h"
#include "core/maintainer.h"
#include "core/sweep.h"
#include "ctl/maintenance.h"
#include "net/distance_matrix.h"
#include "net/drift.h"
#include "net/prober.h"
#include "net/rtt_provider.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "schemes/geo_scheme.h"
#include "schemes/proximity_scheme.h"
#include "schemes/registry.h"
#include "schemes/ucc_scheme.h"
#include "shard/sharded_sim.h"
#include "sim/simulator.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "reference_sim.h"

namespace ecgf::schemes {
namespace {

constexpr std::size_t kCaches = 24;
constexpr net::HostId kServer = 24;
constexpr std::size_t kGroups = 4;

/// Four tight clusters of six caches (5 ms inside, 60 ms across) plus a
/// far origin server — every scheme has an obviously right answer here.
net::DistanceMatrix clustered_matrix() {
  net::DistanceMatrix m(kCaches + 1);
  for (std::size_t a = 0; a < kCaches; ++a) {
    for (std::size_t b = a + 1; b < kCaches; ++b) {
      const bool same = (a / 6) == (b / 6);
      m.set(a, b, same ? 5.0 : 60.0);
    }
    m.set(a, kServer, 80.0);
  }
  return m;
}

const std::vector<std::string> kNewSchemes = {"random", "geo", "proximity",
                                              "ucc"};

core::GroupingResult form(const core::GroupingScheme& scheme,
                          std::uint64_t seed,
                          obs::TraceContext* trace = nullptr) {
  const net::DistanceMatrix matrix = clustered_matrix();
  net::MatrixRttProvider rtt(matrix);
  net::Prober prober(rtt, net::ProberOptions{}, util::Rng(seed));
  util::Rng rng(seed + 1);
  return scheme.form_groups(kCaches, kServer, kGroups, prober, rng, trace);
}

// ----------------------------------------------------------------------
// Registry semantics
// ----------------------------------------------------------------------

TEST(SchemeRegistry, BuiltinKeysInCanonicalOrder) {
  const SchemeRegistry& registry = SchemeRegistry::builtin();
  const std::vector<std::string> expected = {"sl",  "sdsl",      "random",
                                             "geo", "proximity", "ucc"};
  EXPECT_EQ(registry.names(), expected);
  EXPECT_EQ(registry.names_joined(), "sl, sdsl, random, geo, proximity, ucc");
  for (const std::string& name : expected) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
  EXPECT_FALSE(registry.contains("SL"));  // keys are lower-case, exact
}

TEST(SchemeRegistry, MakeInstantiatesEveryBuiltin) {
  const SchemeRegistry& registry = SchemeRegistry::builtin();
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"sl", "SL"},   {"sdsl", "SDSL"},     {"random", "RANDOM"},
      {"geo", "GEO"}, {"proximity", "PROX"}, {"ucc", "UCC"}};
  for (const auto& [key, display] : expected) {
    const auto scheme = registry.make(key);
    ASSERT_NE(scheme, nullptr) << key;
    EXPECT_EQ(scheme->name(), display) << key;
  }
}

TEST(SchemeRegistry, UnknownNameThrowsListingRegisteredKeys) {
  const SchemeRegistry& registry = SchemeRegistry::builtin();
  EXPECT_THROW(registry.make("kmeanz"), UnknownSchemeError);
  try {
    registry.make("kmeanz");
    FAIL() << "expected UnknownSchemeError";
  } catch (const UnknownSchemeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown scheme 'kmeanz'"), std::string::npos) << what;
    // The message must list every registered key (CLI prints it verbatim).
    for (const std::string& name : registry.names()) {
      EXPECT_NE(what.find(name), std::string::npos) << name << " missing";
    }
  }
}

// ----------------------------------------------------------------------
// Formation invariants — every registered scheme
// ----------------------------------------------------------------------

TEST(SchemeInvariants, EveryRegisteredSchemeFormsAValidPartition) {
  const SchemeRegistry& registry = SchemeRegistry::builtin();
  for (const std::string& name : registry.names()) {
    SCOPED_TRACE(name);
    const auto scheme = registry.make(name);
    const core::GroupingResult result = form(*scheme, 77);

    // Partition: every cache exactly once, no empty groups, <= k of them.
    ASSERT_FALSE(result.groups.empty());
    EXPECT_LE(result.groups.size(), kGroups);
    std::vector<int> seen(kCaches, 0);
    for (const core::CacheGroup& g : result.groups) {
      EXPECT_FALSE(g.members.empty());
      for (const net::HostId c : g.members) {
        ASSERT_LT(c, kCaches);
        ++seen[c];
      }
    }
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                            [](int n) { return n == 1; }));

    // Metadata: the origin server leads the landmark list; the position
    // map covers every host with one coordinate per landmark, which is
    // exactly what ctl::make_maintenance_config requires to monitor it.
    ASSERT_FALSE(result.landmarks.empty());
    EXPECT_EQ(result.landmarks.front(), kServer);
    EXPECT_EQ(result.positions.host_count(), kCaches + 1);
    EXPECT_EQ(result.positions.dimension(), result.landmarks.size());
    EXPECT_EQ(result.server_distance_ms.size(), kCaches);
    for (const double d : result.server_distance_ms) EXPECT_GT(d, 0.0);
  }
}

TEST(SchemeInvariants, ProbeAccountingMatchesTheProberPacketCounter) {
  // probes_used must equal the packets the scheme actually sent — counted
  // by the (fresh) prober itself, not estimated by the scheme.
  const net::DistanceMatrix matrix = clustered_matrix();
  net::MatrixRttProvider rtt(matrix);
  const SchemeRegistry& registry = SchemeRegistry::builtin();
  for (const std::string& name : registry.names()) {
    SCOPED_TRACE(name);
    const auto scheme = registry.make(name);
    net::Prober prober(rtt, net::ProberOptions{}, util::Rng(5));
    util::Rng rng(6);
    const auto result =
        scheme->form_groups(kCaches, kServer, kGroups, prober, rng);
    EXPECT_GT(result.probes_used, 0u);
    EXPECT_EQ(result.probes_used, prober.probes_sent());
  }
}

TEST(SchemeInvariants, CapacityCappedSchemesRespectCeilNOverK) {
  const std::size_t cap = (kCaches + kGroups - 1) / kGroups;  // ceil(n/k)
  for (const std::string& name : {std::string("geo"),
                                  std::string("proximity")}) {
    SCOPED_TRACE(name);
    const auto scheme = SchemeRegistry::builtin().make(name);
    const core::GroupingResult result = form(*scheme, 99);
    for (const core::CacheGroup& g : result.groups) {
      EXPECT_LE(g.members.size(), cap);
    }
  }
}

TEST(SchemeInvariants, UccAlwaysProducesExactlyKGroups) {
  // The share schedule guarantees every remaining anchor finds a group
  // even when k does not divide n (24 % 5 != 0 here).
  const auto scheme = SchemeRegistry::builtin().make("ucc");
  const net::DistanceMatrix matrix = clustered_matrix();
  net::MatrixRttProvider rtt(matrix);
  for (const std::size_t k : {1u, 3u, 5u, 8u, 24u}) {
    SCOPED_TRACE(k);
    net::Prober prober(rtt, net::ProberOptions{}, util::Rng(11));
    util::Rng rng(12);
    const auto result = scheme->form_groups(kCaches, kServer, k, prober, rng);
    EXPECT_EQ(result.groups.size(), k);
  }
}

TEST(SchemeInvariants, LocalitySchemesRecoverTheObviousClusters) {
  // On the 4×6 clustered matrix with k = 4 the schemes with deterministic
  // locality-driven seeding must land each clique in one group. The
  // proximity scheme is excluded: its seeds are uniform rng samples, so
  // two seeds may land in one clique and capacity then forces a split —
  // its contract is the ceil(n/k) cap, not clique recovery.
  for (const std::string& name :
       {std::string("geo"), std::string("ucc")}) {
    SCOPED_TRACE(name);
    const auto scheme = SchemeRegistry::builtin().make(name);
    const core::GroupingResult result = form(*scheme, 3);
    ASSERT_EQ(result.groups.size(), kGroups);
    for (const core::CacheGroup& g : result.groups) {
      ASSERT_EQ(g.members.size(), 6u);
      const std::size_t clique = g.members.front() / 6;
      for (const net::HostId c : g.members) EXPECT_EQ(c / 6, clique);
    }
  }
}

// ----------------------------------------------------------------------
// Maintainer wiring — the ctl capability seam
// ----------------------------------------------------------------------

TEST(SchemeMaintainers, CentroidDefaultForClusterSchemesBalancedForProx) {
  const SchemeRegistry& registry = SchemeRegistry::builtin();
  for (const std::string& name : {std::string("sl"), std::string("sdsl"),
                                  std::string("random"), std::string("geo"),
                                  std::string("ucc")}) {
    SCOPED_TRACE(name);
    const auto maintainer = registry.make(name)->maintainer();
    ASSERT_NE(maintainer, nullptr);
    EXPECT_EQ(maintainer->name(), "centroid");
    // The default is the shared singleton — no per-scheme copies.
    EXPECT_EQ(maintainer, core::default_group_maintainer());
  }
  const auto prox = registry.make("proximity")->maintainer();
  ASSERT_NE(prox, nullptr);
  EXPECT_EQ(prox->name(), "balanced");
}

// ----------------------------------------------------------------------
// Bit-identity: run-to-run, sweep threads, shards × threads
// ----------------------------------------------------------------------

class SchemesDeterminism : public ::testing::Test {
 protected:
  void SetUp() override { util::set_trace_enabled(true); }
  void TearDown() override { util::set_trace_enabled(false); }
};

TEST_F(SchemesDeterminism, FormationIsBitIdenticalRunToRun) {
  for (const std::string& name : kNewSchemes) {
    SCOPED_TRACE(name);
    const auto scheme = SchemeRegistry::builtin().make(name);
    std::string traces[2];
    core::GroupingResult results[2];
    for (int run = 0; run < 2; ++run) {
      std::ostringstream trace_out;
      {
        obs::Tracer tracer(std::make_unique<obs::JsonlTraceSink>(trace_out));
        obs::TraceContext trace = obs::TraceContext::root(&tracer, 1);
        results[run] = form(*scheme, 2006, &trace);
      }  // the sink flushes on Tracer destruction
      traces[run] = trace_out.str();
    }
    EXPECT_EQ(results[0].partition(), results[1].partition());
    EXPECT_EQ(results[0].landmarks, results[1].landmarks);
    EXPECT_EQ(results[0].probes_used, results[1].probes_used);
    ASSERT_FALSE(traces[0].empty());
    EXPECT_EQ(traces[0], traces[1]);
  }
}

/// One sweep over all four new schemes on a shared testbed, executed on a
/// pool of `threads` workers; returns the serialized reports + traces.
std::string run_sweep(std::size_t threads) {
  std::ostringstream trace_out;
  std::ostringstream report_out;
  {
    obs::Tracer tracer(std::make_unique<obs::JsonlTraceSink>(trace_out));
    util::ThreadPool pool(threads);

    core::TestbedParams params;
    params.cache_count = 32;
    params.catalog.document_count = 300;
    params.workload.duration_ms = 20'000.0;

    std::vector<core::SweepPoint> points;
    for (const std::string& name : kNewSchemes) {
      core::SweepPoint p;
      p.testbed = params;
      p.testbed_seed = 2006;
      p.coordinator_seed = 2007;
      p.scheme = SchemeRegistry::builtin().make(name);
      p.group_count = 4;
      points.push_back(std::move(p));
    }
    const auto results = core::SweepRunner(&pool, &tracer).run(points);
    for (std::size_t i = 0; i < results.size(); ++i) {
      obs::write_report_jsonl(report_out, results[i].report, kNewSchemes[i]);
      report_out << results[i].grouping.probes_used << "\n";
    }
  }
  return report_out.str() + trace_out.str();
}

TEST_F(SchemesDeterminism, SweepOverNewSchemesBitIdenticalAtOneTwoEightThreads) {
  const std::string serial = run_sweep(1);
  ASSERT_FALSE(serial.empty());
  for (const std::size_t threads : {2u, 8u}) {
    EXPECT_EQ(run_sweep(threads), serial) << threads << " threads";
  }
}

// The full control-loop matrix: groups formed by each new scheme, then a
// maintained, churning simulation — repairs and reforms routed through
// the scheme's own maintainer — run sequentially and sharded.

workload::Trace scenario_trace() {
  workload::Trace trace;
  trace.duration_ms = 10'000.0;
  for (std::size_t i = 0; i < 260; ++i) {
    const double t = 40.0 + static_cast<double>(i) * 38.0;
    if (t >= trace.duration_ms) break;
    trace.requests.push_back({t, static_cast<std::uint32_t>(i % kCaches),
                              static_cast<std::uint32_t>((i * 7) % 30)});
  }
  return trace;
}

cache::Catalog scenario_catalog() {
  std::vector<cache::DocumentInfo> docs(30);
  for (auto& d : docs) d = {1'000, 20.0, 0.0};
  return cache::Catalog(std::move(docs));
}

struct ScenarioRun {
  std::string report_jsonl;
  std::string trace_bytes;
  std::vector<std::vector<cache::CacheIndex>> partition;
  std::uint64_t repairs = 0;
  std::uint64_t reforms = 0;
};

/// shards == 0 → the frozen reference loop (sim::ReferenceSimulator);
/// otherwise ShardedSimulator
/// with that many shards on `threads` pool workers.
ScenarioRun run_scenario(const std::string& scheme_name, std::size_t shards,
                         std::size_t threads = 0) {
  ScenarioRun result;
  std::ostringstream trace_out;
  sim::SimulationReport report;
  {
    obs::Tracer tracer(std::make_unique<obs::JsonlTraceSink>(trace_out));

    util::Rng drift_rng(7);
    net::DriftOptions drift;
    drift.drift_fraction = 0.5;
    drift.ramp_start_ms = 1'000.0;
    drift.ramp_end_ms = 6'000.0;
    net::DriftingRttProvider provider(clustered_matrix(), drift, drift_rng);

    // Formation on the undrifted network (the provider reports baseline
    // RTTs until its clock is bound to the simulator below).
    const auto scheme = SchemeRegistry::builtin().make(scheme_name);
    net::Prober prober(provider, net::ProberOptions{}, util::Rng(2006));
    util::Rng form_rng(2007);
    obs::TraceContext form_trace = obs::TraceContext::root(&tracer, 3);
    const core::GroupingResult base = scheme->form_groups(
        kCaches, kServer, kGroups, prober, form_rng, &form_trace);

    ctl::MaintenanceConfig mc =
        ctl::make_maintenance_config(base, kCaches, scheme->maintainer());
    mc.policy.repair_threshold_ms = 4.0;
    mc.policy.reform_threshold_ms = 5.0;
    mc.budget.caches_per_tick = 3;
    mc.kmeans.restarts = 2;
    mc.seed = 42;
    mc.trace = obs::TraceContext::root(&tracer, 7);
    ctl::MaintenanceSession session(provider, mc);

    const cache::Catalog catalog = scenario_catalog();

    sim::SimulationConfig config;
    config.groups = base.partition();
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

    if (shards == 0) {
      sim::ReferenceSimulator sim(catalog, provider, kServer,
                                  std::move(config));
      provider.bind_clock(sim.clock_ptr());
      report = sim.run(scenario_trace());
      result.partition = sim.groups();
    } else {
      shard::ShardOptions options;
      options.shards = shards;
      options.threads = threads;
      shard::ShardedSimulator sim(catalog, provider, kServer,
                                  std::move(config), options);
      provider.bind_clock(sim.clock_ptr());
      report = sim.run(scenario_trace());
      result.partition = sim.groups();
    }
    result.repairs = session.repairs();
    result.reforms = session.reforms();
  }
  result.trace_bytes = trace_out.str();
  std::ostringstream report_out;
  obs::write_report_jsonl(report_out, report, "scenario");
  result.report_jsonl = report_out.str();
  return result;
}

TEST_F(SchemesDeterminism, MaintainedScenarioExercisesEachMaintainer) {
  // The drift ramp must actually drive maintenance actions for the matrix
  // below to mean anything — for the centroid-maintained schemes and the
  // balanced-maintained proximity scheme alike.
  for (const std::string& name : kNewSchemes) {
    SCOPED_TRACE(name);
    const ScenarioRun run = run_scenario(name, 0);
    EXPECT_GT(run.repairs + run.reforms, 0u);
    ASSERT_FALSE(run.trace_bytes.empty());
  }
}

TEST_F(SchemesDeterminism, RandomSchemeShardThreadMatrixBitIdentical) {
  const ScenarioRun sequential = run_scenario("random", 0);
  for (const std::size_t shards : {1u, 4u, 8u}) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      const ScenarioRun sharded = run_scenario("random", shards, threads);
      EXPECT_EQ(sharded.report_jsonl, sequential.report_jsonl)
          << shards << " shards, " << threads << " threads";
      EXPECT_EQ(sharded.trace_bytes, sequential.trace_bytes)
          << shards << " shards, " << threads << " threads";
      EXPECT_EQ(sharded.partition, sequential.partition)
          << shards << " shards, " << threads << " threads";
    }
  }
}

TEST_F(SchemesDeterminism, GeoSchemeShardThreadMatrixBitIdentical) {
  const ScenarioRun sequential = run_scenario("geo", 0);
  for (const std::size_t shards : {1u, 4u, 8u}) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      const ScenarioRun sharded = run_scenario("geo", shards, threads);
      EXPECT_EQ(sharded.report_jsonl, sequential.report_jsonl)
          << shards << " shards, " << threads << " threads";
      EXPECT_EQ(sharded.trace_bytes, sequential.trace_bytes)
          << shards << " shards, " << threads << " threads";
      EXPECT_EQ(sharded.partition, sequential.partition)
          << shards << " shards, " << threads << " threads";
    }
  }
}

TEST_F(SchemesDeterminism, ProximitySchemeShardThreadMatrixBitIdentical) {
  // This one routes repairs/reforms through BalancedMaintainer — the
  // non-default maintainer path.
  const ScenarioRun sequential = run_scenario("proximity", 0);
  for (const std::size_t shards : {1u, 4u, 8u}) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      const ScenarioRun sharded = run_scenario("proximity", shards, threads);
      EXPECT_EQ(sharded.report_jsonl, sequential.report_jsonl)
          << shards << " shards, " << threads << " threads";
      EXPECT_EQ(sharded.trace_bytes, sequential.trace_bytes)
          << shards << " shards, " << threads << " threads";
      EXPECT_EQ(sharded.partition, sequential.partition)
          << shards << " shards, " << threads << " threads";
    }
  }
}

TEST_F(SchemesDeterminism, UccSchemeShardThreadMatrixBitIdentical) {
  const ScenarioRun sequential = run_scenario("ucc", 0);
  for (const std::size_t shards : {1u, 4u, 8u}) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      const ScenarioRun sharded = run_scenario("ucc", shards, threads);
      EXPECT_EQ(sharded.report_jsonl, sequential.report_jsonl)
          << shards << " shards, " << threads << " threads";
      EXPECT_EQ(sharded.trace_bytes, sequential.trace_bytes)
          << shards << " shards, " << threads << " threads";
      EXPECT_EQ(sharded.partition, sequential.partition)
          << shards << " shards, " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace ecgf::schemes
