// Randomised differential test of the simulation drivers.
//
// A seeded generator builds small worlds that vary the cache count, the
// group count, the registry scheme that forms the groups, scripted
// failures, leave/rejoin churn, TTL vs push consistency, beacon vs summary
// directories, a contended access-link model, and the ctl maintenance loop
// (on or off). Each world runs on
//
//   * the frozen closure-driven reference loop (tests/reference_sim.h),
//   * sim::Simulator (the one-shard case of the driver loop), and
//   * shard::ShardedSimulator at {4, 8} shards x {1, 2, 8} threads,
//
// and every run must produce the same report and trace bytes, with every
// request of the trace accounted for. Each seed is its own test case; a
// failure prints the command that reruns that seed alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cache/catalog.h"
#include "ctl/maintenance.h"
#include "net/distance_matrix.h"
#include "net/drift.h"
#include "net/prober.h"
#include "net/rtt_provider.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "schemes/registry.h"
#include "shard/sharded_sim.h"
#include "sim/netmodel/link_model.h"
#include "sim/simulator.h"
#include "util/flags.h"
#include "util/rng.h"
#include "reference_sim.h"

namespace ecgf {
namespace {

/// Seeds run by ctest; each is one test case.
constexpr std::uint64_t kSeeds = 32;

/// Everything one world needs, drawn from its seed.
struct World {
  std::uint64_t seed = 0;
  std::size_t caches = 0;
  std::size_t groups = 0;
  std::string scheme;
  core::SchemeConfig scheme_config;
  net::DistanceMatrix matrix{1};
  std::vector<cache::DocumentInfo> docs;
  workload::Trace trace;
  sim::SimulationConfig config;  ///< groups filled in by formation
  bool maintained = false;
  bool contended_net = false;
  bool tie_grid = false;
  core::GroupingResult formed;

  net::HostId server() const { return static_cast<net::HostId>(caches); }

  /// One line naming what the seed drew.
  std::string describe() const {
    std::ostringstream os;
    os << "N=" << caches << " k=" << groups << " scheme=" << scheme
       << " L=" << scheme_config.num_landmarks
       << " requests=" << trace.requests.size()
       << " updates=" << trace.updates.size()
       << " failures=" << config.failures.size()
       << " churn=" << config.membership_events.size()
       << (config.consistency == sim::ConsistencyMode::kTtl ? " ttl" : " push")
       << (config.directory == sim::DirectoryMode::kSummary ? " summary"
                                                             : " beacon")
       << (maintained ? " ctl" : "") << (contended_net ? " netmodel" : "")
       << (tie_grid ? " ties" : "");
    return os.str();
  }
};

/// Uniform integer in [lo, hi].
std::size_t draw(util::Rng& rng, std::size_t lo, std::size_t hi) {
  return static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
}

/// Time on the 10 ms grid, at step lo..hi.
double grid_ms(util::Rng& rng, std::size_t lo, std::size_t hi) {
  return 10.0 * static_cast<double>(draw(rng, lo, hi));
}

World make_world(std::uint64_t seed) {
  World w;
  w.seed = seed;
  util::Rng rng(0xD1FFull * 1'000'003ull + seed);
  const std::vector<std::string> names =
      schemes::SchemeRegistry::builtin().names();
  w.caches = draw(rng, 12, 40);
  w.groups = draw(rng, 2, std::min<std::size_t>(6, w.caches / 4));
  w.scheme = names[rng.index(names.size())];
  w.scheme_config.num_landmarks =
      draw(rng, 3, std::min<std::size_t>(6, w.caches / 3));

  // Caches scattered around a few cluster centres on a plane. On the tie
  // grid every RTT is a multiple of 20 ms and every latency term a
  // multiple of 10 ms, like the arrivals, so completions routinely fall
  // at the same instant as arrivals and barriers.
  w.tie_grid = rng.bernoulli(0.5);
  const double rtt_step = w.tie_grid ? 20.0 : 1.0;
  const std::size_t clusters = w.groups + rng.index(3);
  std::vector<std::pair<double, double>> centres(clusters);
  for (auto& c : centres) {
    c = {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
  }
  std::vector<std::pair<double, double>> at(w.caches);
  for (auto& p : at) {
    const auto& c = centres[rng.index(clusters)];
    p = {c.first + rng.uniform(-6.0, 6.0), c.second + rng.uniform(-6.0, 6.0)};
  }
  w.matrix = net::DistanceMatrix(w.caches + 1);
  for (std::size_t a = 0; a < w.caches; ++a) {
    for (std::size_t b = a + 1; b < w.caches; ++b) {
      const double d = std::hypot(at[a].first - at[b].first,
                                  at[a].second - at[b].second);
      w.matrix.set(a, b, rtt_step * (1.0 + std::round(d / rtt_step)));
    }
    w.matrix.set(a, w.caches,
                 rtt_step * std::round(rng.uniform(60.0, 120.0) / rtt_step));
  }

  const std::size_t doc_count = draw(rng, 20, 60);
  w.docs.assign(doc_count, {1'000, 20.0, 0.0});

  // Arrivals on the 10 ms grid, skewed towards low document ids.
  w.trace.duration_ms = 1'000.0 * static_cast<double>(draw(rng, 6, 12));
  const auto steps = static_cast<std::size_t>(w.trace.duration_ms / 10.0);
  const std::size_t requests = draw(rng, 150, 500);
  for (std::size_t i = 0; i < requests; ++i) {
    const double u = rng.uniform01();
    w.trace.requests.push_back(
        {grid_ms(rng, 0, steps - 1),
         static_cast<std::uint32_t>(rng.index(w.caches)),
         static_cast<cache::DocId>(static_cast<double>(doc_count) * u * u)});
  }
  const std::size_t updates = rng.index(41);
  for (std::size_t i = 0; i < updates; ++i) {
    const double t = grid_ms(rng, 0, steps - 1);
    const auto doc = static_cast<cache::DocId>(rng.index(doc_count));
    w.trace.updates.push_back({t, doc});
  }
  const auto by_time = [](const auto& a, const auto& b) {
    return a.time_ms < b.time_ms;
  };
  std::stable_sort(w.trace.requests.begin(), w.trace.requests.end(), by_time);
  std::stable_sort(w.trace.updates.begin(), w.trace.updates.end(), by_time);

  sim::SimulationConfig& config = w.config;
  if (w.tie_grid) {
    config.cost.local_processing_ms = 10.0;
    config.cost.bandwidth_bytes_per_ms = 100.0;  // 1000 B in 10 ms
  }
  config.cache_capacity_bytes = 1'000 * draw(rng, 4, 20);
  config.policy = rng.bernoulli(0.5) ? cache::PolicyKind::kLru
                                     : cache::PolicyKind::kUtility;
  config.beacons_per_group = rng.index(4);
  config.warmup_fraction = rng.bernoulli(0.5) ? 0.0 : 0.2;
  w.maintained = rng.bernoulli(0.5);
  w.contended_net = rng.bernoulli(0.25);
  if (rng.bernoulli(0.3)) {
    config.consistency = sim::ConsistencyMode::kTtl;
    config.ttl_ms = 1'000.0 * static_cast<double>(draw(rng, 1, 8));
  } else if (!w.maintained && rng.bernoulli(0.4)) {
    // Summary directories pair with push consistency and static groups.
    config.directory = sim::DirectoryMode::kSummary;
    config.summary.filter_bits = 256;
    config.summary.refresh_interval_ms = 10.0 * grid_ms(rng, 5, 40);
  }

  // Failures and leave/rejoin pairs on distinct caches.
  std::vector<std::size_t> order(w.caches);
  for (std::size_t c = 0; c < w.caches; ++c) order[c] = c;
  for (std::size_t i = w.caches; i > 1; --i) {
    std::swap(order[i - 1], order[rng.index(i)]);
  }
  std::size_t next = 0;
  const std::size_t failures = rng.index(3);
  for (std::size_t f = 0; f < failures; ++f) {
    config.failures.push_back({static_cast<cache::CacheIndex>(order[next++]),
                               grid_ms(rng, 1, steps)});
  }
  const std::size_t pairs = rng.index(5);
  for (std::size_t p = 0; p < pairs; ++p) {
    const auto c = static_cast<std::uint32_t>(order[next++]);
    const double leave = grid_ms(rng, 1, steps / 2);
    config.membership_events.push_back(
        {sim::MembershipChange::Kind::kLeave, c, leave});
    config.membership_events.push_back(
        {sim::MembershipChange::Kind::kJoin, c, leave + grid_ms(rng, 10, 300)});
  }
  std::stable_sort(config.membership_events.begin(),
                   config.membership_events.end(), by_time);
  if (w.maintained) config.control_interval_ms = 10.0 * grid_ms(rng, 3, 10);

  // Formation on the undrifted network.
  const net::MatrixRttProvider rtt(w.matrix);
  const auto scheme =
      schemes::SchemeRegistry::builtin().make(w.scheme, w.scheme_config);
  net::Prober prober(rtt, net::ProberOptions{}, rng.fork(1));
  util::Rng form_rng = rng.fork(2);
  w.formed = scheme->form_groups(w.caches, w.server(), w.groups, prober,
                                 form_rng);
  config.groups = w.formed.partition();
  return w;
}

struct DriverRun {
  std::string report;
  std::string trace;
  sim::SimulationReport raw;
};

/// Runs `world` on one driver: shards == 0 is the reference loop, 1 is
/// sim::Simulator, more is shard::ShardedSimulator on `threads` threads.
DriverRun run_world(const World& world, std::size_t shards,
                    std::size_t threads) {
  DriverRun out;
  std::ostringstream trace_out;
  {
    obs::Tracer tracer(std::make_unique<obs::JsonlTraceSink>(trace_out));
    // Providers, sessions and link models carry run state: fresh per run.
    util::Rng drift_rng(world.seed);
    net::DriftOptions drift;
    drift.ramp_start_ms = 1'000.0;
    drift.ramp_end_ms = world.trace.duration_ms * 0.6;
    net::DriftingRttProvider provider(world.matrix, drift, drift_rng);
    const cache::Catalog catalog(world.docs);

    sim::SimulationConfig config = world.config;
    config.trace = obs::TraceContext::root(&tracer, 1);
    std::optional<ctl::MaintenanceSession> session;
    if (world.maintained) {
      const auto scheme = schemes::SchemeRegistry::builtin().make(
          world.scheme, world.scheme_config);
      ctl::MaintenanceConfig mc = ctl::make_maintenance_config(
          world.formed, world.caches, scheme->maintainer());
      mc.policy.repair_threshold_ms = 3.0;
      mc.policy.reform_threshold_ms = 5.0;
      mc.budget.caches_per_tick = 3;
      mc.kmeans.restarts = 2;
      mc.seed = world.seed;
      mc.trace = obs::TraceContext::root(&tracer, 7);
      session.emplace(provider, mc);
      config.control_hook = &*session;
    }
    std::optional<sim::AccessLinkModel> links;
    if (world.contended_net) {
      sim::LinkModelConfig lc;
      lc.bandwidth_bytes_per_ms = 2.0;
      lc.queue_limit_bytes = 4'000.0;
      lc.mark_threshold_bytes = 1'000.0;
      links.emplace(lc, world.caches + 1);
      config.netmodel = &*links;
    }

    if (shards == 0) {
      sim::ReferenceSimulator sim(catalog, provider, world.server(),
                                  std::move(config));
      provider.bind_clock(sim.clock_ptr());
      out.raw = sim.run(world.trace);
    } else if (shards == 1) {
      sim::Simulator sim(catalog, provider, world.server(), std::move(config));
      provider.bind_clock(sim.clock_ptr());
      out.raw = sim.run(world.trace);
    } else {
      shard::ShardedSimulator sim(catalog, provider, world.server(),
                                  std::move(config),
                                  shard::ShardOptions{shards, 0.0, threads});
      provider.bind_clock(sim.clock_ptr());
      out.raw = sim.run(world.trace);
    }
  }
  out.trace = trace_out.str();
  std::ostringstream report_out;
  obs::write_report_jsonl(report_out, out.raw, "world");
  out.report = report_out.str();
  return out;
}

class DriverDifferential : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override { util::set_trace_enabled(true); }
  void TearDown() override {
    util::set_trace_enabled(false);
    if (HasFailure()) std::cerr << repro_ << "\n";
  }
  std::string repro_;  ///< one line that reruns the seed alone
};

TEST_P(DriverDifferential, EveryDriverMatchesTheReferenceLoop) {
  const std::uint64_t seed = GetParam();
  const World world = make_world(seed);
  repro_ = "repro: build/tests/differential_test --gtest_filter='*/seed_" +
           std::to_string(seed) + "'  [" + world.describe() + "]";

  // Every arrival executes. Completions later than the drain allowance
  // past the trace's end (EpochSchedule::kDrainMs) are never recorded,
  // which a contended link model can cause; report identity still pins
  // how many were.
  const DriverRun reference = run_world(world, 0, 1);
  ASSERT_FALSE(reference.trace.empty());
  const std::uint64_t requests = world.trace.requests.size();
  EXPECT_EQ(reference.raw.requests_processed, requests);
  EXPECT_LE(reference.raw.raw_counts.total(), requests);
  if (!world.contended_net) {
    EXPECT_EQ(reference.raw.raw_counts.total(), requests);
  }

  struct Variant {
    std::size_t shards, threads;
  };
  const Variant variants[] = {{1, 1}, {4, 1}, {4, 2}, {4, 8},
                              {8, 1}, {8, 2}, {8, 8}};
  for (const Variant& v : variants) {
    const DriverRun run = run_world(world, v.shards, v.threads);
    const std::string driver = v.shards == 1
                                   ? std::string("sim::Simulator")
                                   : std::to_string(v.shards) + " shards, " +
                                         std::to_string(v.threads) + " threads";
    EXPECT_EQ(run.raw.requests_processed, requests) << driver;
    EXPECT_EQ(run.report, reference.report) << driver;
    EXPECT_TRUE(run.trace == reference.trace)
        << driver << ": trace bytes differ";
  }
}

TEST(DriverDifferentialWorlds, SeedBudgetCoversEveryAxis) {
  // The budget must reach every axis the generator varies, or a driver
  // difference along it could pass unseen.
  std::vector<std::string> schemes;
  std::size_t ttl = 0, summary = 0, ctl = 0, netmodel = 0, failures = 0,
              churn = 0, ties = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const World w = make_world(seed);
    schemes.push_back(w.scheme);
    ttl += w.config.consistency == sim::ConsistencyMode::kTtl;
    summary += w.config.directory == sim::DirectoryMode::kSummary;
    ctl += w.maintained;
    netmodel += w.contended_net;
    failures += !w.config.failures.empty();
    churn += !w.config.membership_events.empty();
    ties += w.tie_grid;
  }
  for (const std::string& name : schemes::SchemeRegistry::builtin().names()) {
    EXPECT_NE(std::find(schemes.begin(), schemes.end(), name), schemes.end())
        << name;
  }
  EXPECT_GT(ttl, 0u);
  EXPECT_GT(summary, 0u);
  EXPECT_GT(ctl, 0u);
  EXPECT_LT(ctl, kSeeds);
  EXPECT_GT(netmodel, 0u);
  EXPECT_GT(failures, 0u);
  EXPECT_GT(churn, 0u);
  EXPECT_GT(ties, 0u);
  EXPECT_LT(ties, kSeeds);
}

TEST(DriverDifferentialWorlds, EveryDriverDropsTheSameLateCompletions) {
  // The drain rule (docs/architecture.md): a run ends at the trace's end
  // plus EpochSchedule::kDrainMs, and a completion due later is dropped.
  // Its arrival still counts in requests_processed; raw_counts never
  // records it. Seed 25 draws a contended link model whose queues push
  // two of its 396 completions past that horizon, on every driver alike.
  const World world = make_world(25);
  ASSERT_TRUE(world.contended_net) << world.describe();
  const std::uint64_t requests = world.trace.requests.size();
  ASSERT_EQ(requests, 396u);

  struct Variant {
    std::size_t shards, threads;
  };
  const Variant variants[] = {{0, 1}, {1, 1}, {4, 1}, {4, 8}, {8, 2}};
  for (const Variant& v : variants) {
    const DriverRun run = run_world(world, v.shards, v.threads);
    EXPECT_EQ(run.raw.requests_processed, requests) << v.shards << " shards";
    EXPECT_EQ(requests - run.raw.raw_counts.total(), 2u)
        << v.shards << " shards, " << v.threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DriverDifferential, ::testing::Range<std::uint64_t>(1, kSeeds + 1),
    [](const ::testing::TestParamInfo<std::uint64_t>& info) {
      return "seed_" + std::to_string(info.param);
    });

}  // namespace
}  // namespace ecgf
