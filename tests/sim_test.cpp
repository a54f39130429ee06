// Tests for the discrete event simulator: event queue, cost model, metrics,
// and end-to-end protocol behaviour on hand-constructed scenarios.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include "net/distance_matrix.h"
#include "obs/trace.h"
#include "sim/cost_model.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"
#include "sim/engine.h"
#include "sim/simulator.h"
#include "util/expect.h"
#include "util/flags.h"
#include "util/rng.h"

namespace ecgf::sim {
namespace {

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&](SimTime) { order.push_back(3); });
  q.schedule(1.0, [&](SimTime) { order.push_back(1); });
  q.schedule(2.0, [&](SimTime) { order.push_back(2); });
  EXPECT_EQ(q.run(10.0), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&](SimTime) { order.push_back(10); });
  q.schedule(1.0, [&](SimTime) { order.push_back(20); });
  q.run(2.0);
  EXPECT_EQ(order, (std::vector<int>{10, 20}));
}

TEST(EventQueue, ManySameTimestampEventsStayFifo) {
  // Stress the (time, seq) tie-break: hundreds of events at identical
  // timestamps, interleaved across two instants and including events
  // scheduled from inside a handler at the current time.
  EventQueue q;
  std::vector<int> order;
  constexpr int kPerInstant = 200;
  for (int i = 0; i < kPerInstant; ++i) {
    q.schedule(1.0, [&order, i](SimTime) { order.push_back(i); });
    q.schedule(2.0, [&order, i](SimTime) { order.push_back(1000 + i); });
  }
  q.schedule(1.0, [&](SimTime t) {
    // Scheduled at the same instant from within a handler: must run after
    // everything already queued for t=1.0, still before t=2.0.
    q.schedule(t, [&order](SimTime) { order.push_back(500); });
  });
  EXPECT_EQ(q.run(3.0), 2u * kPerInstant + 2u);
  ASSERT_EQ(order.size(), 2u * kPerInstant + 1u);
  for (int i = 0; i < kPerInstant; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(order[kPerInstant], 500);
  for (int i = 0; i < kPerInstant; ++i) {
    EXPECT_EQ(order[kPerInstant + 1 + i], 1000 + i);
  }
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  std::vector<double> times;
  q.schedule(1.0, [&](SimTime t) {
    times.push_back(t);
    q.schedule(t + 1.0, [&](SimTime t2) { times.push_back(t2); });
  });
  q.run(10.0);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
}

TEST(EventQueue, RunHonoursHorizon) {
  EventQueue q;
  int ran = 0;
  q.schedule(1.0, [&](SimTime) { ++ran; });
  q.schedule(5.0, [&](SimTime) { ++ran; });
  EXPECT_EQ(q.run(3.0), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.run(5.0), 1u);  // boundary-inclusive
  EXPECT_EQ(ran, 2);
}

TEST(EventQueue, RejectsSchedulingInThePast) {
  EventQueue q;
  q.schedule(5.0, [&](SimTime) {
    EXPECT_THROW(q.schedule(1.0, [](SimTime) {}), util::ContractViolation);
  });
  q.run(10.0);
}

TEST(EventQueue, RandomizedPopsFollowTheCanonicalTotalOrder) {
  // Property test: 1000 rounds of shuffled inserts — random times drawn
  // from a tiny set (to force heavy ties), a mix of keyed canonical
  // classes and unkeyed kDefault events — must always pop in the strict
  // (time, klass, key, insertion-seq) total order. This is the contract
  // both drivers (sequential and sharded) build their determinism on.
  constexpr std::size_t kRounds = 1'000;
  constexpr std::size_t kEventsPerRound = 16;
  constexpr EventClass kClasses[] = {
      EventClass::kFailure,       EventClass::kMembership,
      EventClass::kUpdate,        EventClass::kSummaryRefresh,
      EventClass::kControlTick,   EventClass::kCompletion,
      EventClass::kArrival};
  struct Expected {
    double time;
    unsigned klass;
    std::uint64_t key;
    std::size_t seq;  // insertion order within the round
    int id;
  };
  for (std::size_t round = 0; round < kRounds; ++round) {
    util::Rng rng(0x5EED0000u + round);
    EventQueue q;
    std::vector<Expected> expected;
    std::vector<int> popped;
    for (std::size_t i = 0; i < kEventsPerRound; ++i) {
      const double t = static_cast<double>(rng.uniform_int(0, 3));
      const int id = static_cast<int>(i);
      if (rng.uniform01() < 0.5) {
        const EventClass klass = kClasses[rng.index(7)];
        const std::uint64_t key =
            static_cast<std::uint64_t>(rng.uniform_int(0, 3));
        expected.push_back(
            {t, static_cast<unsigned>(klass), key, i, id});
        q.schedule(t, klass, key, [&popped, id](SimTime) {
          popped.push_back(id);
        });
      } else {
        expected.push_back(
            {t, static_cast<unsigned>(EventClass::kDefault), 0, i, id});
        q.schedule(t, [&popped, id](SimTime) { popped.push_back(id); });
      }
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const Expected& a, const Expected& b) {
                       if (a.time != b.time) return a.time < b.time;
                       if (a.klass != b.klass) return a.klass < b.klass;
                       if (a.key != b.key) return a.key < b.key;
                       return a.seq < b.seq;
                     });
    ASSERT_EQ(q.run(10.0), kEventsPerRound) << "round " << round;
    std::vector<int> want;
    for (const Expected& e : expected) want.push_back(e.id);
    ASSERT_EQ(popped, want) << "round " << round;
  }
}

TEST(CostModel, Arithmetic) {
  CostModel cm;
  cm.local_processing_ms = 1.0;
  cm.bandwidth_bytes_per_ms = 1000.0;
  EXPECT_DOUBLE_EQ(cm.local_hit_ms(), 1.0);
  EXPECT_DOUBLE_EQ(cm.transfer_ms(5000), 5.0);
  // group hit: 1 + 0.5*(10+20+30) + 5 = 36
  EXPECT_DOUBLE_EQ(cm.group_hit_ms(10.0, 20.0, 30.0, 5000), 36.0);
  // origin: 1 + 10 + 40 + 7 + 5 = 63
  EXPECT_DOUBLE_EQ(cm.origin_fetch_ms(10.0, 40.0, 7.0, 5000), 63.0);
}

TEST(Metrics, RecordsAndBucketsByResolution) {
  MetricsCollector m(2);
  m.set_now(10.0);
  m.record(0, 5.0, Resolution::kLocalHit);
  m.record(1, 15.0, Resolution::kGroupHit);
  m.record(1, 25.0, Resolution::kOriginFetch);
  EXPECT_EQ(m.counts().local_hits, 1u);
  EXPECT_EQ(m.counts().group_hits, 1u);
  EXPECT_EQ(m.counts().origin_fetches, 1u);
  EXPECT_DOUBLE_EQ(m.network_latency().mean(), 15.0);
  EXPECT_DOUBLE_EQ(m.cache_latency(1).mean(), 20.0);
  EXPECT_NEAR(m.counts().group_hit_rate(), 2.0 / 3.0, 1e-12);
}

TEST(Metrics, WarmupExcludedFromCountsAndLatency) {
  MetricsCollector m(1);
  m.set_warmup_end(100.0);
  m.set_now(50.0);
  m.record(0, 999.0, Resolution::kLocalHit);  // warm-up: raw-counted only
  m.set_now(150.0);
  m.record(0, 5.0, Resolution::kLocalHit);
  // counts() and the latency stats cover the same post-warm-up window;
  // raw_counts() keeps the lifetime totals for conservation checks.
  EXPECT_EQ(m.counts().local_hits, 1u);
  EXPECT_EQ(m.cache_counts(0).local_hits, 1u);
  EXPECT_EQ(m.raw_counts().local_hits, 2u);
  EXPECT_EQ(m.network_latency().count(), 1u);
  EXPECT_DOUBLE_EQ(m.network_latency().mean(), 5.0);
}

TEST(Metrics, SubsetMeanLatency) {
  MetricsCollector m(3);
  m.record(0, 10.0, Resolution::kLocalHit);
  m.record(1, 30.0, Resolution::kLocalHit);
  EXPECT_DOUBLE_EQ(m.subset_mean_latency({0, 1}), 20.0);
  EXPECT_DOUBLE_EQ(m.subset_mean_latency({0, 2}), 10.0);  // 2 has no data
}

// ----------------------------------------------------------------------
// End-to-end simulator scenarios on a tiny hand-built network.
// Hosts: caches 0,1 plus origin server 2. RTTs: 0↔1 = 10, 0↔2 = 100,
// 1↔2 = 100.
// ----------------------------------------------------------------------

net::MatrixRttProvider tiny_provider() {
  net::DistanceMatrix m(3);
  m.set(0, 1, 10.0);
  m.set(0, 2, 100.0);
  m.set(1, 2, 100.0);
  return net::MatrixRttProvider(std::move(m));
}

cache::Catalog tiny_catalog(std::size_t docs = 4) {
  std::vector<cache::DocumentInfo> infos(docs);
  for (auto& d : infos) d = {1000, 20.0, 0.0};
  return cache::Catalog(std::move(infos));
}

SimulationConfig tiny_config(std::vector<std::vector<std::uint32_t>> groups) {
  SimulationConfig config;
  config.groups = std::move(groups);
  config.cache_capacity_bytes = 100'000;
  config.policy = cache::PolicyKind::kLru;
  config.cost.local_processing_ms = 1.0;
  config.cost.bandwidth_bytes_per_ms = 1000.0;
  config.warmup_fraction = 0.0;
  return config;
}

TEST(Simulator, FirstRequestGoesToOriginSecondHitsLocally) {
  const auto provider = tiny_provider();
  const auto catalog = tiny_catalog();
  workload::Trace trace;
  trace.duration_ms = 10'000.0;
  trace.requests = {{100.0, 0, 0}, {5000.0, 0, 0}};

  Simulator sim(catalog, provider, 2, tiny_config({{0}, {1}}));
  const auto report = sim.run(trace);

  EXPECT_EQ(report.counts.origin_fetches, 1u);
  EXPECT_EQ(report.counts.local_hits, 1u);
  EXPECT_EQ(report.origin_fetches, 1u);
  // Origin fetch latency: processing 1 + beacon 0 (self, singleton group)
  // + RTT 100 + generation 20 + transfer 1 = 122. Local hit: 1.
  EXPECT_NEAR(report.per_cache_latency_ms[0], (122.0 + 1.0) / 2.0, 1e-9);
}

TEST(Simulator, GroupPeerServesSecondRequest) {
  const auto provider = tiny_provider();
  const auto catalog = tiny_catalog();
  workload::Trace trace;
  trace.duration_ms = 10'000.0;
  // Cache 0 fetches doc 0 from origin; later cache 1 wants it.
  trace.requests = {{100.0, 0, 0}, {5000.0, 1, 0}};

  Simulator sim(catalog, provider, 2, tiny_config({{0, 1}}));
  const auto report = sim.run(trace);

  EXPECT_EQ(report.counts.origin_fetches, 1u);
  EXPECT_EQ(report.counts.group_hits, 1u);
  EXPECT_EQ(report.counts.local_hits, 0u);
  // The group hit must be far cheaper than an origin fetch (10 ms peer vs
  // 100 ms origin RTT).
  EXPECT_LT(report.per_cache_latency_ms[1], 30.0);
}

TEST(Simulator, InFlightDocumentNotVisibleToPeers) {
  const auto provider = tiny_provider();
  const auto catalog = tiny_catalog();
  workload::Trace trace;
  trace.duration_ms = 10'000.0;
  // Second request arrives 1 ms after the first: the fetch (≥121 ms) is
  // still in flight, so cache 1 must also go to the origin.
  trace.requests = {{100.0, 0, 0}, {101.0, 1, 0}};

  Simulator sim(catalog, provider, 2, tiny_config({{0, 1}}));
  const auto report = sim.run(trace);
  EXPECT_EQ(report.counts.origin_fetches, 2u);
  EXPECT_EQ(report.counts.group_hits, 0u);
}

TEST(Simulator, UpdateInvalidatesCachedCopies) {
  const auto provider = tiny_provider();
  const auto catalog = tiny_catalog();
  workload::Trace trace;
  trace.duration_ms = 20'000.0;
  trace.requests = {{100.0, 0, 0}, {10'000.0, 0, 0}};
  trace.updates = {{5'000.0, 0}};  // between the two requests

  Simulator sim(catalog, provider, 2, tiny_config({{0, 1}}));
  const auto report = sim.run(trace);
  EXPECT_EQ(report.counts.origin_fetches, 2u);  // second request re-fetches
  EXPECT_EQ(report.counts.local_hits, 0u);
  EXPECT_EQ(report.invalidations_pushed, 1u);
  EXPECT_EQ(report.origin_updates, 1u);
}

TEST(Simulator, UpdateOfUncachedDocIsHarmless) {
  const auto provider = tiny_provider();
  const auto catalog = tiny_catalog();
  workload::Trace trace;
  trace.duration_ms = 10'000.0;
  trace.updates = {{5'000.0, 3}};

  Simulator sim(catalog, provider, 2, tiny_config({{0, 1}}));
  const auto report = sim.run(trace);
  EXPECT_EQ(report.invalidations_pushed, 0u);
  EXPECT_EQ(report.origin_updates, 1u);
}

TEST(Simulator, StaleCopyRefetchedAfterMidFlightUpdate) {
  const auto provider = tiny_provider();
  const auto catalog = tiny_catalog();
  workload::Trace trace;
  trace.duration_ms = 20'000.0;
  // Update lands while the fetch is in flight (fetch spans ~122 ms from
  // t=100): the fetched copy must NOT be stored.
  trace.requests = {{100.0, 0, 0}, {10'000.0, 0, 0}};
  trace.updates = {{150.0, 0}};

  Simulator sim(catalog, provider, 2, tiny_config({{0, 1}}));
  const auto report = sim.run(trace);
  EXPECT_EQ(report.counts.origin_fetches, 2u);
  EXPECT_EQ(report.counts.local_hits, 0u);
}

TEST(Simulator, GroupsMustPartitionCaches) {
  const auto provider = tiny_provider();
  const auto catalog = tiny_catalog();
  EXPECT_THROW(Simulator(catalog, provider, 2, tiny_config({{0, 0}})),
               util::ContractViolation);  // duplicate
  EXPECT_THROW(Simulator(catalog, provider, 2, tiny_config({{0, 1, 2}})),
               util::ContractViolation);  // 2 is the origin, not a cache
}

TEST(Simulator, ReportTalliesConsistent) {
  const auto provider = tiny_provider();
  const auto catalog = tiny_catalog();
  workload::Trace trace;
  trace.duration_ms = 50'000.0;
  util::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    trace.requests.push_back({100.0 + i * 200.0,
                              static_cast<std::uint32_t>(rng.index(2)),
                              static_cast<cache::DocId>(rng.index(4))});
  }
  Simulator sim(catalog, provider, 2, tiny_config({{0, 1}}));
  const auto report = sim.run(trace);
  EXPECT_EQ(report.counts.total(), 200u);
  EXPECT_EQ(report.requests_processed, 200u);
  EXPECT_EQ(report.counts.origin_fetches, report.origin_fetches);
  EXPECT_GT(report.counts.local_hits + report.counts.group_hits, 0u);
  EXPECT_GT(report.avg_latency_ms, 0.0);
}

TEST(Simulator, TraceEventsConserveRequests) {
  // Every request fed to the simulator must produce exactly one `request`
  // and one `resolution` trace event: the trace file conserves requests
  // (resolution events == raw_counts.total()), so trace-driven analyses
  // can trust that nothing was dropped or double-counted.
  const auto provider = tiny_provider();
  const auto catalog = tiny_catalog();
  workload::Trace trace;
  trace.duration_ms = 50'000.0;
  util::Rng rng(9);
  for (int i = 0; i < 150; ++i) {
    trace.requests.push_back({100.0 + i * 300.0,
                              static_cast<std::uint32_t>(rng.index(2)),
                              static_cast<cache::DocId>(rng.index(4))});
  }
  trace.updates = {{20'000.0, 0}, {30'000.0, 1}};

  std::ostringstream out;
  SimulationReport report;
  util::set_trace_enabled(true);
  {
    obs::Tracer tracer(std::make_unique<obs::JsonlTraceSink>(out));
    obs::install_global_tracer(&tracer);
    // The simulator binds the ambient global tracer at construction.
    Simulator sim(catalog, provider, 2, tiny_config({{0, 1}}));
    report = sim.run(trace);
    obs::install_global_tracer(nullptr);
    tracer.flush();
  }
  util::set_trace_enabled(false);

  std::size_t requests = 0;
  std::size_t resolutions = 0;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    const auto event = obs::json_field(line, "event");
    ASSERT_TRUE(event.has_value());
    if (*event == "request") ++requests;
    if (*event == "resolution") ++resolutions;
  }
  EXPECT_EQ(requests, report.raw_counts.total());
  EXPECT_EQ(resolutions, report.raw_counts.total());
  EXPECT_EQ(report.raw_counts.total(), 150u);
}


// ----------------------------------------------------------------------
// ShardableEngine::apply_groups: the incremental cut-over must leave every
// directory exactly as a rebuild from scratch would — members, beacons,
// registration counts and every holder list in order (on_request's holder
// scan breaks RTT ties between holders by list position).
// ----------------------------------------------------------------------

/// The directories a rebuild from scratch gives the engine's current
/// groups: fresh directories, then every live cache's resident documents
/// registered in cache-index order.
std::vector<cache::GroupDirectory> rebuilt_directories(
    const ShardableEngine& engine) {
  std::vector<cache::GroupDirectory> dirs;
  for (const auto& g : engine.groups()) {
    dirs.emplace_back(g, engine.config().beacons_per_group);
  }
  for (std::size_t c = 0; c < engine.cache_count(); ++c) {
    const auto holder = static_cast<cache::CacheIndex>(c);
    if (engine.is_down(holder)) continue;
    auto& dir = dirs[engine.group_index_of(holder)];
    for (cache::DocId d : engine.edge_cache(holder).resident_docs()) {
      dir.add_holder(d, holder);
    }
  }
  return dirs;
}

::testing::AssertionResult same_directory(const cache::GroupDirectory& got,
                                          const cache::GroupDirectory& want,
                                          std::size_t docs) {
  if (got.members() != want.members()) {
    return ::testing::AssertionFailure() << "members differ";
  }
  if (got.beacon_count() != want.beacon_count()) {
    return ::testing::AssertionFailure()
           << "beacon_count " << got.beacon_count() << " vs "
           << want.beacon_count();
  }
  if (got.registration_count() != want.registration_count()) {
    return ::testing::AssertionFailure()
           << "registration_count " << got.registration_count() << " vs "
           << want.registration_count();
  }
  for (cache::DocId d = 0; d < docs; ++d) {
    if (got.holders(d) != want.holders(d)) {
      return ::testing::AssertionFailure() << "holders of doc " << d
                                           << " differ";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult directories_match_rebuild(
    const ShardableEngine& engine, std::size_t docs) {
  const auto want = rebuilt_directories(engine);
  for (std::size_t c = 0; c < engine.cache_count(); ++c) {
    const auto i = static_cast<cache::CacheIndex>(c);
    auto result = same_directory(
        engine.directory_of(i), want[engine.group_index_of(i)], docs);
    if (!result) return result << " (directory of cache " << c << ")";
  }
  return ::testing::AssertionSuccess();
}

/// The next partition: the engine's groups minus departed caches (groups
/// that empty are dropped, so later indices shift), rejoined caches placed
/// in a random group, then one seeded reshaping — a single-cache move, a
/// merge (fewer groups), a split (more groups), a renumbering with member
/// orders shuffled (new beacons), or a fresh random partition.
std::vector<std::vector<cache::CacheIndex>> next_partition(
    const ShardableEngine& engine, std::size_t step, util::Rng& rng) {
  std::vector<std::vector<cache::CacheIndex>> groups;
  std::vector<bool> placed(engine.cache_count(), false);
  for (const auto& g : engine.groups()) {
    std::vector<cache::CacheIndex> kept;
    for (cache::CacheIndex c : g) {
      if (engine.is_departed(c) || placed[c]) continue;
      placed[c] = true;
      kept.push_back(c);
    }
    if (!kept.empty()) groups.push_back(std::move(kept));
  }
  std::vector<cache::CacheIndex> unplaced;
  for (std::size_t c = 0; c < engine.cache_count(); ++c) {
    const auto i = static_cast<cache::CacheIndex>(c);
    if (!placed[c] && !engine.is_departed(i)) unplaced.push_back(i);
  }
  if (groups.empty()) {
    groups.push_back(std::move(unplaced));
    return groups;
  }
  for (cache::CacheIndex c : unplaced) {
    groups[rng.index(groups.size())].push_back(c);
  }

  switch (step % 5) {
    case 0: {  // one cache changes group; its group may empty
      const std::size_t from = rng.index(groups.size());
      const std::size_t to = rng.index(groups.size());
      if (from == to) break;
      auto& src = groups[from];
      const std::size_t k = rng.index(src.size());
      groups[to].push_back(src[k]);
      src.erase(src.begin() + static_cast<std::ptrdiff_t>(k));
      if (src.empty()) {
        groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(from));
      }
      break;
    }
    case 1: {  // merge: one group folds into another, later indices shift
      if (groups.size() < 2) break;
      const std::size_t from = rng.index(groups.size());
      std::size_t to = rng.index(groups.size() - 1);
      if (to >= from) ++to;
      groups[to].insert(groups[to].end(), groups[from].begin(),
                        groups[from].end());
      groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(from));
      break;
    }
    case 2: {  // split: half a group becomes a new group at a random index
      const std::size_t g = rng.index(groups.size());
      if (groups[g].size() < 2) break;
      const auto half = static_cast<std::ptrdiff_t>(groups[g].size() / 2);
      std::vector<cache::CacheIndex> split(groups[g].begin() + half,
                                           groups[g].end());
      groups[g].resize(static_cast<std::size_t>(half));
      const std::size_t at = rng.index(groups.size() + 1);
      groups.insert(groups.begin() + static_cast<std::ptrdiff_t>(at),
                    std::move(split));
      break;
    }
    case 3:  // renumber every group and reorder its members
      rng.shuffle(groups);
      for (auto& g : groups) rng.shuffle(g);
      break;
    default: {  // a fresh random partition
      std::vector<cache::CacheIndex> all;
      for (const auto& g : groups) all.insert(all.end(), g.begin(), g.end());
      rng.shuffle(all);
      const std::size_t k = 1 + rng.index(std::min<std::size_t>(all.size(), 9));
      groups.assign(k, {});
      for (std::size_t j = 0; j < all.size(); ++j) {
        groups[j % k].push_back(all[j]);
      }
      break;
    }
  }
  return groups;
}

struct RegroupWorld {
  bool integer_rtt = false;  ///< RTTs in {1..4} ms: holder ties everywhere
  ConsistencyMode consistency = ConsistencyMode::kPushInvalidation;
  std::size_t beacons = 3;
  std::uint64_t seed = 0;
};

/// Drives one engine through seeded requests, updates, failures, leaves
/// and rejoins, regrouping after every step and comparing each directory
/// with a rebuild from scratch. Returns the registrations that moved.
std::size_t churn_and_compare(const RegroupWorld& world) {
  constexpr std::size_t kCaches = 48;
  constexpr std::size_t kDocs = 80;
  constexpr std::size_t kSteps = 60;
  util::Rng rng(world.seed);
  net::DistanceMatrix m(kCaches + 1);
  for (std::size_t a = 0; a <= kCaches; ++a) {
    for (std::size_t b = a + 1; b <= kCaches; ++b) {
      m.set(a, b,
            world.integer_rtt ? static_cast<double>(rng.uniform_int(1, 4))
                              : rng.uniform(1.0, 100.0));
    }
  }
  const net::MatrixRttProvider provider(std::move(m));
  const auto catalog = tiny_catalog(kDocs);

  SimulationConfig config = tiny_config({});
  config.groups.resize(6);
  for (std::uint32_t c = 0; c < kCaches; ++c) config.groups[c % 6].push_back(c);
  config.cache_capacity_bytes = 10'000;  // ten documents per cache
  config.consistency = world.consistency;
  config.ttl_ms = 400.0;
  config.beacons_per_group = world.beacons;
  ShardableEngine engine(catalog, provider, kCaches, config);

  DiscardSink sink;
  SimTime now = 0.0;
  std::uint64_t index = 0;
  std::size_t moved = 0;
  for (std::size_t step = 0; step < kSteps; ++step) {
    for (int r = 0; r < 120; ++r) {
      now += 1.0;
      const workload::Request request{
          now, static_cast<std::uint32_t>(rng.index(kCaches)),
          static_cast<cache::DocId>(
              std::min(rng.index(kDocs), rng.index(kDocs)))};
      engine.on_complete(engine.on_request(index++, request, now, sink), sink);
    }
    if (rng.bernoulli(0.5)) {
      engine.on_update({now, static_cast<cache::DocId>(rng.index(kDocs))},
                       sink);
    }
    const auto c = static_cast<cache::CacheIndex>(rng.index(kCaches));
    if (step % 7 == 3) engine.on_failure(c, now, sink);
    if (step % 3 == 1) engine.on_leave(c, now, sink);
    if (step % 3 == 2) {
      for (std::size_t j = 0; j < kCaches; ++j) {
        const auto back = static_cast<cache::CacheIndex>(j);
        if (engine.is_departed(back) && rng.bernoulli(0.5)) {
          engine.on_join(back, now, sink, nullptr);
        }
      }
    }

    std::vector<std::size_t> before(kCaches);
    for (std::size_t j = 0; j < kCaches; ++j) {
      before[j] = engine.group_index_of(static_cast<cache::CacheIndex>(j));
    }
    engine.apply_groups(next_partition(engine, step, rng));
    for (std::size_t j = 0; j < kCaches; ++j) {
      const auto i = static_cast<cache::CacheIndex>(j);
      if (!engine.is_down(i) && engine.group_index_of(i) != before[j]) {
        moved += engine.edge_cache(i).resident_count();
      }
    }
    EXPECT_TRUE(directories_match_rebuild(engine, kDocs)) << "step " << step;
  }
  return moved;
}

TEST(ApplyGroups, EveryDirectoryEqualsARebuildFromScratch) {
  std::size_t moved = 0;
  std::uint64_t seed = 1;
  for (bool integer_rtt : {false, true}) {
    for (ConsistencyMode mode :
         {ConsistencyMode::kPushInvalidation, ConsistencyMode::kTtl}) {
      for (std::size_t beacons : {std::size_t{0}, std::size_t{3}}) {
        RegroupWorld world;
        world.integer_rtt = integer_rtt;
        world.consistency = mode;
        world.beacons = beacons;
        world.seed = seed++;
        SCOPED_TRACE(::testing::Message()
                     << "seed " << world.seed << " integer_rtt "
                     << integer_rtt << " ttl "
                     << (mode == ConsistencyMode::kTtl) << " beacons "
                     << beacons);
        moved += churn_and_compare(world);
      }
    }
  }
  EXPECT_GT(moved, 0u);  // registrations really moved between directories
}

TEST(ApplyGroups, RejectedPartitionLeavesEveryDirectoryAsItWas) {
  constexpr std::size_t kCaches = 12;
  constexpr std::size_t kDocs = 20;
  util::Rng rng(3);
  net::DistanceMatrix m(kCaches + 1);
  for (std::size_t a = 0; a <= kCaches; ++a) {
    for (std::size_t b = a + 1; b <= kCaches; ++b) {
      m.set(a, b, static_cast<double>(rng.uniform_int(1, 4)));
    }
  }
  const net::MatrixRttProvider provider(std::move(m));
  const auto catalog = tiny_catalog(kDocs);
  SimulationConfig config = tiny_config(
      {{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11}});
  config.cache_capacity_bytes = 8'000;
  ShardableEngine engine(catalog, provider, kCaches, config);
  DiscardSink sink;
  for (std::uint64_t r = 0; r < 400; ++r) {
    const double now = static_cast<double>(r);
    const workload::Request request{
        now, static_cast<std::uint32_t>(rng.index(kCaches)),
        static_cast<cache::DocId>(rng.index(kDocs))};
    engine.on_complete(engine.on_request(r, request, now, sink), sink);
  }
  engine.on_leave(11, 400.0, sink);

  const auto groups = engine.groups();
  std::vector<cache::GroupDirectory> before;
  std::vector<std::size_t> group_of;
  for (cache::CacheIndex c = 0; c < kCaches; ++c) {
    before.push_back(engine.directory_of(c));
    group_of.push_back(engine.group_index_of(c));
  }
  const std::vector<std::vector<std::vector<cache::CacheIndex>>> rejected = {
      {{0, 1}},                                               // misses caches
      {{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10}, {10}},           // duplicate
      {{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11}},             // departed 11
      {{0, 1, 2, 3, 4, 5}, {}, {6, 7, 8, 9, 10}},             // empty group
      {{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12}},               // out of range
      {},
  };
  for (const auto& partition : rejected) {
    EXPECT_THROW(engine.apply_groups(partition), util::ContractViolation);
    EXPECT_EQ(engine.groups(), groups);
    for (cache::CacheIndex c = 0; c < kCaches; ++c) {
      EXPECT_EQ(engine.group_index_of(c), group_of[c]);
      EXPECT_TRUE(same_directory(engine.directory_of(c), before[c], kDocs))
          << "cache " << c;
    }
  }
  EXPECT_GT(before[0].registration_count(), 0u);
}

}  // namespace
}  // namespace ecgf::sim
