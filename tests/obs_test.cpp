// Tests for the observability layer (src/obs): event serialization and the
// JSONL field scanner, flag gating, the deterministic per-thread buffer
// merge, profiling registry accumulation, the metrics exporters, and
// byte-identical sweep traces across thread counts.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/sweep.h"
#include "obs/export.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "util/flags.h"
#include "util/thread_pool.h"

namespace ecgf::obs {
namespace {

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Enables tracing for one test, restores the disabled default after.
class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override { util::set_trace_enabled(true); }
  void TearDown() override { util::set_trace_enabled(false); }
};

// ---------------------------------------------------------------------
// Serialization and the field scanner.

TEST(TraceSerialization, ResolutionRoundTripsThroughJsonl) {
  TraceEvent e = TraceEvent::resolution(1234.5, 7, 42, /*how=*/1, 3.25);
  e.stream = 3;
  e.seq = 9;
  const std::string line = serialize_event(e);
  EXPECT_EQ(json_field(line, "t"), "1234.5");
  EXPECT_EQ(json_field(line, "stream"), "3");
  EXPECT_EQ(json_field(line, "seq"), "9");
  EXPECT_EQ(json_field(line, "event"), "resolution");
  EXPECT_EQ(json_field(line, "cache"), "7");
  EXPECT_EQ(json_field(line, "doc"), "42");
  EXPECT_EQ(json_field(line, "how"), "group");
  EXPECT_EQ(json_field(line, "latency_ms"), "3.25");
  EXPECT_FALSE(json_field(line, "absent").has_value());
}

TEST(TraceSerialization, EveryFactoryStampsItsEventName) {
  const std::vector<std::pair<TraceEvent, std::string>> cases = {
      {TraceEvent::sweep_point(0, 4), "sweep_point"},
      {TraceEvent::landmark_selected(0, 3), "landmark_selected"},
      {TraceEvent::probe(1, 2, 10.0, 3), "probe"},
      {TraceEvent::center_chosen(0, 5, true, 1.0), "center_chosen"},
      {TraceEvent::guard_abandoned(1, 32, 9), "guard_abandoned"},
      {TraceEvent::kmeans_restart(0, 12, true, 88.5), "kmeans_restart"},
      {TraceEvent::kmeans_iteration(0, 3, 17), "kmeans_iteration"},
      {TraceEvent::request(1.0, 0, 5), "request"},
      {TraceEvent::dir_lookup(1.0, 0, 1, 5, 2), "dir_lookup"},
      {TraceEvent::resolution(1.0, 0, 5, 0, 1.0), "resolution"},
      {TraceEvent::invalidation(1.0, 5, 2), "invalidation"},
      {TraceEvent::cache_failure(1.0, 0), "cache_failure"},
      {TraceEvent::cache_leave(1.0, 0), "cache_leave"},
      {TraceEvent::cache_join(1.0, 0, 2), "cache_join"},
      {TraceEvent::drift_score(1.0, 3, 4.5, 9.0, 8), "drift_score"},
      {TraceEvent::reformation(1.0, 3, 2, 4.5, 12), "reformation"},
  };
  for (const auto& [event, name] : cases) {
    EXPECT_EQ(json_field(serialize_event(event), "event"), name);
    EXPECT_EQ(event_name(event.kind), name);
  }
}

TEST(TraceSerialization, ControlPlaneEventsRoundTripThroughJsonl) {
  const std::string leave = serialize_event(TraceEvent::cache_leave(10.0, 4));
  EXPECT_EQ(json_field(leave, "event"), "cache_leave");
  EXPECT_EQ(json_field(leave, "cache"), "4");
  const std::string join = serialize_event(TraceEvent::cache_join(20.0, 4, 2));
  EXPECT_EQ(json_field(join, "cache"), "4");
  EXPECT_EQ(json_field(join, "group"), "2");
  const std::string drift =
      serialize_event(TraceEvent::drift_score(30.0, 3, 4.25, 9.5, 8));
  EXPECT_EQ(json_field(drift, "tick"), "3");
  EXPECT_EQ(json_field(drift, "global_ms"), "4.25");
  EXPECT_EQ(json_field(drift, "worst_group_ms"), "9.5");
  EXPECT_EQ(json_field(drift, "refreshed"), "8");
  const std::string reform =
      serialize_event(TraceEvent::reformation(40.0, 5, 1, 2.5, 3));
  EXPECT_EQ(json_field(reform, "action"), "repair");
  EXPECT_EQ(json_field(reform, "drift_ms"), "2.5");
  EXPECT_EQ(json_field(reform, "moves"), "3");
}

TEST(TraceSerialization, IntegralNumbersPrintWithoutDecimalPoint) {
  const TraceEvent e = TraceEvent::probe(12, 345, 10.0, 3);
  const std::string line = serialize_event(e);
  EXPECT_EQ(json_field(line, "src"), "12");
  EXPECT_EQ(json_field(line, "dst"), "345");
  EXPECT_EQ(json_field(line, "rtt_ms"), "10");
  EXPECT_EQ(json_field(line, "probes"), "3");
}

// ---------------------------------------------------------------------
// Sink round-trip and gating.

TEST_F(ObsTraceTest, JsonlSinkWritesOneOrderedLinePerEvent) {
  std::ostringstream out;
  Tracer tracer(std::make_unique<JsonlTraceSink>(out));
  TraceContext ctx = TraceContext::root(&tracer, 1);
  EXPECT_TRUE(ctx.active());
  ctx.emit(TraceEvent::request(10.0, 0, 5));
  ctx.emit(TraceEvent::resolution(11.0, 0, 5, /*how=*/2, 122.0));
  tracer.flush();

  const auto lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(json_field(lines[0], "event"), "request");
  EXPECT_EQ(json_field(lines[0], "seq"), "0");
  EXPECT_EQ(json_field(lines[1], "event"), "resolution");
  EXPECT_EQ(json_field(lines[1], "seq"), "1");
  EXPECT_EQ(json_field(lines[1], "stream"), "1");
  EXPECT_EQ(tracer.recorded(), 2u);
}

TEST(TraceGating, DisabledTracerRecordsNothing) {
  util::set_trace_enabled(false);
  std::ostringstream out;
  Tracer tracer(std::make_unique<JsonlTraceSink>(out));
  TraceContext ctx = TraceContext::root(&tracer, 1);
  EXPECT_FALSE(ctx.active());
  ctx.emit(TraceEvent::request(1.0, 0, 0));
  ctx.emit(TraceEvent::cache_failure(2.0, 0));
  tracer.flush();
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_TRUE(out.str().empty());
}

TEST(TraceGating, InactiveContextEmitIsANoOp) {
  TraceContext none;  // no tracer attached
  EXPECT_FALSE(none.active());
  none.emit(TraceEvent::request(1.0, 0, 0));  // must not crash
}

TEST(GlobalTracerTest, InstallAndUninstall) {
  ASSERT_EQ(global_tracer(), nullptr);
  Tracer tracer(std::make_unique<NullTraceSink>());
  install_global_tracer(&tracer);
  EXPECT_EQ(global_tracer(), &tracer);
  install_global_tracer(nullptr);
  EXPECT_EQ(global_tracer(), nullptr);
}

// ---------------------------------------------------------------------
// Stream derivation.

TEST(TraceContextTest, ChildStreamsAreDeterministic) {
  TraceContext a = TraceContext::root(nullptr, 5);
  TraceContext b = TraceContext::root(nullptr, 5);
  for (int i = 0; i < 4; ++i) {
    TraceContext ca = a.child();
    TraceContext cb = b.child();
    // Same parent stream + same child ordinal → same derived stream,
    // regardless of which thread later uses the child.
    EXPECT_EQ(ca.stream(), cb.stream());
    // Derived streams are tagged with the high bit so they can never
    // collide with the orchestrator's small root stream ids.
    EXPECT_NE(ca.stream() & 0x8000000000000000ULL, 0u);
    EXPECT_NE(ca.stream(), a.stream());
  }
  // Successive children of one parent get distinct streams.
  TraceContext p = TraceContext::root(nullptr, 7);
  EXPECT_NE(p.child().stream(), p.child().stream());
}

// ---------------------------------------------------------------------
// Per-thread buffer merge determinism.

TEST_F(ObsTraceTest, MergeIsByteIdenticalAcrossThreadCounts) {
  constexpr std::size_t kItems = 48;
  const auto run_with_threads = [](std::size_t threads) {
    std::ostringstream out;
    {
      Tracer tracer(std::make_unique<JsonlTraceSink>(out));
      // Contexts derived serially, one logical stream per work item —
      // the pattern SweepRunner and kmeans use before fanning out.
      std::vector<TraceContext> items;
      items.reserve(kItems);
      for (std::size_t i = 0; i < kItems; ++i) {
        items.push_back(TraceContext::root(&tracer, i + 1));
      }
      util::ThreadPool pool(threads);
      pool.parallel_for(kItems, [&](std::size_t i) {
        for (std::size_t j = 0; j <= i % 5; ++j) {
          items[i].emit(TraceEvent::probe(i, j, 0.5 * static_cast<double>(j),
                                          3));
        }
        items[i].emit(TraceEvent::kmeans_restart(i, i % 7, true, 1.25));
      });
      tracer.flush();
    }
    return out.str();
  };

  const std::string serial = run_with_threads(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(run_with_threads(2), serial);
  EXPECT_EQ(run_with_threads(8), serial);
}

TEST_F(ObsTraceTest, SweepTraceIsByteIdenticalAcrossThreadCounts) {
  core::TestbedParams params;
  params.cache_count = 24;
  params.catalog.document_count = 200;
  params.workload.duration_ms = 5'000.0;

  core::SchemeConfig config;
  config.num_landmarks = 6;
  const auto sl = std::make_shared<const core::SlScheme>(config);
  std::vector<core::SweepPoint> points;
  for (std::size_t k : {2, 3}) {
    core::SweepPoint p;
    p.testbed = params;
    p.testbed_seed = 91;
    p.coordinator_seed = 92;
    p.scheme = sl;
    p.group_count = k;
    points.push_back(std::move(p));
  }

  const auto run_with_threads = [&](std::size_t threads) {
    std::ostringstream out;
    {
      Tracer tracer(std::make_unique<JsonlTraceSink>(out));
      util::ThreadPool pool(threads);
      core::SweepRunner runner(&pool, &tracer);
      runner.run(points);
      tracer.flush();
    }
    return out.str();
  };

  const std::string serial = run_with_threads(1);
  ASSERT_FALSE(serial.empty());
  EXPECT_NE(serial.find("\"event\":\"sweep_point\""), std::string::npos);
  EXPECT_NE(serial.find("\"event\":\"landmark_selected\""), std::string::npos);
  EXPECT_NE(serial.find("\"event\":\"resolution\""), std::string::npos);
  EXPECT_EQ(run_with_threads(2), serial);
  EXPECT_EQ(run_with_threads(8), serial);
}

// ---------------------------------------------------------------------
// Profiling registry.

TEST(Profiler, RegistryAccumulatesPerName) {
  ProfileRegistry& reg = ProfileRegistry::global();
  reg.reset();
  reg.add("phase.x", 2.0);
  reg.add("phase.x", 4.0);
  reg.add("phase.y", 1.0);

  const auto snapshot = reg.snapshot();
  ASSERT_EQ(snapshot.size(), 2u);  // name-sorted: phase.x, phase.y
  EXPECT_EQ(snapshot[0].first, "phase.x");
  EXPECT_EQ(snapshot[0].second.calls, 2u);
  EXPECT_DOUBLE_EQ(snapshot[0].second.total_ms, 6.0);
  EXPECT_DOUBLE_EQ(snapshot[0].second.min_ms, 2.0);
  EXPECT_DOUBLE_EQ(snapshot[0].second.max_ms, 4.0);
  EXPECT_DOUBLE_EQ(snapshot[0].second.mean_ms(), 3.0);
  EXPECT_EQ(snapshot[1].first, "phase.y");
  EXPECT_EQ(snapshot[1].second.calls, 1u);

  std::ostringstream table;
  reg.print_table(table);
  EXPECT_NE(table.str().find("phase.x"), std::string::npos);

  std::ostringstream json;
  reg.write_json(json);
  EXPECT_NE(json.str().find("\"name\":\"phase.x\""), std::string::npos);
  EXPECT_NE(json.str().find("\"calls\":2"), std::string::npos);

  reg.reset();
  EXPECT_TRUE(reg.snapshot().empty());
}

TEST(Profiler, ScopeRespectsEnableFlag) {
  ProfileRegistry& reg = ProfileRegistry::global();
  util::set_prof_enabled(false);
  reg.reset();
  { ECGF_PROF_SCOPE("off.scope"); }
  EXPECT_TRUE(reg.snapshot().empty());

  util::set_prof_enabled(true);
  { ECGF_PROF_SCOPE("on.scope"); }
  util::set_prof_enabled(false);
  const auto snapshot = reg.snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].first, "on.scope");
  EXPECT_EQ(snapshot[0].second.calls, 1u);
  EXPECT_GE(snapshot[0].second.total_ms, 0.0);
  reg.reset();
}

// ---------------------------------------------------------------------
// Metrics exporters.

sim::SimulationReport small_report() {
  sim::SimulationReport report;
  report.avg_latency_ms = 10.5;
  report.p50_latency_ms = 8.0;
  report.p95_latency_ms = 30.0;
  report.p99_latency_ms = 45.0;
  report.per_cache_latency_ms = {1.5, 2.5, 100.0};
  report.per_cache_counts = {{4, 1, 1}, {2, 2, 2}, {0, 0, 3}};
  report.counts = {6, 3, 6};
  report.raw_counts = {7, 3, 8};
  report.origin_fetches = 8;
  report.requests_processed = 18;
  report.events_executed = 40;
  return report;
}

TEST(Exporters, ReportJsonlCarriesLabelAndCounts) {
  std::ostringstream out;
  write_report_jsonl(out, small_report(), "sdsl");
  const auto lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), 1u);
  const std::string& line = lines[0];
  EXPECT_EQ(json_field(line, "label"), "sdsl");
  EXPECT_EQ(json_field(line, "avg_latency_ms"), "10.5");
  EXPECT_EQ(json_field(line, "local_hits"), "6");
  EXPECT_EQ(json_field(line, "group_hits"), "3");
  EXPECT_EQ(json_field(line, "origin_fetches"), "6");
  EXPECT_EQ(json_field(line, "raw_local_hits"), "7");
  EXPECT_EQ(json_field(line, "requests_processed"), "18");
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
}

TEST(Exporters, ReportJsonlOmitsEmptyLabel) {
  std::ostringstream out;
  write_report_jsonl(out, small_report());
  EXPECT_FALSE(json_field(out.str(), "label").has_value());
}

TEST(Exporters, CacheCsvHasOneRowPerCache) {
  std::ostringstream out;
  write_cache_csv(out, small_report());
  const auto lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), 4u);  // header + 3 caches
  EXPECT_EQ(lines[0],
            "cache,mean_latency_ms,local_hits,group_hits,origin_fetches");
  EXPECT_EQ(lines[1], "0,1.5,4,1,1");
  EXPECT_EQ(lines[3], "2,100,0,0,3");
}

TEST(Exporters, GroupCsvAggregatesMemberCounts) {
  std::ostringstream out;
  const std::vector<std::vector<std::uint32_t>> groups = {{0, 1}, {2}};
  write_group_csv(out, small_report(), groups);
  const auto lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), 3u);  // header + 2 groups
  EXPECT_EQ(lines[0],
            "group,size,local_hits,group_hits,origin_fetches,group_hit_rate,"
            "mean_latency_ms");
  // Group 0 = caches {0,1}: 4+2 local, 1+2 group, 1+2 origin; hit rate
  // (6+3)/12; member-mean latency (1.5+2.5)/2.
  EXPECT_EQ(lines[1], "0,2,6,3,3,0.75,2");
  EXPECT_EQ(lines[2], "1,1,0,0,3,0,100");
}

}  // namespace
}  // namespace ecgf::obs
