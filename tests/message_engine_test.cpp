// Tests for the message-level protocol engine: hand-computed latency
// decompositions, queueing behaviour, and agreement with the analytic
// engine on aggregate statistics.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>

#include "core/experiment.h"
#include "net/distance_matrix.h"
#include "obs/trace.h"
#include "sim/control.h"
#include "sim/message_engine.h"
#include "sim/netmodel/link_model.h"
#include "util/flags.h"

namespace ecgf::sim {
namespace {

// Hosts: caches 0,1 + origin 2. 0↔1 = 10 ms, both ↔ origin = 100 ms.
net::MatrixRttProvider pair_provider() {
  net::DistanceMatrix m(3);
  m.set(0, 1, 10.0);
  m.set(0, 2, 100.0);
  m.set(1, 2, 100.0);
  return net::MatrixRttProvider(std::move(m));
}

cache::Catalog flat_catalog(std::size_t docs = 4) {
  std::vector<cache::DocumentInfo> infos(docs);
  for (auto& d : infos) d = {1000, 20.0, 0.0};
  return cache::Catalog(std::move(infos));
}

MessageEngineConfig tiny_config(std::vector<std::vector<std::uint32_t>> groups) {
  MessageEngineConfig config;
  config.base.groups = std::move(groups);
  config.base.cache_capacity_bytes = 100'000;
  config.base.policy = cache::PolicyKind::kLru;
  config.base.cost.bandwidth_bytes_per_ms = 1000.0;
  config.base.warmup_fraction = 0.0;
  config.cache_service_ms = 1.0;
  config.origin_service_ms = 2.0;
  config.origin_concurrency = 1;  // expose queueing in the burst test
  config.control_bytes = 100;  // 0.1 ms serialisation at 1000 B/ms
  return config;
}

TEST(MessageEngine, OriginFetchLatencyDecomposition) {
  const auto provider = pair_provider();
  const auto catalog = flat_catalog();
  workload::Trace trace;
  trace.duration_ms = 10'000.0;
  trace.requests = {{100.0, 0, 0}};

  // Cache 0 is a singleton group, so it is its own beacon (no lookup hop):
  //   service(1) + fetch travel (50 + 0.1) + origin service (2 + gen 20)
  //   + data travel (50 + 1) = 124.1 ms.
  const auto report = run_message_level(catalog, provider, 2,
                                        tiny_config({{0}, {1}}), trace);
  EXPECT_EQ(report.base.counts.origin_fetches, 1u);
  EXPECT_NEAR(report.base.avg_latency_ms, 124.1, 1e-9);
}

TEST(MessageEngine, LocalHitCostsOneService) {
  const auto provider = pair_provider();
  const auto catalog = flat_catalog();
  workload::Trace trace;
  trace.duration_ms = 10'000.0;
  trace.requests = {{100.0, 0, 0}, {5'000.0, 0, 0}};
  const auto report = run_message_level(catalog, provider, 2,
                                        tiny_config({{0}, {1}}), trace);
  EXPECT_EQ(report.base.counts.local_hits, 1u);
  // Second request: one service round = 1 ms.
  EXPECT_NEAR(report.base.per_cache_latency_ms[0], (124.1 + 1.0) / 2, 1e-9);
}

TEST(MessageEngine, GroupHitPathThroughBeaconAndHolder) {
  const auto provider = pair_provider();
  const auto catalog = flat_catalog();
  workload::Trace trace;
  trace.duration_ms = 20'000.0;
  // Cache 0 warms doc 0; cache 1 then requests it. Doc 0's beacon in the
  // group {0,1} is cache 0 (slot 0), the holder is also cache 0:
  //   service@1 (1) + lookup travel 1→0 (5 + 0.1) + service@0 (1)
  //   + (beacon == holder: no forward hop) + service@0? — the forward is
  //   to itself: control_travel = 0, but it is a separate service round
  //   (1) + data travel 0→1 (5 + 1) + final delivery event = 14.1 ms.
  trace.requests = {{100.0, 0, 0}, {10'000.0, 1, 0}};
  const auto report = run_message_level(catalog, provider, 2,
                                        tiny_config({{0, 1}}), trace);
  EXPECT_EQ(report.base.counts.group_hits, 1u);
  EXPECT_NEAR(report.base.per_cache_latency_ms[1], 14.1, 1e-9);
}

TEST(MessageEngine, OriginQueueingUnderBurst) {
  // 30 distinct-document requests land at once on a singleton cache: each
  // origin fetch serialises behind the previous (service 2 + generation
  // 20), so mean origin queue delay must be large.
  const auto provider = pair_provider();
  const auto catalog = flat_catalog(30);
  workload::Trace trace;
  trace.duration_ms = 60'000.0;
  for (std::uint32_t i = 0; i < 30; ++i) {
    trace.requests.push_back(
        {100.0 + static_cast<double>(i) * 0.001, 0, i});
  }
  const auto report = run_message_level(catalog, provider, 2,
                                        tiny_config({{0}, {1}}), trace);
  EXPECT_EQ(report.base.counts.origin_fetches, 30u);
  EXPECT_GT(report.mean_origin_queue_delay_ms, 50.0);
  EXPECT_GT(report.max_origin_queue_delay_ms,
            report.mean_origin_queue_delay_ms);
  // The analytic engine would report identical latency for each; here the
  // tail must stretch far beyond the head.
  EXPECT_GT(report.base.p99_latency_ms, report.base.p50_latency_ms * 1.5);
}

TEST(MessageEngine, InvalidationsStillPushed) {
  const auto provider = pair_provider();
  const auto catalog = flat_catalog();
  workload::Trace trace;
  trace.duration_ms = 20'000.0;
  trace.requests = {{100.0, 0, 0}, {10'000.0, 0, 0}};
  trace.updates = {{5'000.0, 0}};
  const auto report = run_message_level(catalog, provider, 2,
                                        tiny_config({{0, 1}}), trace);
  EXPECT_EQ(report.base.invalidations_pushed, 1u);
  EXPECT_EQ(report.base.counts.origin_fetches, 2u);
}

TEST(MessageEngine, RejectsUnsupportedConfigurations) {
  const auto provider = pair_provider();
  const auto catalog = flat_catalog();
  workload::Trace trace;
  trace.duration_ms = 1'000.0;

  // Every field the message level does not model must be rejected, not
  // silently ignored.
  const auto rejects = [&](const char* field,
                           const std::function<void(SimulationConfig&)>& set) {
    auto config = tiny_config({{0, 1}});
    set(config.base);
    EXPECT_THROW(run_message_level(catalog, provider, 2, config, trace),
                 util::ContractViolation)
        << field;
  };
  rejects("consistency",
          [](SimulationConfig& c) { c.consistency = ConsistencyMode::kTtl; });
  rejects("failures", [](SimulationConfig& c) { c.failures = {{0, 10.0}}; });
  rejects("remote_placement", [](SimulationConfig& c) {
    c.remote_placement = RemotePlacement::kAlways;
  });
  rejects("directory", [](SimulationConfig& c) {
    c.directory = DirectoryMode::kSummary;
  });
  rejects("membership_events", [](SimulationConfig& c) {
    c.membership_events = {{MembershipChange::Kind::kLeave, 0, 10.0}};
  });
  ControlHook hook;
  rejects("control_hook",
          [&](SimulationConfig& c) { c.control_hook = &hook; });
  rejects("control_interval_ms",
          [](SimulationConfig& c) { c.control_interval_ms = 100.0; });
  AccessLinkModel links(LinkModelConfig{}, 3);
  rejects("netmodel", [&](SimulationConfig& c) { c.netmodel = &links; });

  std::ostringstream trace_out;
  obs::Tracer tracer(std::make_unique<obs::JsonlTraceSink>(trace_out));
  util::set_trace_enabled(true);
  rejects("trace", [&](SimulationConfig& c) {
    c.trace = obs::TraceContext::root(&tracer, 1);
  });
  util::set_trace_enabled(false);
}

TEST(MessageEngine, EveryMessagePassesThroughTheExchangeSeam) {
  // A counting pass-through exchange must observe exactly messages_sent
  // deliveries with sane endpoints, and routing through it must not change
  // the simulation output at all (the sharded-driver substitution relies
  // on the seam being behaviour-neutral).
  class CountingExchange final : public MessageExchange {
   public:
    void deliver(net::HostId src, net::HostId dst, SimTime at,
                 EventQueue& queue, EventQueue::Action work) override {
      ++count;
      max_host = std::max({max_host, src, dst});
      queue.schedule(at, std::move(work));
    }
    std::uint64_t count = 0;
    net::HostId max_host = 0;
  };

  const auto provider = pair_provider();
  const auto catalog = flat_catalog();
  workload::Trace trace;
  trace.duration_ms = 20'000.0;
  trace.requests = {{100.0, 0, 0}, {10'000.0, 1, 0}, {15'000.0, 1, 1}};
  trace.updates = {{12'000.0, 0}};

  const auto baseline = run_message_level(catalog, provider, 2,
                                          tiny_config({{0, 1}}), trace);

  CountingExchange counting;
  auto config = tiny_config({{0, 1}});
  config.exchange = &counting;
  const auto routed = run_message_level(catalog, provider, 2, config, trace);

  EXPECT_EQ(counting.count, routed.messages_sent);
  EXPECT_EQ(counting.max_host, 2u);  // origin fetches reach the server id
  EXPECT_EQ(routed.messages_sent, baseline.messages_sent);
  EXPECT_EQ(routed.base.events_executed, baseline.base.events_executed);
  EXPECT_EQ(routed.base.avg_latency_ms, baseline.base.avg_latency_ms);
  EXPECT_EQ(routed.base.counts.local_hits, baseline.base.counts.local_hits);
  EXPECT_EQ(routed.base.counts.group_hits, baseline.base.counts.group_hits);
  EXPECT_EQ(routed.base.counts.origin_fetches,
            baseline.base.counts.origin_fetches);
}

TEST(MessageEngine, AgreesWithAnalyticEngineOnAggregates) {
  // Same testbed + partition through both engines: hit-rate breakdowns
  // should be close (engines differ in in-flight interleavings), and
  // latencies should be in the same regime.
  core::TestbedParams params;
  params.cache_count = 30;
  params.workload.duration_ms = 60'000.0;
  params.catalog.document_count = 500;
  const auto testbed = core::make_testbed(params, 123);
  util::Rng rng(124);
  const auto partition = core::random_partition(30, 5, rng);

  sim::SimulationConfig analytic_config;
  const auto analytic =
      core::simulate_partition(testbed, partition, analytic_config);

  MessageEngineConfig message_config;
  message_config.base = analytic_config;
  message_config.base.groups = partition;
  const auto message =
      run_message_level(testbed.catalog, testbed.network.rtt(),
                        testbed.network.server(), message_config,
                        testbed.trace);

  EXPECT_EQ(message.base.requests_processed, analytic.requests_processed);
  EXPECT_NEAR(message.base.counts.group_hit_rate(),
              analytic.counts.group_hit_rate(), 0.08);
  EXPECT_GT(message.base.avg_latency_ms, 0.5 * analytic.avg_latency_ms);
  EXPECT_LT(message.base.avg_latency_ms, 2.0 * analytic.avg_latency_ms);
  EXPECT_GT(message.messages_sent, message.base.requests_processed);
}

}  // namespace
}  // namespace ecgf::sim
