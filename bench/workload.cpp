// Streaming workload engine bench (docs/workloads.md).
//
// Four arms, in order:
//
//   1. Drain — a 100k-cache lean-profile SyntheticWorkload with every
//      nonstationary process on (diurnal modulation, popularity churn, a
//      regional flash crowd), drained through the pull interface at
//      ascending request counts (10^6 → 10^8; --smoke stops at 10^7). The
//      headline claim is FLAT peak RSS versus request count: the stream
//      holds O(cache state), never O(requests). Points run smallest-first
//      so the monotone process-wide peak-RSS counter can only fail the
//      gate if a later (bigger) drain actually allocates more.
//   2. Identity — the same synthetic workload (exact profile, small scale)
//      driven through sim::Simulator as a stream and as a materialised
//      trace, and through shard::ShardedSimulator: all three runs must
//      serialise to identical report JSONL.
//   3. Sim at scale — the sharded driver consuming a 100k-cache stream
//      end to end (block RTT provider, no matrix), the configuration a
//      materialised trace could not reach at 10^8 requests.
//   4. Drift — static versus ctl-maintained groupings under popularity
//      churn plus network drift (ablation_churn's heavy level, here with
//      the workload itself nonstationary): maintenance must keep average
//      miss latency below the frozen formation-time grouping.
//
// Writes BENCH_workload.json (schema ecgf-bench-workload/1); its shape
// checks gate on rss growth ≤ 1.25x across the drain points, the drain
// volume, both identity bits, and the drift arm's maintained < static.
// --smoke shrinks the sweep for CI; --json-out=FILE sets the output path.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ctl/maintenance.h"
#include "net/distance_matrix.h"
#include "net/drift.h"
#include "net/synthetic.h"
#include "obs/export.h"
#include "shard/sharded_sim.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/stream.h"

using namespace ecgf;

namespace {

constexpr std::uint64_t kSeed = 2006;
constexpr std::size_t kDrainCaches = 100'000;
constexpr double kDrainRatePerCacheS = 2.0;

/// The nonstationary drain workload: lean profile (O(1) state per cache),
/// diurnal modulation, popularity churn, and a flash crowd confined to 10%
/// of the caches. Duration is derived from the request target so every
/// point streams at the same request rate.
workload::WorkloadParams drain_params(std::size_t total_requests) {
  workload::WorkloadParams p;
  p.cache_count = kDrainCaches;
  p.requests_per_cache_per_s = kDrainRatePerCacheS;
  p.duration_ms = static_cast<double>(total_requests) /
                  (static_cast<double>(kDrainCaches) *
                   (kDrainRatePerCacheS / 1000.0));
  p.zipf_alpha = 0.9;
  p.similarity = 0.8;
  p.profile = workload::StreamProfile::kLean;
  p.diurnal.amplitude = 0.5;
  // Four whole periods per run: the sine integrates to zero, so diurnal
  // modulation reshapes arrivals without changing the expected volume.
  p.diurnal.period_ms = p.duration_ms / 4.0;
  p.churn.interval_ms = 1'000.0;
  p.churn.half_life_ms = 30'000.0;
  p.flash_crowd_enabled = true;
  p.flash_crowd.start_ms = 0.2 * p.duration_ms;
  p.flash_crowd.duration_ms = 0.2 * p.duration_ms;
  p.flash_crowd.extra_rate_per_cache_per_s = 2.0;
  p.flash_crowd.hot_docs = 32;
  p.flash_crowd.region_fraction = 0.1;
  return p;
}

/// Expected request volume for drain_params(target): the base Poisson
/// volume is `target` by construction (duration is derived from it and the
/// diurnal sine integrates to zero over whole periods); the regional flash
/// crowd adds extra_rate over its window for region_fraction of the caches.
double drain_expected(std::size_t target) {
  const workload::WorkloadParams p = drain_params(target);
  const double region_caches = std::max(
      1.0, std::round(p.flash_crowd.region_fraction *
                      static_cast<double>(p.cache_count)));
  const double extra = region_caches *
                       p.flash_crowd.extra_rate_per_cache_per_s *
                       (p.flash_crowd.duration_ms / 1000.0);
  return static_cast<double>(target) + extra;
}

cache::Catalog drain_catalog() {
  // update_rate 0: the drain measures the request stream alone (the update
  // log is O(documents x duration) and materialised by design).
  std::vector<cache::DocumentInfo> docs(4'096);
  for (auto& d : docs) d = {1'000, 20.0, 0.0};
  return cache::Catalog(std::move(docs));
}

struct DrainPoint {
  std::size_t target = 0;
  std::uint64_t requests = 0;
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t peak_rss = 0;
  std::uint64_t checksum = 0;  ///< keeps the loop honest under -O2
};

DrainPoint run_drain(std::size_t target) {
  DrainPoint point;
  point.target = target;
  const cache::Catalog catalog = drain_catalog();
  util::Rng rng(kSeed);
  workload::SyntheticWorkload source(drain_params(target), catalog, rng);
  auto stream = source.requests();

  const auto t0 = std::chrono::steady_clock::now();
  workload::Request r;
  std::uint64_t key = 0;
  while (stream->next(r, key)) {
    ++point.requests;
    point.checksum ^= key + r.doc + (point.requests << 17);
  }
  const auto t1 = std::chrono::steady_clock::now();
  point.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  point.events_per_sec =
      point.wall_ms > 0.0
          ? static_cast<double>(point.requests) / (point.wall_ms / 1e3)
          : 0.0;
  point.peak_rss = bench::peak_rss_bytes();
  return point;
}

// ---------------------------------------------------------------------
// Identity arm: one small nonstationary workload, three drivers.
// ---------------------------------------------------------------------

workload::WorkloadParams identity_params() {
  workload::WorkloadParams p;
  p.cache_count = 8;
  p.duration_ms = 60'000.0;
  p.requests_per_cache_per_s = 3.0;
  p.diurnal.amplitude = 0.5;
  p.diurnal.period_ms = 30'000.0;
  p.churn.interval_ms = 5'000.0;
  p.churn.half_life_ms = 20'000.0;
  p.flash_crowd_enabled = true;
  p.flash_crowd.start_ms = 20'000.0;
  p.flash_crowd.duration_ms = 10'000.0;
  p.flash_crowd.extra_rate_per_cache_per_s = 5.0;
  p.flash_crowd.hot_docs = 10;
  p.flash_crowd.region_fraction = 0.5;
  return p;
}

cache::Catalog identity_catalog() {
  std::vector<cache::DocumentInfo> docs(120);
  for (auto& d : docs) d = {2'048, 10.0, 0.01};
  return cache::Catalog(std::move(docs));
}

net::MatrixRttProvider identity_provider(std::size_t caches,
                                         net::HostId server) {
  net::DistanceMatrix m(caches + 1);
  for (std::size_t a = 0; a < caches; ++a) {
    for (std::size_t b = a + 1; b < caches; ++b) {
      m.set(a, b, (a / 4 == b / 4) ? 6.0 : 45.0);
    }
    m.set(a, server, 90.0);
  }
  return net::MatrixRttProvider(std::move(m));
}

sim::SimulationConfig identity_config(std::size_t caches) {
  sim::SimulationConfig config;
  config.groups.assign((caches + 3) / 4, {});
  for (std::uint32_t c = 0; c < caches; ++c) {
    config.groups[c / 4].push_back(c);
  }
  config.cache_capacity_bytes = 16'384;
  config.policy = cache::PolicyKind::kLru;
  config.warmup_fraction = 0.0;
  return config;
}

/// Report JSONL of one identity-arm run. shards == 0 → sequential;
/// as_trace → materialise first and use the Trace overload.
std::string run_identity(std::size_t shards, bool as_trace) {
  constexpr std::size_t kCaches = 8;
  constexpr net::HostId kServer = 8;
  const cache::Catalog catalog = identity_catalog();
  const auto provider = identity_provider(kCaches, kServer);

  util::Rng rng(kSeed + 1);
  workload::SyntheticWorkload source(identity_params(), catalog, rng);
  workload::Trace trace;
  if (as_trace) trace = workload::materialise(source);

  sim::SimulationReport report;
  if (shards == 0) {
    sim::Simulator sim(catalog, provider, kServer, identity_config(kCaches));
    report = as_trace ? sim.run(trace) : sim.run(source);
  } else {
    shard::ShardOptions options;
    options.shards = shards;
    shard::ShardedSimulator sim(catalog, provider, kServer,
                                identity_config(kCaches), options);
    report = as_trace ? sim.run(trace) : sim.run(source);
  }
  std::ostringstream out;
  obs::write_report_jsonl(out, report, "workload-identity");
  return out.str();
}

// ---------------------------------------------------------------------
// Sim-at-scale arm: the sharded driver fed directly from the stream.
// ---------------------------------------------------------------------

struct ScaleResult {
  std::size_t caches = 0;
  std::size_t shards = 0;
  std::uint64_t requests = 0;
  std::uint64_t events = 0;
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t peak_rss = 0;
};

ScaleResult run_sim_at_scale(std::size_t caches, std::size_t target) {
  ScaleResult result;
  result.caches = caches;
  result.shards = 4;
  const net::HostId server = static_cast<net::HostId>(caches);

  net::GroupBlockOptions block;
  block.clusters = std::max<std::size_t>(16, caches / 64);
  const net::GroupBlockRttProvider provider(caches, block);

  const cache::Catalog catalog = drain_catalog();
  workload::WorkloadParams params = drain_params(target);
  params.cache_count = caches;
  params.duration_ms = static_cast<double>(target) /
                       (static_cast<double>(caches) *
                        (kDrainRatePerCacheS / 1000.0));
  params.flash_crowd.start_ms = 0.2 * params.duration_ms;
  params.flash_crowd.duration_ms = 0.2 * params.duration_ms;
  util::Rng rng(kSeed + 2);
  workload::SyntheticWorkload source(params, catalog, rng);

  sim::SimulationConfig config;
  config.groups.assign(std::max<std::size_t>(16, caches / 64), {});
  for (std::uint32_t c = 0; c < caches; ++c) {
    config.groups[static_cast<std::size_t>(c) * config.groups.size() / caches]
        .push_back(c);
  }
  config.cache_capacity_bytes = 64'000;
  config.policy = cache::PolicyKind::kLru;
  config.warmup_fraction = 0.2;
  config.beacons_per_group = 3;

  shard::ShardOptions options;
  options.shards = result.shards;
  const auto t0 = std::chrono::steady_clock::now();
  shard::ShardedSimulator sim(catalog, provider, server, std::move(config),
                              options);
  const sim::SimulationReport report = sim.run(source);
  const auto t1 = std::chrono::steady_clock::now();
  result.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  result.requests = report.requests_processed;
  result.events = report.events_executed;
  result.events_per_sec =
      result.wall_ms > 0.0
          ? static_cast<double>(result.events) / (result.wall_ms / 1e3)
          : 0.0;
  result.peak_rss = bench::peak_rss_bytes();
  return result;
}

// ---------------------------------------------------------------------
// Drift arm: static vs maintained groups under popularity churn + drift.
// ---------------------------------------------------------------------

struct DriftResult {
  double static_miss_ms = 0.0;
  double maintained_miss_ms = 0.0;
};

DriftResult run_drift(bool smoke) {
  const std::size_t caches = smoke ? 48 : 120;
  const std::size_t groups = smoke ? 6 : 12;
  const double duration_ms = smoke ? 40'000.0 : 120'000.0;

  core::TestbedParams params = bench::paper_testbed_params(caches);
  params.catalog.document_count = smoke ? 600 : 2'000;
  params.workload.duration_ms = duration_ms;
  const core::Testbed testbed = core::make_testbed(params, kSeed);
  const net::HostId server = testbed.network.server();

  // The nonstationary trace: the testbed's base workload with popularity
  // churn on — the hot set rotates with a 0.25-duration half-life, so a
  // cache's working set keeps moving under both arms equally.
  workload::WorkloadParams wl = params.workload;
  wl.cache_count = caches;
  wl.churn.interval_ms = duration_ms / 24.0;
  wl.churn.half_life_ms = duration_ms / 4.0;
  util::Rng trace_rng(kSeed + 3);
  const workload::Trace trace =
      workload::generate_trace(wl, testbed.catalog, trace_rng);

  // Formation on the undrifted network.
  core::SchemeConfig scheme_config = bench::paper_scheme_config();
  scheme_config.num_landmarks = smoke ? 8 : 15;
  net::ProberOptions formation_probes;
  formation_probes.jitter_sigma = 0.0;
  core::GfCoordinator coordinator(testbed.network, formation_probes,
                                  kSeed + 1);
  const core::SlScheme scheme(scheme_config);
  const auto base = coordinator.run(scheme, groups);

  net::DistanceMatrix matrix(testbed.network.host_count());
  for (net::HostId a = 0; a < testbed.network.host_count(); ++a) {
    for (net::HostId b = a + 1; b < testbed.network.host_count(); ++b) {
      matrix.set(a, b, testbed.network.rtt_ms(a, b));
    }
  }
  net::DriftOptions drift;
  drift.drift_fraction = 0.5;
  drift.ramp_start_ms = 0.25 * duration_ms;
  drift.ramp_end_ms = 0.75 * duration_ms;

  DriftResult result;
  {
    util::Rng drift_rng(kSeed + 13);
    net::DriftingRttProvider provider(matrix, drift, drift_rng);
    sim::SimulationConfig config = bench::paper_sim_config();
    config.groups = base.partition();
    sim::Simulator sim(testbed.catalog, provider, server, std::move(config));
    provider.bind_clock(sim.clock_ptr());
    result.static_miss_ms = sim.run(trace).avg_miss_latency_ms;
  }
  {
    util::Rng drift_rng(kSeed + 13);
    net::DriftingRttProvider provider(matrix, drift, drift_rng);
    ctl::MaintenanceConfig mc = ctl::make_maintenance_config(base, caches);
    mc.policy.repair_threshold_ms = 10.0;
    mc.policy.reform_threshold_ms = 25.0;
    mc.budget.caches_per_tick = 8;
    mc.prober.probes_per_measurement = 1;
    mc.prober.jitter_sigma = 0.0;
    mc.kmeans.restarts = 2;
    mc.seed = kSeed + 29;
    ctl::MaintenanceSession session(provider, mc);
    sim::SimulationConfig config = bench::paper_sim_config();
    config.groups = base.partition();
    config.control_hook = &session;
    config.control_interval_ms = duration_ms / 24.0;
    sim::Simulator sim(testbed.catalog, provider, server, std::move(config));
    provider.bind_clock(sim.clock_ptr());
    result.maintained_miss_ms = sim.run(trace).avg_miss_latency_ms;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  obs::ObsSession obs_session(argc, argv);
  bool smoke = false;
  std::string json_out = "BENCH_workload.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    if (arg.rfind("--json-out=", 0) == 0) json_out = arg.substr(11);
  }

  std::cout << "Streaming workload engine bench ("
            << (smoke ? "smoke" : "full") << ", " << kDrainCaches
            << " caches, lean profile)\n";

  // ---- Arm 1: drain (ascending, so peak RSS comparisons are meaningful).
  const std::vector<std::size_t> points =
      smoke ? std::vector<std::size_t>{1'000'000, 10'000'000}
            : std::vector<std::size_t>{1'000'000, 10'000'000, 100'000'000};
  std::vector<DrainPoint> drain;
  for (std::size_t target : points) {
    DrainPoint p = run_drain(target);
    std::cout << "  drain " << target << ": " << p.requests << " requests, "
              << static_cast<std::uint64_t>(p.events_per_sec)
              << " req/s, peak RSS " << (p.peak_rss >> 20) << " MiB\n";
    drain.push_back(p);
  }
  const double rss_growth =
      drain.front().peak_rss > 0
          ? static_cast<double>(drain.back().peak_rss) /
                static_cast<double>(drain.front().peak_rss)
          : 0.0;

  // ---- Arm 2: identity.
  const std::string seq_stream = run_identity(0, false);
  const std::string seq_trace = run_identity(0, true);
  const std::string sharded_stream = run_identity(4, false);
  const bool stream_vs_trace = seq_stream == seq_trace;
  const bool sharded_vs_sequential = sharded_stream == seq_stream;

  // ---- Arm 3: sim at scale.
  const ScaleResult scale = smoke ? run_sim_at_scale(10'000, 100'000)
                                  : run_sim_at_scale(100'000, 1'000'000);
  std::cout << "  sim-at-scale: " << scale.caches << " caches, "
            << scale.requests << " requests, "
            << static_cast<std::uint64_t>(scale.events_per_sec)
            << " events/s, peak RSS " << (scale.peak_rss >> 20) << " MiB\n";

  // ---- Arm 4: drift.
  const DriftResult drift = run_drift(smoke);
  std::cout << "  drift: static miss "
            << util::format_fixed(drift.static_miss_ms, 1)
            << " ms vs maintained "
            << util::format_fixed(drift.maintained_miss_ms, 1) << " ms\n";

  bench::Report report("ecgf-bench-workload/1", smoke ? "smoke" : "full");
  report.set("drain_caches", kDrainCaches);
  report.set("profile", "lean");
  bench::Json drain_json = bench::Json::array();
  for (const DrainPoint& p : drain) {
    drain_json.push(bench::Json::object()
                        .set("target", p.target)
                        .set("requests", p.requests)
                        .set("wall_ms", p.wall_ms)
                        .set("events_per_sec", p.events_per_sec)
                        .set("peak_rss_bytes", p.peak_rss)
                        .set("checksum", p.checksum));
  }
  report.set("drain", drain_json);
  report.set("rss_growth", rss_growth);
  report.set("identity",
             bench::Json::object()
                 .set("stream_vs_trace", stream_vs_trace)
                 .set("sharded_vs_sequential", sharded_vs_sequential));
  report.set("sim_at_scale", bench::Json::object()
                                 .set("caches", scale.caches)
                                 .set("shards", scale.shards)
                                 .set("requests", scale.requests)
                                 .set("events", scale.events)
                                 .set("wall_ms", scale.wall_ms)
                                 .set("events_per_sec", scale.events_per_sec)
                                 .set("peak_rss_bytes", scale.peak_rss));
  const bool maintained_beats_static =
      drift.maintained_miss_ms < drift.static_miss_ms;
  report.set("drift",
             bench::Json::object()
                 .set("static_miss_ms", drift.static_miss_ms)
                 .set("maintained_miss_ms", drift.maintained_miss_ms)
                 .set("maintained_beats_static", maintained_beats_static));

  {
    std::ostringstream claim;
    claim << "peak RSS flat across drain points (growth " << rss_growth
          << "x, limit 1.25x over a " << (points.back() / points.front())
          << "x request range)";
    report.check(claim.str(), drain.size() >= 2 && rss_growth > 0.0 &&
                                  rss_growth <= 1.25);
  }
  {
    double worst_rel = 0.0;
    for (const DrainPoint& p : drain) {
      const double expected = drain_expected(p.target);
      const double rel =
          std::abs(static_cast<double>(p.requests) - expected) / expected;
      worst_rel = std::max(worst_rel, rel);
    }
    std::ostringstream claim;
    claim << "drain volume within 5% of its expected Poisson volume "
          << "(worst deviation " << util::format_fixed(100.0 * worst_rel, 2)
          << "%)";
    report.check(claim.str(), worst_rel <= 0.05);
  }
  report.check(
      "streamed sequential run bit-identical to materialised-trace run",
      stream_vs_trace);
  report.check(
      "sharded streamed run bit-identical to sequential streamed run",
      sharded_vs_sequential);
  report.check(
      "maintained grouping beats static under popularity churn + drift",
      maintained_beats_static);
  return report.finish(json_out);
}
