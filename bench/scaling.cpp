// Scaling sweep for the sharded conservative-PDES driver (src/shard):
// N ∈ {256, 4k, 32k, 100k} caches × shards ∈ {1, 4, 16}, against the
// sequential sim::Simulator baseline at each N. That baseline is the same
// driver loop with one shard and one thread, so the 1-shard speedup reads
// about 1.0 by construction.
//
// Memory policy per network size (the point of the sweep):
//   * N = 256  — exact double packed matrix from the GT-ITM topology
//                (core::host_rtt_distance_matrix; the reference path).
//   * N = 4k   — float32 packed matrix (core::host_rtt_distance_matrix_f32,
//                half the bytes; RTT ms lose nothing at 7 digits).
//   * N ≥ 32k  — NO matrix at all: net::GroupBlockRttProvider computes
//                every RTT on demand from O(1) state. A packed triangle at
//                100k hosts would be ~20 GB even in float32.
//
// Writes BENCH_scale.json (schema ecgf-bench-scale/2) with events/sec,
// speedup-vs-sequential, the adaptive epoch trajectory (initial → final
// width, cuts, dispatched windows, skipped merges), executing thread
// count, and peak RSS per (N, shards) — plus host_cores, because speedup
// is only meaningful relative to the physical parallelism available (CI
// containers are often single-core; the numbers stay honest rather than
// synthetic).
//
// --smoke shrinks the sweep for CI; --json-out=FILE sets the output path.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/network_builder.h"
#include "net/distance_matrix.h"
#include "net/synthetic.h"
#include "obs/export.h"
#include "shard/sharded_sim.h"
#include "sim/simulator.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "workload/trace.h"

namespace ecgf {
namespace {

std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

constexpr std::size_t kDocuments = 4096;
constexpr std::size_t kHotDocuments = 64;

/// Deterministic synthetic workload: `total` evenly-spaced requests,
/// hashed over the caches, with half the traffic concentrated on a hot
/// document head (so cooperative hits actually occur), plus a handful of
/// origin updates to exercise kUpdate barriers.
workload::Trace make_trace(std::size_t caches, double duration_ms,
                           std::size_t total) {
  workload::Trace trace;
  trace.duration_ms = duration_ms;
  trace.requests.reserve(total);
  const double step = duration_ms / static_cast<double>(total + 1);
  for (std::size_t k = 0; k < total; ++k) {
    const std::uint64_t h = mix64(0xBE5Cull ^ k);
    const std::uint32_t cache = static_cast<std::uint32_t>(h % caches);
    const std::uint64_t hd = mix64(h);
    const std::uint32_t doc =
        (hd & 1) ? static_cast<std::uint32_t>((hd >> 1) % kHotDocuments)
                 : static_cast<std::uint32_t>((hd >> 1) % kDocuments);
    trace.requests.push_back(
        {step * static_cast<double>(k + 1), cache, doc});
  }
  for (std::size_t u = 0; u < 16; ++u) {
    trace.updates.push_back(
        {duration_ms * (static_cast<double>(u) + 0.5) / 16.0,
         static_cast<std::uint32_t>(mix64(u) % kHotDocuments)});
  }
  return trace;
}

cache::Catalog make_catalog() {
  std::vector<cache::DocumentInfo> docs(kDocuments);
  for (auto& d : docs) d = {1'000, 20.0, 0.0};
  return cache::Catalog(std::move(docs));
}

/// Contiguous group blocks of ~64 caches (at least 16 groups so a
/// 16-shard plan always has work to spread).
std::vector<std::vector<cache::CacheIndex>> block_groups(std::size_t caches) {
  const std::size_t count =
      std::max<std::size_t>(16, caches / 64);
  std::vector<std::vector<cache::CacheIndex>> groups(
      std::min(count, caches));
  for (std::uint32_t c = 0; c < caches; ++c) {
    groups[static_cast<std::size_t>(c) * groups.size() / caches].push_back(c);
  }
  return groups;
}

sim::SimulationConfig make_config(std::size_t caches) {
  sim::SimulationConfig config;
  config.groups = block_groups(caches);
  config.cache_capacity_bytes = 64'000;  // 64 hot docs fit
  config.policy = cache::PolicyKind::kLru;
  config.beacons_per_group = 3;
  config.warmup_fraction = 0.2;
  return config;
}

struct Entry {
  std::size_t n = 0;
  std::string provider;
  std::size_t shards = 0;  ///< 0 = sequential baseline
  std::size_t threads = 1;
  std::uint64_t events = 0;
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  double speedup = 1.0;
  double epoch_initial_ms = 0.0;  ///< derived width before adaptation
  double epoch_final_ms = 0.0;    ///< width in force at the last cut
  std::uint64_t cuts = 0;
  std::uint64_t windows = 0;         ///< shard windows dispatched
  std::uint64_t merges_skipped = 0;  ///< cuts with zero buffered effects
  std::uint64_t peak_rss = 0;
  std::string report_jsonl;
};

/// One timed run. shards == 0 → sequential driver.
Entry run_one(std::size_t n, const net::RttProvider& rtt,
              const std::string& provider, std::size_t shards,
              const workload::Trace& trace, const cache::Catalog& catalog) {
  Entry e;
  e.n = n;
  e.provider = provider;
  e.shards = shards;
  const net::HostId server = static_cast<net::HostId>(n);
  const auto t0 = std::chrono::steady_clock::now();
  sim::SimulationReport report;
  if (shards == 0) {
    sim::Simulator sim(catalog, rtt, server, make_config(n));
    report = sim.run(trace);
  } else {
    shard::ShardOptions options;
    options.shards = shards;
    shard::ShardedSimulator sim(catalog, rtt, server, make_config(n),
                                options);
    report = sim.run(trace);
    e.epoch_initial_ms = sim.epoch_initial_ms();
    e.epoch_final_ms = sim.epoch_ms();
    e.cuts = sim.cuts_executed();
    e.windows = sim.windows_dispatched();
    e.merges_skipped = sim.merges_skipped();
    e.threads = sim.execution_threads();  // what the pool actually runs
  }
  const auto t1 = std::chrono::steady_clock::now();
  e.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  e.events = report.events_executed;
  e.events_per_sec =
      e.wall_ms > 0.0 ? static_cast<double>(e.events) / (e.wall_ms / 1e3)
                      : 0.0;
  e.peak_rss = bench::peak_rss_bytes();
  std::ostringstream report_out;
  obs::write_report_jsonl(report_out, report);
  e.report_jsonl = report_out.str();
  return e;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace
}  // namespace ecgf

int main(int argc, char** argv) {
  using namespace ecgf;
  obs::ObsSession obs_session(argc, argv);
  bool smoke = false;
  std::string json_out = "BENCH_scale.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    if (arg.rfind("--json-out=", 0) == 0) json_out = arg.substr(11);
  }

  const unsigned host_cores = std::max(1u, std::thread::hardware_concurrency());
  const std::vector<std::size_t> shard_counts =
      smoke ? std::vector<std::size_t>{1, 4}
            : std::vector<std::size_t>{1, 4, 16};

  struct Case {
    std::size_t n;
    std::size_t requests;
    double duration_ms;
    bool topology;  ///< build a real GT-ITM matrix (f64 <4k, f32 ≥4k)
  };
  const std::vector<Case> cases =
      smoke ? std::vector<Case>{{64, 4'000, 4'000.0, false},
                                {256, 8'000, 8'000.0, false}}
            : std::vector<Case>{{256, 30'000, 60'000.0, true},
                                {4'096, 80'000, 20'000.0, true},
                                {32'768, 80'000, 10'000.0, false},
                                {100'000, 100'000, 10'000.0, false}};

  std::cout << "Sharded-PDES scaling sweep ("
            << (smoke ? "smoke" : "full") << ", host cores: " << host_cores
            << ", ECGF_THREADS: " << util::configured_threads() << ")\n";

  const cache::Catalog catalog = make_catalog();
  std::vector<Entry> entries;
  bool identical = true;
  bool threads_consistent = true;
  for (const Case& c : cases) {
    // Pick the RTT provider per the memory policy above. `network` (when
    // built) owns the f64 matrix; `owned_rtt` owns the other providers.
    std::unique_ptr<core::EdgeNetwork> network;
    std::unique_ptr<net::RttProvider> owned_rtt;
    const net::RttProvider* rtt = nullptr;
    std::string provider;
    if (c.topology) {
      core::EdgeNetworkParams net_params;
      net_params.cache_count = c.n;
      net_params.topo = core::scaled_topology_for(c.n);
      network = std::make_unique<core::EdgeNetwork>(
          core::build_edge_network(net_params, /*seed=*/2006));
      if (c.n >= 4'096) {
        owned_rtt = std::make_unique<net::MatrixRttProviderF32>(
            core::host_rtt_distance_matrix_f32(network->topology().graph,
                                               network->placement()));
        network.reset();  // drop the builder's f64 matrix; f32 is the point
        rtt = owned_rtt.get();
        provider = "matrix-f32";
      } else {
        rtt = &network->rtt();
        provider = "matrix-f64";
      }
    } else {
      net::GroupBlockOptions options;
      options.clusters = std::max<std::size_t>(16, c.n / 64);
      owned_rtt = std::make_unique<net::GroupBlockRttProvider>(c.n, options);
      rtt = owned_rtt.get();
      provider = "block-ondemand";
    }

    const workload::Trace trace = make_trace(c.n, c.duration_ms, c.requests);
    std::cout << "N=" << c.n << " (" << provider << ", "
              << trace.requests.size() << " requests)\n";

    const Entry sequential =
        run_one(c.n, *rtt, provider, 0, trace, catalog);
    entries.push_back(sequential);
    std::cout << "  sequential: " << sequential.events << " events, "
              << static_cast<std::uint64_t>(sequential.events_per_sec)
              << " events/s\n";
    for (std::size_t shards : shard_counts) {
      Entry e = run_one(c.n, *rtt, provider, shards, trace, catalog);
      e.speedup = sequential.events_per_sec > 0.0
                      ? e.events_per_sec / sequential.events_per_sec
                      : 0.0;
      identical &= e.report_jsonl == sequential.report_jsonl;
      threads_consistent &=
          e.threads == std::min(shards, util::configured_threads());
      entries.push_back(e);
      std::cout << "  shards=" << shards << " (threads=" << e.threads
                << "): " << static_cast<std::uint64_t>(e.events_per_sec)
                << " events/s, speedup " << e.speedup << ", epoch "
                << e.epoch_initial_ms << "→" << e.epoch_final_ms << " ms, "
                << e.cuts << " cuts (" << e.merges_skipped << " empty), "
                << e.windows << " windows\n";
    }
  }

  bench::shape_check(
      "sharded runs are bit-identical to sequential at every (N, shards)",
      identical);
  bench::shape_check(
      "every sharded entry ran on min(shards, configured_threads()) threads",
      threads_consistent);
  double speedup_32k_16 = 0.0;
  std::uint64_t cuts_256_16 = 0;
  for (const Entry& e : entries) {
    if (e.n == 32'768 && e.shards == 16) speedup_32k_16 = e.speedup;
    if (e.n == 256 && e.shards == 16) cuts_256_16 = e.cuts;
  }
  if (!smoke) {
    // The regression that motivated the adaptive epoch: the 256-cache
    // topology derives a ~1.7 ms lookahead, which once meant 30k+ cuts
    // over the 60 s horizon. Deterministic, so a hard gate.
    std::ostringstream cuts_claim;
    cuts_claim << "cuts at N=256, 16 shards: " << cuts_256_16
               << " (adaptive epoch keeps it under 1000)";
    bench::shape_check(cuts_claim.str(), cuts_256_16 < 1'000);
    // The ≥3× target needs real cores; on a 1-core CI host the honest
    // speedup is ≤1 and the check reports the context instead of lying.
    const bool enough_cores = host_cores >= 4;
    std::ostringstream claim;
    claim << "events/sec at N=32k, 16 shards vs sequential: "
          << speedup_32k_16 << "x (target 3x; host has " << host_cores
          << " core(s)" << (enough_cores ? "" : " — target waived, threads serialise")
          << ")";
    bench::shape_check(claim.str(), !enough_cores || speedup_32k_16 >= 3.0);
  }

  std::ofstream out(json_out);
  out << "{\n  \"schema\": \"ecgf-bench-scale/2\",\n  \"mode\": \""
      << (smoke ? "smoke" : "full") << "\",\n  \"host_cores\": " << host_cores
      << ",\n  \"configured_threads\": " << util::configured_threads()
      << ",\n  \"peak_rss_bytes\": " << bench::peak_rss_bytes()
      << ",\n  \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    out << "    {\"n\": " << e.n << ", \"provider\": \""
        << json_escape(e.provider) << "\", \"driver\": \""
        << (e.shards == 0 ? "sequential" : "sharded")
        << "\", \"shards\": " << e.shards << ", \"threads\": " << e.threads
        << ", \"events\": " << e.events << ", \"wall_ms\": " << e.wall_ms
        << ", \"events_per_sec\": " << e.events_per_sec
        << ", \"speedup_vs_sequential\": " << e.speedup
        << ", \"epoch_initial_ms\": " << e.epoch_initial_ms
        << ", \"epoch_final_ms\": " << e.epoch_final_ms
        << ", \"cuts\": " << e.cuts
        << ", \"windows_dispatched\": " << e.windows
        << ", \"merges_skipped\": " << e.merges_skipped
        << ", \"peak_rss_bytes\": " << e.peak_rss << "}"
        << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << json_out << "\n";
  return identical ? 0 : 1;
}
