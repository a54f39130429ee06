// replay — operational frontend: build (or reuse) a grouping, run a
// workload through the simulator, and print the full report. Everything is
// flag-driven; traces and groupings can be saved to and loaded from disk,
// so a formation computed once can be replayed under different workloads,
// consistency modes, placement policies, or failure scenarios.
//
// Examples:
//   replay --caches=200 --groups=20 --scheme=sdsl
//   replay --caches=200 --groups=20 --save-groups=g.txt
//   replay --caches=200 --load-groups=g.txt --consistency=ttl --ttl-s=15
//   replay --caches=200 --groups=20 --fail-pct=25 --placement=never
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/coordinator.h"
#include "core/experiment.h"
#include "core/grouping_io.h"
#include "obs/export.h"
#include "obs/session.h"
#include "schemes/registry.h"
#include "sim/message_engine.h"
#include "util/expect.h"
#include "util/flags.h"
#include "util/table.h"

using namespace ecgf;

int main(int argc, char** argv) {
  util::Flags flags;
  flags.define("caches", "number of edge caches", "200");
  flags.define("groups", "number of cooperative groups", "20");
  const schemes::SchemeRegistry& registry = schemes::SchemeRegistry::builtin();
  flags.define("scheme", "grouping scheme: " + registry.names_joined(),
               "sdsl");
  flags.define("theta", "SDSL server-distance exponent", "2.0");
  flags.define("landmarks", "number of landmarks (L)", "25");
  flags.define("seed", "master seed", "7");
  flags.define("duration-s", "trace duration in seconds", "180");
  flags.define("rate", "requests per cache per second", "2.0");
  flags.define("zipf", "popularity skew alpha", "0.9");
  flags.define("similarity", "inter-cache request similarity [0,1]", "0.8");
  flags.define("capacity-mb", "per-cache capacity in MB", "2");
  flags.define("consistency", "push | ttl", "push");
  flags.define("ttl-s", "TTL in seconds (ttl mode)", "30");
  flags.define("placement", "remote placement: gated | always | never",
               "gated");
  flags.define("fail-pct", "percent of caches crashing at half-trace", "0");
  flags.define("engine", "simulation engine: analytic | message", "analytic");
  flags.define("directory", "group directory: beacon | summary", "beacon");
  flags.define("summary-refresh-s", "summary refresh interval (summary mode)",
               "10");
  flags.define("save-groups", "write the formed grouping to this file", "");
  flags.define("load-groups", "read the grouping from this file instead of "
               "forming one", "");
  flags.define("save-trace", "write the generated trace to this file", "");
  flags.define("load-trace", "read the trace from this file", "");
  flags.define("trace-out", "write the structured event trace (JSONL)", "");
  flags.define("prof-out", "write per-phase wall-time stats (JSON)", "");
  flags.define("metrics-out", "write the report as one JSONL record", "");
  flags.define("cache-csv", "write per-cache results as CSV", "");
  flags.define("group-csv", "write per-group summaries as CSV", "");

  if (!flags.parse(argc, argv)) {
    std::cerr << flags.help(argv[0]);
    return 2;
  }
  if (!registry.contains(flags.get("scheme"))) {
    std::cerr << "replay: unknown scheme '" << flags.get("scheme")
              << "'; registered schemes: " << registry.names_joined() << "\n";
    return 2;
  }

  obs::ObsSession obs_session(flags.get("trace-out"), flags.get("prof-out"));

  const auto cache_count = static_cast<std::size_t>(flags.get_int("caches"));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  // --- Testbed.
  core::TestbedParams params;
  params.cache_count = cache_count;
  params.workload.duration_ms = flags.get_double("duration-s") * 1000.0;
  params.workload.requests_per_cache_per_s = flags.get_double("rate");
  params.workload.zipf_alpha = flags.get_double("zipf");
  params.workload.similarity = flags.get_double("similarity");
  core::Testbed testbed = core::make_testbed(params, seed);

  if (const std::string path = flags.get("load-trace"); !path.empty()) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "cannot open trace file: " << path << '\n';
      return 1;
    }
    testbed.trace = workload::read_trace(in);
    testbed.trace.validate(cache_count, testbed.catalog.size());
    std::cout << "loaded trace from " << path << " ("
              << testbed.trace.requests.size() << " requests)\n";
  }
  if (const std::string path = flags.get("save-trace"); !path.empty()) {
    std::ofstream out(path);
    workload::write_trace(out, testbed.trace);
    std::cout << "trace written to " << path << '\n';
  }

  // --- Grouping: load or form.
  std::vector<std::vector<std::uint32_t>> partition;
  if (const std::string path = flags.get("load-groups"); !path.empty()) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "cannot open groups file: " << path << '\n';
      return 1;
    }
    const auto saved = core::read_grouping(in);
    saved.validate(cache_count);
    partition = saved.partition();
    std::cout << "loaded " << partition.size() << " groups from " << path
              << '\n';
  } else {
    core::SchemeConfig config;
    config.num_landmarks =
        static_cast<std::size_t>(flags.get_int("landmarks"));
    config.theta = flags.get_double("theta");
    const auto scheme = registry.make(flags.get("scheme"), config);
    core::GfCoordinator coordinator(testbed.network, net::ProberOptions{},
                                    seed + 1);
    const auto result = coordinator.run(
        *scheme, static_cast<std::size_t>(flags.get_int("groups")));
    partition = result.partition();
    std::cout << "formed " << partition.size() << " groups with "
              << scheme->name() << " (" << result.probes_used
              << " probes, GICost "
              << util::format_fixed(
                     coordinator.average_group_interaction_cost(result), 2)
              << " ms)\n";
    if (const std::string path = flags.get("save-groups"); !path.empty()) {
      std::ofstream out(path);
      core::write_grouping(out, result);
      std::cout << "grouping written to " << path << '\n';
    }
  }

  // --- Simulation configuration.
  sim::SimulationConfig config;
  config.cache_capacity_bytes =
      static_cast<std::uint64_t>(flags.get_int("capacity-mb")) << 20;
  if (flags.get("consistency") == "ttl") {
    config.consistency = sim::ConsistencyMode::kTtl;
    config.ttl_ms = flags.get_double("ttl-s") * 1000.0;
  }
  const std::string placement = flags.get("placement");
  if (placement == "always") {
    config.remote_placement = sim::RemotePlacement::kAlways;
  } else if (placement == "never") {
    config.remote_placement = sim::RemotePlacement::kNever;
  }
  if (flags.get("directory") == "summary") {
    config.directory = sim::DirectoryMode::kSummary;
    config.summary.refresh_interval_ms =
        flags.get_double("summary-refresh-s") * 1000.0;
  }
  const auto fail_pct = flags.get_int("fail-pct");
  if (fail_pct > 0) {
    util::Rng rng(seed + 2);
    const std::size_t to_fail =
        cache_count * static_cast<std::size_t>(fail_pct) / 100;
    for (std::size_t idx : rng.sample_indices(cache_count, to_fail)) {
      config.failures.push_back({static_cast<cache::CacheIndex>(idx),
                                 testbed.trace.duration_ms / 2.0});
    }
  }

  sim::SimulationReport report;
  if (flags.get("engine") == "message") {
    sim::MessageEngineConfig mec;
    mec.base = config;
    mec.base.groups = partition;
    sim::MessageEngineReport full;
    try {
      full = sim::run_message_level(testbed.catalog, testbed.network.rtt(),
                                    testbed.network.server(), mec,
                                    testbed.trace);
    } catch (const util::ContractViolation& e) {
      // The message engine rejects the config fields it does not model
      // (TTL, failures, placement, summaries; docs/protocol.md).
      std::cerr << "replay: --engine=message cannot run these flags: "
                << e.what() << "\n";
      return 2;
    }
    report = full.base;
    std::cout << "message engine: " << full.messages_sent << " messages, "
              << util::format_fixed(full.mean_origin_queue_delay_ms, 3)
              << " ms mean origin queue delay\n";
  } else {
    report = core::simulate_partition(testbed, partition, config);
  }

  // --- Report.
  util::Table table({"metric", "value"});
  table.set_title("Simulation report");
  table.add_row({std::string("requests"),
                 static_cast<long long>(report.requests_processed)});
  table.add_row({std::string("avg latency (ms)"), report.avg_latency_ms});
  table.add_row({std::string("p50 latency (ms)"), report.p50_latency_ms});
  table.add_row({std::string("p95 latency (ms)"), report.p95_latency_ms});
  table.add_row({std::string("p99 latency (ms)"), report.p99_latency_ms});
  table.add_row({std::string("local hit rate (%)"),
                 100.0 * report.counts.local_hit_rate()});
  table.add_row({std::string("group hit rate (%)"),
                 100.0 * report.counts.group_hit_rate()});
  table.add_row({std::string("origin fetches"),
                 static_cast<long long>(report.counts.origin_fetches)});
  table.add_row({std::string("updates applied"),
                 static_cast<long long>(report.origin_updates)});
  table.add_row({std::string("invalidations pushed"),
                 static_cast<long long>(report.invalidations_pushed)});
  table.add_row({std::string("stale served"),
                 static_cast<long long>(report.stale_served)});
  table.add_row({std::string("failures applied"),
                 static_cast<long long>(report.failures_applied)});
  table.add_row({std::string("failover lookups"),
                 static_cast<long long>(report.failover_lookups)});
  table.print(std::cout);

  // --- Exporters.
  const auto export_to = [&](const std::string& flag, auto writer) {
    const std::string path = flags.get(flag);
    if (path.empty()) return;
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot open --" << flag << " file: " << path << '\n';
      return;
    }
    writer(out);
    std::cout << "wrote --" << flag << " -> " << path << '\n';
  };
  export_to("metrics-out", [&](std::ostream& out) {
    obs::write_report_jsonl(out, report, "replay");
  });
  export_to("cache-csv", [&](std::ostream& out) {
    obs::write_cache_csv(out, report);
  });
  export_to("group-csv", [&](std::ostream& out) {
    obs::write_group_csv(out, report, partition);
  });
  return 0;
}
