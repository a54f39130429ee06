// Ablation — flash crowds and origin overload on congested access links
// (src/sim/netmodel, docs/network_model.md).
//
// The paper scores a grouping purely on RTT: the cheapest group is the
// nearest one. This bench re-scores formations on *miss bandwidth cost*:
// a quarter of the caches sit behind thin access links, a flash crowd
// drives correlated fetch bursts through them, and every data transfer
// pays flow-level serialisation, queueing, drops and ECN marks on the
// links it crosses.
//
// Two formations of the same network are compared under the same load:
//
//   rtt_only  — the SL scheme's partition, as the paper forms it;
//   bw_aware  — the same partition with thin-uplink caches demoted to
//               autonomous singletons: they stop serving group hits (their
//               uplink is the scarce resource) and fall back to the origin
//               for their own misses.
//
// On the ideal network RTT-only scoring is right — demotion only loses
// group hits. Under flash-crowd overload the ranking flips: group hits
// served from thin uplinks queue for seconds, and keeping those links out
// of the serving path beats the extra origin round trips.
//
// A second section drives the message-level engine through
// sim::CongestionExchange: an origin fetch burst over a thin origin
// uplink (drops, marks, a stretched tail), plus the seam-equivalence
// check that an *uncontended* CongestionExchange reproduces the default
// DirectExchange run exactly.
//
// --smoke shrinks everything for CI; --json-out=FILE writes the
// machine-readable report (schema ecgf-bench-net/1).
#include <optional>
#include <string>

#include "bench_common.h"
#include "net/distance_matrix.h"
#include "sim/message_engine.h"
#include "sim/netmodel/congestion_exchange.h"
#include "sim/netmodel/link_model.h"

using namespace ecgf;

namespace {

struct Config {
  std::size_t caches = 120;
  std::size_t groups = 12;
  std::size_t documents = 2'000;
  double duration_ms = 120'000.0;
  std::size_t num_landmarks = 15;
};

Config smoke_config() {
  Config cfg;
  cfg.caches = 48;
  cfg.groups = 6;
  cfg.documents = 600;
  cfg.duration_ms = 40'000.0;
  cfg.num_landmarks = 8;
  return cfg;
}

/// Access-link profile of the overload scenario: the first quarter of the
/// caches drain at 10 B/ms (a median 10 KB document serialises for a full
/// second), everyone else at the cost model's nominal 1250 B/ms. Queues
/// hold ~3 median documents; marking starts at ~1.5.
sim::LinkModelConfig thin_links(std::size_t cache_count,
                                std::size_t host_count) {
  sim::LinkModelConfig links;
  links.bandwidth_bytes_per_ms = 1'250.0;
  links.per_host_bandwidth_bytes_per_ms.assign(host_count, 1'250.0);
  for (std::size_t c = 0; c < cache_count / 4; ++c) {
    links.per_host_bandwidth_bytes_per_ms[c] = 10.0;
  }
  links.queue_limit_bytes = 30'000.0;
  links.mark_threshold_bytes = 15'000.0;
  return links;
}

/// Nominal links for the quiet gate: finite bandwidth (so utilisation is
/// measured) but unbounded queues and no marking — must record zero drops.
sim::LinkModelConfig nominal_links() {
  sim::LinkModelConfig links;
  links.bandwidth_bytes_per_ms = 1'250.0;
  return links;
}

struct ArmResult {
  double miss_ms = 0.0;
  double avg_ms = 0.0;
  std::uint64_t drops = 0;
  std::uint64_t marks = 0;
  std::uint64_t retransmits = 0;
};

}  // namespace

int main(int argc, char** argv) {
  // --trace-out=FILE / --prof-out=FILE enable the observability outputs.
  ecgf::obs::ObsSession obs_session(argc, argv);
  bool smoke = false;
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    if (arg.rfind("--json-out=", 0) == 0) json_out = arg.substr(11);
  }
  const Config cfg = smoke ? smoke_config() : Config{};
  constexpr std::uint64_t kSeed = 2006;
  const std::size_t thin_caches = cfg.caches / 4;

  std::cout << "Ablation — congestion-aware grouping under a flash crowd (N="
            << cfg.caches << ", K=" << cfg.groups << ", " << thin_caches
            << " thin-uplink caches" << (smoke ? ", smoke)" : ")") << "\n";

  // Two testbeds from the same seed: identical network and catalog (the
  // builder forks per-component seeds), different load — one quiet, one
  // with the flash crowd.
  core::TestbedParams params = bench::paper_testbed_params(cfg.caches);
  params.catalog.document_count = cfg.documents;
  params.workload.duration_ms = cfg.duration_ms;
  const core::Testbed quiet_testbed = core::make_testbed(params, kSeed);

  params.workload.flash_crowd_enabled = true;
  params.workload.flash_crowd.start_ms = 0.4 * cfg.duration_ms;
  params.workload.flash_crowd.duration_ms = 0.25 * cfg.duration_ms;
  params.workload.flash_crowd.extra_rate_per_cache_per_s = 10.0;
  params.workload.flash_crowd.hot_docs = 20;
  const core::Testbed flash_testbed = core::make_testbed(params, kSeed);
  const std::size_t host_count = flash_testbed.network.host_count();

  // RTT-only formation (the paper's scoring).
  core::SchemeConfig scheme_config = bench::paper_scheme_config();
  scheme_config.num_landmarks = cfg.num_landmarks;
  core::GfCoordinator coordinator(flash_testbed.network, net::ProberOptions{},
                                  kSeed + 1);
  const core::SlScheme scheme(scheme_config);
  const auto rtt_partition = coordinator.run(scheme, cfg.groups).partition();

  // Bandwidth-aware variant: demote every thin-uplink cache to a
  // singleton; the RTT grouping stands for everyone else.
  std::vector<std::vector<std::uint32_t>> bw_partition;
  for (const auto& group : rtt_partition) {
    std::vector<std::uint32_t> fat;
    for (std::uint32_t c : group) {
      if (c < thin_caches) {
        bw_partition.push_back({c});
      } else {
        fat.push_back(c);
      }
    }
    if (!fat.empty()) bw_partition.push_back(std::move(fat));
  }

  const auto run_arm = [&](const core::Testbed& testbed,
                           const std::vector<std::vector<std::uint32_t>>&
                               partition,
                           const sim::LinkModelConfig* links) {
    sim::SimulationConfig config = bench::paper_sim_config();
    // Fresh model per run: link state is cumulative.
    std::optional<sim::AccessLinkModel> model;
    if (links != nullptr) {
      model.emplace(*links, host_count);
      config.netmodel = &*model;
    }
    const auto report =
        core::simulate_partition(testbed, partition, std::move(config));
    ArmResult arm;
    arm.miss_ms = report.avg_miss_latency_ms;
    arm.avg_ms = report.avg_latency_ms;
    arm.drops = report.net_drops;
    arm.marks = report.net_marks;
    arm.retransmits = report.net_retransmits;
    return arm;
  };

  // Ideal network: the RTT score is the whole story.
  const ArmResult ideal_rtt = run_arm(flash_testbed, rtt_partition, nullptr);
  const ArmResult ideal_bw = run_arm(flash_testbed, bw_partition, nullptr);
  // Flash-crowd overload on thin links: bandwidth cost enters the score.
  const sim::LinkModelConfig thin = thin_links(cfg.caches, host_count);
  const ArmResult over_rtt = run_arm(flash_testbed, rtt_partition, &thin);
  const ArmResult over_bw = run_arm(flash_testbed, bw_partition, &thin);
  // Quiet gate: nominal links, no flash crowd — zero drops, zero marks.
  const sim::LinkModelConfig nominal = nominal_links();
  const ArmResult quiet = run_arm(quiet_testbed, rtt_partition, &nominal);

  util::Table table({"scenario", "formation", "miss_ms", "avg_ms", "drops",
                     "marks", "retransmits"});
  table.set_title("Formation scoring under congestion");
  const auto add = [&](const std::string& scenario,
                       const std::string& formation, const ArmResult& arm) {
    table.add_row({scenario, formation, arm.miss_ms, arm.avg_ms,
                   static_cast<long long>(arm.drops),
                   static_cast<long long>(arm.marks),
                   static_cast<long long>(arm.retransmits)});
  };
  add("ideal", "rtt_only", ideal_rtt);
  add("ideal", "bw_aware", ideal_bw);
  add("overload", "rtt_only", over_rtt);
  add("overload", "bw_aware", over_bw);
  add("quiet", "rtt_only", quiet);
  bench::print_table(table);

  // ---- message-level engine: origin overload through the exchange seam.
  // Caches 0,1 + origin 2; 0↔1 = 10 ms, both ↔ origin = 100 ms. Forty
  // distinct 10 KB documents burst from cache 0; the origin's 20 B/ms
  // uplink (500 ms per body) queues, marks and drops behind a 30 KB queue.
  net::DistanceMatrix m(3);
  m.set(0, 1, 10.0);
  m.set(0, 2, 100.0);
  m.set(1, 2, 100.0);
  const net::MatrixRttProvider pair_rtt(std::move(m));
  std::vector<cache::DocumentInfo> docs(40);
  for (auto& d : docs) d = {10'000, 20.0, 0.0};
  const cache::Catalog burst_catalog(std::move(docs));
  workload::Trace burst;
  burst.duration_ms = 120'000.0;
  for (std::uint32_t i = 0; i < 40; ++i) {
    burst.requests.push_back({100.0 + static_cast<double>(i), 0, i});
  }
  const auto engine_config = [] {
    sim::MessageEngineConfig config;
    config.base.groups = {{0}, {1}};
    config.base.cache_capacity_bytes = 1'000'000;
    config.base.policy = cache::PolicyKind::kLru;
    config.base.warmup_fraction = 0.0;
    return config;
  };

  const auto direct =
      sim::run_message_level(burst_catalog, pair_rtt, 2, engine_config(), burst);

  sim::CongestionExchange uncontended;
  auto seam_config = engine_config();
  seam_config.exchange = &uncontended;
  const auto via_seam =
      sim::run_message_level(burst_catalog, pair_rtt, 2, seam_config, burst);

  sim::LinkModelConfig origin_thin;
  origin_thin.bandwidth_bytes_per_ms = 1'250.0;
  origin_thin.per_host_bandwidth_bytes_per_ms = {1'250.0, 1'250.0, 20.0};
  origin_thin.queue_limit_bytes = 30'000.0;
  origin_thin.mark_threshold_bytes = 15'000.0;
  sim::CongestionExchange congested_exchange(origin_thin);
  auto congested_config = engine_config();
  congested_config.exchange = &congested_exchange;
  const auto congested = sim::run_message_level(burst_catalog, pair_rtt, 2,
                                                congested_config, burst);

  const bool seam_exact =
      via_seam.base.avg_latency_ms == direct.base.avg_latency_ms &&
      via_seam.base.p99_latency_ms == direct.base.p99_latency_ms &&
      via_seam.messages_sent == direct.messages_sent &&
      via_seam.net_drops == 0;
  std::cout << "message engine: direct avg "
            << util::format_fixed(direct.base.avg_latency_ms, 2)
            << " ms | uncontended seam avg "
            << util::format_fixed(via_seam.base.avg_latency_ms, 2)
            << " ms | congested origin uplink avg "
            << util::format_fixed(congested.base.avg_latency_ms, 2)
            << " ms, p99 "
            << util::format_fixed(congested.base.p99_latency_ms, 2) << " ms, "
            << congested.net_drops << " drops, " << congested.net_marks
            << " marks, peak queue "
            << util::format_fixed(congested.peak_queue_bytes, 0)
            << " B, max link utilisation "
            << util::format_fixed(congested.max_link_utilisation, 3) << "\n\n";

  // The arm fields were first written through std::to_string: six decimals.
  const auto arm_json = [](const ArmResult& arm) {
    return bench::Json::object()
        .set("miss_ms", bench::Json::fixed(arm.miss_ms, 6))
        .set("avg_ms", bench::Json::fixed(arm.avg_ms, 6))
        .set("drops", arm.drops)
        .set("marks", arm.marks)
        .set("retransmits", arm.retransmits);
  };
  bench::Report report("ecgf-bench-net/1", smoke ? "smoke" : "full");
  report.set("caches", cfg.caches);
  report.set("thin_caches", thin_caches);
  report.set("ideal", bench::Json::object()
                          .set("rtt_only", arm_json(ideal_rtt))
                          .set("bw_aware", arm_json(ideal_bw)));
  report.set("overload", bench::Json::object()
                             .set("rtt_only", arm_json(over_rtt))
                             .set("bw_aware", arm_json(over_bw)));
  report.set("quiet", arm_json(quiet));
  report.set("message_engine",
             bench::Json::object()
                 .set("seam_exact", seam_exact)
                 .set("congested_drops", congested.net_drops)
                 .set("congested_marks", congested.net_marks)
                 .set("congested_retransmits", congested.net_retransmits)
                 .set("congested_p99_ms", congested.base.p99_latency_ms)
                 .set("peak_queue_bytes", congested.peak_queue_bytes)
                 .set("max_link_utilisation", congested.max_link_utilisation));

  report.check("RTT-only formation is at least as good on the ideal network",
               ideal_rtt.miss_ms <= ideal_bw.miss_ms);
  report.check(
      "bandwidth-aware formation wins on miss latency under flash-crowd "
      "overload",
      over_bw.miss_ms < over_rtt.miss_ms);
  report.check("overload drives queue drops and ECN marks",
               over_rtt.drops > 0 && over_rtt.marks > 0);
  report.check("quiet scenario records zero drops and zero marks",
               quiet.drops == 0 && quiet.marks == 0);
  report.check(
      "uncontended CongestionExchange reproduces DirectExchange exactly",
      seam_exact);
  report.check(
      "congested origin uplink drops, marks and stretches the tail",
      congested.net_drops > 0 && congested.net_marks > 0 &&
          congested.base.p99_latency_ms > direct.base.p99_latency_ms);
  return report.finish(json_out);
}
