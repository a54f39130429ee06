// Engine comparison — the analytic latency engine vs the message-level
// protocol engine on the Fig. 9 setup, plus the origin-load story only the
// message engine can tell: how cooperative groups shield the origin server
// from overload.
#include "bench_common.h"
#include "sim/message_engine.h"

using namespace ecgf;

int main(int argc, char** argv) {
  // --trace-out=FILE / --prof-out=FILE enable the observability outputs.
  ecgf::obs::ObsSession obs_session(argc, argv);
  constexpr std::size_t kCaches = 200;
  constexpr std::uint64_t kSeed = 2006;

  std::cout << "Engine comparison — analytic vs message-level "
               "(N=200, SDSL groups)\n";
  const auto testbed =
      core::make_testbed(bench::paper_testbed_params(kCaches), kSeed);
  core::GfCoordinator coordinator(testbed.network, net::ProberOptions{},
                                  kSeed + 1);
  const core::SdslScheme scheme(bench::paper_scheme_config());

  util::Table table({"K", "analytic_ms", "message_ms", "hit_gap_pct",
                     "origin_queue_ms", "msgs_per_request"});
  table.set_title("Engine comparison");

  std::vector<double> analytic_series, message_series, origin_queue_series;
  for (const std::size_t k : {4, 10, 20, 50}) {
    const auto partition = coordinator.run(scheme, k).partition();

    const auto analytic = core::simulate_partition(testbed, partition,
                                                   bench::paper_sim_config());

    sim::MessageEngineConfig mec;
    mec.base = bench::paper_sim_config();
    mec.base.groups = partition;
    const auto message =
        sim::run_message_level(testbed.catalog, testbed.network.rtt(),
                               testbed.network.server(), mec, testbed.trace);

    const double hit_gap =
        100.0 * std::abs(message.base.counts.group_hit_rate() -
                         analytic.counts.group_hit_rate());
    table.add_row(
        {static_cast<long long>(k), analytic.avg_latency_ms,
         message.base.avg_latency_ms, hit_gap,
         message.mean_origin_queue_delay_ms,
         static_cast<double>(message.messages_sent) /
             static_cast<double>(message.base.requests_processed)});
    analytic_series.push_back(analytic.avg_latency_ms);
    message_series.push_back(message.base.avg_latency_ms);
    origin_queue_series.push_back(message.mean_origin_queue_delay_ms);
  }
  bench::print_table(table);

  // Same ordering across K in both engines (Spearman-by-hand for 4 points:
  // compare pairwise orderings).
  int agreements = 0, pairs = 0;
  for (std::size_t a = 0; a < analytic_series.size(); ++a) {
    for (std::size_t b = a + 1; b < analytic_series.size(); ++b) {
      if ((analytic_series[a] < analytic_series[b]) ==
          (message_series[a] < message_series[b])) {
        ++agreements;
      }
      ++pairs;
    }
  }
  bench::Report report("ecgf-engine_comparison/1", "full");
  report.check("engines rank the K settings identically", agreements == pairs);
  report.check(
      "fewer, larger groups shield the origin (queue delay drops with size)",
      origin_queue_series.front() < origin_queue_series.back());
  return report.finish("");
}
