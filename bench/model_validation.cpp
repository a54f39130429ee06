// Model validation — the analytical latency model (Che hit rates +
// expected cooperative-miss costs) against the Fig. 3 simulation: same
// parameters, same group-size sweep. The model should predict the U-shape
// and the ordering of optimal group sizes for near vs far caches.
#include <cmath>

#include "bench_common.h"
#include "model/latency_model.h"
#include "util/stats.h"

using namespace ecgf;

int main(int argc, char** argv) {
  // --trace-out=FILE / --prof-out=FILE enable the observability outputs.
  ecgf::obs::ObsSession obs_session(argc, argv);
  constexpr std::size_t kCaches = 500;
  constexpr std::uint64_t kSeed = 2006;

  std::cout << "Model validation — analytic E[latency] vs simulation "
               "(Fig. 3 setup)\n";
  const auto params = bench::paper_testbed_params(kCaches);
  const auto testbed = core::make_testbed(params, kSeed);
  core::GfCoordinator coordinator(testbed.network, net::ProberOptions{},
                                  kSeed + 1);
  const core::SlScheme scheme(bench::paper_scheme_config());

  // --- Calibrate the model's g(s) curve from the actual topology: mean
  // intra-group RTT of SL groups at a few K values.
  // Also capture mean server RTT and the catalog's mean properties.
  double total_server_rtt = 0.0;
  for (std::uint32_t c = 0; c < kCaches; ++c) {
    total_server_rtt += testbed.network.rtt_ms(c, testbed.network.server());
  }
  const double mean_server_rtt = total_server_rtt / kCaches;

  model::LatencyModelParams mp;
  mp.catalog_docs = params.catalog.document_count;
  mp.zipf_alpha = params.workload.zipf_alpha;
  mp.requests_per_cache_per_s = params.workload.requests_per_cache_per_s;
  mp.similarity = params.workload.similarity;
  const auto sim_config = bench::paper_sim_config();
  mp.capacity_docs = static_cast<double>(sim_config.cache_capacity_bytes) /
                     testbed.catalog.mean_size_bytes();
  mp.cost = sim_config.cost;
  mp.mean_doc_bytes = testbed.catalog.mean_size_bytes();
  mp.generation_ms = 0.5 * (params.catalog.min_generation_ms +
                            params.catalog.max_generation_ms);
  // Catalog-average update rate.
  double update_total = 0.0;
  for (cache::DocId d = 0; d < testbed.catalog.size(); ++d) {
    update_total += testbed.catalog.info(d).update_rate;
  }
  mp.mean_update_rate = update_total / static_cast<double>(testbed.catalog.size());

  // Fit g(s) from measured group geometry (base from small groups,
  // spread from the single full-network group).
  auto measured_g = [&](std::size_t k) {
    const auto result = coordinator.run(scheme, k);
    return coordinator.average_group_interaction_cost(result);
  };
  const double g_small = measured_g(100);   // s = 5
  const double g_full = measured_g(1);      // s = 500
  const double gamma = 0.5;
  // Solve base + spread·(5/500)^γ = g_small ; base + spread = g_full.
  const double x = std::pow(5.0 / 500.0, gamma);
  const double spread = (g_full - g_small) / (1.0 - x);
  const double base = g_full - spread;
  mp.intra_group_rtt_ms =
      model::power_law_rtt_curve(std::max(0.0, base), spread, kCaches, gamma);

  // --- Sweep group sizes: model vs simulation.
  util::Table table({"avg_group_size", "model_ms", "sim_ms",
                     "model_hit_rate", "sim_hit_rate"});
  table.set_title("Model vs simulation");

  std::vector<double> sizes, model_series, sim_series;
  for (const std::size_t k : {250, 100, 50, 25, 10, 5, 2, 1}) {
    const double s = static_cast<double>(kCaches) / static_cast<double>(k);
    const auto prediction = model::predict_latency(mp, s, mean_server_rtt);
    const auto result = coordinator.run(scheme, k);
    const auto report = core::simulate_partition(testbed, result.partition(),
                                                 bench::paper_sim_config());
    table.add_row({s, prediction.expected_latency_ms, report.avg_latency_ms,
                   prediction.group_hit_rate,
                   report.counts.group_hit_rate()});
    sizes.push_back(s);
    model_series.push_back(prediction.expected_latency_ms);
    sim_series.push_back(report.avg_latency_ms);
  }
  bench::print_table(table);

  // Shape checks: both series U-shaped, minima within one sweep step, and
  // rank correlation positive.
  auto argmin = [](const std::vector<double>& v) {
    return static_cast<std::size_t>(
        std::min_element(v.begin(), v.end()) - v.begin());
  };
  const std::size_t mi = argmin(model_series);
  const std::size_t si = argmin(sim_series);
  bench::Report report("ecgf-model_validation/1", "full");
  report.check("model predicts an interior optimal group size",
               mi > 0 && mi + 1 < model_series.size());
  report.check("model optimum within one sweep step of the simulated optimum",
               (mi > si ? mi - si : si - mi) <= 1);

  // Near vs far optimal sizes (the SDSL rule), model-side.
  const std::vector<double> candidates{2, 5, 10, 20, 50, 100, 250, 500};
  const double near_rtt = testbed.network.rtt_ms(
      testbed.network.nearest_caches(1)[0], testbed.network.server());
  const double far_rtt = testbed.network.rtt_ms(
      testbed.network.farthest_caches(1)[0], testbed.network.server());
  const double s_near = model::optimal_group_size(mp, near_rtt, candidates);
  const double s_far = model::optimal_group_size(mp, far_rtt, candidates);
  std::cout << "model optimal size: nearest cache (" << near_rtt
            << " ms) -> " << s_near << ", farthest cache (" << far_rtt
            << " ms) -> " << s_far << "\n";
  report.check("model: far caches prefer groups at least as large",
               s_far >= s_near);
  return report.finish("");
}
