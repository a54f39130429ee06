// scheme_comparison — run every grouping strategy the library offers on
// one identical workload and print a side-by-side report: SL, SDSL, the
// Euclidean (GNP) variant, the two degraded landmark selectors, and the
// four registry-only schemes (random, geo, proximity, ucc).
//
// Every variant is resolved through schemes::SchemeRegistry — including
// the random strawman, which is a first-class registered scheme — and all
// nine points run as one SweepRunner sweep, fanned across the thread pool
// (--threads or ECGF_THREADS; 1 = serial). Output is identical at every
// thread count.
//
// Usage: scheme_comparison [--caches N] [--groups K] [--seed S] [--threads T]
//                          [--trace-out F] [--prof-out F] [--metrics-out F]
#include <fstream>
#include <iostream>
#include <string>

#include "core/coordinator.h"
#include "core/experiment.h"
#include "core/sweep.h"
#include "obs/export.h"
#include "schemes/registry.h"
#include "obs/session.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace ecgf;

namespace {

struct Variant {
  std::string name;
  std::shared_ptr<const core::GroupingScheme> scheme;
};

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.define("caches", "number of edge caches", "200");
  flags.define("groups", "number of cooperative groups", "20");
  flags.define("seed", "testbed seed", "11");
  flags.define("threads", "worker threads (0 = ECGF_THREADS/auto)", "0");
  flags.define("trace-out", "write the structured event trace (JSONL)", "");
  flags.define("prof-out", "write per-phase wall-time stats (JSON)", "");
  flags.define("metrics-out", "write one JSONL metrics record per strategy",
               "");
  if (!flags.parse(argc, argv)) return 0;

  obs::ObsSession obs_session(flags.get("trace-out"), flags.get("prof-out"));

  const std::size_t cache_count =
      static_cast<std::size_t>(flags.get_int("caches"));
  const std::size_t groups = static_cast<std::size_t>(flags.get_int("groups"));
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  if (const std::int64_t threads = flags.get_int("threads"); threads > 0) {
    util::set_configured_threads(static_cast<std::size_t>(threads));
  }

  std::cout << "Comparing grouping strategies on one workload: "
            << cache_count << " caches, " << groups << " groups\n\n";

  core::TestbedParams params;
  params.cache_count = cache_count;
  params.catalog.document_count = 3000;
  params.workload.duration_ms = 180'000.0;

  core::SchemeConfig base;
  base.num_landmarks = 25;
  const schemes::SchemeRegistry& registry = schemes::SchemeRegistry::builtin();

  std::vector<Variant> variants;
  variants.push_back({"SL (greedy landmarks)", registry.make("sl", base)});
  {
    auto c = base;
    c.theta = 2.0;
    variants.push_back({"SDSL (theta=2)", registry.make("sdsl", c)});
  }
  {
    auto c = base;
    c.positions = core::PositionKind::kGnp;
    variants.push_back({"SL + GNP coordinates", registry.make("sl", c)});
  }
  {
    auto c = base;
    c.selector = landmark::SelectorKind::kRandom;
    variants.push_back({"SL + random landmarks", registry.make("sl", c)});
  }
  {
    auto c = base;
    c.selector = landmark::SelectorKind::kMinDist;
    variants.push_back({"SL + mindist landmarks", registry.make("sl", c)});
  }
  variants.push_back({"GEO (k-center + caps)", registry.make("geo", base)});
  variants.push_back(
      {"PROX (two-choice balanced)", registry.make("proximity", base)});
  variants.push_back({"UCC (anchor clusters)", registry.make("ucc", base)});
  variants.push_back(
      {"random partition (no scheme)", registry.make("random", base)});

  sim::SimulationConfig sim_config;
  sim_config.cache_capacity_bytes = 2ull << 20;

  std::vector<core::SweepPoint> points;
  for (const Variant& v : variants) {
    core::SweepPoint p;
    p.testbed = params;
    p.testbed_seed = seed;
    p.coordinator_seed = seed + 1;
    p.scheme = v.scheme;
    p.group_count = groups;
    p.sim = sim_config;
    points.push_back(std::move(p));
  }
  const auto results = core::SweepRunner().run(points);

  util::Table table({"strategy", "gicost_ms", "latency_ms", "group_hit_pct",
                     "probes"});
  table.set_title("Strategy comparison");

  for (std::size_t i = 0; i < variants.size(); ++i) {
    const auto& r = results[i];
    table.add_row({variants[i].name, r.gicost_ms.mean(),
                   r.report.avg_latency_ms,
                   100.0 * r.report.counts.group_hit_rate(),
                   static_cast<long long>(r.grouping.probes_used)});
  }

  if (const std::string path = flags.get("metrics-out"); !path.empty()) {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot open --metrics-out file: " << path << "\n";
      return 1;
    }
    for (std::size_t i = 0; i < variants.size(); ++i) {
      obs::write_report_jsonl(out, results[i].report, variants[i].name);
    }
    std::cout << "\nwrote metrics JSONL -> " << path << "\n";
  }

  table.print(std::cout);
  std::cout << "\nInterpretation: lower GICost = tighter groups; the random\n"
               "partition shows what cooperation costs without proximity-\n"
               "aware group formation.\n";
  return 0;
}
