#include "core/sweep.h"

#include <memory>
#include <optional>
#include <unordered_map>

#include "obs/profile.h"
#include "util/expect.h"
#include "util/thread_pool.h"

namespace ecgf::core {

SweepRunner::SweepRunner(util::ThreadPool* pool, obs::Tracer* tracer)
    : pool_(pool), tracer_(tracer) {}

namespace {

/// One shared testbed build. Points that never simulate get the cheaper
/// network-only build (no catalog / trace generation).
struct TestbedSlot {
  const SweepPoint* exemplar = nullptr;
  bool needs_workload = false;
  std::optional<Testbed> full;
  std::optional<EdgeNetwork> network_only;

  const EdgeNetwork& network() const {
    return full ? full->network : *network_only;
  }
};

}  // namespace

std::vector<SweepPointResult> SweepRunner::run(
    const std::vector<SweepPoint>& points) const {
  std::vector<SweepPointResult> results(points.size());
  if (points.empty()) return results;
  for (const SweepPoint& p : points) {
    ECGF_EXPECTS(p.scheme != nullptr);
    ECGF_EXPECTS(p.formation_runs >= 1);
    ECGF_EXPECTS(p.group_count >= 1);
  }

  util::ThreadPool& pool = pool_ != nullptr ? *pool_ : util::global_pool();
  obs::Tracer* tracer =
      tracer_ != nullptr ? tracer_ : obs::global_tracer();

  // One trace stream per point, keyed by point index (stream i+1; 0 is the
  // ambient stream) — created serially, so trace output is independent of
  // how the points are later scheduled across threads.
  std::vector<obs::TraceContext> traces;
  traces.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    traces.push_back(obs::TraceContext::root(tracer, i + 1));
  }

  // Deduplicate testbeds by seed, in first-appearance order so slot
  // indices (and thus the builds) are independent of thread count.
  std::unordered_map<std::uint64_t, std::size_t> slot_of;
  std::vector<TestbedSlot> slots;
  for (const SweepPoint& p : points) {
    auto [it, inserted] = slot_of.emplace(p.testbed_seed, slots.size());
    if (inserted) {
      slots.push_back(TestbedSlot{&p, p.simulate, std::nullopt, std::nullopt});
    } else {
      slots[it->second].needs_workload |= p.simulate;
    }
  }

  pool.parallel_for(slots.size(), [&](std::size_t i) {
    ECGF_PROF_SCOPE("sweep.testbed");
    TestbedSlot& slot = slots[i];
    if (slot.needs_workload) {
      slot.full = make_testbed(slot.exemplar->testbed,
                               slot.exemplar->testbed_seed);
    } else {
      slot.network_only = make_testbed_network(slot.exemplar->testbed,
                                               slot.exemplar->testbed_seed);
    }
  });

  pool.parallel_for(points.size(), [&](std::size_t i) {
    ECGF_PROF_SCOPE("sweep.point");
    const SweepPoint& p = points[i];
    const TestbedSlot& slot = slots[slot_of.at(p.testbed_seed)];
    SweepPointResult& out = results[i];
    obs::TraceContext& trace = traces[i];
    trace.emit(obs::TraceEvent::sweep_point(i, p.group_count));

    // Fresh coordinator per point: GfCoordinator carries RNG state across
    // run() calls, so sharing one between points would make results depend
    // on evaluation order.
    GfCoordinator coordinator(slot.network(), p.probing, p.coordinator_seed);
    for (std::size_t run = 0; run < p.formation_runs; ++run) {
      out.grouping = coordinator.run(*p.scheme, p.group_count, &trace);
      out.gicost_ms.add(coordinator.average_group_interaction_cost(
          out.grouping, p.gicost_transfer_ms));
    }
    if (p.simulate) {
      sim::SimulationConfig sim = p.sim;
      sim.trace = trace;
      out.report =
          simulate_partition(*slot.full, out.grouping.partition(), sim);
    }
  });

  return results;
}

SweepSummary summarize(const std::vector<SweepPointResult>& results) {
  SweepSummary summary;
  for (const SweepPointResult& r : results) {
    summary.gicost_ms.merge(r.gicost_ms);
    if (r.report.requests_processed > 0) {
      summary.latency_ms.add(r.report.avg_latency_ms);
      summary.group_hit_rate.add(r.report.counts.group_hit_rate());
    }
  }
  return summary;
}

}  // namespace ecgf::core
