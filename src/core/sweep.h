// Deterministic parallel sweep engine for the figure benches and examples.
//
// Every figure in the paper is a sweep over seed × scheme × K points, each
// paying for testbed construction (multi-source Dijkstra), group formation
// (K-means restarts), and a discrete-event simulation. SweepRunner fans
// the points across the process-wide thread pool (ECGF_THREADS) and
// returns results in input order.
//
// Determinism contract: every point carries its own seeds and builds its
// own GfCoordinator, so no RNG state is shared across points; testbeds
// shared between points (equal testbed_seed) are built once, keyed by
// seed. Output is bit-identical at any thread count — ECGF_THREADS=1
// reproduces the serial run byte for byte.
//
// Observability: when a tracer is attached (explicitly or via the global
// tracer), point i emits on trace stream i+1 — a `sweep_point` event
// followed by the point's formation and simulation events. Streams are
// keyed by point index, never by thread, so trace files inherit the same
// bit-identical-at-any-thread-count guarantee as the results.
#pragma once

#include <cstdint>
#include <vector>

#include "core/coordinator.h"
#include "core/experiment.h"
#include "util/stats.h"

namespace ecgf::util {
class ThreadPool;
}

namespace ecgf::core {

/// One evaluation point of a sweep. Points with equal `testbed_seed` share
/// one testbed build and MUST pass identical `testbed` parameters.
struct SweepPoint {
  TestbedParams testbed;
  std::uint64_t testbed_seed = 2006;

  /// Probing-noise regime and coordinator seed (drives landmark sampling,
  /// clustering init, probe jitter). Each point owns a fresh coordinator.
  net::ProberOptions probing;
  std::uint64_t coordinator_seed = 2007;

  /// The scheme to run; required. Schemes are immutable after
  /// construction (form_groups is const), so one instance may be shared by
  /// any number of points across the pool — a directly constructed
  /// SlScheme/SdslScheme, or `schemes::SchemeRegistry::builtin().make(name)`
  /// converted to shared.
  std::shared_ptr<const GroupingScheme> scheme;

  std::size_t group_count = 1;

  /// Document-transfer component added per pairwise interaction when
  /// evaluating GICost (see GfCoordinator::average_group_interaction_cost).
  double gicost_transfer_ms = 0.0;

  /// Repeated formation runs on the same coordinator (Fig. 6 style
  /// accuracy averaging); GICost of every run lands in the result's
  /// accumulator, the last run's grouping is kept.
  std::size_t formation_runs = 1;

  /// When false the point evaluates formation quality only (no workload
  /// simulation, and the shared testbed skips catalog/trace generation
  /// when no other point needs them).
  bool simulate = true;
  sim::SimulationConfig sim;
};

struct SweepPointResult {
  GroupingResult grouping;       ///< from the last formation run
  sim::SimulationReport report;  ///< zero-initialised when !simulate
  util::Accumulator gicost_ms;   ///< one sample per formation run
};

/// Accumulators merged across a result set (one latency / hit-rate sample
/// per simulated point, all GICost samples via Accumulator::merge).
struct SweepSummary {
  util::Accumulator gicost_ms;
  util::Accumulator latency_ms;
  util::Accumulator group_hit_rate;
};

SweepSummary summarize(const std::vector<SweepPointResult>& results);

class SweepRunner {
 public:
  /// `pool`: nullptr = the process-wide pool (ECGF_THREADS).
  /// `tracer`: nullptr = the global tracer (obs::install_global_tracer),
  /// which is itself null unless observability was wired up — so the
  /// default is traced exactly when the process asked for tracing.
  explicit SweepRunner(util::ThreadPool* pool = nullptr,
                       obs::Tracer* tracer = nullptr);

  /// Evaluate every point; results[i] corresponds to points[i].
  /// Thread-safe for distinct runners; a single runner may be reused for
  /// sequential run() calls (trace streams restart at 1 each call).
  std::vector<SweepPointResult> run(const std::vector<SweepPoint>& points) const;

 private:
  util::ThreadPool* pool_;
  obs::Tracer* tracer_;
};

}  // namespace ecgf::core
