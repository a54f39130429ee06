#include "workloads.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "cache/catalog.h"
#include "cluster/quality.h"
#include "core/network_builder.h"
#include "core/scheme.h"
#include "ctl/maintenance.h"
#include "live/coordinator.h"
#include "live/member.h"
#include "live/runspec.h"
#include "net/distance_matrix.h"
#include "net/drift.h"
#include "net/prober.h"
#include "net/synthetic.h"
#include "obs/export.h"
#include "obs/profile.h"
#include "shard/sharded_sim.h"
#include "sim/simulator.h"
#include "topology/attachment.h"
#include "topology/transit_stub.h"
#include "util/flags.h"
#include "util/rng.h"
#include "workload/stream.h"

extern char** environ;

namespace perfbench {

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
}

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"topology.generate_ms", "ms"},
      {"topology.rtt_matrix_ms", "ms"},
      {"topology.dijkstra_ms", "ms"},
      {"net.probes", "count"},
      {"net.rtt_lookups", "count"},
      {"net.lookup_ms", "ms"},
      {"core.positioning_ms", "ms"},
      {"cluster.kmeans_ms", "ms"},
      {"cluster.kmeans_iterations", "count"},
      {"cluster.kmeans_converged", "count"},
      {"schemes.sl.form_ms", "ms"},
      {"schemes.sdsl.form_ms", "ms"},
      {"core.partition_valid", "count"},
      {"workload.requests", "count"},
      {"workload.updates", "count"},
      {"workload.generate_ms", "ms"},
      {"cache.local_hits", "count"},
      {"cache.group_hits", "count"},
      {"cache.origin_fetches", "count"},
      {"cache.invalidations_pushed", "count"},
      {"cache.stale_served", "count"},
      {"sim.construct_ms", "ms"},
      {"sim.run_ms", "ms"},
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.apply_groups_ms", "ms"},
      {"sim.regroupings", "count"},
      {"shard.construct_ms", "ms"},
      {"shard.run_ms", "ms"},
      {"shard.threads", "count"},
      {"shard.cuts", "count"},
      {"shard.windows", "count"},
      {"shard.merges_skipped", "count"},
      {"shard.epoch_final_ms", "ms"},
      {"shard.speedup", "x"},
      {"ctl.ticks", "count"},
      {"ctl.tick_ms", "ms"},
      {"ctl.rtt_samples", "count"},
      {"ctl.repairs", "count"},
      {"ctl.reforms", "count"},
      {"ctl.probes", "count"},
      {"live.requests_per_s", "1/s"},
      {"live.run_ms", "ms"},
      {"live.oracle_ms", "ms"},
      {"live.overhead_x", "x"},
      {"live.cuts", "count"},
      {"live.windows", "count"},
      {"live.barriers", "count"},
      {"live.probes", "count"},
      {"live.qualify_frames", "count"},
      {"obs.trace_overhead_s", "s"},
  };
  return metrics;
}

namespace {

using namespace ecgf;
using Groups = std::vector<std::vector<cache::CacheIndex>>;

// Salts deriving independent RNG streams from the workload seed.
constexpr std::uint64_t kCatalogSalt = 0x636174616c6f67ull;
constexpr std::uint64_t kStreamSalt = 0x73747265616dull;
constexpr std::uint64_t kProberSalt = 0x70726f6265ull;
constexpr std::uint64_t kFormSalt = 0x666f726dull;
constexpr std::uint64_t kTopologySalt = 0x746f706full;
constexpr std::uint64_t kDriftSalt = 0x6472696674ull;
constexpr std::uint64_t kChurnSalt = 0x636875726eull;
constexpr std::uint64_t kCtlSalt = 0x63746cull;

std::string report_line(const sim::SimulationReport& report,
                        std::string_view label) {
  std::ostringstream os;
  obs::write_report_jsonl(os, report, label);
  return os.str();
}

/// K non-empty groups covering every cache in [0, n) exactly once.
bool valid_partition(const Groups& groups, std::size_t n, std::size_t k) {
  if (groups.size() != k) return false;
  std::vector<std::uint8_t> seen(n, 0);
  for (const auto& g : groups) {
    if (g.empty()) return false;
    for (const cache::CacheIndex c : g) {
      if (c >= n || seen[c] != 0) return false;
      seen[c] = 1;
    }
  }
  return std::all_of(seen.begin(), seen.end(),
                     [](std::uint8_t s) { return s != 0; });
}

/// The paper's average group interaction cost on ground-truth RTTs.
double gicost_ms(const Groups& groups, const net::RttProvider& truth) {
  std::vector<std::vector<std::size_t>> g;
  g.reserve(groups.size());
  for (const auto& members : groups) g.emplace_back(members.begin(), members.end());
  return cluster::average_group_interaction_cost(
      g, [&](std::size_t a, std::size_t b) {
        return truth.rtt_ms(static_cast<net::HostId>(a),
                            static_cast<net::HostId>(b));
      });
}

std::uint64_t drain(workload::WorkloadSource& source) {
  auto stream = source.requests();
  workload::Request r;
  std::uint64_t key = 0;
  std::uint64_t n = 0;
  while (stream->next(r, key)) ++n;
  return n;
}

sim::SimulationConfig base_sim_config(Groups groups) {
  sim::SimulationConfig config;
  config.groups = std::move(groups);
  config.cache_capacity_bytes = 2ull << 20;
  config.policy = cache::PolicyKind::kUtility;
  config.beacons_per_group = 3;
  config.directory = sim::DirectoryMode::kBeacon;
  config.consistency = sim::ConsistencyMode::kPushInvalidation;
  return config;
}

/// Paper formation config: L = 25, M = 2, theta = 2.
core::SchemeConfig paper_scheme_config() {
  core::SchemeConfig config;
  config.num_landmarks = 25;
  config.m_multiplier = 2;
  config.theta = 2.0;
  return config;
}

/// Per-pass accumulators shared by the workloads.
struct PassTotals {
  std::uint64_t seq_requests = 0;
  double seq_s = 0.0;
  std::uint64_t shard_requests = 0;
  double shard_s = 0.0;
  double formation_s = 0.0;
};

/// Profile scopes (ECGF_PROF) are the only view into form_groups'
/// internals; they are switched on for traced passes alone.
class ProfileWindow {
 public:
  explicit ProfileWindow(bool on) : on_(on) {
    if (on_) {
      obs::ProfileRegistry::global().reset();
      util::set_prof_enabled(true);
    }
  }
  ~ProfileWindow() {
    if (on_) util::set_prof_enabled(false);
  }
  ProfileWindow(const ProfileWindow&) = delete;
  ProfileWindow& operator=(const ProfileWindow&) = delete;

  void read_into(Values& layers) const {
    if (!on_) return;
    for (const auto& [name, stat] : obs::ProfileRegistry::global().snapshot()) {
      if (name == "core.positioning") layers["core.positioning_ms"] += stat.total_ms;
      if (name == "cluster.kmeans") layers["cluster.kmeans_ms"] += stat.total_ms;
      if (name == "topology.dijkstra") layers["topology.dijkstra_ms"] += stat.total_ms;
    }
  }

 private:
  bool on_;
};

/// One formation through the public GroupingScheme interface.
struct Formation {
  core::GroupingResult result;
  Groups groups;
  double ms = 0.0;
  std::size_t probes = 0;
};

Formation form(SpanRecorder& spans, const char* span_name,
               const core::GroupingScheme& scheme, std::size_t caches,
               std::size_t k, const net::RttProvider& rtt,
               const net::ProberOptions& probing, std::uint64_t seed,
               Checks& checks, Values& layers) {
  net::Prober prober(rtt, probing, util::Rng(seed ^ kProberSalt));
  util::Rng rng(seed ^ kFormSalt);
  Formation f;
  {
    Timed t(spans, span_name);
    f.result = scheme.form_groups(caches, static_cast<net::HostId>(caches), k,
                                  prober, rng, nullptr);
    f.ms = t.stop();
  }
  f.groups = f.result.partition();
  f.probes = f.result.probes_used;
  const bool valid = valid_partition(f.groups, caches, k);
  checks.expect(valid, std::string(scheme.name()) + " partition is valid");
  layers["core.partition_valid"] += valid ? 1.0 : 0.0;
  layers["cluster.kmeans_iterations"] +=
      static_cast<double>(f.result.kmeans_iterations);
  layers["cluster.kmeans_converged"] += f.result.kmeans_converged ? 1.0 : 0.0;
  layers["net.probes"] += static_cast<double>(prober.probes_sent());
  return f;
}

/// What one driver run needs beyond the shared config: the RTT view the
/// program reads, a fresh workload source and, optionally, a control hook
/// and a time-varying provider to bind to the driver's clock.
struct RunInputs {
  const net::RttProvider* rtt = nullptr;
  std::unique_ptr<workload::WorkloadSource> source;
  sim::ControlHook* hook = nullptr;
  net::DriftingRttProvider* drifting = nullptr;
};

struct DriverRun {
  sim::SimulationReport report;
  double construct_ms = 0.0;
  double run_ms = 0.0;
};

template <typename Driver, typename Construct>
DriverRun drive(SpanRecorder& spans, const std::string& layer, bool traced,
                RunInputs& in, sim::SimulationConfig config,
                Construct construct, Values& layers) {
  std::optional<CountingWorkloadSource> counted;
  if (traced) counted.emplace(*in.source);
  workload::WorkloadSource& source =
      traced ? static_cast<workload::WorkloadSource&>(*counted) : *in.source;
  std::optional<TimedControlHook> hook;
  if (traced && in.hook != nullptr) hook.emplace(*in.hook);
  config.control_hook =
      in.hook == nullptr ? nullptr
                         : (traced ? static_cast<sim::ControlHook*>(&*hook)
                                   : in.hook);

  DriverRun out;
  Timed whole(spans, layer);
  std::unique_ptr<Driver> driver;
  {
    Timed t(spans, layer + ".construct");
    driver = construct(*in.rtt, std::move(config));
    out.construct_ms = t.stop();
  }
  if (in.drifting != nullptr) in.drifting->bind_clock(driver->clock_ptr());
  {
    Timed t(spans, layer + ".run");
    out.report = driver->run(source);
    out.run_ms = t.stop();
  }
  if (in.drifting != nullptr) in.drifting->bind_clock(nullptr);
  whole.stop();

  layers[layer + ".construct_ms"] += out.construct_ms;
  layers[layer + ".run_ms"] += out.run_ms;
  if constexpr (std::is_same_v<Driver, shard::ShardedSimulator>) {
    layers["shard.threads"] = static_cast<double>(driver->execution_threads());
    layers["shard.cuts"] += static_cast<double>(driver->cuts_executed());
    layers["shard.windows"] += static_cast<double>(driver->windows_dispatched());
    layers["shard.merges_skipped"] +=
        static_cast<double>(driver->merges_skipped());
    layers["shard.epoch_final_ms"] = driver->epoch_ms();
  } else {
    const sim::SimulationReport& r = out.report;
    layers["sim.events"] += static_cast<double>(r.events_executed);
    layers["sim.regroupings"] += static_cast<double>(r.regroupings);
    layers["cache.local_hits"] += static_cast<double>(r.raw_counts.local_hits);
    layers["cache.group_hits"] += static_cast<double>(r.raw_counts.group_hits);
    layers["cache.origin_fetches"] +=
        static_cast<double>(r.raw_counts.origin_fetches);
    layers["cache.invalidations_pushed"] +=
        static_cast<double>(r.invalidations_pushed);
    layers["cache.stale_served"] += static_cast<double>(r.stale_served);
    layers["workload.updates"] += static_cast<double>(source.updates().size());
    if (traced) {
      layers["workload.requests"] += static_cast<double>(counted->requests());
    }
    if (hook) {
      layers["ctl.ticks"] += static_cast<double>(hook->ticks());
      layers["ctl.tick_ms"] += hook->tick_ms();
      layers["ctl.rtt_samples"] += static_cast<double>(hook->rtt_samples());
      if (hook->host() != nullptr) {
        layers["sim.apply_groups_ms"] += hook->host()->total_ms();
      }
    }
  }
  return out;
}

/// Runs one simulation on the sequential and the sharded driver with
/// identical inputs, checks the two reports are byte-identical and that
/// requests are conserved, and adds the throughputs to `totals`.
/// `make_inputs()` builds a fresh RunInputs per driver.
template <typename MakeInputs>
sim::SimulationReport simulate_both(SpanRecorder& spans, bool traced,
                                    const cache::Catalog& catalog,
                                    net::HostId server,
                                    const sim::SimulationConfig& config,
                                    MakeInputs make_inputs,
                                    std::uint64_t expected_requests,
                                    std::size_t threads, const std::string& label,
                                    Checks& checks, PassTotals& totals,
                                    Values& layers, std::string& reports) {
  DriverRun seq;
  {
    RunInputs in = make_inputs();
    seq = drive<sim::Simulator>(
        spans, "sim", traced, in, config,
        [&](const net::RttProvider& rtt, sim::SimulationConfig c) {
          return std::make_unique<sim::Simulator>(catalog, rtt, server,
                                                  std::move(c));
        },
        layers);
  }
  DriverRun sharded;
  {
    RunInputs in = make_inputs();
    shard::ShardOptions options;
    options.shards = threads;
    options.threads = threads;
    sharded = drive<shard::ShardedSimulator>(
        spans, "shard", traced, in, config,
        [&](const net::RttProvider& rtt, sim::SimulationConfig c) {
          return std::make_unique<shard::ShardedSimulator>(
              catalog, rtt, server, std::move(c), options);
        },
        layers);
  }
  const std::string seq_bytes = report_line(seq.report, label);
  checks.expect(seq_bytes == report_line(sharded.report, label),
                label + ": sequential and sharded reports are identical");
  checks.expect(seq.report.requests_processed == expected_requests,
                label + ": requests conserved (" +
                    std::to_string(seq.report.requests_processed) + " vs " +
                    std::to_string(expected_requests) + " drained)");
  totals.seq_requests += seq.report.requests_processed;
  totals.seq_s += (seq.construct_ms + seq.run_ms) / 1e3;
  totals.shard_requests += sharded.report.requests_processed;
  totals.shard_s += (sharded.construct_ms + sharded.run_ms) / 1e3;
  reports += seq_bytes;
  return seq.report;
}

void finish_pass(const PassTotals& totals, PassResult& out) {
  out.end_to_end["formation_s"] = totals.formation_s;
  out.end_to_end["seq_requests_per_s"] =
      static_cast<double>(totals.seq_requests) / totals.seq_s;
  out.end_to_end["shard_requests_per_s"] =
      static_cast<double>(totals.shard_requests) / totals.shard_s;
  Values& l = out.layers;
  if (l["sim.events"] > 0.0) {
    l["sim.ns_per_event"] = l["sim.run_ms"] * 1e6 / l["sim.events"];
  }
  if (l["shard.run_ms"] > 0.0) l["shard.speedup"] = l["sim.run_ms"] / l["shard.run_ms"];
}

/// Seed of world `i` of a pass. A pass runs several independent worlds so
/// that the work it measures varies less from one workload seed to the
/// next (K-means iteration counts and hit patterns depend on the world).
std::uint64_t world_seed(std::uint64_t seed, std::size_t i) {
  std::uint64_t z = seed + (static_cast<std::uint64_t>(i) + 1) *
                               0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Model outputs of a pass: quality metrics are means over its groupings,
/// the formation probe count is their total.
struct Quality {
  double miss_ms = 0.0;
  double hit_rate = 0.0;
  double gicost_ms = 0.0;
  double probes = 0.0;
  std::size_t groupings = 0;

  void add(const sim::SimulationReport& report, double gicost,
           double formation_probes) {
    miss_ms += report.avg_miss_latency_ms;
    hit_rate += report.counts.group_hit_rate();
    gicost_ms += gicost;
    probes += formation_probes;
    ++groupings;
  }
  void write(PassResult& out) const {
    const double n = static_cast<double>(groupings);
    out.end_to_end["miss_latency_ms"] = miss_ms / n;
    out.end_to_end["group_hit_rate"] = hit_rate / n;
    out.end_to_end["gicost_ms"] = gicost_ms / n;
    out.end_to_end["formation_probes"] = probes;
  }
};

/// The shape every workload shares: a pass builds and runs `worlds`
/// independent worlds, then turns the accumulated totals into metrics.
class WorldsWorkload : public Workload {
 public:
  double setup_only() final {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < worlds_; ++i) build_world(i);
    return ms_between(t0, Clock::now());
  }

  PassResult pass(SpanRecorder& spans, bool traced, Checks& checks) final {
    PassResult out;
    const ProfileWindow profile(traced);
    const auto t0 = Clock::now();
    PassTotals totals;
    Quality quality;
    for (std::size_t i = 0; i < worlds_; ++i) {
      run_world(i, spans, traced, checks, out, totals, quality);
    }
    quality.write(out);
    profile.read_into(out.layers);
    finish_pass(totals, out);
    out.wall_ms = ms_between(t0, Clock::now());
    return out;
  }

 protected:
  WorldsWorkload(const Options& options, std::size_t worlds)
      : options_(options), worlds_(worlds) {}

  /// Builds world `i` as set-up does and returns its workload source.
  virtual std::unique_ptr<workload::WorkloadSource> build_world(
      std::size_t i) = 0;
  /// Runs world `i` of a pass: its own set-up, formation, both drivers.
  virtual void run_world(std::size_t i, SpanRecorder& spans, bool traced,
                         Checks& checks, PassResult& out, PassTotals& totals,
                         Quality& quality) = 0;

  /// Drains an identical source per world: the conservation reference.
  /// Called from the derived constructor, once its world spec is set.
  void count_requests() {
    for (std::size_t i = 0; i < worlds_; ++i) {
      expected_requests_.push_back(drain(*build_world(i)));
    }
  }

  std::uint64_t seed_of(std::size_t i) const {
    return world_seed(options_.seed, i);
  }

  Options options_;
  std::vector<std::uint64_t> expected_requests_;  ///< per world

 private:
  std::size_t worlds_;
};

// ---------------------------------------------------------------------
// formation: SL and SDSL over a large plane; K-means dominates.
// ---------------------------------------------------------------------

/// A world on net::PlaneRttProvider: positions, catalog and the stream
/// parameters (sources are built per run from the same seed).
struct PlaneWorld {
  net::PlaneRttProvider rtt;
  cache::Catalog catalog;
  workload::WorkloadParams params;
  std::uint64_t seed;

  std::unique_ptr<workload::WorkloadSource> source() const {
    util::Rng rng(seed ^ kStreamSalt);
    return std::make_unique<workload::SyntheticWorkload>(params, catalog, rng);
  }
};

struct PlaneSpec {
  std::size_t worlds = 1;  ///< independent worlds per pass
  std::size_t caches = 0;
  std::size_t documents = 0;
  double rate_per_cache_per_s = 0.0;
  double duration_ms = 0.0;
};

PlaneWorld build_plane_world(const PlaneSpec& spec, std::uint64_t seed,
                             std::unique_ptr<workload::WorkloadSource>* first) {
  net::PlaneOptions plane;
  plane.seed = seed;
  net::PlaneRttProvider rtt(spec.caches + 1, plane);
  cache::CatalogParams cp;
  cp.document_count = spec.documents;
  util::Rng catalog_rng(seed ^ kCatalogSalt);
  cache::Catalog catalog = cache::Catalog::generate(cp, catalog_rng);
  workload::WorkloadParams params;
  params.cache_count = spec.caches;
  params.duration_ms = spec.duration_ms;
  params.requests_per_cache_per_s = spec.rate_per_cache_per_s;
  params.zipf_alpha = 0.9;
  params.similarity = 0.8;
  params.profile = workload::StreamProfile::kLean;
  PlaneWorld world{std::move(rtt), std::move(catalog), params, seed};
  // Set-up covers the first workload source too.
  *first = world.source();
  return world;
}

class PlaneWorkload final : public WorldsWorkload {
 public:
  PlaneWorkload(const Options& options, PlaneSpec spec,
                std::vector<const char*> schemes)
      : WorldsWorkload(options, spec.worlds),
        spec_(spec),
        schemes_(std::move(schemes)) {
    count_requests();
  }

 private:
  std::unique_ptr<workload::WorkloadSource> build_world(
      std::size_t i) override {
    std::unique_ptr<workload::WorkloadSource> first;
    build_plane_world(spec_, seed_of(i), &first);
    return first;
  }

  void run_world(std::size_t i, SpanRecorder& spans, bool traced,
                 Checks& checks, PassResult& out, PassTotals& totals,
                 Quality& quality) override {
    Values& layers = out.layers;
    const std::uint64_t seed = seed_of(i);
    std::unique_ptr<workload::WorkloadSource> first;
    std::optional<PlaneWorld> world;
    {
      Timed t(spans, "setup");
      world.emplace(build_plane_world(spec_, seed, &first));
      out.setup_ms += t.stop();
    }
    if (traced) {
      Timed t(spans, "workload.generate");
      drain(*first);
      layers["workload.generate_ms"] += t.stop();
    }
    const std::size_t k = spec_.caches / 64;
    const net::HostId server = static_cast<net::HostId>(spec_.caches);
    std::optional<CountingRttProvider> counting;
    if (traced) counting.emplace(world->rtt, true);
    const net::RttProvider& rtt =
        traced ? static_cast<const net::RttProvider&>(*counting) : world->rtt;

    for (const char* name : schemes_) {
      const std::string key = name;
      std::unique_ptr<core::GroupingScheme> scheme;
      if (key == "sl") {
        scheme = std::make_unique<core::SlScheme>(paper_scheme_config());
      } else {
        scheme = std::make_unique<core::SdslScheme>(paper_scheme_config());
      }
      const Formation f =
          form(spans, key == "sl" ? "schemes.sl.form" : "schemes.sdsl.form",
               *scheme, spec_.caches, k, rtt, net::ProberOptions{}, seed,
               checks, layers);
      layers["schemes." + key + ".form_ms"] += f.ms;
      totals.formation_s += f.ms / 1e3;

      const std::string label = "world" + std::to_string(i) + "/" + key;
      const sim::SimulationReport report = simulate_both(
          spans, traced, world->catalog, server, base_sim_config(f.groups),
          [&] {
            RunInputs in;
            in.rtt = &rtt;
            in.source = world->source();
            return in;
          },
          expected_requests_[i], options_.threads, label, checks, totals,
          layers, out.reports);
      quality.add(report, gicost_ms(f.groups, world->rtt),
                  static_cast<double>(f.probes));
    }
    if (traced) {
      layers["net.rtt_lookups"] += static_cast<double>(counting->lookups());
      layers["net.lookup_ms"] += counting->lookup_ms();
    }
  }

  PlaneSpec spec_;
  std::vector<const char*> schemes_;
};

// ---------------------------------------------------------------------
// churn: GT-ITM network, drifting RTTs, scripted churn, ctl maintenance.
// ---------------------------------------------------------------------

struct ChurnSpec {
  std::size_t worlds = 1;  ///< independent worlds per pass
  std::size_t caches = 0;
  std::size_t documents = 0;
  double rate_per_cache_per_s = 0.0;
  double duration_ms = 0.0;
  std::size_t churn_caches = 0;
};

/// The churn world: the transit-stub network's ground-truth matrix plus
/// catalog and stream parameters.
struct ChurnWorld {
  net::DistanceMatrix matrix;
  cache::Catalog catalog;
  workload::WorkloadParams params;
  std::uint64_t seed;

  std::unique_ptr<workload::WorkloadSource> source() const {
    util::Rng rng(seed ^ kStreamSalt);
    return std::make_unique<workload::SyntheticWorkload>(params, catalog, rng);
  }
};

ChurnWorld build_churn_world(const ChurnSpec& spec, std::uint64_t seed,
                             SpanRecorder& spans, Values* layers,
                             std::unique_ptr<workload::WorkloadSource>* first) {
  util::Rng rng(seed ^ kTopologySalt);
  util::Rng topo_rng = rng.fork(1);
  util::Rng place_rng = rng.fork(2);
  std::optional<topology::TransitStubTopology> topo;
  topology::HostPlacement placement;
  {
    Timed t(spans, "topology.generate");
    topo.emplace(topology::generate_transit_stub(
        core::scaled_topology_for(spec.caches), topo_rng));
    placement = topology::place_hosts(*topo, spec.caches + 1,
                                      topology::PlacementOptions{}, place_rng);
    if (layers != nullptr) (*layers)["topology.generate_ms"] += t.stop();
  }
  std::optional<net::DistanceMatrix> matrix;
  {
    Timed t(spans, "topology.rtt_matrix");
    matrix.emplace(core::host_rtt_distance_matrix(topo->graph, placement));
    if (layers != nullptr) (*layers)["topology.rtt_matrix_ms"] += t.stop();
  }
  cache::CatalogParams cp;
  cp.document_count = spec.documents;
  util::Rng catalog_rng(seed ^ kCatalogSalt);
  cache::Catalog catalog = cache::Catalog::generate(cp, catalog_rng);
  workload::WorkloadParams params;
  params.cache_count = spec.caches;
  params.duration_ms = spec.duration_ms;
  params.requests_per_cache_per_s = spec.rate_per_cache_per_s;
  params.zipf_alpha = 0.9;
  params.similarity = 0.8;
  params.profile = workload::StreamProfile::kLean;
  ChurnWorld world{std::move(*matrix), std::move(catalog), params, seed};
  *first = world.source();
  return world;
}

class ChurnWorkload final : public WorldsWorkload {
 public:
  ChurnWorkload(const Options& options, ChurnSpec spec)
      : WorldsWorkload(options, spec.worlds), spec_(spec) {
    count_requests();
  }

 private:
  std::unique_ptr<workload::WorkloadSource> build_world(
      std::size_t i) override {
    SpanRecorder idle;
    std::unique_ptr<workload::WorkloadSource> first;
    build_churn_world(spec_, seed_of(i), idle, nullptr, &first);
    return first;
  }

  void run_world(std::size_t i, SpanRecorder& spans, bool traced,
                 Checks& checks, PassResult& out, PassTotals& totals,
                 Quality& quality) override {
    Values& layers = out.layers;
    const std::uint64_t seed = seed_of(i);
    std::unique_ptr<workload::WorkloadSource> first;
    std::optional<ChurnWorld> world;
    {
      Timed t(spans, "setup");
      world.emplace(build_churn_world(spec_, seed, spans,
                                      traced ? &layers : nullptr, &first));
      out.setup_ms += t.stop();
    }
    if (traced) {
      Timed t(spans, "workload.generate");
      drain(*first);
      layers["workload.generate_ms"] += t.stop();
    }
    const std::size_t caches = spec_.caches;
    const std::size_t k = caches / 64;
    const net::HostId server = static_cast<net::HostId>(caches);
    const net::MatrixRttProvider truth(world->matrix);

    net::DriftOptions drift;
    drift.drift_fraction = 0.5;
    drift.ramp_start_ms = 0.25 * spec_.duration_ms;
    drift.ramp_end_ms = 0.75 * spec_.duration_ms;
    drift.max_weight = 1.0;

    // Formation at t = 0 on the undrifted network, noise-free so the
    // maintenance baseline is the t = 0 ground truth.
    std::optional<CountingRttProvider> form_counting;
    if (traced) form_counting.emplace(truth, true);
    net::ProberOptions probing;
    probing.jitter_sigma = 0.0;
    const core::SdslScheme scheme(paper_scheme_config());
    const Formation f = form(
        spans, "schemes.sdsl.form", scheme, caches, k,
        traced ? static_cast<const net::RttProvider&>(*form_counting) : truth,
        probing, seed, checks, layers);
    layers["schemes.sdsl.form_ms"] += f.ms;
    totals.formation_s += f.ms / 1e3;

    sim::SimulationConfig config = base_sim_config(f.groups);
    {
      util::Rng churn_rng(seed ^ kChurnSalt);
      const auto leavers = churn_rng.sample_indices(caches, spec_.churn_caches);
      for (std::size_t j = 0; j < leavers.size(); ++j) {
        const auto cache = static_cast<cache::CacheIndex>(leavers[j]);
        const double leave =
            (0.3 + 0.3 * static_cast<double>(j) /
                       static_cast<double>(leavers.size())) *
            spec_.duration_ms;
        config.membership_events.push_back(
            {sim::MembershipChange::Kind::kLeave, cache, leave});
        config.membership_events.push_back(
            {sim::MembershipChange::Kind::kJoin, cache,
             leave + 0.15 * spec_.duration_ms});
      }
      std::sort(config.membership_events.begin(),
                config.membership_events.end(),
                [](const sim::MembershipChange& a,
                   const sim::MembershipChange& b) {
                  return a.time_ms < b.time_ms;
                });
    }
    config.control_interval_ms = spec_.duration_ms / 24.0;

    // Each driver run owns its drifting provider (bound to that driver's
    // clock), the counting view over it, and its maintenance session.
    struct Owned {
      std::unique_ptr<net::DriftingRttProvider> drifting;
      std::unique_ptr<CountingRttProvider> counting;
      std::unique_ptr<ctl::MaintenanceSession> session;
    };
    std::vector<Owned> owned;
    owned.reserve(2);
    const auto make_inputs = [&] {
      Owned& o = owned.emplace_back();
      util::Rng drift_rng(seed ^ kDriftSalt);
      o.drifting = std::make_unique<net::DriftingRttProvider>(world->matrix,
                                                              drift, drift_rng);
      const net::RttProvider* rtt = o.drifting.get();
      if (traced) {
        o.counting = std::make_unique<CountingRttProvider>(*o.drifting, true);
        rtt = o.counting.get();
      }
      ctl::MaintenanceConfig mc = ctl::make_maintenance_config(
          f.result, caches, scheme.maintainer());
      mc.policy.repair_threshold_ms = 10.0;
      mc.policy.reform_threshold_ms = 25.0;
      mc.budget.caches_per_tick = 8;
      mc.prober.probes_per_measurement = 1;
      mc.prober.jitter_sigma = 0.0;
      mc.kmeans.restarts = 2;
      mc.seed = seed ^ kCtlSalt;
      o.session = std::make_unique<ctl::MaintenanceSession>(*rtt, mc);
      RunInputs in;
      in.rtt = rtt;
      in.source = world->source();
      in.hook = o.session.get();
      in.drifting = o.drifting.get();
      return in;
    };
    const sim::SimulationReport report = simulate_both(
        spans, traced, world->catalog, server, config, make_inputs,
        expected_requests_[i], options_.threads,
        "world" + std::to_string(i) + "/churn", checks, totals, layers,
        out.reports);

    const ctl::MaintenanceSession& session = *owned.front().session;
    layers["ctl.repairs"] += static_cast<double>(session.repairs());
    layers["ctl.reforms"] += static_cast<double>(session.reforms());
    layers["ctl.probes"] += static_cast<double>(session.probes_sent());
    for (const Owned& o : owned) {
      layers["net.probes"] += static_cast<double>(o.session->probes_sent());
    }
    if (traced) {
      layers["net.rtt_lookups"] += static_cast<double>(form_counting->lookups());
      layers["net.lookup_ms"] += form_counting->lookup_ms();
      for (const Owned& o : owned) {
        layers["net.rtt_lookups"] += static_cast<double>(o.counting->lookups());
        layers["net.lookup_ms"] += o.counting->lookup_ms();
      }
    }
    quality.add(report, gicost_ms(f.groups, truth),
                static_cast<double>(f.probes));
  }

  ChurnSpec spec_;
};

// ---------------------------------------------------------------------
// live: coordinator plus member processes over loopback.
// ---------------------------------------------------------------------

/// Member processes re-run this binary in member mode. Reaps them on
/// every path; kills any still running when the coordinator failed.
class Members {
 public:
  Members(const std::string& exe, std::size_t count, std::uint16_t port) {
    const std::string port_arg = std::to_string(port);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    // Members must not write to the benchmark's stdout.
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    for (std::size_t m = 0; m < count; ++m) {
      std::vector<char*> argv = {const_cast<char*>(exe.c_str()),
                                 const_cast<char*>("--member"),
                                 const_cast<char*>(port_arg.c_str()), nullptr};
      pid_t pid = 0;
      if (posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(),
                      environ) != 0) {
        posix_spawn_file_actions_destroy(&actions);
        kill_all();
        throw std::runtime_error("could not spawn a live member");
      }
      pids_.push_back(pid);
    }
    posix_spawn_file_actions_destroy(&actions);
  }
  ~Members() { kill_all(); }
  Members(const Members&) = delete;
  Members& operator=(const Members&) = delete;

  /// Wait for every member; true when all exited with status 0.
  bool wait_all() {
    bool ok = true;
    for (const pid_t pid : pids_) {
      int status = 0;
      if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
          WEXITSTATUS(status) != 0) {
        ok = false;
      }
    }
    pids_.clear();
    return ok;
  }

 private:
  void kill_all() {
    for (const pid_t pid : pids_) kill(pid, SIGKILL);
    for (const pid_t pid : pids_) waitpid(pid, nullptr, 0);
    pids_.clear();
  }

  std::vector<pid_t> pids_;
};

class LiveWorkload final : public WorldsWorkload {
 public:
  explicit LiveWorkload(const Options& options) : WorldsWorkload(options, 1) {
    spec_.seed = options.seed;
    spec_.cache_count = options.smoke ? 64u : 2048u;
    spec_.group_count = spec_.cache_count / 64;
    spec_.document_count = 4'000;
    spec_.duration_ms = options.smoke ? 4'000.0 : 20'000.0;
    spec_.requests_per_cache_per_s = 4.0;
    spec_.profile = static_cast<std::uint8_t>(workload::StreamProfile::kLean);
    spec_.scheme = 1;  // SDSL
    spec_.num_landmarks = 5;
    spec_.qualify = 1;
    count_requests();
  }

 private:
  std::unique_ptr<workload::WorkloadSource> build_world(std::size_t) override {
    return std::move(live::build_world(spec_).workload);
  }

  void run_world(std::size_t, SpanRecorder& spans, bool traced,
                 Checks& checks, PassResult& out, PassTotals& totals,
                 Quality& quality) override {
    Values& layers = out.layers;
    std::optional<live::World> world;
    {
      Timed t(spans, "setup");
      world.emplace(live::build_world(spec_));
      out.setup_ms += t.stop();
    }
    if (traced) {
      Timed t(spans, "workload.generate");
      drain(*build_world(0));
      layers["workload.generate_ms"] += t.stop();
    }
    const std::size_t caches = spec_.cache_count;
    const net::HostId server = world->server();

    // form_live_groups builds its own prober; the counting view yields its
    // probe count (probes_per_measurement per lookup).
    CountingRttProvider counting(world->rtt, traced);
    Groups groups;
    {
      Timed t(spans, "schemes.sdsl.form");
      groups = live::form_live_groups(spec_, counting, nullptr);
      const double ms = t.stop();
      layers["schemes.sdsl.form_ms"] += ms;
      totals.formation_s += ms / 1e3;
    }
    const double probes = static_cast<double>(counting.lookups()) *
                          static_cast<double>(spec_.probes_per_measurement);
    const bool valid = valid_partition(groups, caches, spec_.group_count);
    checks.expect(valid, "live partition is valid");
    layers["core.partition_valid"] += valid ? 1.0 : 0.0;
    layers["net.probes"] += probes;

    std::optional<CountingRttProvider> sim_counting;
    if (traced) sim_counting.emplace(world->rtt, true);
    const net::RttProvider& rtt =
        traced ? static_cast<const net::RttProvider&>(*sim_counting)
               : world->rtt;
    std::vector<live::World> sources;
    sources.reserve(2);
    const sim::SimulationReport report = simulate_both(
        spans, traced, world->catalog, server,
        live::sim_config_for(spec_, groups),
        [&] {
          // Each driver needs a fresh stream; the world rebuild is the only
          // public way to get one identical to the oracle's.
          RunInputs in;
          in.rtt = &rtt;
          in.source = std::move(sources.emplace_back(live::build_world(spec_)).workload);
          return in;
        },
        expected_requests_[0], options_.threads, "live", checks, totals,
        layers, out.reports);
    const std::string seq_bytes = report_line(report, "live");

    live::LiveRunResult result;
    double live_ms = 0.0;
    {
      Timed t(spans, "live.run");
      live::CoordinatorOptions co;
      co.members = static_cast<std::uint32_t>(options_.members);
      live::Coordinator coordinator(spec_, co);
      Members members(options_.self_exe, options_.members, coordinator.port());
      result = coordinator.run();
      checks.expect(members.wait_all(), "live members exited cleanly");
      live_ms = t.stop();
    }
    checks.expect(report_line(result.report, "live") == seq_bytes,
                  "live report equals the sequential driver's");
    double oracle_ms = 0.0;
    {
      Timed t(spans, "live.oracle");
      const live::OracleResult oracle = live::run_oracle(spec_);
      oracle_ms = t.stop();
      checks.expect(report_line(oracle.report, "live") ==
                        report_line(result.report, "live"),
                    "live report equals live::run_oracle's");
    }
    layers["live.requests_per_s"] =
        static_cast<double>(result.report.requests_processed) / (live_ms / 1e3);
    layers["live.run_ms"] = live_ms;
    layers["live.oracle_ms"] = oracle_ms;
    layers["live.overhead_x"] = live_ms / oracle_ms;
    layers["live.cuts"] = static_cast<double>(result.cuts);
    layers["live.windows"] = static_cast<double>(result.windows);
    layers["live.barriers"] = static_cast<double>(result.barriers);
    layers["live.probes"] = static_cast<double>(result.probes);
    layers["live.qualify_frames"] = static_cast<double>(result.qualify_frames);

    quality.add(report, gicost_ms(groups, world->rtt), probes);
    if (traced) {
      layers["net.rtt_lookups"] =
          static_cast<double>(counting.lookups() + sim_counting->lookups());
      layers["net.lookup_ms"] = counting.lookup_ms() + sim_counting->lookup_ms();
    }
  }

  live::RunSpec spec_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& options) {
  const bool smoke = options.smoke;
  if (name == "formation") {
    PlaneSpec spec;
    spec.worlds = smoke ? 1 : 2;
    spec.caches = smoke ? 512 : 8'192;
    spec.documents = 2'000;
    spec.rate_per_cache_per_s = 0.5;
    spec.duration_ms = smoke ? 5'000.0 : 10'000.0;
    return std::make_unique<PlaneWorkload>(
        options, spec, std::vector<const char*>{"sl", "sdsl"});
  }
  if (name == "serve") {
    PlaneSpec spec;
    spec.worlds = 1;
    spec.caches = smoke ? 256 : 4'096;
    spec.documents = 4'000;
    spec.rate_per_cache_per_s = 2.0;
    spec.duration_ms = smoke ? 5'000.0 : 60'000.0;
    return std::make_unique<PlaneWorkload>(options, spec,
                                           std::vector<const char*>{"sdsl"});
  }
  if (name == "churn") {
    ChurnSpec spec;
    spec.worlds = smoke ? 1 : 4;
    spec.caches = smoke ? 128 : 1'024;
    spec.documents = 2'000;
    spec.rate_per_cache_per_s = 1.0;
    spec.duration_ms = smoke ? 8'000.0 : 20'000.0;
    spec.churn_caches = smoke ? 4 : 16;
    return std::make_unique<ChurnWorkload>(options, spec);
  }
  if (name == "live") return std::make_unique<LiveWorkload>(options);
  return nullptr;
}

int run_member(std::uint16_t port) {
  live::MemberOptions options;
  options.port = port;
  try {
    return live::MemberProcess(options).run();
  } catch (const std::exception& e) {
    std::cerr << "perfbench member: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace perfbench
