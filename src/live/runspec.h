// Deterministic world reconstruction from a live::RunSpec.
//
// The live protocol ships ONE compact description of a run (the RunSpec
// in the kStart frame) and every process — coordinator, each member, and
// the sequential oracle — rebuilds the identical world from it: the same
// catalog (same RNG draws in the same order), the same RTT plane, the
// same synthetic workload, the same formation inputs. This is the
// foundation of the determinism contract: if two processes ever disagreed
// on a single RNG draw, the byte-identity oracle would catch it.
#pragma once

#include <memory>
#include <vector>

#include "cache/catalog.h"
#include "live/wire.h"
#include "net/prober.h"
#include "net/rtt_provider.h"
#include "net/synthetic.h"
#include "obs/trace.h"
#include "sim/config.h"
#include "workload/stream.h"

namespace ecgf::live {

/// The deterministic world every process derives from the RunSpec. One
/// master RNG seeds the catalog then the workload IN THAT ORDER, so all
/// processes consume the identical draw sequence.
struct World {
  cache::Catalog catalog;
  net::PlaneRttProvider rtt;
  std::unique_ptr<workload::SyntheticWorkload> workload;

  /// The origin server's host id (the plane pins it to the centre).
  net::HostId server() const {
    return static_cast<net::HostId>(rtt.host_count() - 1);
  }
};

World build_world(const RunSpec& spec);

/// The simulation config shared by the live run and the oracle. `trace`
/// stays default (inactive) — each driver attaches its own context.
sim::SimulationConfig sim_config_for(
    const RunSpec& spec,
    std::vector<std::vector<cache::CacheIndex>> groups);

/// Run the spec's formation scheme (SL / SDSL) against `provider`. All
/// randomness — prober jitter, landmark selection, K-means — runs in the
/// CALLER's process with RNGs derived from the spec seed, so formation
/// over live::WireRttProvider (echoed measurements) and over the local
/// plane produce the same partition.
std::vector<std::vector<cache::CacheIndex>> form_live_groups(
    const RunSpec& spec, const net::RttProvider& provider,
    obs::TraceContext* trace);

/// What the sequential oracle produced for a spec.
struct OracleResult {
  sim::SimulationReport report;
  std::vector<std::vector<cache::CacheIndex>> groups;
};

/// The oracle: build the world, form groups locally, run sim::Simulator.
/// A live run on the same spec must reproduce `report` (and the trace
/// bytes, when `trace` is active) exactly.
OracleResult run_oracle(const RunSpec& spec, obs::TraceContext trace = {});

}  // namespace ecgf::live
