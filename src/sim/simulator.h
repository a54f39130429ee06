// The SEQUENTIAL driver of the cooperative edge cache simulation.
//
// Drives the caches from a request log and the origin server from an
// update log (paper §5). Requests resolve through the cooperative-miss
// protocol (local → group beacon/holder → origin); updates propagate as
// push invalidations to every registered holder. Document insertion happens
// at request *completion* time, so in-flight fetches genuinely interleave.
//
// There is one event loop: this driver is the one-shard, one-thread case
// of shard::ShardedSimulator. Every event that touches shared state
// (updates, failures, churn, control ticks, summary refreshes) runs as a
// barrier between windows of one shard::ShardLane, and a sharded run at
// any shard count produces the same bytes (docs/scaling.md). It stays a
// distinct type so callers can tell the sequential driver from a sharded
// one.
#pragma once

#include <utility>

#include "cache/catalog.h"
#include "net/rtt_provider.h"
#include "shard/sharded_sim.h"
#include "sim/config.h"
#include "workload/trace.h"

namespace ecgf::sim {

class Simulator final : public shard::ShardedSimulator {
 public:
  /// `rtt` must cover hosts 0..N (caches + origin); `server` is the origin's
  /// host id (normally N). `groups` in `config` must partition [0, N).
  Simulator(const cache::Catalog& catalog, const net::RttProvider& rtt,
            net::HostId server, SimulationConfig config)
      : shard::ShardedSimulator(catalog, rtt, server, std::move(config),
                                shard::ShardOptions{1, 0.0, 1}) {}
};

/// Convenience wrapper: build a simulator, run the trace, return the report.
inline SimulationReport run_simulation(const cache::Catalog& catalog,
                                       const net::RttProvider& rtt,
                                       net::HostId server,
                                       SimulationConfig config,
                                       const workload::Trace& trace) {
  Simulator sim(catalog, rtt, server, std::move(config));
  return sim.run(trace);
}

}  // namespace ecgf::sim
