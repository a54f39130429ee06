// live::Coordinator — the control process of a live cache-group run.
//
// Accepts N member connections, hands each the RunSpec, drives probing /
// formation / transport qualification, then runs the conservative-PDES
// schedule of shard::ShardedSimulator (shard::EpochSchedule) with the
// shards living in OTHER PROCESSES: windows go out as kWindow frames,
// members ship back their buffered effects, and the coordinator replays
// the identical k-way merge into its metrics collector and trace stream. Barriers broadcast to
// every member so all engine replicas stay in lock-step.
//
// Determinism contract (docs/live_mode.md): on a fixed RunSpec, run()'s
// SimulationReport and trace bytes equal the sequential oracle's
// (runspec.h run_oracle) bit for bit. A member that dies mid-serving
// degrades the run instead of voiding it: its caches leave gracefully via
// synthetic membership barriers and the survivors finish the horizon —
// byte-identity is no longer promised after a kill, completing without a
// hang is.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "live/runspec.h"
#include "live/sock.h"
#include "live/wire.h"
#include "net/rtt_provider.h"
#include "obs/trace.h"
#include "shard/exchange.h"
#include "shard/schedule.h"
#include "sim/config.h"
#include "sim/engine.h"
#include "sim/metrics.h"

namespace ecgf::live {

/// net::RttProvider whose measurements travel the wire: rtt_ms(a, b) asks
/// the member owning host `a` (round-robin before formation exists) via
/// kProbe/kProbeEcho, then cross-checks the echoed value against the
/// coordinator's own plane — every process derives the identical world,
/// so the bits must match exactly; a mismatch is a determinism failure
/// and throws. Measured pairs are cached, so the formation schemes'
/// repeated probes cost one round trip per (a, b).
class WireRttProvider final : public net::RttProvider {
 public:
  /// Performs one wire measurement of (a, b); the coordinator supplies
  /// the routing (which member, which socket) behind this.
  using ProbeFn = std::function<double(net::HostId, net::HostId)>;

  WireRttProvider(const net::RttProvider& local, ProbeFn probe)
      : local_(local), probe_(std::move(probe)) {
    cache_.assign(local.host_count() * local.host_count(), -1.0);
  }

  std::size_t host_count() const override { return local_.host_count(); }
  double rtt_ms(net::HostId a, net::HostId b) const override;

  /// Probe round trips actually performed (cache misses).
  std::uint64_t probes_sent() const { return probes_sent_; }

 private:
  const net::RttProvider& local_;
  ProbeFn probe_;
  mutable std::vector<double> cache_;  ///< -1 = not yet measured
  mutable std::uint64_t probes_sent_ = 0;
};

struct CoordinatorOptions {
  /// Listening port; 0 binds an ephemeral port (see port()).
  std::uint16_t port = 0;
  /// Member processes to wait for.
  std::uint32_t members = 4;
  /// Deadline for all members to connect and register.
  double accept_timeout_ms = 30'000.0;
  /// Per-frame receive deadline during the run.
  double io_timeout_ms = 60'000.0;
};

struct LiveRunResult {
  sim::SimulationReport report;
  std::vector<std::vector<cache::CacheIndex>> groups;
  std::uint64_t cuts = 0;
  std::uint64_t windows = 0;     ///< member windows dispatched
  std::uint64_t barriers = 0;    ///< barrier events executed
  std::uint64_t probes = 0;      ///< formation probe round trips
  bool qualify_ran = false;
  std::uint64_t qualify_frames = 0;    ///< deliveries mirrored on the wire
  std::uint64_t qualify_messages = 0;  ///< engine messages in the check run
  std::uint32_t members_lost = 0;      ///< died mid-serving
  std::uint64_t synthetic_leaves = 0;  ///< caches departed via the kill path
  std::uint32_t rejected_connections = 0;  ///< bad handshakes turned away
};

/// One coordinator drives one run. The listener binds in the constructor,
/// so callers can publish port() before any member launches.
class Coordinator {
 public:
  /// `trace` receives the serving-phase event stream (same stream the
  /// sequential oracle writes); pass a default context for untraced runs.
  Coordinator(RunSpec spec, CoordinatorOptions options,
              obs::TraceContext trace = {});

  std::uint16_t port() const { return listener_.port(); }

  /// Accept members, run the full protocol, return the merged result.
  /// Throws LiveError on handshake/protocol/determinism failures before
  /// serving starts; member deaths DURING serving degrade gracefully.
  LiveRunResult run();

 private:
  /// Per-member connection state.
  struct Member {
    Socket sock;
    bool alive = false;
    double earliest = 0.0;  ///< head event time from the last kEffects
  };

  void accept_members(LiveRunResult& result);
  /// Run `call`, a step of the protocol with member `m`. A SockError,
  /// WireError or LiveError marks the member dead instead of escaping;
  /// returns whether the call completed.
  template <typename Call>
  bool member_call(std::size_t m, Call&& call);
  /// Send to every alive member; a send failure marks the member dead.
  void broadcast(MsgType type, const std::vector<std::uint8_t>& payload);
  /// Receive one frame from member `m`, requiring type `want`. Maps a
  /// kError frame (and any other type) onto LiveError.
  Frame expect_from(std::size_t m, MsgType want);
  /// Setup phases run with the full quorum: any dead member aborts.
  void require_all_alive(const char* phase) const;
  void run_qualify(LiveRunResult& result);
  void run_windows(const shard::Cut& cut, LiveRunResult& result);
  void execute_barrier(const shard::Barrier& b, LiveRunResult& result);
  /// Map a freshly dead member's caches onto graceful departures at
  /// logical time `t` (synthetic kBarrier broadcasts + local apply).
  void depart_dead_members(double t, LiveRunResult& result);
  double earliest_pending() const;
  void mark_dead(std::size_t m);

  RunSpec spec_;
  CoordinatorOptions options_;
  obs::TraceContext trace_;
  Listener listener_;
  std::optional<World> world_;
  std::vector<Member> members_;
  std::vector<std::size_t> newly_dead_;  ///< died since the last leave pass
  std::unique_ptr<sim::ShardableEngine> engine_;
  std::unique_ptr<sim::MetricsCollector> metrics_;
  std::vector<shard::ShardSink> sinks_;  ///< restore() targets, one per member
  std::optional<shard::ReplaySink> coord_sink_;
  shard::MergeScratch merge_scratch_;
  std::vector<std::size_t> cache_owner_;  ///< cache → member (shard plan)
  std::uint64_t events_executed_ = 0;
  std::uint64_t requests_executed_ = 0;
  std::uint64_t invalidations_total_ = 0;  ///< summed member deltas
};

}  // namespace ecgf::live
