// live::MemberProcess — one OS process serving as one shard of a live
// cache-group run.
//
// A member connects to the coordinator, registers, rebuilds the whole
// deterministic world from the RunSpec in the kStart frame, then serves
// the coordinator's directives:
//
//   * kProbe       — answer RTT measurements for the caches it owns
//   * kFormation   — adopt the formed partition; build its engine replica
//                    and its workload stream slice (its shard)
//   * kQualify     — member 0 only: run the SocketExchange transport check
//   * kWindow      — execute its shard's events up to the cut and ship the
//                    buffered effects back (shard::ShardLane, the window
//                    loop of the in-process sharded driver)
//   * kBarrier     — apply one shared-state event on its LOCAL replica so
//                    origin versions / down flags / departures stay in
//                    sync with every other process
//   * kFlush/kStop — final counters, clean shutdown
//
// Every member holds a FULL ShardableEngine replica (not just its own
// groups' state): barrier events are cheap and global, while window
// events — the hot path — run only for owned groups. Replicating beats
// serialising engine state, and it is exactly how the in-process sharded
// driver works (shards share one engine; processes can't, so each carries
// a copy and the barriers keep the copies identical).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "live/runspec.h"
#include "live/sock.h"
#include "live/wire.h"
#include "shard/exchange.h"
#include "shard/lane.h"
#include "sim/engine.h"
#include "workload/stream.h"

namespace ecgf::live {

struct MemberOptions {
  /// Coordinator's loopback port.
  std::uint16_t port = 0;
  /// Deadline for the initial connect (the coordinator may still be
  /// binding when the member launches).
  double connect_timeout_ms = 15'000.0;
  /// Per-frame receive deadline during the run.
  double io_timeout_ms = 60'000.0;
  /// Fault injection for the member-kill test: close the connection after
  /// this many kWindow frames (0 = never). The coordinator must degrade
  /// via the graceful-leave path, not hang.
  std::uint64_t abort_after_windows = 0;
};

class MemberProcess {
 public:
  explicit MemberProcess(MemberOptions options) : options_(options) {}

  /// Drive the member to completion. Returns 0 on a clean kStop, 9 after
  /// an injected abort. Throws LiveError / WireError / SockError on
  /// protocol or transport failure.
  int run();

  std::uint32_t member_id() const { return member_id_; }
  std::uint64_t windows_run() const { return windows_run_; }

 private:
  /// Serving loop after formation; returns the process exit code.
  int serve(Socket& sock);
  BarrierAck apply_barrier(const BarrierMsg& b);
  /// Transport qualification (member 0): the same mini message-level run
  /// through DirectExchange and through SocketExchange mirroring onto
  /// `sock`; replies kQualifyAck{ok, frames, messages, bytes}.
  void qualify(Socket& sock);

  MemberOptions options_;
  std::uint32_t member_id_ = 0;
  std::uint32_t member_count_ = 0;
  std::uint64_t windows_run_ = 0;
  RunSpec spec_;
  std::optional<World> world_;
  std::unique_ptr<sim::ShardableEngine> engine_;
  std::optional<shard::ShardLane> lane_;  ///< this member's shard
  shard::ShardSink sink_;
};

}  // namespace ecgf::live
