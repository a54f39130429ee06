// Control-plane hook: the seam between the discrete-event simulator and
// the online group-maintenance logic in src/ctl.
//
// The simulator owns the event queue and the group state; the control
// plane owns the policy. ControlHook is how the two meet without a sim →
// ctl dependency: the simulator calls OUT through this interface (live
// RTT observations, membership churn, periodic control ticks) and the
// hook calls BACK IN through the GroupHost's maintenance surface
// (apply_groups()). ctl::MaintenanceSession is the real implementation;
// tests stub it.
//
// GroupHost is the narrow view of a simulation the control plane needs:
// shard::ShardedSimulator (and so its one-shard case, sim::Simulator)
// implements it, so one MaintenanceSession drives any shard count
// unchanged.
//
// Determinism: every callback fires from the event-queue thread at a
// deterministic point in the event order, and the hook must not introduce
// nondeterminism of its own (see docs/control_plane.md).
#pragma once

#include <cstdint>
#include <vector>

#include "cache/directory.h"
#include "net/rtt_provider.h"

namespace ecgf::sim {

/// Scripted membership churn: a cache gracefully departs (kLeave) or
/// rejoins (kJoin) at a given simulation time. Distinct from
/// SimulationConfig::CacheFailure — a crash is permanent and abrupt
/// (registrations purged, no announcement); a leave is clean (same purge,
/// but the control plane is told) and reversible by a later join.
struct MembershipChange {
  enum class Kind : std::uint8_t { kLeave, kJoin };
  Kind kind = Kind::kLeave;
  cache::CacheIndex cache = 0;
  double time_ms = 0.0;
};

/// The maintenance surface a simulation exposes to its ControlHook: group
/// state queries plus the one actuator (apply_groups). Implemented by
/// sim::Simulator and shard::ShardedSimulator.
class GroupHost {
 public:
  virtual ~GroupHost() = default;

  /// Number of edge caches (cache indices are [0, cache_count())).
  virtual std::size_t cache_count() const = 0;

  /// True if `cache` has left (MembershipChange::kLeave) and not rejoined.
  virtual bool is_departed(cache::CacheIndex cache) const = 0;

  /// Current partition of [0, cache_count()) into groups.
  virtual const std::vector<std::vector<cache::CacheIndex>>& groups()
      const = 0;

  /// Replace the group partition mid-run (re-registers resident documents
  /// with the new beacons). The partition must cover the non-departed
  /// caches exactly once.
  virtual void apply_groups(
      const std::vector<std::vector<cache::CacheIndex>>& groups) = 0;
};

/// Observer + actuator interface for online group maintenance. All
/// methods have empty defaults so implementations override only what
/// they need. Callbacks run inline from the event loop: keep them
/// deterministic and re-entrancy-free (do not call the host's run()).
class ControlHook {
 public:
  virtual ~ControlHook() = default;

  /// Once, immediately before the first event executes.
  virtual void on_start(GroupHost& /*host*/) {}

  /// A live RTT observation harvested from cooperative-miss traffic
  /// (requester → beacon and requester → holder legs). Free signal: no
  /// probe was spent to learn it.
  virtual void on_rtt_sample(net::HostId /*src*/, net::HostId /*dst*/,
                             double /*rtt_ms*/, double /*time_ms*/) {}

  /// A cache departed (already detached from its directory).
  virtual void on_leave(cache::CacheIndex /*cache*/, double /*time_ms*/) {}

  /// A cache rejoined (already live again, in group `group`).
  virtual void on_join(cache::CacheIndex /*cache*/, std::uint32_t /*group*/,
                       double /*time_ms*/) {}

  /// One control interval elapsed. The hook may probe, update estimates,
  /// and call host.apply_groups() to repartition.
  virtual void on_tick(GroupHost& /*host*/, double /*time_ms*/) {}
};

}  // namespace ecgf::sim
