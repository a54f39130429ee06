// Discrete event core: a time-ordered queue of closures. Ties are broken
// by an explicit ordering key when the caller provides one, otherwise by
// insertion sequence, so simulation runs are fully deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/expect.h"

namespace ecgf::sim {

using SimTime = double;  ///< milliseconds since simulation start

/// Canonical ordering classes for simulation events. Two events due at the
/// same instant execute in ascending (klass, key) order; the classes below
/// define the engine-wide total order. shard::EpochSchedule sorts its
/// barriers by it and shard::ShardLane breaks completion/arrival ties by
/// it, which is what makes a run bit-identical at any shard count
/// (docs/scaling.md). The queue below follows it for its remaining users:
/// the frozen reference loop the driver tests compare against, and the
/// message-level engine.
///
/// kDefault sorts after every canonical class and falls back to insertion
/// order, preserving the historical (time, seq) FIFO contract for callers
/// that never pass a key (the message-level engine, tests).
enum class EventClass : std::uint8_t {
  kFailure = 0,         ///< scripted crash; key = index in config.failures
  kMembership = 1,      ///< leave/join; key = index in membership_events
  kUpdate = 2,          ///< origin update; key = update index in the trace
  kSummaryRefresh = 3,  ///< summary rebuild round; key = round number
  kControlTick = 4,     ///< control-plane tick; key = tick number
  kCompletion = 5,      ///< request completion; key = request index
  kArrival = 6,         ///< request arrival; key = request index
  kDefault = 255,       ///< unkeyed schedule(); ties break by insertion seq
};

/// Min-heap of (time, klass, key, seq, action). Actions may schedule
/// further events.
class EventQueue {
 public:
  using Action = std::function<void(SimTime)>;

  /// Schedule `action` at absolute time `at_ms` (must not be in the past
  /// relative to the event currently executing). Ties at equal time break
  /// by insertion sequence (FIFO).
  void schedule(SimTime at_ms, Action action) {
    schedule(at_ms, EventClass::kDefault, 0, std::move(action));
  }

  /// Keyed variant: ties at equal time break by (klass, key) before the
  /// insertion sequence. (klass, key) pairs are expected to be unique per
  /// event within a run; the trailing seq only matters for kDefault.
  void schedule(SimTime at_ms, EventClass klass, std::uint64_t key,
                Action action);

  /// Run until the queue drains or `until_ms` is passed. Events scheduled
  /// exactly at `until_ms` still run. Returns the number executed.
  std::size_t run(SimTime until_ms);

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }
  SimTime now() const { return now_; }
  /// Stable pointer to the clock, for collaborators that track simulated
  /// time across calls (e.g. net::DriftingRttProvider::bind_clock).
  const SimTime* now_ptr() const { return &now_; }

 private:
  struct Entry {
    SimTime time;
    EventClass klass;
    std::uint64_t key;
    std::uint64_t seq;
    Action action;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.klass != b.klass) return a.klass > b.klass;
      if (a.key != b.key) return a.key > b.key;
      return a.seq > b.seq;
    }
  };

  /// Binary min-heap maintained with std::push_heap/std::pop_heap over a
  /// plain vector (not std::priority_queue, whose top() is const-only and
  /// would force a const_cast to move the action out — UB-adjacent).
  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
  SimTime now_ = 0.0;
};

}  // namespace ecgf::sim
