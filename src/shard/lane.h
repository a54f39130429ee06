// ShardLane — one shard's event state and its window loop.
//
// A lane owns the shard's lazy request stream and its min-heap of
// in-flight completions, and executes them in canonical order up to a cut.
// The in-process driver keeps one lane per shard (shard::ShardedSimulator);
// a live member process is one shard and keeps one lane
// (live::MemberProcess).
//
// The stream is peeked, never popped, until an arrival executes: its
// request is generated (and its per-cache RNG draws consumed) at that
// moment, never before. The source's generator state therefore always sits
// exactly at the executed prefix, which is what lets a reshard
// re-partition the stream mid-run without replaying anything.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "shard/exchange.h"
#include "shard/schedule.h"
#include "sim/engine.h"
#include "workload/stream.h"

namespace ecgf::shard {

/// Events one window executed.
struct WindowCount {
  std::uint64_t executed = 0;  ///< arrivals + completions
  std::uint64_t arrivals = 0;
};

class ShardLane {
 public:
  explicit ShardLane(std::unique_ptr<workload::RequestSource> source)
      : source_(std::move(source)) {}

  /// Earliest pending event time; +inf when drained.
  double earliest() const;

  /// Execute every event `cut` covers, in canonical order, buffering
  /// effects into `sink`. Completions win ties with arrivals
  /// (kCompletion sorts before kArrival). Touches only lane-private state
  /// plus the engine's shard-local groups, so distinct lanes may run
  /// concurrently.
  WindowCount run_window(const Cut& cut, sim::ShardableEngine& engine,
                         ShardSink& sink);

  /// In-flight completions, in no particular order (for re-homing).
  const std::vector<sim::Completion>& completions() const {
    return completions_;
  }
  /// Adopt an in-flight completion re-homed from another lane.
  void add_completion(const sim::Completion& c);

 private:
  std::unique_ptr<workload::RequestSource> source_;
  std::vector<sim::Completion> completions_;  ///< min-heap (std::*_heap)
};

}  // namespace ecgf::shard
