// EpochSchedule — the conservative-PDES cut schedule shared by the
// in-process sharded driver (shard::ShardedSimulator) and the live
// coordinator (live::Coordinator).
//
// Both drivers pin whole formed groups to a shard (or member process) and
// advance time in synchronisation cuts. This class owns every decision
// about WHERE the next cut falls; the drivers own only how a cut's windows
// execute (pool workers vs. kWindow frames) and how barriers apply.
//
//   * Barriers: every event that couples shards — failures, membership
//     churn, origin updates, control ticks (only with a control hook),
//     summary refreshes (only under DirectoryMode::kSummary) — sorted once
//     in canonical (time, EventClass, key) order (sim::EventClass).
//   * Cut rule: the next barrier when it falls within one epoch of the
//     earliest pending event, else that epoch target, else the inclusive
//     final drain at the horizon.
//   * Width: seeded from the minimum cross-shard RTT over active caches
//     (CMB lookahead, clamped to [kFloorMs, kCapMs]) at every (re)shard,
//     then widened after pure epoch cuts that exchanged few effects and
//     narrowed after ones that overshot (docs/scaling.md). A fixed width
//     never adapts. One CrossShardLookahead per run answers every
//     (re)shard, so a reshard walks a short list instead of scanning
//     every cache pair.
//
// Output bytes never depend on the width (group-aligned barriers carry all
// cross-shard influence), and every decision depends only on simulated
// content, so the schedule is identical at any thread or member count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "shard/plan.h"
#include "sim/config.h"
#include "sim/engine.h"
#include "sim/event_queue.h"
#include "workload/trace.h"

namespace ecgf::shard {

/// A coordinator-executed event that synchronises all shards.
struct Barrier {
  double time_ms = 0.0;
  sim::EventClass klass = sim::EventClass::kFailure;
  std::uint64_t key = 0;   ///< canonical tie-break key
  std::size_t index = 0;   ///< index into its source list (failures, …)
};

/// One synchronisation cut.
struct Cut {
  enum class Kind : std::uint8_t { kEpoch, kBarrier, kFinal };
  double time_ms = 0.0;
  Kind kind = Kind::kEpoch;

  /// Windows run events strictly before time_ms, and at time_ms too for
  /// the final drain.
  bool inclusive() const { return kind == Kind::kFinal; }
  /// Whether an event at `t` belongs to this cut's window.
  bool covers(double t) const {
    return inclusive() ? t <= time_ms : t < time_ms;
  }
};

class EpochSchedule {
 public:
  /// Clamp range of a derived width: the floor guards degenerate
  /// (near-zero) cross-shard RTTs, the cap bounds effect-buffer memory.
  static constexpr double kFloorMs = 1.0;
  static constexpr double kCapMs = 1'000.0;
  /// After a pure epoch cut the width quadruples when nothing was
  /// exchanged, doubles below this many effects, and halves above four
  /// times it — always within [initial width, kCapMs].
  static constexpr std::size_t kEffectBatchTarget = 8192;
  /// Drain allowance past the workload's duration.
  static constexpr double kDrainMs = 60'000.0;

  /// Builds the barrier list. `fixed_epoch_ms` > 0 pins the width (no
  /// derivation, no adaptation); 0 derives it in reset_width().
  EpochSchedule(const sim::SimulationConfig& config,
                const std::vector<workload::Update>& updates,
                double duration_ms, double fixed_epoch_ms = 0.0);

  /// Start a new width for a (re)shard: the minimum cross-shard RTT over
  /// the engine's non-down caches under `plan`, clamped (+inf, i.e. one
  /// loaded shard, takes the cap). A fixed width is kept as is. The first
  /// derivation of a schedule reads every cache pair once; later ones walk
  /// the kept closest pairs (CrossShardLookahead), so `engine` must be the
  /// same at every call.
  void reset_width(const ShardPlan& plan, const sim::ShardableEngine& engine);

  /// The next cut, given the earliest pending shard event (+inf when
  /// every shard is drained).
  Cut next_cut(double earliest_ms) const;

  /// Commit `cut` once its windows ran and its `exchanged` effects were
  /// merged: advances the clock, adapts the width after a pure epoch cut,
  /// and returns the barriers due at a barrier cut (empty otherwise).
  std::span<const Barrier> commit(const Cut& cut, std::size_t exchanged);

  const std::vector<Barrier>& barriers() const { return barriers_; }
  double horizon_ms() const { return horizon_ms_; }
  /// Width currently in force.
  double width_ms() const { return width_ms_; }
  /// Width the last reset_width() started from.
  double initial_ms() const { return initial_ms_; }

 private:
  std::vector<Barrier> barriers_;
  std::size_t next_barrier_ = 0;
  double horizon_ms_;
  double fixed_ms_;
  double width_ms_ = 0.0;
  double initial_ms_ = 0.0;
  double now_ms_ = 0.0;
  CrossShardLookahead lookahead_;
};

}  // namespace ecgf::shard
