#include "shard/schedule.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/profile.h"
#include "util/expect.h"

namespace ecgf::shard {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Periodic barriers at interval, 2·interval, … up to the horizon.
/// Iterative accumulation, not k·interval: reproduces the event-chain
/// float arithmetic of a self-rescheduling tick exactly.
void add_periodic(std::vector<Barrier>& out, sim::EventClass klass,
                  double interval_ms, double duration_ms, double horizon_ms) {
  if (!(interval_ms > 0.0)) return;
  double t = interval_ms;
  std::uint64_t k = 0;
  while (t <= horizon_ms) {
    out.push_back(Barrier{t, klass, k, static_cast<std::size_t>(k)});
    const double next = t + interval_ms;
    if (next > duration_ms) break;
    t = next;
    ++k;
  }
}

}  // namespace

EpochSchedule::EpochSchedule(const sim::SimulationConfig& config,
                             const std::vector<workload::Update>& updates,
                             double duration_ms, double fixed_epoch_ms)
    : horizon_ms_(duration_ms + kDrainMs), fixed_ms_(fixed_epoch_ms) {
  ECGF_EXPECTS(fixed_epoch_ms >= 0.0);
  for (std::size_t f = 0; f < config.failures.size(); ++f) {
    barriers_.push_back(Barrier{config.failures[f].time_ms,
                                sim::EventClass::kFailure, f, f});
  }
  for (std::size_t m = 0; m < config.membership_events.size(); ++m) {
    barriers_.push_back(Barrier{config.membership_events[m].time_ms,
                                sim::EventClass::kMembership, m, m});
  }
  for (std::size_t u = 0; u < updates.size(); ++u) {
    barriers_.push_back(
        Barrier{updates[u].time_ms, sim::EventClass::kUpdate, u, u});
  }
  if (config.control_hook != nullptr) {
    add_periodic(barriers_, sim::EventClass::kControlTick,
                 config.control_interval_ms, duration_ms, horizon_ms_);
  }
  if (config.directory == sim::DirectoryMode::kSummary) {
    add_periodic(barriers_, sim::EventClass::kSummaryRefresh,
                 config.summary.refresh_interval_ms, duration_ms,
                 horizon_ms_);
  }
  std::sort(barriers_.begin(), barriers_.end(),
            [](const Barrier& a, const Barrier& b) {
              if (a.time_ms != b.time_ms) return a.time_ms < b.time_ms;
              if (a.klass != b.klass) return a.klass < b.klass;
              return a.key < b.key;
            });
}

void EpochSchedule::reset_width(const ShardPlan& plan,
                                const sim::ShardableEngine& engine) {
  if (fixed_ms_ > 0.0) {
    width_ms_ = fixed_ms_;
  } else {
    // Down and departed caches generate no cross-shard influence, so they
    // must not drag the width to a floor the live traffic never justifies.
    // The derived value is a starting point, not a ceiling: adaptation
    // widens from here.
    ECGF_PROF_SCOPE("shard.lookahead");
    double lookahead = lookahead_.min_rtt_ms(
        plan, engine.rtt(), engine.cache_count(),
        [&engine](cache::CacheIndex c) { return !engine.is_down(c); });
    if (!std::isfinite(lookahead)) lookahead = kCapMs;
    width_ms_ = std::clamp(lookahead, kFloorMs, kCapMs);
  }
  initial_ms_ = width_ms_;
}

Cut EpochSchedule::next_cut(double earliest_ms) const {
  // Null-message rule, group-aligned: no shard can be influenced before
  // the next barrier, so the cut may jump to the earliest pending event
  // plus one epoch (bounding effect-buffer growth), or straight to the
  // barrier.
  const double epoch_target =
      earliest_ms == kInf ? kInf : std::max(now_ms_, earliest_ms) + width_ms_;
  if (next_barrier_ < barriers_.size() &&
      barriers_[next_barrier_].time_ms <= epoch_target) {
    return Cut{barriers_[next_barrier_].time_ms, Cut::Kind::kBarrier};
  }
  if (epoch_target <= horizon_ms_) return Cut{epoch_target, Cut::Kind::kEpoch};
  return Cut{horizon_ms_, Cut::Kind::kFinal};
}

std::span<const Barrier> EpochSchedule::commit(const Cut& cut,
                                               std::size_t exchanged) {
  now_ms_ = cut.time_ms;
  if (cut.kind == Cut::Kind::kEpoch && fixed_ms_ == 0.0) {
    if (exchanged == 0) {
      width_ms_ = std::min(width_ms_ * 4.0, kCapMs);
    } else if (exchanged < kEffectBatchTarget) {
      width_ms_ = std::min(width_ms_ * 2.0, kCapMs);
    } else if (exchanged > 4 * kEffectBatchTarget) {
      width_ms_ = std::max(width_ms_ / 2.0, initial_ms_);
    }
  }
  if (cut.kind != Cut::Kind::kBarrier) return {};
  const std::size_t first = next_barrier_;
  while (next_barrier_ < barriers_.size() &&
         barriers_[next_barrier_].time_ms == cut.time_ms) {
    ++next_barrier_;
  }
  return std::span<const Barrier>(barriers_).subspan(first,
                                                     next_barrier_ - first);
}

}  // namespace ecgf::shard
