// Time-varying RTT ground truth — the "network conditions change" half of
// the online-maintenance story (ROADMAP: group maintenance under drift).
//
// The paper forms groups from a one-shot RTT snapshot; a deployed CDN sees
// routes re-converge, peering change, and congestion migrate, which slowly
// invalidates the snapshot. DriftingRttProvider models that as STRUCTURAL
// drift: the matrix blends from its base toward a permuted view of itself,
//
//   rtt'(a, b) = (1 - w(t)) · base(a, b) + w(t) · base(π(a), π(b)),
//
// where π cyclically rotates a drift_fraction subset of the caches (the
// origin server never moves) and w(t) ramps linearly from 0 to max_weight
// over [ramp_start_ms, ramp_end_ms]. At w = 1 the drifted caches have
// exactly swapped proximity neighbourhoods — a grouping formed at t = 0 is
// genuinely wrong, not merely noisy, so maintenance that re-probes and
// re-forms has something real to win. Additive jitter would not do this:
// it perturbs magnitudes but preserves who-is-near-whom.
//
// Time source: the provider is built unbound (w = 0, pure base matrix, so
// formation at t = 0 is unaffected), then bind_clock() points it at the
// driver's clock (shard::ShardedSimulator::clock_ptr()). Reads are pure
// lookups + one blend — no RNG, no state — so determinism and
// thread-safety match MatrixRttProvider's.
#pragma once

#include <vector>

#include "net/distance_matrix.h"
#include "net/rtt_provider.h"
#include "util/rng.h"

namespace ecgf::net {

struct DriftOptions {
  /// Fraction of the caches whose proximity structure migrates (the rest,
  /// and the origin server, keep their base rows). At least 2 caches must
  /// be selected for the permutation to move anything; below that π stays
  /// the identity and the provider degenerates to the base matrix.
  double drift_fraction = 0.5;
  /// w(t) = 0 up to here (formation happens in this window).
  double ramp_start_ms = 0.0;
  /// w(t) = max_weight from here on; linear in between. Must be strictly
  /// greater than ramp_start_ms.
  double ramp_end_ms = 1.0;
  /// Blend ceiling in [0, 1]: 1 = fully permuted at the end of the ramp.
  double max_weight = 1.0;
};

/// RttProvider whose ground truth drifts over (simulated) time. See the
/// file comment for the model; docs/control_plane.md for how the control
/// plane consumes it.
class DriftingRttProvider final : public RttProvider {
 public:
  /// `rng` draws only the drifting subset (one sample_indices call), so
  /// two providers built from equal (base, options, rng state) are
  /// identical. The last host (host_count - 1) is the origin server and
  /// is never selected.
  DriftingRttProvider(DistanceMatrix base, const DriftOptions& options,
                      util::Rng& rng);

  /// Bind the drift ramp to a clock (e.g. the simulator's current time in
  /// ms). Non-owning; `now_ms` must outlive the provider or be unbound
  /// with nullptr. Unbound, the provider reads t = 0.
  void bind_clock(const double* now_ms) { now_ms_ = now_ms; }

  std::size_t host_count() const override { return base_.size(); }
  double rtt_ms(HostId a, HostId b) const override;
  /// Pure function of (a, b, t): no clock read, safe from any thread.
  double rtt_ms_at(HostId a, HostId b, double t_ms) const override;

  /// Current blend weight w(t) in [0, max_weight].
  double weight_now() const;
  /// Blend weight at an explicit time (pure).
  double weight_at(double t_ms) const;
  /// Where host h's proximity structure is migrating to (π(h); h itself
  /// when h is not in the drifting subset).
  HostId permuted(HostId h) const { return perm_[h]; }
  /// The caches selected to drift, ascending.
  const std::vector<HostId>& drifting_caches() const { return drifting_; }

 private:
  DistanceMatrix base_;
  std::vector<HostId> perm_;      ///< π, identity outside the drift subset
  std::vector<HostId> drifting_;  ///< selected caches, ascending
  DriftOptions options_;
  const double* now_ms_ = nullptr;
};

}  // namespace ecgf::net
